import numpy as np
import pytest

from amrfv import eos, solver
from amrfv.eos import FluidPair
from amrfv.errors import EosError, VacuumError
from amrfv.forest import KEEP, REFINE, Connectivity, new_uniform
from amrfv.solver import SweepConfig

from test_forest import oracle_neighbors
from test_riemann import flux

UNIT = FluidPair(p1_0=1.0, rho1_0=1.0, c1=1.0, p2_0=1.0, rho2_0=1.0, c2=1.0)
MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)
SHOCK = FluidPair(p1_0=10.0, rho1_0=1.0, c1=2.0, p2_0=10.0, rho2_0=1.0, c2=2.0)


def conn2d(trees=(1, 1), periodic=(True, True), extent=1.0):
    return Connectivity(2, tuple(trees), tuple(periodic), extent)


def make_field(f, fp, alpha_fn, p=1e5, u=(0.0, 0.0)):
    alpha = alpha_fn(f.centers)
    return eos.state_from_pressure_alpha(p, alpha, np.asarray(u, dtype=float), fp)


def slope_x(f, u, i):
    """Limited x slope of leaf i's primitive variables, as the sweep takes it."""
    return solver._minmod_sigma(f, 0, eos.to_primitive(u), f.dx)[i]


def one_bad_leaf(bad):
    """Two-level walled forest at rest with state row 3 replaced by ``bad``.

    Leaf 3 is the third child of the refined leaf 1: level 2, centre (0.625, 0.375).
    """
    f = new_uniform(conn2d(periodic=(False, True)), level=1, b=3)
    f, _ = f.refine(np.array([KEEP, REFINE, KEEP, KEEP], dtype=np.int8))
    u = make_field(f, MILD, lambda x: np.full(len(x), 0.5))
    u[3] = bad
    return f, u


BAD_LEAF = "leaf 3 (level 2, centre (0.625, 0.375))"


def multi_level_forest(periodic=(True, True), b=4, seed=2):
    rng = np.random.default_rng(seed)
    f = new_uniform(conn2d(periodic=periodic), level=2, b=b)
    for _ in range(2):
        marks = rng.choice([KEEP, REFINE], p=[0.7, 0.3], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = f.balance()
    return f


class TestComputeDt:
    def test_uniform_rest_formula(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=0, b=0)
        u = eos.state_from_pressure_alpha(1.0, 0.5, np.zeros(2), UNIT)[None, :]
        cfg = SweepConfig(order=1, cfl=0.5)
        dt = solver.compute_dt(f, u, cfg, UNIT)
        assert dt == pytest.approx(0.5 / 1.05, rel=1e-13)

    def test_nan_momentum_names_the_leaf(self):
        f, u = one_bad_leaf(np.nan)
        u[3, :2] = u[2, :2]
        with pytest.raises(ArithmeticError, match=r"^non-finite or non-positive time step at ") as err:
            solver.compute_dt(f, u, SweepConfig(), MILD)
        assert str(err.value).endswith(BAD_LEAF)

    def test_zero_density_names_the_leaf(self):
        f, u = one_bad_leaf(0.0)
        # Y = rho Y / rho is 0/0 before the closure sees the density
        with np.errstate(invalid="ignore"), pytest.raises(EosError) as err:
            solver.compute_dt(f, u, SweepConfig(), MILD)
        assert str(err.value) == f"time step at {BAD_LEAF}: non-positive or non-finite density"
        assert err.value.index == 3

    def test_refinement_decreases_dt(self):
        f = new_uniform(conn2d(), level=2, b=3)
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.5))
        cfg = SweepConfig()
        dt0 = solver.compute_dt(f, u, cfg, MILD)
        f2, rmap = f.refine(np.array([REFINE] + [KEEP] * (f.nleaves - 1), dtype=np.int8))
        f2, rmap2 = f2.balance()
        u2 = rmap.compose(rmap2).project(u)
        dt1 = solver.compute_dt(f2, u2, cfg, MILD)
        assert dt1 < dt0

    def test_matches_bruteforce_min_loop(self):
        f = multi_level_forest()
        rng = np.random.default_rng(0)
        alpha = lambda x: 0.2 + 0.6 * rng.random(len(x))  # noqa: E731
        u = make_field(f, MILD, alpha, u=(0.7, -0.4))
        cfg = SweepConfig(cfl=0.8)
        dt = solver.compute_dt(f, u, cfg, MILD)
        # brute force over leaves and their face neighbors
        rho = u[:, 0]
        Y = u[:, 1] / rho
        c = eos.wood_sound_speed(rho, Y, MILD)
        imp = rho * c
        best = np.inf
        nbrs = oracle_neighbors(f)
        for i in range(f.nleaves):
            a_i = imp[i]
            for axis in range(2):
                for side in (0, 1):
                    a_i = max([a_i] + [imp[j] for j in nbrs[i, axis, side]])
            speed = max(abs(u[i, 2]), abs(u[i, 3])) / rho[i] + MILD.theta * a_i / rho[i]
            best = min(best, f.dx[i] / speed)
        assert dt == pytest.approx(0.8 * best, rel=1e-13)


class TestSweep:
    def test_free_stream_uniform_mesh(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=3, b=3)
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.3), u=(1.0, 0.5))
        cfg = SweepConfig(order=1)
        out = solver.sweep(f, u, 0, 1e-3, cfg, MILD)
        np.testing.assert_array_equal(out, u)

    @pytest.mark.parametrize("order", [1, 2])
    def test_free_stream_multilevel_bitwise(self, order):
        f = multi_level_forest()
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.4), u=(0.8, -0.3))
        cfg = SweepConfig(order=order)
        w = u
        for axis in (0, 1, 0, 1):
            w = solver.sweep(f, w, axis, 2e-4, cfg, MILD)
        np.testing.assert_array_equal(w, u)

    def test_free_stream_with_walls(self):
        f = multi_level_forest(periodic=(False, False))
        # walls demand zero normal velocity for an exact free stream
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.4), u=(0.0, 0.0))
        cfg = SweepConfig(order=2)
        w = solver.sweep(f, u, 0, 2e-4, cfg, MILD)
        w = solver.sweep(f, w, 1, 2e-4, cfg, MILD)
        np.testing.assert_array_equal(w, u)

    def test_two_cell_hand_assembled_update(self):
        conn = Connectivity(2, (2, 1), (False, True), 1.0)
        f = new_uniform(conn, level=0, b=0)
        WL = eos.state_from_pressure_alpha(12.0, 0.7, np.array([0.2, 0.0]), SHOCK)
        WR = eos.state_from_pressure_alpha(10.0, 0.3, np.array([-0.1, 0.0]), SHOCK)
        u = np.stack([WL, WR])
        dt = 1e-2
        out = solver.sweep(f, u, 0, dt, SweepConfig(order=1), SHOCK)
        phi = flux(WL, WR, SHOCK)
        phi_wl = flux(solver._wall_mirror(WL), WL, SHOCK)
        phi_wr = flux(WR, solver._wall_mirror(WR), SHOCK)
        expected0 = WL - dt * (phi - phi_wl)
        expected1 = WR - dt * (phi_wr - phi)
        np.testing.assert_allclose(out[0], expected0, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(out[1], expected1, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_periodic_conservation_per_sweep(self, order):
        f = multi_level_forest()
        rng = np.random.default_rng(7)
        alpha = 0.2 + 0.6 * rng.random(f.nleaves)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.array([0.5, -0.2]), MILD)
        cfg = SweepConfig(order=order)
        dt = 0.5 * solver.compute_dt(f, u, cfg, MILD)
        mass0 = np.sum(f.volumes * u[:, 0])
        y0 = np.sum(f.volumes * u[:, 1])
        out = solver.sweep(f, u, 0, dt, cfg, MILD)
        mass1 = np.sum(f.volumes * out[:, 0])
        y1 = np.sum(f.volumes * out[:, 1])
        assert abs(mass1 - mass0) / mass0 < 1e-13
        assert abs(y1 - y0) / abs(y0) < 1e-13

    def test_vacuum_error_names_the_face(self):
        # cells left of x = 0.5 rush right and cells right of it rush left:
        # the faces on x = 0.5 overrun the relaxation bound
        f = new_uniform(conn2d(periodic=(False, False)), level=1, b=1)
        x = f.centers[:, 0]
        vel = np.zeros((f.nleaves, 2))
        vel[:, 0] = np.where(x < 0.5, 50.0, -50.0)
        u = eos.state_from_pressure_alpha(10.0, np.full(f.nleaves, 0.5), vel, SHOCK)
        with pytest.raises(VacuumError) as err:
            solver.sweep(f, u, 0, 1e-3, SweepConfig(order=1), SHOCK)
        msg = str(err.value)
        assert msg.startswith("sweep on axis 0, face row 0 at ")
        assert "leaf 0 (level 1, centre (0.25, 0.25)) and leaf 1 (level 1, centre (0.75, 0.25))" in msg
        assert "non-positive star density" in msg
        # a uniform rush into the low wall: the interior rows are free
        # streams, and the first wall row (after the 2 interior ones) names its cell
        vel[:, 0] = -50.0
        u = eos.state_from_pressure_alpha(10.0, np.full(f.nleaves, 0.5), vel, SHOCK)
        with pytest.raises(VacuumError) as err:
            solver.sweep(f, u, 0, 1e-3, SweepConfig(order=1), SHOCK)
        assert str(err.value).startswith("sweep on axis 0, face row 2 at leaf 0 (level 1, centre (0.25, 0.25)): ")


    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_density_names_the_axis_and_leaf(self, order):
        f, u = one_bad_leaf(0.0)
        with np.errstate(invalid="ignore"), pytest.raises(EosError) as err:
            solver.sweep(f, u, 1, 1e-6, SweepConfig(order=order), MILD)
        assert str(err.value) == f"sweep on axis 1 at {BAD_LEAF}: non-positive or non-finite density"
        assert err.value.index == 3


class TestSlopes:
    def test_linear_field_exact_gradient(self):
        f = new_uniform(conn2d(periodic=(False, True)), level=3, b=3)
        # m1 linear in x at fixed rho: identical fluids keep rho constant
        fp = SHOCK
        grad = 0.25
        alpha = 0.3 + grad * f.centers[:, 0]
        u = eos.state_from_pressure_alpha(10.0, alpha, np.zeros(2), fp)
        interior = np.flatnonzero((f.coords[:, 0] > 0) & (f.coords[:, 0] + f.sizes < 8))
        rho = u[0, 0]
        for i in interior[:5]:
            sig = slope_x(f, u, int(i))
            assert sig[0] == pytest.approx(rho * grad, rel=1e-10)
            assert sig[1] == pytest.approx(-rho * grad, rel=1e-10)
            assert sig[2:] == pytest.approx(0.0, abs=1e-12)

    def test_extremum_gives_zero(self):
        f = new_uniform(conn2d(), level=2, b=2)
        fp = SHOCK
        x = f.centers[:, 0]
        alpha = 0.5 - (x - 0.5) ** 2
        u = eos.state_from_pressure_alpha(10.0, alpha, np.zeros(2), fp)
        mid = int(np.flatnonzero((f.coords[:, 0] == 1) & (f.coords[:, 1] == 0))[0])
        # neighbors straddle the parabola peak: signs disagree
        sig = slope_x(f, u, mid)
        assert sig[0] == 0.0

    def test_wall_ghost_slope_at_mirrored_distance(self):
        # near a wall the ghost is the mirror state one cell-width away:
        # only the normal velocity sees a slope, -2*u_n/dx from the wall side
        f = new_uniform(conn2d(periodic=(False, True)), level=2, b=2)
        fp = SHOCK
        ux = 0.3
        u = eos.state_from_pressure_alpha(
            10.0, np.full(f.nleaves, 0.5), np.array([ux, 0.0]), fp
        )
        i = int(np.flatnonzero(f.coords[:, 0] == 0)[0])  # touches the -x wall
        sig = slope_x(f, u, int(i))
        dx = float(f.dx[i])
        # interior slope is 0 (uniform u), wall slope is (u - (-u))/dx > 0;
        # signs disagree, so minmod must return 0 for the normal velocity
        assert sig[2] == 0.0
        # reversing the flow puts the wall slope on the other sign; still 0
        u2 = u.copy()
        u2[:, 2] *= -1
        assert slope_x(f, u2, int(i))[2] == 0.0
        # a wall-consistent linear profile keeps its interior slope: u_n
        # growing away from the wall agrees in sign with the mirror slope
        x = f.centers[:, 0]
        u3 = eos.state_from_pressure_alpha(10.0, np.full(f.nleaves, 0.5), np.zeros(2), fp)
        u3[:, 2] = u3[:, 0] * 0.5 * x
        sig3 = slope_x(f, u3, int(i))
        # wall slope = (u - (-u))/dx = 2*(0.5*x_i)/dx; interior = 0.5
        expected = min(0.5, 2 * 0.5 * float(x[i]) / dx)
        assert sig3[2] == pytest.approx(expected, rel=1e-12)

    def test_hanging_face_minmod_matches_bruteforce(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f, _ = f.refine(np.array([KEEP, REFINE, KEEP, KEEP], dtype=np.int8))
        f, _ = f.balance()
        fp = SHOCK
        rng = np.random.default_rng(3)
        alpha = 0.2 + 0.6 * rng.random(f.nleaves)
        u = eos.state_from_pressure_alpha(10.0, alpha, np.zeros(2), fp)
        V = eos.to_primitive(u)
        i = int(np.flatnonzero((f.coords[:, 0] == 0) & (f.coords[:, 1] == 0))[0])
        slopes = []
        nbrs = oracle_neighbors(f)
        for side in (0, 1):
            sgn = 1.0 if side == 1 else -1.0
            for j in nbrs[i, 0, side]:
                slopes.append(sgn * (V[j] - V[i]) / (0.5 * (f.dx[i] + f.dx[j])))
        slopes = np.array(slopes)
        expected = np.zeros(V.shape[1])
        for k in range(V.shape[1]):
            col = slopes[:, k]
            if np.all(col > 0):
                expected[k] = col.min()
            elif np.all(col < 0):
                expected[k] = col.max()
        got = slope_x(f, u, i)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


class TestMusclPredict:
    def test_zero_slope_identity(self):
        W = eos.state_from_pressure_alpha(1e5, 0.4, np.array([1.0, 2.0]), MILD)
        WfL, WfR, fb = solver.muscl_predict(W, np.zeros(4), 0.1, 1e-3, MILD)
        np.testing.assert_allclose(WfL[0], W, rtol=1e-14)
        np.testing.assert_allclose(WfR[0], W, rtol=1e-14)
        assert not fb[0]

    def test_linear_Y_advection_closed_form(self):
        # identical fluids: rho constant, m1 linear; prediction is the exact
        # half-step upwind value for the passively advected fraction
        fp = SHOCK
        ux, p = 0.4, 10.0
        dx, dt = 0.125, 0.05
        s_m1 = 0.8  # d(m1)/dx
        W = eos.state_from_pressure_alpha(p, 0.5, np.array([ux, 0.0]), fp)
        rho = fp.rho1_0 + (p - fp.p1_0) / fp.c1**2  # both fluids obey this law
        sigma = np.array([s_m1, -s_m1, 0.0, 0.0])
        WfL, WfR, fb = solver.muscl_predict(W, sigma, dx, dt, fp)
        assert not fb[0]
        m1 = W[1]
        expected_R = m1 + s_m1 * dx / 2 - ux * s_m1 * dt / 2
        expected_L = m1 - s_m1 * dx / 2 - ux * s_m1 * dt / 2
        assert WfR[0, 1] == pytest.approx(expected_R, rel=1e-12)
        assert WfL[0, 1] == pytest.approx(expected_L, rel=1e-12)
        # velocity and pressure untouched by a contact-only slope
        assert WfR[0, 2] / WfR[0, 0] == pytest.approx(ux, rel=1e-12)
        assert WfR[0, 0] == pytest.approx(rho, rel=1e-12)

    def test_positivity_of_reconstruction(self):
        rng = np.random.default_rng(9)
        fp = MILD
        n = 200
        alpha = rng.uniform(0.01, 0.99, n)
        W = eos.state_from_pressure_alpha(1e5, alpha, np.array([0.3, 0.1]), fp)
        V = eos.to_primitive(W)
        # slopes bounded by neighbor differences keep m1, m2 nonnegative
        sigma = rng.uniform(-1, 1, V.shape) * np.abs(V) * 0.5
        dx = np.full(n, 0.1)
        WfL, WfR, fb = solver.muscl_predict(W, sigma / 0.1, dx, 1e-4, fp)
        ok = ~fb
        assert np.all(WfL[ok, 1] >= 0)
        assert np.all(WfR[ok, 1] >= 0)
        assert np.all(WfL[ok, 0] - WfL[ok, 1] >= 0)


class TestGravity:
    def test_zero_g_identity(self):
        u = np.ones((5, 4))
        np.testing.assert_array_equal(solver.gravity_op(u, 0.2, 0.0), u)

    def test_half_step_formula(self):
        u = np.zeros((1, 4))
        u[0, 0] = 1.0
        out = solver.gravity_op(u, 0.2, 9.81)
        assert out[0, 3] == pytest.approx(-0.981)
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0

    def test_mass_fraction_untouched(self):
        rng = np.random.default_rng(4)
        u = rng.random((10, 5)) + 1.0
        out = solver.gravity_op(u, 0.1, 5.0)
        np.testing.assert_array_equal(out[:, :2], u[:, :2])
        np.testing.assert_array_equal(out[:, 4], u[:, 4])


class TestStep:
    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_uniform_state_unchanged(self, splitting, order):
        f = multi_level_forest()
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.25), u=(0.6, 0.2))
        cfg = SweepConfig(order=order, splitting=splitting)
        out, dt = solver.step(f, u, cfg, MILD)
        np.testing.assert_array_equal(out, u)

    def test_1d_aligned_matches_1d_reference(self):
        fp = SHOCK
        n = 32
        conn = Connectivity(2, (n, 1), (True, True), 1.0 / n)
        f = new_uniform(conn, level=0, b=0)
        x = f.centers[:, 0]
        alpha = np.where((x > 0.25) & (x < 0.75), 0.7, 0.3)
        u2d = eos.state_from_pressure_alpha(np.where((x > 0.25) & (x < 0.75), 14.0, 10.0), alpha, np.array([0.0, 0.0]), fp)
        dx = 1.0 / n
        dt = 0.25 * dx  # well under CFL for c=2

        def oracle(W1d, steps, step_dt):
            W = W1d.copy()
            for _ in range(steps):
                phi = flux(W, np.roll(W, -1, axis=0), fp)
                W = W - step_dt / dx * (phi - np.roll(phi, 1, axis=0))
            return W

        W1d = u2d[:, :3]  # drop the passive y momentum (zero)

        lie, _ = solver.step(f, u2d, SweepConfig(order=1, splitting="lie"), fp, dt=dt)
        np.testing.assert_allclose(lie[:, :3], oracle(W1d, 1, dt), rtol=1e-13, atol=1e-13)

        strang, _ = solver.step(f, u2d, SweepConfig(order=1, splitting="strang"), fp, dt=dt)
        np.testing.assert_allclose(strang[:, :3], oracle(W1d, 2, dt / 2), rtol=1e-13, atol=1e-13)

    def test_contact_transport_keeps_u_p(self):
        fp = MILD
        f = new_uniform(conn2d(periodic=(True, True)), level=4, b=4)
        x = f.centers[:, 0]
        alpha = 0.5 + 0.4 * np.sin(2 * np.pi * x)
        ux = 1.0
        u = eos.state_from_pressure_alpha(1e5, alpha, np.array([ux, 0.0]), fp)
        cfg = SweepConfig(order=2, splitting="strang", cfl=0.8)
        t = 0.0
        for _ in range(50):
            u, dt = solver.step(f, u, cfg, fp)
            t += dt
        rho = u[:, 0]
        p = eos.mixture_pressure(rho, u[:, 1] / rho, fp)
        np.testing.assert_allclose(p, 1e5, rtol=1e-9)
        np.testing.assert_allclose(u[:, 2] / rho, ux, rtol=1e-9)
        np.testing.assert_allclose(u[:, 3] / rho, 0.0, atol=1e-9)
        # the profile really moved
        alpha_now = eos.solve_alpha(rho, u[:, 1] / rho, fp)
        assert np.max(np.abs(alpha_now - alpha)) > 0.05

    def test_strang_gravity_sequence_2d(self):
        # one step with zero velocity and uniform state: sweeps are identity,
        # two half-kicks add up to -rho*g*dt on the vertical momentum
        f = new_uniform(conn2d(periodic=(True, True)), level=2, b=2)
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.5))
        g, dt = 9.81, 1e-4
        cfg = SweepConfig(order=1, splitting="strang", gravity=g)
        out, _ = solver.step(f, u, cfg, MILD, dt=dt)
        np.testing.assert_allclose(out[:, 3], u[:, 3] - u[:, 0] * g * dt, rtol=1e-10)

    @pytest.mark.parametrize("g", [0.0, 9.81])
    @pytest.mark.parametrize(
        "splitting,dim,sequence",
        [
            ("lie", 2, "xygg"),
            ("lie", 3, "xyzgg"),
            ("strang", 2, "xgyygx"),
            ("strang", 3, "xgyzzygx"),
        ],
    )
    def test_splitting_sequence(self, monkeypatch, splitting, dim, sequence, g):
        # Lie sweeps dt and then takes both gravity half-steps; Strang sweeps
        # dt/2 palindromically with a half-step after the first sweep and one
        # before the last; without gravity the half-steps drop out
        calls = []
        monkeypatch.setattr(solver, "sweep", lambda f, u, axis, dt, *a, **k: calls.append(("xyz"[axis], dt)) or u)
        monkeypatch.setattr(solver, "gravity_op", lambda u, dt, g: calls.append(("g", dt)) or u)
        f = new_uniform(Connectivity(dim, (1,) * dim, (True,) * dim), level=1, b=1)
        solver.step(f, np.zeros((f.nleaves, 2 + dim)), SweepConfig(gravity=g, splitting=splitting), MILD, dt=1.0)
        sweep_dt = 1.0 if splitting == "lie" else 0.5
        expected = [(op, 1.0 if op == "g" else sweep_dt) for op in sequence if g or op != "g"]
        assert calls == expected

    @pytest.mark.parametrize("axis", [1, 2])
    def test_3d_rotation_orientation(self, axis):
        # advect a slab along y (or z) and check it moves the right way,
        # which pins down the momentum permutation of the rotation matrices
        fp = SHOCK
        conn = Connectivity(3, (1, 1, 1), (True, True, True), 1.0)
        f = new_uniform(conn, level=3, b=3)
        x = f.centers[:, axis]
        alpha = np.where((x > 0.25) & (x < 0.625), 0.8, 0.2)
        vel = np.zeros(3)
        vel[axis] = 1.0
        u = eos.state_from_pressure_alpha(10.0, alpha, vel, fp)
        cfg = SweepConfig(order=1, splitting="lie", cfl=0.9)
        t = 0.0
        while t < 0.25:
            u, dt = solver.step(f, u, cfg, fp)
            t += dt
        a_now = eos.solve_alpha(u[:, 0], u[:, 1] / u[:, 0], fp)
        shifted = ((x - t) % 1.0 > 0.25) & ((x - t) % 1.0 < 0.625)
        exact = np.where(shifted, 0.8, 0.2)
        stale = np.where((x > 0.25) & (x < 0.625), 0.8, 0.2)
        err_moved = np.abs(a_now - exact).mean()
        err_stale = np.abs(a_now - stale).mean()
        assert err_moved < 0.5 * err_stale

    @pytest.mark.parametrize(
        "dim, order, calls", [(2, 2, 4 * 4 + 1), (3, 2, 6 * 4 + 1), (2, 1, 4 + 1)], ids=["2d-o2", "3d-o2", "2d-o1"]
    )
    def test_one_closure_per_face_state(self, monkeypatch, dim, order, calls):
        # one closure for dt, then per Strang sweep: order 1 solves the cell
        # states once; order 2 the two predicted face states (their pressures
        # for the half step) and the two corrected ones (p and c together)
        closure = eos._closure
        count = []

        def counted(*args):
            count.append(1)
            return closure(*args)

        monkeypatch.setattr(eos, "_closure", counted)
        f, _ = new_uniform(Connectivity(dim, (1,) * dim, (True,) * dim), level=1, b=3).refine(
            np.array([REFINE] + [KEEP] * (2**dim - 1), dtype=np.int8)
        )
        alpha = 0.2 + 0.6 * np.random.default_rng(3).random(f.nleaves)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.full(dim, 0.3), MILD)
        solver.step(f, u, SweepConfig(order=order, splitting="strang"), MILD)
        assert len(count) == calls

    def test_muscl_fallback_triggers_and_logs(self, caplog):
        import logging

        fp = SHOCK
        W = eos.state_from_pressure_alpha(10.0, 0.5, np.array([1.0, 0.0]), fp)
        V = eos.to_primitive(W)
        # a slope steep enough to exhaust m1 on the left face
        sigma = np.array([4.0 * V[0], 0.0, 0.0, 0.0])
        with caplog.at_level(logging.DEBUG, logger="amrfv.solver"):
            WfL, WfR, fb = solver.muscl_predict(W, sigma, 1.0, 1e-3, fp)
        assert fb[0]
        np.testing.assert_array_equal(WfL[0], W)
        np.testing.assert_array_equal(WfR[0], W)
        assert any("fallback" in r.message for r in caplog.records)

    def test_3d_free_stream_and_conservation(self):
        conn = Connectivity(3, (1, 1, 1), (True, True, True), 1.0)
        f = new_uniform(conn, level=1, b=2)
        f, _ = f.refine(np.array([REFINE] + [KEEP] * 7, dtype=np.int8))
        f, _ = f.balance()
        u = eos.state_from_pressure_alpha(
            1e5, np.full(f.nleaves, 0.3), np.array([0.4, -0.2, 0.1]), MILD
        )
        cfg = SweepConfig(order=2, splitting="strang")
        out, dt = solver.step(f, u, cfg, MILD)
        np.testing.assert_array_equal(out, u)
        # now a varying field: conservation across a full step
        rng = np.random.default_rng(2)
        alpha = 0.2 + 0.6 * rng.random(f.nleaves)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.array([0.4, -0.2, 0.1]), MILD)
        out, dt = solver.step(f, u, cfg, MILD)
        for k in (0, 1):
            tot0 = np.sum(f.volumes * u[:, k])
            tot1 = np.sum(f.volumes * out[:, k])
            assert abs(tot1 - tot0) / abs(tot0) < 1e-12


class TestEntropy:
    def test_total_entropy_decreases_on_shock_tube(self):
        fp = SHOCK
        n = 64
        conn = Connectivity(2, (n, 1), (True, True), 1.0 / n)
        f = new_uniform(conn, level=0, b=0)
        x = f.centers[:, 0]
        inside = (x > 0.25) & (x < 0.75)
        u = eos.state_from_pressure_alpha(
            np.where(inside, 20.0, 10.0), np.where(inside, 0.6, 0.4), np.array([0.0, 0.0]), fp
        )
        cfg = SweepConfig(order=1, splitting="lie", cfl=0.9)
        s_prev = solver.total_entropy(f, u, fp)
        for _ in range(25):
            u, _ = solver.step(f, u, cfg, fp)
            s = solver.total_entropy(f, u, fp)
            assert s <= s_prev + 1e-10
            s_prev = s
