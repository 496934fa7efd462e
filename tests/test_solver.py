import numpy as np
import pytest

from amrfv import eos, riemann, solver
from amrfv.eos import FluidPair
from amrfv.errors import EosError, VacuumError
from amrfv.forest import KEEP, REFINE, Connectivity, new_uniform
from amrfv.solver import SweepConfig

import oracles
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
    return solver._minmod_sigma(f, 0, eos.to_primitive(u))[i]


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
        f, _ = oracles.balance(f)
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
        # the density is checked before Y = rho Y / rho could divide 0 by 0
        with pytest.raises(EosError) as err:
            solver.compute_dt(f, u, SweepConfig(), MILD)
        assert str(err.value) == f"time step at {BAD_LEAF}: non-positive or non-finite density"
        assert err.value.index == 3

    def test_refinement_decreases_dt(self):
        f = new_uniform(conn2d(), level=2, b=3)
        u = make_field(f, MILD, lambda x: np.full(len(x), 0.5))
        cfg = SweepConfig()
        dt0 = solver.compute_dt(f, u, cfg, MILD)
        f2, lmap = f.adapt(np.array([REFINE] + [KEEP] * (f.nleaves - 1), dtype=np.int8))
        u2 = lmap.project(u)
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

    def test_an_infinite_flux_reaches_the_ends_of_its_rows_only(self):
        # a finite, admissible pair of states whose momentum fluxes rho u^2 + p
        # sum past the largest double gives an infinite flux: leaf 0, of the
        # heavier fluid, at 7.3e153 m/s like every leaf, makes +inf on each x
        # row it ends.  A row's other end gets +inf on its low side or -inf on
        # its high side, not NaN, though it has fewer faces than some cells
        f = new_uniform(conn2d(), level=2, b=4)
        f, _ = f.adapt(np.where(np.arange(f.nleaves) == 5, REFINE, KEEP))
        alpha = np.full(f.nleaves, 0.5)
        alpha[0] = 1e-9
        vel = np.zeros((f.nleaves, 2))
        vel[:, 0] = np.sqrt(0.8e308 / 1.5)
        u = eos.state_from_pressure_alpha(1e5, alpha, vel, MILD)
        fl = f.face_list(0)
        mine = (fl.lo == 0) ^ (fl.hi == 0)
        assert np.all(np.isfinite(u)) and any(len(rows) for rows in fl.more)
        with np.errstate(over="ignore"):
            F = flux(u[fl.lo[mine]], u[fl.hi[mine]], MILD)
        np.testing.assert_array_equal(F[:, 2], np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            out = solver.sweep(f, u, 0, 1e-160, SweepConfig(order=1), MILD)
        above, below = fl.hi[mine & (fl.lo == 0)], fl.lo[mine & (fl.hi == 0)]
        assert len(above) and len(below)
        np.testing.assert_array_equal(out[above, 2], np.inf)
        np.testing.assert_array_equal(out[below, 2], -np.inf)
        assert np.isnan(out[0, 2])  # inf in, inf out
        rest = np.setdiff1d(np.arange(1, f.nleaves), np.concatenate([above, below]))
        assert np.all(np.isfinite(out[rest])) and np.all(np.isfinite(out[:, :2]))

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
        phi_wl = flux(oracles.wall_image(WL), WL, SHOCK)
        phi_wr = flux(WR, oracles.wall_image(WR), SHOCK)
        expected0 = WL - dt * (phi - phi_wl)
        expected1 = WR - dt * (phi_wr - phi)
        np.testing.assert_allclose(out[0], expected0, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(out[1], expected1, rtol=1e-14, atol=1e-14)

    def test_order2_walls_flux_the_wall_side_face_states(self):
        # three cells between two walls, across x and then across y: each
        # wall row fluxes its cell's face state on the wall side against that
        # state's wall image, which negates the momentum of the sweep axis
        for axis in (0, 1):
            n = 2 + axis
            trees, periodic = ((3, 1), (False, True)) if axis == 0 else ((1, 3), (True, False))
            f = new_uniform(Connectivity(2, trees, periodic, 1.0), level=0, b=0)
            u = np.stack([
                eos.state_from_pressure_alpha(p, a, np.array((v, 0.05) if axis == 0 else (0.05, v)), SHOCK)
                for p, a, v in ((12.0, 0.7, 0.1), (11.0, 0.5, 0.3), (10.0, 0.3, 0.2))
            ])
            dt = 1e-2
            out = solver.sweep(f, u, axis, dt, SweepConfig(order=2), SHOCK)
            sigma = oracles.minmod_sigma_columns(f, axis, eos.to_primitive(u), f.dx)
            # u_n has a slope in both wall cells, so their two face states differ
            assert sigma[0, n] > 0 > sigma[2, n]
            low, high, fallback = oracles.muscl_predict_columns(u, sigma, f.dx, dt, SHOCK, normal=n)
            assert not fallback.any()
            phi = [flux(oracles.wall_image(low[0], n), low[0], SHOCK, n)]
            phi += [flux(high[i], low[i + 1], SHOCK, n) for i in range(2)]
            phi.append(flux(high[2], oracles.wall_image(high[2], n), SHOCK, n))
            for i in range(3):
                np.testing.assert_allclose(out[i], u[i] - dt * (phi[i + 1] - phi[i]), rtol=1e-14, atol=1e-14)

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
        # streams, and the first low wall row (the tail, after the 4 head
        # rows) names its cell
        vel[:, 0] = -50.0
        u = eos.state_from_pressure_alpha(10.0, np.full(f.nleaves, 0.5), vel, SHOCK)
        with pytest.raises(VacuumError) as err:
            solver.sweep(f, u, 0, 1e-3, SweepConfig(order=1), SHOCK)
        assert str(err.value).startswith("sweep on axis 0, face row 4 at leaf 0 (level 1, centre (0.25, 0.25)): ")

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_flux_call_covers_the_walls(self, monkeypatch, order):
        # wall rows are face rows: one flux call takes them with the others
        f = multi_level_forest(periodic=(False, False))
        u = make_field(f, MILD, lambda x: 0.2 + 0.6 * x[:, 0], u=(0.3, -0.2))
        batches = []
        real = riemann.suliciu_flux

        def counted(WL, *args, **kwargs):
            batches.append(len(WL))
            return real(WL, *args, **kwargs)

        monkeypatch.setattr(riemann, "suliciu_flux", counted)
        for axis in (0, 1):
            batches.clear()
            solver.sweep(f, u, axis, 1e-4, SweepConfig(order=order), MILD)
            fl = f.face_list(axis)
            assert batches == [len(fl.lo)]
            assert len(fl.wall_lo) > 0 and len(fl.wall_hi) > 0

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_density_names_the_axis_and_leaf(self, order):
        f, u = one_bad_leaf(0.0)
        with pytest.raises(EosError) as err:
            solver.sweep(f, u, 1, 1e-6, SweepConfig(order=order), MILD)
        assert str(err.value) == f"sweep on axis 1 at {BAD_LEAF}: non-positive or non-finite density"
        assert err.value.index == 3


class TestErrorsInLaterBlocks:
    """With blocks of 2 or 3 cells, an error in a later block names the global leaf or row."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_density_names_the_leaf(self, monkeypatch, order):
        # 7 leaves in blocks [0, 2), [2, 4), [4, 7): leaf 3 is cell 1 of the second
        monkeypatch.setattr(solver, "_BLOCK", 3)
        f, u = one_bad_leaf(0.0)
        with pytest.raises(EosError) as err:
            solver.sweep(f, u, 1, 1e-6, SweepConfig(order=order), MILD)
        assert str(err.value) == f"sweep on axis 1 at {BAD_LEAF}: non-positive or non-finite density"
        assert err.value.index == 3
        with pytest.raises(EosError) as err:
            solver.compute_dt(f, u, SweepConfig(), MILD)
        assert str(err.value) == f"time step at {BAD_LEAF}: non-positive or non-finite density"
        assert err.value.index == 3

    def test_closure_failure_names_the_leaf(self, monkeypatch):
        # a block's face states share one closure call, left faces first: a
        # failure at the right face state of its cell 1 is row m + 1
        monkeypatch.setattr(solver, "_BLOCK", 3)
        f, u = one_bad_leaf(0.0)
        u[3] = u[2]
        real = eos._pressure_and_speed
        calls = []

        def fail_in_the_second_block(rho, Y, fp, *out):
            calls.append(np.size(rho))
            if len(calls) == 2:
                raise EosError("injected", index=np.size(rho) // 2 + 1)
            return real(rho, Y, fp, *out)

        monkeypatch.setattr(eos, "_pressure_and_speed", fail_in_the_second_block)
        with pytest.raises(EosError) as err:
            solver.sweep(f, u, 1, 1e-6, SweepConfig(order=2), MILD)
        assert calls == [4, 4]
        assert err.value.index == 3
        assert str(err.value) == f"sweep on axis 1 at {BAD_LEAF}: injected"

    def test_vacuum_error_names_the_global_row(self, monkeypatch):
        # 4 leaves in blocks [0, 2) and [2, 4); on axis 0, block 0 has head
        # rows 0-1 and tail row 4 (leaf 0's low wall), block 1 head rows 2-3
        # and tail row 5 (leaf 2's low wall)
        monkeypatch.setattr(solver, "_BLOCK", 2)
        f = new_uniform(conn2d(periodic=(False, False)), level=1, b=1)
        assert f.face_list(0).blocks(2)[1][2][:2] == (2, 4)
        vel = np.zeros((f.nleaves, 2))
        # leaves 2 and 3 collide on head row 2
        vel[2:, 0] = 50.0, -50.0
        u = eos.state_from_pressure_alpha(10.0, np.full(f.nleaves, 0.5), vel, SHOCK)
        with pytest.raises(VacuumError) as err:
            solver.sweep(f, u, 0, 1e-3, SweepConfig(order=1), SHOCK)
        assert err.value.row == 2
        labels = "leaf 2 (level 1, centre (0.25, 0.75)) and leaf 3 (level 1, centre (0.75, 0.75))"
        assert str(err.value).startswith(f"sweep on axis 0, face row 2 at {labels}: ")
        # leaf 2 alone rushes into its low wall, tail row 5
        vel[2:, 0] = -50.0, 0.0
        u = eos.state_from_pressure_alpha(10.0, np.full(f.nleaves, 0.5), vel, SHOCK)
        with pytest.raises(VacuumError) as err:
            solver.sweep(f, u, 0, 1e-3, SweepConfig(order=1), SHOCK)
        assert err.value.row == 5
        assert str(err.value).startswith("sweep on axis 0, face row 5 at leaf 2 (level 1, centre (0.25, 0.75)): ")


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
        f, _ = oracles.balance(f)
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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_special_slopes_match_the_column_oracle(self, dim):
        # primitive values of +-0, +-inf, NaN, subnormals and small normals
        # make face slopes of every such kind; the selection by fmax, fmin
        # and += 0.0 equals the oracle's sign masks bit for bit
        rng = np.random.default_rng(40 + dim)
        conn = Connectivity(dim, (2,) + (1,) * (dim - 1), (False,) + (True,) * (dim - 1), 1.0)
        f = new_uniform(conn, level=1, b=3)
        for _ in range(2):
            f, _ = oracles.balance(f.refine(rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8))[0])
        pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 3e-310, -7e-310, 1e-300, -2e-300])
        V = pool[rng.integers(0, len(pool), (f.nleaves, dim + 2))]
        # and columns where every slope is subnormal, of one sign or mixed
        V[:, 0] = rng.integers(1, 6, f.nleaves) * 1e-310
        V[:, 1] = rng.permutation(f.nleaves) * 5e-324
        sigmas = []
        for axis in range(dim):
            with np.errstate(all="ignore"):
                sigmas.append(solver._minmod_sigma(f, axis, V))
                want = oracles.minmod_sigma_columns(f, axis, V, f.dx)
            np.testing.assert_array_equal(sigmas[-1].view(np.int64), want.view(np.int64))
        got = np.concatenate(sigmas)
        assert (got > 0).any() and (got < 0).any() and (got == 0).any()
        assert ((got != 0) & (np.abs(got) < np.finfo(float).tiny)).any()
        assert not np.signbit(got[got == 0]).any()


def test_inadmissible_matches_the_per_element_oracle():
    # a side is inadmissible where rho <= 0, rho Y <= 0 or rho Y >= rho; a
    # NaN fails no comparison, so it alone marks nothing
    special = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, 0.5, -1.0, 1e-300]
    pairs = np.array([(r, ry) for r in special for ry in special + [r]])
    rng = np.random.default_rng(5)
    n = 3 * len(pairs)
    C = rng.uniform(-0.2, 1.2, (4, 2, n))
    sides = rng.permutation(2 * n)[: 2 * len(pairs)]
    C[:2].reshape(2, -1)[:, sides] = np.concatenate([pairs, pairs]).T
    expected = [
        any(r <= 0 or ry <= 0 or ry >= r for r, ry in zip(C[0, :, i].tolist(), C[1, :, i].tolist())) for i in range(n)
    ]
    out = np.zeros(n, dtype=bool)
    assert solver._inadmissible(C, out, solver._Arena()) is out
    assert out.tolist() == expected


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_strang_sweeps_the_last_axis_once_at_full_dt(self, dim):
        # a state that varies only along the last axis and is at rest across
        # it: Strang's half sweeps of the other axes change nothing, so its
        # one full-dt sweep of the last axis gives Lie's bits and one 1D step
        # of dt, where two steps of dt/2 would differ
        fp = SHOCK
        n, axis = 32, dim - 1
        conn = Connectivity(dim, (1,) * axis + (n,), (True,) * dim, 1.0 / n)
        f = new_uniform(conn, level=0, b=0)
        x = f.centers[:, axis]
        inside = (x > 0.25) & (x < 0.75)
        u = eos.state_from_pressure_alpha(np.where(inside, 14.0, 10.0), np.where(inside, 0.7, 0.3), np.zeros(dim), fp)
        dx = 1.0 / n
        dt = 0.25 * dx
        W = u[:, [0, 1, 2 + axis]]
        phi = flux(W, np.roll(W, -1, axis=0), fp)
        one_step = W - dt / dx * (phi - np.roll(phi, 1, axis=0))

        strang, _ = solver.step(f, u, SweepConfig(order=1, splitting="strang"), fp, dt=dt)
        lie, _ = solver.step(f, u, SweepConfig(order=1, splitting="lie"), fp, dt=dt)
        np.testing.assert_array_equal(strang, lie)
        np.testing.assert_allclose(strang[:, [0, 1, 2 + axis]], one_step, rtol=1e-13, atol=1e-13)

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
            ("strang", 2, "xgygx"),
            ("strang", 3, "xgyzygx"),
        ],
    )
    def test_splitting_sequence(self, monkeypatch, splitting, dim, sequence, g):
        # Lie sweeps dt and then takes both gravity half-steps; Strang sweeps
        # the last axis once at dt between dt/2 sweeps of the others, with a
        # half-step after the first sweep and one before the last; without
        # gravity the half-steps drop out
        calls = []
        monkeypatch.setattr(solver, "sweep", lambda f, u, axis, dt, *a, **k: calls.append(("xyz"[axis], dt)) or u)
        monkeypatch.setattr(solver, "gravity_op", lambda u, dt, g, out=None: calls.append(("g", dt)) or u)
        f = new_uniform(Connectivity(dim, (1,) * dim, (True,) * dim), level=1, b=1)
        solver.step(f, np.zeros((f.nleaves, 2 + dim)), SweepConfig(gravity=g, splitting=splitting), MILD, dt=1.0)
        # at full dt: gravity, every Lie sweep and Strang's sweep of the last axis
        full = "gxyz" if splitting == "lie" else "g" + "xyz"[dim - 1]
        expected = [(op, 1.0 if op in full else 0.5) for op in sequence if g or op != "g"]
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
        "dim, order, calls, states",
        [(2, 2, 3 * 2 + 1, 3 * 4 + 1), (3, 2, 5 * 2 + 1, 5 * 4 + 1), (2, 1, 3 + 1, 3 + 1)],
        ids=["2d-o2", "3d-o2", "2d-o1"],
    )
    def test_one_closure_per_face_state(self, monkeypatch, dim, order, calls, states):
        # one closure for dt, then per Strang sweep: order 1 solves the cell
        # states once; order 2 solves both predicted face states (their
        # pressures for the half step) in one call and both corrected ones
        # (p and c together) in another, so each face state is solved once
        closure = eos._closure
        count = []

        def counted(rho, *args):
            count.append(np.size(rho))
            return closure(rho, *args)

        monkeypatch.setattr(eos, "_closure", counted)
        f, _ = new_uniform(Connectivity(dim, (1,) * dim, (True,) * dim), level=1, b=3).refine(
            np.array([REFINE] + [KEEP] * (2**dim - 1), dtype=np.int8)
        )
        alpha = 0.2 + 0.6 * np.random.default_rng(3).random(f.nleaves)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.full(dim, 0.3), MILD)
        solver.step(f, u, SweepConfig(order=order, splitting="strang"), MILD)
        assert len(count) == calls
        assert sum(count) == states * f.nleaves

    @pytest.mark.parametrize(
        "dim, order, checks", [(2, 2, 3 * 3 + 1), (3, 2, 5 * 3 + 1), (2, 1, 3 + 1)], ids=["2d-o2", "3d-o2", "2d-o1"]
    )
    def test_each_density_checked_once(self, monkeypatch, dim, order, checks):
        # one check for dt, then per Strang sweep: order 1 checks the cell
        # densities once; order 2 checks them in to_primitive, the predicted
        # face states' in mixture_pressure and the corrected ones' once more
        check = eos._check_density
        count = []

        def counted(rho):
            count.append(np.size(rho))
            return check(rho)

        monkeypatch.setattr(eos, "_check_density", counted)
        f, _ = new_uniform(Connectivity(dim, (1,) * dim, (True,) * dim), level=1, b=3).refine(
            np.array([REFINE] + [KEEP] * (2**dim - 1), dtype=np.int8)
        )
        alpha = 0.2 + 0.6 * np.random.default_rng(3).random(f.nleaves)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.full(dim, 0.3), MILD)
        solver.step(f, u, SweepConfig(order=order, splitting="strang"), MILD)
        assert len(count) == checks

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
        f, _ = oracles.balance(f)
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

    def test_zero_density_names_the_leaf(self):
        f, u = one_bad_leaf(0.0)
        with pytest.raises(EosError) as err:
            solver.total_entropy(f, u, MILD)
        assert str(err.value) == f"non-positive or non-finite density at {BAD_LEAF}"
