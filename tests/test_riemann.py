import numpy as np
import pytest

from amrfv import eos, riemann
from amrfv.eos import FluidPair
from amrfv.errors import VacuumError

MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)
SHOCK = FluidPair(p1_0=10.0, rho1_0=1.0, c1=2.0, p2_0=10.0, rho2_0=1.0, c2=2.0)
AIR_WATER = FluidPair(p1_0=1e5, rho1_0=1.0, c1=340.0, p2_0=1e5, rho2_0=1e3, c2=1500.0)


def state(p, alpha, u, fp):
    return eos.state_from_pressure_alpha(p, alpha, np.asarray(u, dtype=float), fp)


def pressure(W, fp):
    return eos.mixture_pressure(W[..., 0], W[..., 1] / W[..., 0], fp)


def speed(W, fp):
    return eos.wood_sound_speed(W[..., 0], W[..., 1] / W[..., 0], fp)


def flux(WL, WR, fp, normal=2):
    """Suliciu flux with both states' pressures and Wood speeds evaluated here."""
    pL, pR, cL, cR = pressure(WL, fp), pressure(WR, fp), speed(WL, fp), speed(WR, fp)
    return riemann.suliciu_flux(WL, WR, fp, pL, pR, cL, cR, normal=normal)


class TestRelaxationSpeed:
    def test_equal_states(self):
        W = state(1e5, 0.5, [0.3, 0.0], MILD)
        rho = W[0]
        c = eos.wood_sound_speed(rho, W[1] / rho, MILD)
        assert riemann.relaxation_speed(W, W, MILD, c, c) == pytest.approx(MILD.theta * rho * c)

    def test_symmetric(self):
        WL = state(1e5, 0.2, [1.0, 0.0], MILD)
        WR = state(1.2e5, 0.8, [-1.0, 0.0], MILD)
        cL, cR = speed(WL, MILD), speed(WR, MILD)
        a = riemann.relaxation_speed(WL, WR, MILD, cL, cR)
        assert a == riemann.relaxation_speed(WR, WL, MILD, cR, cL)

    def test_air_water_face_matches_direct_evaluation(self):
        WL = state(1e5, 0.999, [0.0, 0.0], AIR_WATER)
        WR = state(1e5, 0.001, [0.0, 0.0], AIR_WATER)
        cL = eos.wood_sound_speed(WL[0], WL[1] / WL[0], AIR_WATER)
        cR = eos.wood_sound_speed(WR[0], WR[1] / WR[0], AIR_WATER)
        expected = AIR_WATER.theta * max(WL[0] * cL, WR[0] * cR)
        # the sweep passes the speeds of its own closure call per cell
        W = np.stack([WL, WR])
        _, c = eos._pressure_and_speed(W[:, 0], W[:, 1] / W[:, 0], AIR_WATER)
        a = riemann.relaxation_speed(WL, WR, AIR_WATER, c[0], c[1])
        assert a == pytest.approx(expected, rel=1e-13)


class TestSuliciuFlux:
    def test_consistency_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            # stiffened-gas densities stay positive only near the reference p
            W = state(
                float(rng.uniform(1e5 - 4, 1e5 + 4)),
                float(rng.uniform(0.05, 0.95)),
                rng.uniform(-2, 2, size=2),
                MILD,
            )
            expected = riemann.physical_flux(W, pressure(W, MILD))
            np.testing.assert_array_equal(flux(W, W, MILD), expected)

    def test_consistency_3d(self):
        W = state(1e5, 0.4, [0.5, -1.0, 2.0], MILD)
        np.testing.assert_array_equal(
            flux(W, W, MILD), riemann.physical_flux(W, pressure(W, MILD))
        )

    def test_isolated_contact_is_pure_upwinding(self):
        u, p = 0.7, 1e5
        WL = state(p, 0.9, [u, 0.0], MILD)
        WR = state(p, 0.1, [u, 0.0], MILD)
        phi = flux(WL, WR, MILD)
        FL = riemann.physical_flux(WL, pressure(WL, MILD))
        FR = riemann.physical_flux(WR, pressure(WR, MILD))
        expected = 0.5 * (FL + FR - abs(u) * (WR - WL))
        np.testing.assert_allclose(phi, expected, rtol=1e-12, atol=1e-12)
        # upwind from the left for u > 0
        np.testing.assert_allclose(phi, FL, rtol=1e-9, atol=1e-9)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(5)
        WL = np.stack([state(1e5, a, [u, 0.0], MILD) for a, u in zip(rng.uniform(0.1, 0.9, 8), rng.uniform(-1, 1, 8))])
        WR = np.stack([state(1.3e5, a, [u, 0.0], MILD) for a, u in zip(rng.uniform(0.1, 0.9, 8), rng.uniform(-1, 1, 8))])
        batch = flux(WL, WR, MILD)
        for i in range(8):
            np.testing.assert_allclose(batch[i], flux(WL[i], WR[i], MILD), rtol=1e-14)

    def test_vacuum_error(self):
        # strongly converging ultrasonic states overrun the relaxation bound
        WL = state(10.0, 0.5, [50.0, 0.0], SHOCK)
        WR = state(10.0, 0.5, [-50.0, 0.0], SHOCK)
        with pytest.raises(VacuumError):
            flux(WL, WR, SHOCK)


@pytest.mark.parametrize("dim, normal", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
class TestNormalRow:
    """A kernel told the normal row gives the bits of the default call on the
    states with that row moved to row 2 (the other momenta keep their order)."""

    @staticmethod
    def to_row_2(dim, normal):
        return [0, 1, normal, *(m for m in range(2, 2 + dim) if m != normal)]

    @staticmethod
    def batches(dim, normal, n=60):
        # left states rush towards the right ones along the normal; row 7
        # converges hard enough to overrun the relaxation bound
        rng = np.random.default_rng(dim + normal)
        vel = rng.normal(0.0, 1.0, (2, n, dim))
        vel[0, 7, normal - 2], vel[1, 7, normal - 2] = 50.0, -50.0
        vel[:, ::5, normal - 2] = -0.0
        return [state(10.0 + rng.random(n), rng.uniform(0.1, 0.9, n), v, SHOCK) for v in vel]

    def test_physical_flux(self, dim, normal):
        W, _ = self.batches(dim, normal)
        p = pressure(W, SHOCK)
        perm = self.to_row_2(dim, normal)
        got = riemann.physical_flux(W, p, normal=normal)[:, perm]
        np.testing.assert_array_equal(got.view(np.int64), riemann.physical_flux(W[:, perm], p).view(np.int64))

    def test_suliciu_flux(self, dim, normal):
        WL, WR = (W[8:] for W in self.batches(dim, normal))
        perm = self.to_row_2(dim, normal)
        got = flux(WL, WR, SHOCK, normal=normal)[:, perm]
        np.testing.assert_array_equal(got.view(np.int64), flux(WL[:, perm], WR[:, perm], SHOCK).view(np.int64))

    def test_vacuum_row(self, dim, normal):
        WL, WR = self.batches(dim, normal)
        perm = self.to_row_2(dim, normal)
        for args in ((WL, WR, SHOCK, normal), (WL[:, perm], WR[:, perm], SHOCK)):
            with pytest.raises(VacuumError) as err:
                flux(*args)
            assert err.value.row == 7


class TestShockTubeSelfConvergence:
    def test_first_order_l1_converges_to_fine_reference(self):
        # 1D two-state problem advanced with a plain first-order update;
        # the reference is the same scheme on a 16x finer grid.
        fp = SHOCK

        def run(n, t_end=0.05):
            x = (np.arange(n) + 0.5) / n
            W = np.where(
                ((x > 0.25) & (x < 0.75))[:, None],
                state(20.0, 0.6, [0.0], fp)[None, :],
                state(10.0, 0.4, [0.0], fp)[None, :],
            )
            dx = 1.0 / n
            t = 0.0
            while t < t_end:
                rho = W[:, 0]
                Y = W[:, 1] / rho
                c = eos.wood_sound_speed(rho, Y, fp)
                u = np.abs(W[:, 2] / rho)
                dt = min(0.9 * dx / (u + fp.theta * c).max(), t_end - t)
                WL = W
                WR = np.roll(W, -1, axis=0)  # periodic
                phi = flux(WL, WR, fp)
                W = W - dt / dx * (phi - np.roll(phi, 1, axis=0))
                t += dt
            return x, W

        xr, Wr = run(1024)

        def l1_against_reference(n):
            x, W = run(n)
            k = 1024 // n
            ref = Wr[:, 0].reshape(n, k).mean(axis=1)
            return np.abs(W[:, 0] - ref).mean()

        errs = [l1_against_reference(n) for n in (64, 128, 256)]
        assert errs[0] > errs[1] > errs[2]

    def test_positivity_under_cfl(self):
        fp = SHOCK
        n = 128
        x = (np.arange(n) + 0.5) / n
        W = np.where(
            ((x > 0.25) & (x < 0.75))[:, None],
            state(40.0, 0.7, [0.0], fp)[None, :],
            state(10.0, 0.3, [0.0], fp)[None, :],
        )
        dx = 1.0 / n
        for _ in range(200):
            rho = W[:, 0]
            c = eos.wood_sound_speed(rho, W[:, 1] / rho, fp)
            u = np.abs(W[:, 2] / rho)
            dt = 0.9 * dx / (u + fp.theta * c).max()
            phi = flux(W, np.roll(W, -1, axis=0), fp)
            W = W - dt / dx * (phi - np.roll(phi, 1, axis=0))
            assert np.all(W[:, 0] > 0)
            assert np.all(W[:, 1] > 0)
