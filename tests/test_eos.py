import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrfv import eos
from amrfv.errors import ConfigError, EosError
from amrfv.eos import EPS_Y, FluidPair

import oracles
from oracles import bisect_alpha, equilibrium_p_c, stiffened_p

AIR_WATER = FluidPair(p1_0=1e5, rho1_0=1.0, c1=340.0, p2_0=1e5, rho2_0=1e3, c2=1500.0)
IDENTICAL = FluidPair(p1_0=1e5, rho1_0=1.0, c1=10.0, p2_0=1e5, rho2_0=1.0, c2=10.0)
MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)
DROP2D = FluidPair(p1_0=1e5, rho1_0=1.0, c1=10.0, p2_0=1e5, rho2_0=1e3, c2=15.0)


def swapped(fp):
    """The same fluids with the heavy one first."""
    return FluidPair(fp.p2_0, fp.rho2_0, fp.c2, fp.p1_0, fp.rho1_0, fp.c1)


def p1(fp, rho1):
    return stiffened_p(rho1, fp.p1_0, fp.rho1_0, fp.c1)


def p2(fp, rho2):
    return stiffened_p(rho2, fp.p2_0, fp.rho2_0, fp.c2)


class TestFluidPair:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FluidPair(1e5, 1.0, -1.0, 1e5, 1.0, 1.0)
        with pytest.raises(ConfigError):
            FluidPair(1e5, 0.0, 1.0, 1e5, 1.0, 1.0)
        with pytest.raises(ConfigError):
            FluidPair(1e5, 1.0, 1.0, 1e5, 1.0, 1.0, theta=1.0)


class TestSolveAlpha:
    def test_identical_eos_gives_alpha_equals_Y(self):
        for Y in (0.1, 0.5, 0.9):
            assert eos.solve_alpha(1.3, Y, IDENTICAL) == pytest.approx(Y, rel=1e-12)

    def test_single_fluid_limit(self):
        a = eos.solve_alpha(1000.0, EPS_Y, AIR_WATER)
        assert a < 1e-6
        # clamp leaves a trace of fluid 1; pressure matches p2 within that trace
        p = eos.mixture_pressure(2.0, EPS_Y, MILD)
        assert p == pytest.approx(float(p2(MILD, 2.0)), rel=1e-8)

    def test_air_water_matches_bisection_oracle(self):
        # mid-interface state of a falling-drop setup: rho1=1, rho2=1000
        rho, Y = 500.5, 1.0 / 1001.0
        expected = bisect_alpha(rho, Y, AIR_WATER)
        got = eos.solve_alpha(rho, Y, AIR_WATER)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fp", [AIR_WATER, MILD])
    def test_random_states_match_oracle(self, fp):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = float(rng.uniform(0.5, 1200.0))
            Y = float(rng.uniform(1e-6, 1.0 - 1e-6))
            assert eos.solve_alpha(rho, Y, fp) == pytest.approx(
                bisect_alpha(rho, Y, fp), rel=1e-11, abs=1e-13
            )

    @pytest.mark.parametrize("fp", [AIR_WATER, DROP2D], ids=["air_water", "drop2d"])
    def test_near_pure_cells_match_oracle(self, fp):
        # pure-air and pure-water cells of the gravity cases, where 1 - alpha
        # cancels.  The swapped pair (heavy fluid first) gives the fluid-2
        # fraction directly, so the pressure gap measures the closure and not
        # that cancellation
        rng = np.random.default_rng(6)
        alpha_in = np.concatenate([[1 - 1e-7, 1e-7], rng.uniform(0.0, 1.0, 30)])
        W = eos.state_from_pressure_alpha(1e5, alpha_in, np.zeros(2), fp)
        rho = W[:, 0]
        Y = np.clip(W[:, 1] / rho, EPS_Y, 1 - EPS_Y)
        alpha = eos.solve_alpha(rho, Y, fp)
        expected = [bisect_alpha(r, y, fp) for r, y in zip(rho.tolist(), Y.tolist())]
        assert alpha == pytest.approx(expected, rel=1e-11, abs=1e-13)
        beta = eos.solve_alpha(rho, 1 - Y, swapped(fp))
        expected = [bisect_alpha(r, 1 - y, swapped(fp)) for r, y in zip(rho.tolist(), Y.tolist())]
        assert beta == pytest.approx(expected, rel=1e-11, abs=1e-13)
        rho1, rho2 = rho * Y / alpha, rho * (1 - Y) / beta
        pa, pb = p1(fp, rho1), p2(fp, rho2)
        # relative to the stiff branch scale, as in the residual tests below
        scale = np.maximum(np.maximum(np.abs(pa), np.abs(pb)), fp.c1**2 * rho1 + fp.c2**2 * rho2)
        assert (np.abs(pa - pb) / scale).max() <= 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        rho = rng.uniform(0.5, 1100.0, size=40)
        Y = rng.uniform(1e-8, 1 - 1e-8, size=40)
        a = eos.solve_alpha(rho, Y, AIR_WATER)
        for i in range(40):
            assert a[i] == pytest.approx(eos.solve_alpha(rho[i], Y[i], AIR_WATER), rel=1e-13)

    def test_residual_tolerance(self):
        # plain relative residual on well-conditioned states
        rng = np.random.default_rng(3)
        rho = rng.uniform(1.0, 2.0, size=200)
        Y = rng.uniform(0.05, 0.95, size=200)
        a = eos.solve_alpha(rho, Y, MILD)
        pa = p1(MILD, rho * Y / a)
        pb = p2(MILD, rho * (1 - Y) / (1 - a))
        rel = np.abs(pa - pb) / np.maximum(np.abs(pa), np.abs(pb))
        assert rel.max() < 1e-12

    def test_residual_tolerance_stiff(self):
        # near-pure states amplify the p2 branch by 1/(1-alpha); the bound
        # that survives double precision is relative to the stiff branch scale
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.5, 1100.0, size=200)
        Y = rng.uniform(1e-8, 1 - 1e-8, size=200)
        Yc = np.clip(Y, EPS_Y, 1 - EPS_Y)
        a = eos.solve_alpha(rho, Y, AIR_WATER)
        m1 = rho * Yc
        m2 = rho * (1 - Yc)
        pa = p1(AIR_WATER, m1 / a)
        pb = p2(AIR_WATER, m2 / (1 - a))
        scale = np.maximum(
            np.maximum(np.abs(pa), np.abs(pb)),
            AIR_WATER.c1**2 * m1 / a + AIR_WATER.c2**2 * m2 / (1 - a),
        )
        assert (np.abs(pa - pb) / scale).max() < 1e-12

    @given(st.floats(0.2, 2000.0), st.floats(1e-7, 1 - 1e-7))
    @settings(max_examples=200, deadline=None)
    def test_alpha_in_unit_interval(self, rho, Y):
        a = eos.solve_alpha(rho, Y, AIR_WATER)
        assert 0.0 < a < 1.0

    def test_monotone_in_Y(self):
        rho = 400.0
        Ys = np.linspace(1e-6, 1 - 1e-6, 64)
        alphas = eos.solve_alpha(np.full_like(Ys, rho), Ys, AIR_WATER)
        assert np.all(np.diff(alphas) > 0)

    def test_mixture_density_identity(self):
        rng = np.random.default_rng(4)
        rho = rng.uniform(1.0, 1000.0, size=32)
        Y = rng.uniform(1e-6, 1 - 1e-6, size=32)
        a = eos.solve_alpha(rho, Y, AIR_WATER)
        Yc = np.clip(Y, EPS_Y, 1 - EPS_Y)
        rho1 = rho * Yc / a
        rho2 = rho * (1 - Yc) / (1 - a)
        np.testing.assert_allclose(a * rho1 + (1 - a) * rho2, rho, rtol=1e-14)


class TestMixturePressure:
    def test_pure_fluid_1(self):
        p = eos.mixture_pressure(1.2, 1.0 - EPS_Y, AIR_WATER)
        assert p == pytest.approx(float(p1(AIR_WATER, 1.2)), rel=1e-6)

    def test_identical_eos(self):
        p = eos.mixture_pressure(1.4, 0.3, IDENTICAL)
        assert p == pytest.approx(float(p1(IDENTICAL, 1.4)), rel=1e-12)

    def test_matches_oracle_pressure(self):
        rho, Y = 650.0, 0.4
        a = bisect_alpha(rho, Y, AIR_WATER)
        expected = float(p1(AIR_WATER, rho * Y / a))
        assert eos.mixture_pressure(rho, Y, AIR_WATER) == pytest.approx(expected, rel=1e-10)

    def test_p2_branch_agreement(self):
        # the pressure is read off the closure; the fluid-2 branch at the
        # closure's own alpha must give it back
        rho, Y = 300.0, 0.2
        a = eos.solve_alpha(rho, Y, AIR_WATER)
        pb = float(p2(AIR_WATER, rho * (1 - Y) / (1 - a)))
        assert eos.mixture_pressure(rho, Y, AIR_WATER) == pytest.approx(pb, rel=1e-10)


class TestWoodSpeed:
    def test_single_fluid_limit(self):
        c = eos.wood_sound_speed(1.0, 1.0 - EPS_Y, AIR_WATER)
        assert c == pytest.approx(AIR_WATER.c1, rel=1e-6)

    def test_identical_eos(self):
        assert eos.wood_sound_speed(1.0, 0.5, IDENTICAL) == pytest.approx(10.0, rel=1e-12)

    def test_mixture_dip_below_both(self):
        # 50/50 air-water by volume: Wood speed collapses far below both
        rho, Y = 500.5, 1.0 / 1001.0
        a = bisect_alpha(rho, Y, AIR_WATER)
        rho1, rho2 = rho * Y / a, rho * (1 - Y) / (1 - a)
        inv = Y / (rho1 * AIR_WATER.c1) ** 2 + (1 - Y) / (rho2 * AIR_WATER.c2) ** 2
        expected = 1.0 / (rho * math.sqrt(inv))
        got = eos.wood_sound_speed(rho, Y, AIR_WATER)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got < AIR_WATER.c1 and got < AIR_WATER.c2

    def test_matches_pressure_derivative(self):
        # c^2 must equal (dp/drho) at fixed Y (validates closure consistency)
        for rho, Y in [(1.5, 0.7), (600.0, 0.3), (2.0, 0.99)]:
            c = eos.wood_sound_speed(rho, Y, AIR_WATER)
            h = rho * 1e-6
            dp = (
                eos.mixture_pressure(rho + h, Y, AIR_WATER)
                - eos.mixture_pressure(rho - h, Y, AIR_WATER)
            ) / (2 * h)
            assert c**2 == pytest.approx(dp, rel=1e-5)


PAIRS = [AIR_WATER, DROP2D, swapped(AIR_WATER), swapped(DROP2D)]
PAIR_IDS = ["air_water", "drop2d", "water_air", "drop2d_swapped"]


@pytest.mark.parametrize("fp", PAIRS, ids=PAIR_IDS)
def test_pressure_and_speed_match_decimal_oracle(fp):
    # near-pure cells, where the old 1 - alpha rebuild of rho2 cancelled,
    # then random mixtures at pressures a decade either side of 1e5 above
    # the vacuum pressure max(A1, A2)
    rng = np.random.default_rng(8)
    near_pure = [1 - 1e-7, 1e-7, 1 - 1e-9, 1e-9]
    vacuum = max(fp.A1, fp.A2)
    press = vacuum + (1e5 - vacuum) * 10.0 ** rng.uniform(-1.0, 1.0, 40)
    W = np.concatenate(
        [
            eos.state_from_pressure_alpha(1e5, near_pure, np.zeros(2), fp),
            eos.state_from_pressure_alpha(press, rng.uniform(0.0, 1.0, 40), np.zeros(2), fp),
        ]
    )
    rho = W[:, 0]
    Y = np.clip(W[:, 1] / rho, EPS_Y, 1 - EPS_Y)
    p_ref, c_ref = np.array([equilibrium_p_c(r, y, fp) for r, y in zip(rho, Y)]).T
    p = eos.mixture_pressure(rho, Y, fp)
    c = eos.wood_sound_speed(rho, Y, fp)
    # c1^2 rho1 + c2^2 rho2 at the oracle pressure bounds the stiff branch
    x_sum = (p_ref - fp.p1_0 + fp.c1**2 * fp.rho1_0) + (p_ref - fp.p2_0 + fp.c2**2 * fp.rho2_0)
    scale = np.maximum(np.abs(p_ref), x_sum)
    assert (np.abs(p - p_ref) / scale).max() <= 1e-14
    assert (np.abs(c - c_ref) / c_ref).max() <= 1e-13


class TestPrimitiveConversion:
    def test_pure_fluid_clamps(self):
        V = eos.to_primitive(np.array([1.0, 1.0, 0.0, 0.0]))
        assert V[0] == pytest.approx(1.0, rel=1e-8)
        assert V[1] == pytest.approx(EPS_Y, rel=1e-6)

    def test_round_trip(self):
        W = np.array([2.0, 0.5, 1.0, -3.0])
        np.testing.assert_allclose(eos.from_primitive(eos.to_primitive(W)), W, rtol=1e-15)

    @given(
        st.floats(0.1, 1e4),
        st.floats(1e-6, 1 - 1e-6),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, rho, Y, ux, uy):
        W = np.array([rho, rho * Y, rho * ux, rho * uy])
        back = eos.from_primitive(eos.to_primitive(W))
        np.testing.assert_allclose(back, W, rtol=1e-12, atol=1e-300)


def test_clamps_give_the_bits_of_clip():
    # the closure and to_primitive clamp Y as np.maximum then np.minimum;
    # NaN, both infinities, both zeros, the bounds and their neighbours
    edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, EPS_Y, 1.0 - EPS_Y, 0.5, 1.0, -1.0, 2.0]
    edges += [np.nextafter(EPS_Y, 0), np.nextafter(EPS_Y, 1), np.nextafter(1 - EPS_Y, 0), np.nextafter(1 - EPS_Y, 2)]
    Y = np.concatenate([edges, np.random.default_rng(7).uniform(-0.5, 1.5, 300)])
    expected = np.clip(Y, EPS_Y, 1.0 - EPS_Y).view(np.int64)
    rho = np.ones_like(Y)
    with np.errstate(all="ignore"):
        Yc = eos._closure(rho, Y, MILD)[0]
    np.testing.assert_array_equal(Yc.view(np.int64), expected)
    # at rho = 1, to_primitive's m1 = rho Yc is the clamped Y itself
    V = eos.to_primitive(np.stack([rho, Y, np.zeros_like(Y), np.zeros_like(Y)], axis=-1))
    np.testing.assert_array_equal(V[:, 0].view(np.int64), expected)


class TestFreeEnergy:
    def test_reference_density_is_zero(self):
        assert eos.free_energy(0.5, 0.5, IDENTICAL, rho_ref=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_single_fluid_closed_form(self):
        # F = A (1/ref - 1/rho) + c^2 ln(rho/ref) for one stiffened fluid
        fp = IDENTICAL
        rho, ref = 2.3, 0.5
        A = fp.p1_0 - fp.c1**2 * fp.rho1_0
        expected = A * (1 / ref - 1 / rho) + fp.c1**2 * math.log(rho / ref)
        got = eos.free_energy(rho, 1.0 - EPS_Y, fp, rho_ref=ref)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_derivative_is_p_over_rho2(self):
        fp = MILD
        rho, Y = 1.6, 0.4
        h = 1e-5
        dF = (eos.free_energy(rho + h, Y, fp) - eos.free_energy(rho - h, Y, fp)) / (2 * h)
        expected = eos.mixture_pressure(rho, Y, fp) / rho**2
        assert dF == pytest.approx(expected, rel=1e-6)

    def test_vectorized(self):
        fp = MILD
        rho = np.array([1.0, 1.5, 2.0])
        F = eos.free_energy(rho, 0.5, fp)
        for i, r in enumerate(rho):
            assert F[i] == pytest.approx(eos.free_energy(float(r), 0.5, fp), rel=1e-12)


class TestStateConstruction:
    def test_density_from_pressure_round_trip(self):
        # mixture density at pressure p from the inverted phase laws
        p, Y, fp = 1e5, 0.3, AIR_WATER
        rho1 = fp.rho1_0 + (p - fp.p1_0) / fp.c1**2
        rho2 = fp.rho2_0 + (p - fp.p2_0) / fp.c2**2
        rho = 1.0 / (Y / rho1 + (1 - Y) / rho2)
        assert eos.mixture_pressure(rho, Y, fp) == pytest.approx(p, rel=1e-10)

    def test_state_from_pressure_alpha(self):
        W = eos.state_from_pressure_alpha(1e5, 0.25, np.array([1.0, 2.0]), MILD)
        rho, rhoY = W[0], W[1]
        assert eos.solve_alpha(rho, rhoY / rho, MILD) == pytest.approx(0.25, rel=1e-9)
        assert eos.mixture_pressure(rho, rhoY / rho, MILD) == pytest.approx(1e5, rel=1e-12)

    def test_vacuum_pressure_raises(self):
        with pytest.raises(EosError):
            eos.state_from_pressure_alpha(-1e9, 0.5, np.zeros(2), MILD)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scalar_p", [True, False])
    def test_state_from_pressure_alpha_matches_the_oracle_bit_for_bit(self, dim, scalar_p):
        rng = np.random.default_rng(2 * dim + scalar_p)
        n = 1000
        # MILD's vacuum pressures lie 9 and 18 below 1e5; alpha runs past both clip ends
        p = 1e5 if scalar_p else 1e5 + rng.uniform(-5.0, 5.0, n)
        for alpha in (rng.uniform(-0.1, 1.1, n), 0.3):
            for u in (rng.normal(size=dim), rng.normal(size=(n, dim))):
                if np.ndim(u) == 2 and np.ndim(p) == np.ndim(alpha) == 0:
                    continue
                got = eos.state_from_pressure_alpha(p, alpha, u, MILD)
                want = oracles.state_from_pressure_alpha(p, alpha, u, MILD, EPS_Y)
                assert got.shape == want.shape and got.flags.c_contiguous
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_vacuum_names_the_first_state_and_its_fluids(self):
        # MILD's fluid 1 reaches vacuum at p = 1e5 - 9, fluid 2 at 1e5 - 18
        p = np.array([1e5, 99985.0, 99980.0, 99985.0])
        for press, fp, first, message in (
            (p, MILD, 1, "pressure 99985.0 below vacuum for fluid 1"),
            (p, swapped(MILD), 1, "pressure 99985.0 below vacuum for fluid 2"),
            (p[2:], MILD, 0, "pressure 99980.0 below vacuum for fluid 1 and fluid 2"),
        ):
            with pytest.raises(EosError) as err:
                eos.state_from_pressure_alpha(press, 0.5, np.zeros(2), fp)
            assert err.value.index == first and str(err.value) == message
        with pytest.raises(EosError) as err:
            eos.state_from_pressure_alpha(99980.0, np.full(3, 0.5), np.zeros(2), MILD)
        assert err.value.index == 0
