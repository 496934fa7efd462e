"""The step's reused block buffers: no allocation, no aliasing, same bits.

``solver.step`` carves every block temporary from one buffer that lives
across steps, and the kernels write into it through ``out=``.  These tests
bound what a second step allocates (numpy reports its buffers to
``tracemalloc``, so the bound does not depend on the host), check that no
returned array shares memory with the buffer or with another result, and
compare every kernel called with ``out=`` against the same call without it,
bit for bit (int64 views, signed zeros included).
"""
import tracemalloc

import numpy as np
import pytest

import oracles
from amrfv import eos, riemann, solver
from amrfv.eos import FluidPair
from amrfv.forest import KEEP, REFINE, Connectivity, new_uniform
from amrfv.solver import SweepConfig

MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)
AIR_WATER = FluidPair(p1_0=1e5, rho1_0=1.0, c1=340.0, p2_0=1e5, rho2_0=1e3, c2=1500.0)
STRANG2 = SweepConfig(order=2, splitting="strang")


def assert_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def batch(rng, n, dim, fp=MILD, speed=5.0):
    """Random admissible column-major states, some momenta +-0.0."""
    p = 1e5 * (1.0 + 0.5 * rng.random(n))
    vel = rng.normal(0.0, speed, (n, dim))
    vel[::7, 0] = -0.0
    vel[3::7, 0] = 0.0
    return np.asfortranarray(eos.state_from_pressure_alpha(p, rng.uniform(0.01, 0.99, n), vel, fp))


def column_major_slice(n, ncomp):
    """An (n, ncomp) column-major view into a larger block, as the sweep passes it."""
    return np.full((ncomp, n + 3), np.nan).T[:n]


def walled_forest(dim, seed):
    rng = np.random.default_rng(seed)
    conn = Connectivity(dim, (1,) * dim, (False,) + (True,) * (dim - 1), 1.0)
    f = new_uniform(conn, level=1, b=4)
    for _ in range(2):
        marks = rng.choice([KEEP, REFINE], p=[0.6, 0.4], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
    return f


def smooth_state(f, fp=MILD):
    x = f.centers
    alpha = 0.3 + 0.4 * np.sin(2 * np.pi * x[:, 0]) ** 2
    return eos.state_from_pressure_alpha(1e5, alpha, np.full(f.dim, 1.0), fp)


@pytest.fixture
def fresh_arena(monkeypatch):
    """A new module arena: the buffer keeps its size across leaf counts down to
    half, so a bound on it must not depend on the tests that ran before."""
    monkeypatch.setattr(solver, "_ARENA", solver._Arena())


def test_second_step_allocates_only_its_result(fresh_arena):
    # 4,096 leaves, 2D order-2 Strang: the first step sizes the buffer, the
    # second allocates its one fresh result and small change (numpy's
    # iterator buffers for broadcast operands, views, scalars); before the
    # buffer cache the traced peak was 15.4 times the state
    f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=6, b=6)
    u, _ = solver.step(f, smooth_state(f), STRANG2, MILD)
    tracemalloc.start()
    try:
        u2, _ = solver.step(f, u, STRANG2, MILD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * u.nbytes


def test_step_buffer_holds_no_copy_of_the_state(fresh_arena):
    # 4,096 leaves, 2D order-2 Strang: the sweeps read and update the step's
    # result in place, so the buffer holds no copy of the state; and the face
    # lists have no tail, so the flux phase reads the head's lo ends in
    # place; a carved copy of them would take it to 11.5 times the state
    f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=6, b=6)
    u, _ = solver.step(f, smooth_state(f), STRANG2, MILD)
    u, _ = solver.step(f, u, STRANG2, MILD)
    assert solver._ARENA.buf.nbytes <= 10.03125 * u.nbytes


def test_second_step_in_blocks_allocates_only_its_result(monkeypatch, fresh_arena):
    # 4,096 leaves in blocks of 1,024: each block hands its scratch back to
    # the buffer.  Beside the result, a ufunc whose operands' row strides
    # differ (a block's columns of the face-state block and the block's own
    # scratch) gets numpy iterator buffers, at most getbufsize() elements for
    # each of three operands, freed when it returns (2.55 times the state
    # here at the peak)
    monkeypatch.setattr(solver, "_BLOCK", 1024)
    f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=6, b=6)
    u, _ = solver.step(f, smooth_state(f), STRANG2, MILD)
    tracemalloc.start()
    try:
        solver.step(f, u, STRANG2, MILD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= u.nbytes + 3 * 8 * np.getbufsize() + 16384


def test_step_buffer_of_four_blocks(fresh_arena):
    # 65,536 leaves in four blocks of 16,384: the face states, primitives,
    # slopes and slope rows span all leaves, the other scratch one block, so
    # the buffer is 6.53 times the state where one block needs 10.03 times
    f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=8, b=8)
    u, _ = solver.step(f, smooth_state(f), STRANG2, MILD)
    u, _ = solver.step(f, u, STRANG2, MILD)
    assert solver._ARENA.buf.nbytes <= 6.53125 * u.nbytes


def test_step_buffer_of_two_blocks_in_3d(fresh_arena):
    # 32,768 leaves in two blocks of 16,384: 7.01 times the state, where
    # 4,096 leaves in one block need 9.23 times
    f = new_uniform(Connectivity(3, (1, 1, 1), (True, True, True)), level=5, b=5)
    u, _ = solver.step(f, smooth_state(f), STRANG2, MILD)
    u, _ = solver.step(f, u, STRANG2, MILD)
    assert solver._ARENA.buf.nbytes <= 7.0125 * u.nbytes


def test_a_new_component_count_starts_an_empty_buffer(fresh_arena):
    # a 2D 65,536-leaf step, then a 3D 32,768-leaf step in the same arena:
    # the 3D step lays out its buffer anew, 7.01 times its state as in a
    # fresh process, where keeping the 2D buffer held 10.45 times
    f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=8, b=8)
    solver.step(f, smooth_state(f), STRANG2, MILD)
    f = new_uniform(Connectivity(3, (1, 1, 1), (True, True, True)), level=5, b=5)
    u, _ = solver.step(f, smooth_state(f), STRANG2, MILD)
    assert solver._ARENA.buf.nbytes <= 7.0125 * u.nbytes


class TestNoAliasing:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweep_into_its_input_or_a_fresh_array(self, dim, order):
        # the same bits either way, and a fresh result leaves the input untouched
        f = walled_forest(dim, seed=dim)
        u = np.asfortranarray(smooth_state(f))
        kept = u.copy()
        for axis in range(dim):
            fresh = solver.sweep(f, u, axis, 1e-4, SweepConfig(order=order), MILD)
            assert_bits(u, kept)
            inplace = u.copy(order="F")
            assert solver.sweep(f, inplace, axis, 1e-4, SweepConfig(order=order), MILD, out=inplace) is inplace
            assert_bits(inplace, fresh)

    @pytest.mark.parametrize("order", [1, 2])
    def test_step_and_sweep_results_survive_the_next_call(self, order):
        f = walled_forest(2, seed=1)
        u = smooth_state(f)
        cfg = SweepConfig(order=order)
        results = [solver.step(f, u, cfg, MILD)[0], solver.sweep(f, u, 1, 1e-4, cfg, MILD)]
        kept = [r.copy() for r in results]
        later = [solver.step(f, u, cfg, MILD)[0], solver.sweep(f, u, 1, 1e-4, cfg, MILD)]
        for a, b in zip(results, kept):
            assert_bits(a, b)
        everything = results + later
        for i, a in enumerate(everything):
            assert not np.shares_memory(a, solver._ARENA.buf)
            for b in everything[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_muscl_results_survive_the_next_call(self):
        rng = np.random.default_rng(2)
        W = batch(rng, 64, 2)
        sigma = 0.3 * eos.to_primitive(W) * rng.normal(0.0, 1.0, W.shape)
        first = solver.muscl_predict(W, sigma, 0.5, 1e-3, MILD)
        kept = [a.copy() for a in first]
        second = solver.muscl_predict(W, 2.0 * sigma, 0.5, 1e-3, MILD)
        for a, b in zip(first, kept):
            assert_bits(a, b)
        for a in first[:2]:
            for b in (*first[2:], *second):
                assert not np.shares_memory(a, b)
        assert not np.shares_memory(first[0], first[1])

    def test_shape_change_keeps_earlier_results(self):
        # an adapt changes the leaf count: the buffer is re-keyed, results stay
        f1 = new_uniform(Connectivity(2, (1, 1), (True, True)), level=3, b=4)
        f2, _ = oracles.balance(f1.refine(np.array([REFINE] + [KEEP] * (f1.nleaves - 1), dtype=np.int8))[0])
        a, _ = solver.step(f1, smooth_state(f1), STRANG2, MILD)
        kept = a.copy()
        solver.step(f2, smooth_state(f2), STRANG2, MILD)
        assert_bits(a, kept)
        again, _ = solver.step(f1, smooth_state(f1), STRANG2, MILD)
        assert_bits(again, kept)


@pytest.mark.parametrize("dim", [2, 3])
class TestOutMatchesFresh:
    """Each kernel with ``out=`` (a column-major slice) against the same call without it."""

    def test_state_conversions(self, dim):
        rng = np.random.default_rng(dim)
        W = batch(rng, 100, dim)
        V = eos.to_primitive(W)
        out = column_major_slice(100, dim + 2)
        assert eos.to_primitive(W, out=out) is out
        assert_bits(out, V)
        out = column_major_slice(100, dim + 2)
        assert_bits(eos.from_primitive(V, out=out), eos.from_primitive(V))

    @pytest.mark.parametrize("fluid", ["mild", "air_water"])
    def test_closure_family(self, dim, fluid):
        fp = MILD if fluid == "mild" else AIR_WATER
        W = batch(np.random.default_rng(dim), 100, dim, fp)
        rho, Y = W[:, 0], W[:, 1] / W[:, 0]
        rows = np.full((6, 103), np.nan)[:, :100]
        assert_bits(eos.mixture_pressure(rho, Y, fp, out=rows), eos.mixture_pressure(rho, Y, fp))
        assert_bits(eos.wood_sound_speed(rho, Y, fp, out=rows), eos.wood_sound_speed(rho, Y, fp))
        # Y may sit in the closure's first row, as the sweep puts it
        rows = np.full((6, 100), np.nan)
        rows[0] = Y
        got = eos._pressure_and_speed(rho, rows[0], fp, rows)
        for a, b in zip(got, eos._pressure_and_speed(rho, Y, fp)):
            assert_bits(a, b)

    def test_fluxes(self, dim):
        rng = np.random.default_rng(10 + dim)
        WL, WR = batch(rng, 120, dim, speed=1.0), batch(rng, 120, dim, speed=1.0)
        (pL, cL), (pR, cR) = (eos._pressure_and_speed(W[:, 0], W[:, 1] / W[:, 0], MILD) for W in (WL, WR))
        out = column_major_slice(120, dim + 2)
        assert_bits(riemann.physical_flux(WL, pL, out=out), riemann.physical_flux(WL, pL))
        work = np.full((riemann.FLUX_ROWS + 2 * (dim + 2), 120), np.nan)
        out = column_major_slice(120, dim + 2)
        got = riemann.suliciu_flux(WL, WR, MILD, pL, pR, cL, cR, out=out, work=work)
        assert got is out
        assert_bits(got, riemann.suliciu_flux(WL, WR, MILD, pL, pR, cL, cR))

    def test_slopes_and_prediction(self, dim):
        f = walled_forest(dim, seed=dim)
        rng = np.random.default_rng(20 + dim)
        W = batch(rng, f.nleaves, dim, speed=20.0)
        V = eos.to_primitive(W)
        arena = solver._Arena(("test",))
        for axis in range(dim):
            out = column_major_slice(f.nleaves, dim + 2)
            got = solver._minmod_sigma(f, axis, V, out=out, arena=arena)
            assert_bits(got, solver._minmod_sigma(f, axis, V))
            arena.reset()
        sigma = 0.3 * V * rng.normal(0.0, 1.0, V.shape)
        out = np.full((dim + 2, 2, f.nleaves), np.nan).T
        got = solver.muscl_predict(W, sigma, f.dx, 1e-3, MILD, V=V, out=out, arena=arena)
        assert np.shares_memory(got[0], out) and np.shares_memory(got[1], out)
        for a, b in zip(got, solver.muscl_predict(W, sigma, f.dx, 1e-3, MILD, V=V)):
            assert_bits(a, b)

    @pytest.mark.parametrize("order", [1, 2])
    def test_sweep_and_gravity(self, dim, order):
        f = walled_forest(dim, seed=dim)
        u = smooth_state(f)
        cfg = SweepConfig(order=order)
        fresh = solver.sweep(f, u, dim - 1, 1e-4, cfg, MILD)
        out = column_major_slice(f.nleaves, dim + 2)
        assert solver.sweep(f, u, dim - 1, 1e-4, cfg, MILD, out=out) is out
        assert_bits(out, fresh)
        # in place over its own input
        inplace = u.copy()
        solver.sweep(f, inplace, dim - 1, 1e-4, cfg, MILD, out=inplace)
        assert_bits(inplace, fresh)
        g = solver.gravity_op(u, 1e-3, 9.81)
        assert not np.shares_memory(g, u)
        out = column_major_slice(f.nleaves, dim + 2)
        assert_bits(solver.gravity_op(u, 1e-3, 9.81, out=out), g)
        inplace = u.copy()
        assert solver.gravity_op(inplace, 1e-3, 9.81, out=inplace) is inplace
        assert_bits(inplace, g)
