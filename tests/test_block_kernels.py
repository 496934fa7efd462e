"""The block sweep kernels against their column-at-a-time oracles, bit for bit.

The flux, slope and MUSCL-Hancock kernels make one numpy call per operation
over a whole ``(ncomp, n)`` block, and MUSCL-Hancock handles both face sides
in one ``(ncomp, 2, n)`` block.  ``tests/oracles.py`` keeps the same kernels
written one component column at a time.  The flux and MUSCL-Hancock cases
run with the face normal on each axis' momentum row.  A sweep runs its
phases over cell blocks, and a step cut into many small blocks must give the
bits of one block.  Every case compares int64 views, so it checks every bit,
signed zeros included.  Only a whole sweep, against one built face row by face
row from those kernels, is compared within rounding: its sums add in another
order.
"""
import dataclasses

import numpy as np
import pytest

import oracles
from amrfv import eos, harness, riemann, solver
from amrfv.errors import EosError
from amrfv.eos import FluidPair
from amrfv.forest import KEEP, REFINE, Connectivity, new_uniform
from amrfv.solver import SweepConfig
from test_forest import fuzz_forests
from test_leafmap import CONNECTIVITIES

MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)
AIR_WATER = FluidPair(p1_0=1e5, rho1_0=1.0, c1=340.0, p2_0=1e5, rho2_0=1e3, c2=1500.0)
FLUIDS = {"mild": MILD, "air_water": AIR_WATER}


def assert_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def batch(rng, n, dim, fp, order, speed=1.0):
    """Random admissible states in the given memory order, some momenta +-0.0."""
    p = 1e5 * (1.0 + 0.5 * rng.random(n))
    vel = rng.normal(0.0, speed, (n, dim))
    vel[::7, 0] = -0.0
    vel[3::7, 0] = 0.0
    W = eos.state_from_pressure_alpha(p, rng.uniform(0.01, 0.99, n), vel, fp)
    return np.asfortranarray(W) if order == "F" else np.ascontiguousarray(W)


def p_and_c(W, fp):
    return eos._pressure_and_speed(W[..., 0], W[..., 1] / W[..., 0], fp)


def walled_forest(dim, seed, walls=(0,)):
    """Two-level refined forest, walls on the ``walls`` axes, hanging faces on every axis."""
    rng = np.random.default_rng(seed)
    conn = Connectivity(dim, (1,) * dim, tuple(a not in walls for a in range(dim)), 1.0)
    f = new_uniform(conn, level=1, b=4)
    for _ in range(2):
        marks = rng.choice([KEEP, REFINE], p=[0.6, 0.4], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
    return f


class TestFlux:
    @pytest.mark.parametrize("fluid", sorted(FLUIDS))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_batches(self, dim, order, fluid):
        fp, rng = FLUIDS[fluid], np.random.default_rng(dim)
        WL, WR = batch(rng, 200, dim, fp, order), batch(rng, 200, dim, fp, order)
        (pL, cL), (pR, cR) = p_and_c(WL, fp), p_and_c(WR, fp)
        for normal in range(2, 2 + dim):
            expected = oracles.suliciu_flux_columns(WL, WR, fp, pL, pR, cL, cR, normal=normal)
            assert_bits(riemann.suliciu_flux(WL, WR, fp, pL, pR, cL, cR, normal=normal), expected)
            # into the head of a larger column-major block, as the sweep writes it
            out = np.empty((dim + 2, 203)).T
            riemann.suliciu_flux(WL, WR, fp, pL, pR, cL, cR, out=out[:200], normal=normal)
            assert_bits(out[:200], expected)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_rows(self, dim):
        rng = np.random.default_rng(5)
        WL, WR = batch(rng, 8, dim, MILD, "C"), batch(rng, 8, dim, MILD, "C")
        (pL, cL), (pR, cR) = p_and_c(WL, MILD), p_and_c(WR, MILD)
        for i in range(8):
            args = (WL[i], WR[i], MILD, pL[i], pR[i], cL[i], cR[i])
            got = riemann.suliciu_flux(*args)
            assert got.shape == (dim + 2,)
            assert_bits(got, oracles.suliciu_flux_columns(*args))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_wall_rows(self, order):
        # a wall row joins a face state to its mirror, on either side of it
        rng = np.random.default_rng(6)
        W = batch(rng, 50, 2, AIR_WATER, order, speed=5.0)
        p, c = p_and_c(W, AIR_WATER)
        for normal in (2, 3):
            G = oracles.wall_image(W, normal)
            for A, B in ((W, G), (G, W)):
                got = riemann.suliciu_flux(A, B, AIR_WATER, p, p, c, c, normal=normal)
                assert_bits(got, oracles.suliciu_flux_columns(A, B, AIR_WATER, p, p, c, c, normal=normal))


class TestSlopes:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_hanging_faces_and_walls(self, dim, order):
        # walls on axis 0, then on every axis, where each axis mirrors its own velocity
        for walled in ((0,), range(dim)):
            f = walled_forest(dim, seed=dim, walls=walled)
            rng = np.random.default_rng(7)
            V = eos.to_primitive(batch(rng, f.nleaves, dim, MILD, order, speed=3.0))
            V = np.asfortranarray(V) if order == "F" else np.ascontiguousarray(V)
            for axis in walled:
                assert len(f.face_list(axis).wall_lo) > 0 and len(f.face_list(axis).wall_hi) > 0
            assert any(len(rows) for axis in range(dim) for rows in f.face_list(axis).more)
            for axis in range(dim):
                got = solver._minmod_sigma(f, axis, V)
                assert_bits(got, oracles.minmod_sigma_columns(f, axis, V, f.dx))

    def test_non_finite_slopes_are_zero_in_both(self):
        f = walled_forest(2, seed=3)
        V = eos.to_primitive(batch(np.random.default_rng(8), f.nleaves, 2, MILD, "F"))
        V[5, 2], V[9, 3] = np.inf, np.nan
        with np.errstate(invalid="ignore"):
            for axis in (0, 1):
                got = solver._minmod_sigma(f, axis, V)
                assert np.all(np.isfinite(got))
                assert_bits(got, oracles.minmod_sigma_columns(f, axis, V, f.dx))


class TestMuscl:
    @pytest.mark.parametrize("given_v", [True, False], ids=["V", "no-V"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_batches(self, dim, order, given_v):
        rng = np.random.default_rng(10 + dim)
        n = 300
        W = batch(rng, n, dim, MILD, order, speed=20.0)
        V = eos.to_primitive(W)
        sigma = 0.3 * V * rng.normal(0.0, 1.0, V.shape)
        dx = np.full(n, 0.5)
        kw = {"V": V} if given_v else {}
        for normal in range(2, 2 + dim):
            got = solver.muscl_predict(W, sigma, dx, 1e-3, MILD, normal=normal, **kw)
            expected = oracles.muscl_predict_columns(W, sigma, dx, 1e-3, MILD, normal=normal, **kw)
            for a, b in zip(got, expected):
                assert_bits(a, b)
            # each component column of both face-state halves is contiguous
            assert got[0].strides[0] == got[1].strides[0] == 8

    def test_single_row(self):
        rng = np.random.default_rng(12)
        W = batch(rng, 4, 2, MILD, "C", speed=20.0)
        sigma = 0.3 * eos.to_primitive(W) * rng.normal(0.0, 1.0, W.shape)
        for i in range(4):
            got = solver.muscl_predict(W[i], sigma[i], 0.5, 1e-3, MILD)
            expected = oracles.muscl_predict_columns(W[i], sigma[i], 0.5, 1e-3, MILD)
            assert got[0].shape == (1, 4)
            for a, b in zip(got, expected):
                assert_bits(a, b)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fallback(self, order):
        # steep slopes exhaust a partial density on some face; a long step
        # empties some corrected face state; the rest predict normally
        rng = np.random.default_rng(13)
        n = 200
        W = batch(rng, n, 2, MILD, order, speed=200.0)
        V = eos.to_primitive(W)
        sigma = V * rng.normal(0.0, 1.0, V.shape)
        sigma[::5, 0] = 4.0 * V[::5, 0]
        dx = np.full(n, 1.0)
        got = solver.muscl_predict(W, sigma, dx, 2e-3, MILD, V=V)
        expected = oracles.muscl_predict_columns(W, sigma, dx, 2e-3, MILD, V=V)
        fallback = got[2]
        # with dt = 0 only the predicted states can fall back
        first = solver.muscl_predict(W, sigma, dx, 0.0, MILD, V=V)[2]
        assert first[::5].all() and (fallback & ~first).any() and not fallback.all()
        for a, b in zip(got, expected):
            assert_bits(a, b)
        np.testing.assert_array_equal(got[0][fallback], W[fallback])


def rows_of_a_sweep(f, u, axis, dt, fp, order):
    """A sweep face row by face row, from the column-at-a-time kernels.

    Each row joins the high face state of its lo cell to the low face state
    of its hi cell; a wall row joins the cell's face state on the wall side
    to its wall image.  Each row's flux leaves its lo cell and enters its hi
    cell, scaled by area over volume; a wall row touches its cell once.
    """
    fl, normal = f.face_list(axis), 2 + axis
    low = high = u
    if order == 2:
        sigma = oracles.minmod_sigma_columns(f, axis, eos.to_primitive(u), f.dx)
        low, high, _ = oracles.muscl_predict_columns(u, sigma, f.dx, dt, fp, normal=normal)
    WL, WR = high[fl.lo], low[fl.hi]
    WL[fl.wall_lo] = oracles.wall_image(low[fl.lo[fl.wall_lo]], normal)
    WR[fl.wall_hi] = oracles.wall_image(high[fl.hi[fl.wall_hi]], normal)
    (pL, cL), (pR, cR) = p_and_c(WL, fp), p_and_c(WR, fp)
    phi = oracles.suliciu_flux_columns(WL, WR, fp, pL, pR, cL, cR, normal=normal) * fl.area[:, None]
    into_hi, out_of_lo = np.ones(len(fl.lo), bool), np.ones(len(fl.lo), bool)
    into_hi[fl.wall_hi], out_of_lo[fl.wall_lo] = False, False
    du = np.zeros_like(u)
    np.add.at(du, fl.hi[into_hi], phi[into_hi])
    np.subtract.at(du, fl.lo[out_of_lo], phi[out_of_lo])
    return u + dt * du / f.volumes[:, None]


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_joins_the_face_states_of_each_row(monkeypatch, dim, order, block):
    # hanging faces on every axis (tail rows), walls on every axis, in one
    # block and in blocks of 7 cells; the slot sums add in another order
    f = walled_forest(dim, seed=dim, walls=range(dim))
    x = 2 * np.pi * f.centers
    vel = 0.3 * np.cos(x + np.arange(dim))
    u = eos.state_from_pressure_alpha(1e5 + 2 * np.sin(x[:, -1]), 0.3 + 0.4 * np.sin(x[:, 0]) ** 2, vel, MILD)
    monkeypatch.setattr(solver, "_BLOCK", block)
    for axis in range(dim):
        fl = f.face_list(axis)
        assert len(fl.lo) - len(fl.wall_lo) > f.nleaves  # hanging sub-faces in the tail
        got = solver.sweep(f, u, axis, 1e-4, SweepConfig(order=order), MILD)
        expected = rows_of_a_sweep(f, u, axis, 1e-4, MILD, order)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)


def test_stacked_eos_error_names_its_leaf(monkeypatch):
    # the corrected face states of both sides share one closure call, left
    # faces first: a failure at the right face state of leaf 3 is row n + 3
    pressure_and_speed = eos._pressure_and_speed

    def fail_right_face_of_leaf_3(rho, Y, fp, *out):
        n2 = np.size(rho)
        if n2 == 2 * f.nleaves:
            raise EosError("injected", index=n2 // 2 + 3)
        return pressure_and_speed(rho, Y, fp, *out)

    f = walled_forest(2, seed=4)
    u = batch(np.random.default_rng(14), f.nleaves, 2, MILD, "C")
    monkeypatch.setattr(eos, "_pressure_and_speed", fail_right_face_of_leaf_3)
    with pytest.raises(EosError) as err:
        solver.sweep(f, u, 1, 1e-6, SweepConfig(order=2), MILD)
    assert err.value.index == 3
    assert str(err.value) == f"sweep on axis 1 at {f.leaf_label(3)}: injected"


# walls and gravity; hanging faces with k = 2; 3D with walls and k = 4 on x and y
BLOCKED_CASES = {"drop2d": {}, "disk_advection": {}, "dambreak3d": dict(max_level=4, min_level=2)}


@pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
def test_blocks_give_the_bits_of_one_block(monkeypatch, case):
    # block boundaries cut through head rows, tail slices, wall rows and the
    # cells whose slots reach into other blocks; dt and the step are unchanged
    cfg = harness.default_config(case, **BLOCKED_CASES[case])
    setup = harness.init_case(cfg)
    f, u, fp = setup.forest, setup.field, setup.fluids
    for axis in range(f.dim):
        fl = f.face_list(axis)
        cells, ranges = fl.blocks(-(-f.nleaves // 7))
        assert len(ranges) > len(cells)  # tail slices
        # the ranges cover every row once, the head's and the tail's each in
        # increasing order; each names its own wall rows, counted from r0
        bounds = [(r0, r1) for r0, r1, _, _ in ranges]
        assert [r for r0, r1 in sorted(bounds) for r in range(r0, r1)] == list(range(len(fl.lo)))
        for part in ([b for b in bounds if b[0] < f.nleaves], [b for b in bounds if b[0] >= f.nleaves]):
            assert part == sorted(part)
        for r0, r1, wall_lo, wall_hi in ranges:
            for walls, every in ((wall_lo, fl.wall_lo), (wall_hi, fl.wall_hi)):
                assert np.all((walls >= 0) & (walls < r1 - r0))
                np.testing.assert_array_equal(walls + r0, every[(every >= r0) & (every < r1)])
    assert case == "disk_advection" or len(f.face_list(0).wall_lo) > 0
    for order in (1, 2):
        for splitting in ("lie", "strang"):
            scfg = dataclasses.replace(cfg.sweep_config, order=order, splitting=splitting)
            monkeypatch.setattr(solver, "_BLOCK", f.nleaves)
            expected, dt = solver.step(f, u, scfg, fp)
            for block in (7, 64, 1000):
                monkeypatch.setattr(solver, "_BLOCK", block)
                got, got_dt = solver.step(f, u, scfg, fp)
                assert got_dt == dt
                assert_bits(got, expected)


@pytest.mark.parametrize("conn, b, min_level", list(CONNECTIVITIES.values()), ids=list(CONNECTIVITIES))
def test_one_block_table_and_the_bits_of_several(monkeypatch, conn, b, min_level):
    # one block is one range of every row with every wall and all of more;
    # each block's fold indices address its (ncomp, b - a) block; a step cut
    # into small blocks gives the bits of one block
    (f,) = fuzz_forests(conn, b, min_level, seed=b + conn.ntrees, count=1)
    n, ncomp = f.nleaves, f.dim + 2
    for axis in range(f.dim):
        fl = f.face_list(axis)
        for nc in (1, ncomp):
            cells, ((r0, r1, wall_lo, wall_hi),) = fl.blocks(1, nc)
            assert (r0, r1) == (0, len(fl.lo))
            np.testing.assert_array_equal(wall_lo, fl.wall_lo)
            np.testing.assert_array_equal(wall_hi, fl.wall_hi)
            ((a, b_end, more),) = cells
            assert (a, b_end) == (0, n)
            for (flat, rows), ends, every in zip(more, (fl.hi, fl.lo), fl.more):
                np.testing.assert_array_equal(rows, every)
                np.testing.assert_array_equal(flat, (ends[every] + n * np.arange(nc)[:, None]).ravel())
        cells, _ = fl.blocks(5, ncomp)
        for side, (ends, every) in enumerate(zip((fl.hi, fl.lo), fl.more)):
            np.testing.assert_array_equal(np.concatenate([more[side][1] for _, _, more in cells]), every)
            for a, b_end, more in cells:
                flat, rows = more[side]
                assert np.all((ends[rows] >= a) & (ends[rows] < b_end))
                np.testing.assert_array_equal(flat, (ends[rows] - a + (b_end - a) * np.arange(ncomp)[:, None]).ravel())
    assert fl.blocks(1) is fl.blocks(1, 1) and fl.blocks(1) is not fl.blocks(1, ncomp)
    u = batch(np.random.default_rng(b), n, f.dim, MILD, "F")
    for order in (1, 2):
        scfg = SweepConfig(order=order, gravity=0.0 if all(conn.periodic) else 9.81)
        monkeypatch.setattr(solver, "_BLOCK", n)
        expected, dt = solver.step(f, u, scfg, MILD)
        for block in (5, 37):
            monkeypatch.setattr(solver, "_BLOCK", block)
            got, got_dt = solver.step(f, u, scfg, MILD)
            assert got_dt == dt
            assert_bits(got, expected)
