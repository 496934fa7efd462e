"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass line per
criterion.  The heavier studies (convergence, AMR compression) are shared
through module-scoped fixtures.
"""
import itertools

import numpy as np
import pytest

from amrfv import eos, harness, solver
from amrfv import morton
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, new_uniform
from amrfv.harness import adapt_mesh, default_config, init_case, run
from amrfv.partition import ghost_layer, partition
from amrfv.solver import SweepConfig

import oracles
from oracles import (
    PointerForest,
    deinterleave_oracle,
    face_neighbors,
    interleave_oracle,
    zorder_traversal,
)
from test_forest import check_face_list, oracle_neighbors


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared expensive studies


@pytest.fixture(scope="module")
def convergence_table():
    cfg = default_config("smooth_advection")
    return harness.converge_study(cfg, levels=[4, 5, 6, 7], orders=(1, 2))


@pytest.fixture(scope="module")
def compression_table():
    cfg = default_config("disk_advection")  # max_level 7, rho-gradient
    rows5 = harness.compare_amr_study(cfg, xi=5e-5, compressions=[0, 1, 2, 3, 4])
    rows4 = harness.compare_amr_study(cfg, xi=5e-4, compressions=[4])
    return rows5, rows4


def test_criterion_01_convergence_rates(convergence_table):
    d1 = convergence_table["orders"][1]
    d2 = convergence_table["orders"][2]
    assert d1["rate_l1"] >= 0.7, f"order-1 L1 rate {d1['rate_l1']:.3f} < 0.7"
    assert d2["rate_l1"] >= 1.4, f"order-2 L1 rate {d2['rate_l1']:.3f} < 1.4"
    assert abs(d1["rate_l2"] - d1["rate_l1"]) <= 0.25
    assert abs(d2["rate_l2"] - d2["rate_l1"]) <= 0.25
    # gradient-of-error check at the finest pair: halving dx must cut the
    # L1 error by >= 1.6 (order 1) and >= 2.6 (order 2)
    assert d1["l1"][-2] / d1["l1"][-1] >= 1.6
    assert d2["l1"][-2] / d2["l1"][-1] >= 2.6
    _report(
        1,
        f"L1 rates order1={d1['rate_l1']:.3f} (>=0.7) order2={d2['rate_l1']:.3f} (>=1.4); "
        f"L2 within 0.25 of L1",
    )


def test_criterion_02_second_order_beats_first(convergence_table):
    e1 = convergence_table["orders"][1]["l1"][-1]  # finest level 7
    e2 = convergence_table["orders"][2]["l1"][-1]
    assert e2 < e1, f"order-2 error {e2:.3e} not below order-1 {e1:.3e}"
    _report(2, f"at dx=2^-7: order-2 L1 {e2:.3e} < order-1 L1 {e1:.3e}")


def test_criterion_03_amr_compression_fidelity(compression_table):
    rows5, rows4 = compression_table
    uniform = rows5[0]
    for r in rows5:
        assert r["l1"] <= 2.0 * uniform["l1"], (
            f"compression {r['compression']}: AMR error {r['l1']:.3e} exceeds "
            f"2x uniform {uniform['l1']:.3e}"
        )
    for r in rows5[1:]:
        assert r["cells"] < 0.7 * uniform["cells"], (
            f"compression {r['compression']}: {r['cells']} cells not below "
            f"70% of uniform {uniform['cells']}"
        )
    assert rows4[0]["l1"] > rows5[-1]["l1"], (
        f"xi=5e-4 error {rows4[0]['l1']:.3e} does not exceed xi=5e-5 "
        f"error {rows5[-1]['l1']:.3e}"
    )
    _report(
        3,
        f"AMR/uniform error ratio <= {max(r['l1'] for r in rows5) / uniform['l1']:.3f} (<2); "
        f"cells <= {max(r['cells'] for r in rows5[1:]) / uniform['cells']:.2%} of uniform (<70%); "
        f"xi=5e-4 error {rows4[0]['l1']:.3e} > xi=5e-5 {rows5[-1]['l1']:.3e}",
    )


def test_criterion_04_conservation_with_adaptation():
    cfg = default_config("disk_advection", max_level=6, min_level=3, adapt_every=2)
    setup = init_case(cfg)
    f, u, fp = setup.forest, setup.field, setup.fluids
    scfg = cfg.sweep_config
    crit = cfg.criterion_obj
    mass0 = float(np.sum(f.volumes * u[:, 0]))
    rhoy0 = float(np.sum(f.volumes * u[:, 1]))
    max_drift = np.zeros(2)
    for n in range(1, 201):
        u, _ = solver.step(f, u, scfg, fp)
        if n % cfg.adapt_every == 0:
            f, u = adapt_mesh(f, u, crit, fp)
        drift = np.array(
            [
                abs(float(np.sum(f.volumes * u[:, 0])) - mass0) / mass0,
                abs(float(np.sum(f.volumes * u[:, 1])) - rhoy0) / rhoy0,
            ]
        )
        max_drift = np.maximum(max_drift, drift)
    assert max_drift[0] <= 1e-11, f"mass drift {max_drift[0]:.2e}"
    assert max_drift[1] <= 1e-11, f"rhoY drift {max_drift[1]:.2e}"
    _report(4, f"200 adaptive steps: mass drift {max_drift[0]:.2e}, rhoY drift {max_drift[1]:.2e} (<=1e-11)")


def _fuzz_once(rng, dim, b, rounds=3):
    conn = Connectivity(dim, (1, 1) if dim == 2 else (1, 1, 1), (False,) * dim)
    f = new_uniform(conn, level=1, b=b)
    oracle = PointerForest(dim, conn.tree_dims, conn.periodic, b=b, level=1)
    checks = 0
    for _ in range(rounds):
        marks = rng.choice(
            [KEEP, REFINE, COARSEN], p=[0.4, 0.3, 0.3], size=f.nleaves
        ).astype(np.int8)
        f, _ = f.adapt(marks)
        # the pointer forest refines, coarsens (fresh children are not
        # marked) and balances one operation at a time
        carried = []
        for (_, lvl, _), tag in zip(oracle.leaves(), marks):
            split = tag == REFINE and lvl < b
            carried += [False] * (1 << dim) if split else [tag == COARSEN]
        oracle.refine_marks(marks == REFINE)
        oracle.coarsen_marks(carried)
        oracle.balance()
        got = [(int(t), int(l), tuple(map(int, c))) for t, l, c in zip(f.tree, f.level, f.coords)]
        assert got == oracle.leaves()
        checks += 1
    # tiling: per-tree volumes sum to the tree volume exactly
    for t in range(conn.ntrees):
        sel = f.tree == t
        assert float(f.volumes[sel].sum()) == pytest.approx(conn.tree_extent**dim, rel=1e-12)
    # post-balance 2:1 on every face pair, and the face list's cell sides
    # against the pointer forest's face neighbours
    leaves = oracle.leaves()
    expected = face_neighbors(leaves, dim, conn.tree_dims, conn.periodic, b)
    for (i, axis, side), nbrs in expected.items():
        for j in nbrs or ():
            assert abs(leaves[i][1] - leaves[j][1]) <= 1
    for axis in range(dim):
        check_face_list(f, f.face_list(axis), expected)
    return checks


def test_criterion_05_tree_invariant_fuzzing():
    rng = np.random.default_rng(2024)
    patterns = 0
    # 2D at b=5 and 3D at b=3; every adapt (Coarsen marks active)
    # cross-checked against the pointer-tree oracle, and every forest checked
    # for 2:1, exact tiling and face-list neighbours
    for _ in range(200):
        patterns += _fuzz_once(rng, 2, b=5, rounds=3)
    for _ in range(134):
        patterns += _fuzz_once(rng, 3, b=3, rounds=3)
    assert patterns >= 1000
    _report(
        5,
        f"{patterns} randomized mark patterns matched the pointer-tree oracle (2D b=5, 3D b=3); "
        "face-list neighbours matched the lattice oracle",
    )


def test_criterion_06_morton_oracle_equivalence():
    for dim, b in ((2, 4), (3, 3)):
        conn = Connectivity(dim, (1,) * dim, (False,) * dim)
        # encode_many exhaustively against the string-interleave oracle
        coords = list(itertools.product(range(1 << b), repeat=dim))
        keys = morton.encode_many(np.array(coords)).tolist()
        assert keys == [interleave_oracle(c, b) for c in coords]
        assert [deinterleave_oracle(k, dim, b) for k in keys] == coords
        for lvl in range(b + 1):
            # every level's anchors, sorted by key, the anchors new_uniform
            # builds from the child offsets and the children refine makes of
            # all of them, against the recursive z-order traversal
            anchors = zorder_traversal(dim, b, lvl)
            order = np.argsort(morton.encode_many(np.array(sorted(anchors))))
            assert [sorted(anchors)[k] for k in order] == anchors
            f = new_uniform(conn, level=lvl, b=b)
            assert [tuple(c) for c in f.coords.tolist()] == anchors
            # face neighbours through face_list: a shift by one cell, or a wall
            expected = oracle_neighbors(f)
            for axis in range(dim):
                check_face_list(f, f.face_list(axis), expected)
            if lvl < b:
                kids, _ = f.refine(np.full(f.nleaves, REFINE, dtype=np.int8))
                assert [tuple(c) for c in kids.coords.tolist()] == zorder_traversal(dim, b, lvl + 1)
                # and coarsen merges every group back into its parent
                back, _ = kids.coarsen(np.full(kids.nleaves, COARSEN, dtype=np.int8))
                assert [tuple(c) for c in back.coords.tolist()] == anchors
                assert np.all(back.level == lvl)
    _report(
        6,
        "encode_many, new_uniform anchors, refine/coarsen and face_list neighbours match brute force "
        "(2D b<=4, 3D b<=3)",
    )


def test_criterion_07_partition_quality():
    rng = np.random.default_rng(7)
    forests = []
    conn = Connectivity(2, (2, 1), (True, False))
    f = new_uniform(conn, level=2, b=5)
    for _ in range(3):
        marks = rng.choice([KEEP, REFINE], p=[0.6, 0.4], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
        forests.append(f)
    forests.append(new_uniform(Connectivity(2, (1, 1), (True, True)), level=4, b=4))
    for fi in forests:
        for P in range(1, 17):
            if P > fi.nleaves:
                continue
            pm = partition(fi, P)
            sizes = np.diff(pm.offsets)
            assert sizes.max() - sizes.min() <= 1
            layers = [set(ghost_layer(fi, pm, r).indices.tolist()) for r in range(P)]
            for r in range(P):
                for g in layers[r]:
                    owner = int(pm.owner_of(np.array([g]))[0])
                    lo, hi = pm.range(r)
                    assert any(lo <= x < hi for x in layers[owner]), "ghost symmetry broken"

    # physics outputs independent of the rank count (adaptive run)
    results = {}
    for P in (1, 5):
        cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.1, ranks=P)
        results[P] = run(cfg, write_outputs=False)
    a, b_ = results[1], results[5]
    assert a.forest.nleaves == b_.forest.nleaves
    differ = int(np.count_nonzero(a.field != b_.field))
    assert differ == 0, f"rank-dependent physics: {differ} field values differ between P=1 and P=5"
    _report(7, "load spread <=1 and ghost symmetry for P in 1..16; P=1 and P=5 fields bitwise equal")


def test_criterion_08_contact_and_free_stream():
    # free stream on a multi-level mesh, 100 steps, uniform to 1e-14
    rng = np.random.default_rng(3)
    conn = Connectivity(2, (1, 1), (True, True))
    f = new_uniform(conn, level=2, b=4)
    for _ in range(2):
        marks = rng.choice([KEEP, REFINE], p=[0.6, 0.4], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
    fp = default_config("disk_advection").fluids
    u0 = eos.state_from_pressure_alpha(1e5, np.full(f.nleaves, 0.4), np.array([0.7, -0.3]), fp)
    cfg = SweepConfig(order=2, splitting="strang", cfl=0.9)
    u = u0.copy()
    for _ in range(100):
        u, _ = solver.step(f, u, cfg, fp)
    rel_fs = np.max(np.abs(u - u0) / np.maximum(np.abs(u0), 1e-30))
    assert rel_fs <= 1e-14, f"free stream drift {rel_fs:.2e}"

    # contact: uniform (u, p), varying alpha; p and u hold to 1e-9
    f2 = new_uniform(conn, level=5, b=5)
    x = f2.centers[:, 0]
    alpha = 0.5 + 0.4 * np.sin(2 * np.pi * x)
    ux = 1.0
    u = eos.state_from_pressure_alpha(1e5, alpha, np.array([ux, 0.0]), fp)
    for _ in range(100):
        u, _ = solver.step(f2, u, cfg, fp)
    rho = u[:, 0]
    p = eos.mixture_pressure(rho, u[:, 1] / rho, fp)
    dev_p = np.max(np.abs(p / 1e5 - 1.0))
    dev_u = np.max(np.abs(u[:, 2] / rho - ux))
    assert dev_p <= 1e-9 and dev_u <= 1e-9
    _report(
        8,
        f"free stream stable to {rel_fs:.1e} (<=1e-14) over 100 steps; "
        f"contact keeps p,u within {max(dev_p, dev_u):.1e} (<=1e-9)",
    )


def _run_shock(n_trees: int):
    cfg = default_config(
        "shock_tube", trees=(n_trees, 1), tree_extent=1.0 / n_trees, t_end=0.05
    )
    setup = init_case(cfg)
    f, u, fp = setup.forest, setup.field, setup.fluids
    scfg = cfg.sweep_config
    t = 0.0
    entropies = [solver.total_entropy(f, u, fp)]
    while t < cfg.t_end * (1 - 1e-14):
        dt = solver.compute_dt(f, u, scfg, fp)
        dt = min(dt, cfg.t_end - t)
        u, _ = solver.step(f, u, scfg, fp, dt=dt)
        t += dt
        entropies.append(solver.total_entropy(f, u, fp))
    return u, np.array(entropies)


def test_criterion_09_shock_tube_self_convergence_and_entropy():
    ref_n = 4096  # 16x the finest tested resolution
    u_ref, _ = _run_shock(ref_n)
    rho_ref = u_ref[:, 0]
    errs = []
    for n in (64, 128, 256):
        u, ent = _run_shock(n)
        block = rho_ref.reshape(n, ref_n // n).mean(axis=1)
        errs.append(float(np.abs(u[:, 0] - block).mean()))
        if n == 64:
            growth = np.diff(ent)
            assert np.all(growth <= 1e-10), f"entropy grew by {growth.max():.2e}"
            max_growth = growth.max()
    assert errs[0] > errs[1] > errs[2], f"L1 distances not monotone: {errs}"
    _report(
        9,
        f"L1 to 16x reference: {errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e}; "
        f"entropy change per step <= {max_growth:.1e} (<=1e-10)",
    )


def test_criterion_10_profiling_and_frontier_substitutes():
    cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.1)
    res = run(cfg, write_outputs=False)
    coverage = res.profile.covered / res.profile.wall
    assert coverage >= 0.9, f"profiling covers only {coverage:.1%} of the loop"

    bench = harness.bench_partition_study(cfg, [1, 2, 4, 8, 16])
    ratios = [bench["ranks"][P]["max_ratio"] for P in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:])), ratios
    assert all(bench["ranks"][P]["load_spread"] <= 1 for P in (1, 2, 4, 8, 16))
    _report(
        10,
        f"profiling covers {coverage:.1%} (>=90%) of loop time; frontier ratio "
        f"non-decreasing over P=1..16: {['%.3f' % r for r in ratios]}",
    )
