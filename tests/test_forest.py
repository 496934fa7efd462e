import numpy as np
import pytest

from amrfv.errors import ConfigError, ContractError
from amrfv.forest import (
    COARSEN,
    KEEP,
    REFINE,
    Boundary,
    Connectivity,
    Finer,
    SameOrCoarser,
    new_uniform,
)

from oracles import PointerForest


def conn2d(trees=(1, 1), periodic=(False, False), extent=1.0):
    return Connectivity(2, tuple(trees), tuple(periodic), extent)


def conn3d(trees=(1, 1, 1), periodic=(False, False, False), extent=1.0):
    return Connectivity(3, tuple(trees), tuple(periodic), extent)


def leaves_list(f):
    return [(int(t), int(l), tuple(int(c) for c in xy)) for t, l, xy in zip(f.tree, f.level, f.coords)]


def marks_array(f, tags):
    m = np.full(f.nleaves, KEEP, dtype=np.int8)
    for i, tag in tags:
        m[i] = tag
    return m


class TestNewUniform:
    def test_single_root(self):
        f = new_uniform(conn2d(), level=0, b=3)
        assert f.nleaves == 1

    def test_level3_2d(self):
        f = new_uniform(conn2d(), level=3, b=3)
        assert f.nleaves == 64

    def test_matches_oracle_order(self):
        f = new_uniform(conn2d(), level=3, b=3)
        oracle = PointerForest(2, (1, 1), (False, False), b=3, level=3)
        assert leaves_list(f) == oracle.leaves()

    def test_two_trees_3d(self):
        f = new_uniform(conn3d(trees=(2, 1, 1)), level=2, b=3)
        assert f.nleaves == 2 * 8**2

    def test_bad_levels(self):
        with pytest.raises(ConfigError):
            new_uniform(conn2d(), level=4, b=3)
        with pytest.raises(ConfigError):
            new_uniform(conn2d(), level=1, b=2, min_level=2)


class TestRefine:
    def test_all_keep_identity(self):
        f = new_uniform(conn2d(), level=2, b=3)
        f2, rmap = f.refine(np.full(f.nleaves, KEEP, dtype=np.int8))
        assert leaves_list(f2) == leaves_list(f)
        assert rmap.n_new == f.nleaves

    def test_refine_first_leaf(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f2, rmap = f.refine(marks_array(f, [(0, REFINE)]))
        assert f2.nleaves == 7
        # first four leaves are the children of old leaf 0, in z-order
        assert leaves_list(f2)[:4] == [
            (0, 2, (0, 0)),
            (0, 2, (2, 0)),
            (0, 2, (0, 2)),
            (0, 2, (2, 2)),
        ]
        assert rmap.counts.tolist() == [4, 1, 1, 1]

    def test_saturates_at_b(self):
        f = new_uniform(conn2d(), level=2, b=2)
        f2, _ = f.refine(np.full(f.nleaves, REFINE, dtype=np.int8))
        assert leaves_list(f2) == leaves_list(f)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_marks_match_pointer_tree(self, dim):
        rng = np.random.default_rng(42)
        conn = conn2d() if dim == 2 else conn3d()
        b = 3
        f = new_uniform(conn, level=1, b=b)
        oracle = PointerForest(dim, conn.tree_dims, conn.periodic, b=b, level=1)
        for _ in range(4):
            marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
            f, _ = f.refine(marks)
            oracle.refine_marks(marks == REFINE)
            assert leaves_list(f) == oracle.leaves()


class TestCoarsen:
    def test_merge_to_root(self):
        f = new_uniform(conn2d(), level=1, b=2)
        f2, cmap = f.coarsen(np.full(f.nleaves, COARSEN, dtype=np.int8))
        assert leaves_list(f2) == [(0, 0, (0, 0))]
        assert cmap.counts.tolist() == [4]

    def test_one_sibling_keep_blocks_group(self):
        f = new_uniform(conn2d(), level=1, b=2)
        marks = np.full(f.nleaves, COARSEN, dtype=np.int8)
        marks[2] = KEEP
        f2, _ = f.coarsen(marks)
        assert leaves_list(f2) == leaves_list(f)

    def test_min_level_guard(self):
        f = new_uniform(conn2d(), level=1, b=3, min_level=1)
        f2, _ = f.coarsen(np.full(f.nleaves, COARSEN, dtype=np.int8))
        assert leaves_list(f2) == leaves_list(f)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_marks_match_pointer_tree(self, dim):
        rng = np.random.default_rng(3)
        conn = conn2d() if dim == 2 else conn3d()
        b = 3
        f = new_uniform(conn, level=2, b=b)
        oracle = PointerForest(dim, conn.tree_dims, conn.periodic, b=b, level=2)
        for _ in range(6):
            marks = rng.choice([KEEP, COARSEN], p=[0.3, 0.7], size=f.nleaves).astype(np.int8)
            f, _ = f.coarsen(marks)
            oracle.coarsen_marks(marks == COARSEN)
            assert leaves_list(f) == oracle.leaves()

    def test_refine_then_coarsen_round_trip(self):
        f = new_uniform(conn2d(), level=2, b=4)
        rng = np.random.default_rng(11)
        marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
        f2, rmap = f.refine(marks)
        back = np.full(f2.nleaves, KEEP, dtype=np.int8)
        for i in np.flatnonzero(marks == REFINE):
            back[rmap.starts[i] : rmap.starts[i + 1]] = COARSEN
        f3, _ = f2.coarsen(back)
        assert leaves_list(f3) == leaves_list(f)


class TestBalance:
    def test_balanced_unchanged(self):
        f = new_uniform(conn2d(), level=2, b=3)
        f2, _ = f.balance()
        assert leaves_list(f2) == leaves_list(f)
        assert f2.balanced

    def test_deep_cascade_matches_fixed_point_oracle(self):
        b = 3
        f = new_uniform(conn2d(), level=0, b=b)
        oracle = PointerForest(2, (1, 1), (False, False), b=b, level=0)
        # drive one corner cell to level 3
        for _ in range(3):
            marks = np.full(f.nleaves, KEEP, dtype=np.int8)
            marks[0] = REFINE
            f, _ = f.refine(marks)
            om = [False] * len(oracle.leaves())
            om[0] = True
            oracle.refine_marks(om)
        f2, _ = f.balance()
        oracle.balance()
        assert leaves_list(f2) == oracle.leaves()
        # every neighbor chain steps by one level
        assert f2.balanced

    def test_periodic_wrap_forces_refinement(self):
        b = 3
        conn = conn2d(periodic=(True, False))
        f = new_uniform(conn, level=1, b=b)
        oracle = PointerForest(2, (1, 1), (True, False), b=b, level=1)
        # refine the +x boundary leaf down to level 3
        for _ in range(2):
            target = int(np.flatnonzero((f.coords[:, 0] + f.sizes == 1 << b) & (f.coords[:, 1] == 0))[0])
            marks = marks_array(f, [(target, REFINE)])
            f, _ = f.refine(marks)
            leaves = oracle.leaves()
            om = [lvl < b and anchor[0] + (1 << (b - lvl)) == (1 << b) and anchor[1] == 0 and lvl == max(l for _, l, a in leaves if a[0] + (1 << (b - l)) == (1 << b) and a[1] == 0) for _, lvl, anchor in leaves]
            oracle.refine_marks(om)
        f2, _ = f.balance()
        oracle.balance()
        assert leaves_list(f2) == oracle.leaves()
        # the -x boundary cell at y=0 must now be finer than level 1
        lo_x = [l for t, l, a in leaves_list(f2) if a[0] == 0 and a[1] == 0]
        assert max(lo_x) >= 2

    def test_idempotent(self):
        b = 4
        f = new_uniform(conn2d(), level=1, b=b)
        for _ in range(3):
            marks = np.full(f.nleaves, KEEP, dtype=np.int8)
            marks[-1] = REFINE
            f, _ = f.refine(marks)
        f1, _ = f.balance()
        f2, _ = f1.balance()
        assert leaves_list(f1) == leaves_list(f2)

    @pytest.mark.parametrize("dim,b", [(2, 4), (3, 3)])
    def test_random_adapt_matches_oracle(self, dim, b):
        rng = np.random.default_rng(dim * 100 + b)
        conn = conn2d() if dim == 2 else conn3d()
        f = new_uniform(conn, level=1, b=b)
        oracle = PointerForest(dim, conn.tree_dims, conn.periodic, b=b, level=1)
        for _ in range(5):
            marks = rng.choice([KEEP, REFINE, COARSEN], p=[0.5, 0.3, 0.2], size=f.nleaves).astype(np.int8)
            f, _ = f.refine(marks)
            oracle.refine_marks(marks == REFINE)
            assert leaves_list(f) == oracle.leaves()
            f, _ = f.balance()
            oracle.balance()
            assert leaves_list(f) == oracle.leaves()


class TestGeometry:
    def test_root_leaf(self):
        f = new_uniform(conn2d(), level=0, b=2)
        center, dx, vol = f.cell_geometry(0)
        np.testing.assert_allclose(center, [0.5, 0.5])
        assert dx == 1.0
        assert vol == 1.0

    def test_level1_first_leaf(self):
        f = new_uniform(conn2d(), level=1, b=2)
        center, dx, vol = f.cell_geometry(0)
        np.testing.assert_allclose(center, [0.25, 0.25])
        assert dx == 0.5
        assert vol == 0.25

    def test_volume_is_dx_pow_d(self):
        f = new_uniform(conn3d(), level=2, b=3, min_level=0)
        np.testing.assert_allclose(f.volumes, f.dx**3)

    def test_tiling_sum_and_disjointness(self):
        rng = np.random.default_rng(5)
        f = new_uniform(conn2d(trees=(2, 1)), level=1, b=3)
        for _ in range(3):
            marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
            f, _ = f.refine(marks)
        # per-tree volume sum equals tree volume
        for t in range(f.conn.ntrees):
            sel = f.tree == t
            np.testing.assert_allclose(f.volumes[sel].sum(), f.conn.tree_extent**2)
        # pairwise disjoint lattice rectangles within each tree
        for t in range(f.conn.ntrees):
            sel = np.flatnonzero(f.tree == t)
            boxes = [
                (tuple(f.coords[i]), tuple(f.coords[i] + f.sizes[i]))
                for i in sel
            ]
            for a in range(len(boxes)):
                for b_ in range(a + 1, len(boxes)):
                    (lo1, hi1), (lo2, hi2) = boxes[a], boxes[b_]
                    overlap = all(
                        max(l1, l2) < min(h1, h2)
                        for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2)
                    )
                    assert not overlap


class TestLeafNeighbors:
    def test_uniform_interior(self):
        f = new_uniform(conn2d(), level=2, b=3)
        i = int(np.flatnonzero((f.coords[:, 0] == 2) & (f.coords[:, 1] == 2))[0])
        nb = f.leaf_neighbors(i, 0, 1)
        assert isinstance(nb, SameOrCoarser)
        assert nb.area == pytest.approx(0.25)
        assert nb.dist == pytest.approx(0.25)
        assert tuple(f.coords[nb.index]) == (4, 2)

    def test_wall_is_boundary(self):
        f = new_uniform(conn2d(), level=1, b=2)
        assert f.leaf_neighbors(0, 0, 0) == Boundary(0, 0)

    def test_periodic_wraps(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=1, b=2)
        nb = f.leaf_neighbors(0, 0, 0)
        assert isinstance(nb, SameOrCoarser)
        assert tuple(f.coords[nb.index]) == (2, 0)

    def test_hanging_face(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(1, REFINE)]))  # refine leaf at (4, 0)
        f, _ = f.balance()
        i = int(np.flatnonzero((f.coords[:, 0] == 0) & (f.coords[:, 1] == 0) & (f.level == 1))[0])
        nb = f.leaf_neighbors(i, 0, 1)
        assert isinstance(nb, Finer)
        assert len(nb.indices) == 2
        assert nb.area == pytest.approx(0.25)  # dx_fine in 2D
        assert nb.dist == pytest.approx(0.75 * 0.5)
        got = sorted(tuple(f.coords[j]) for j in nb.indices)
        assert got == [(4, 0), (4, 2)]

    def test_unbalanced_raises(self):
        b = 3
        f = new_uniform(conn2d(), level=1, b=b)
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        # drive the (2,2) level-2 leaf to level 3 beside a level-1 neighbor
        i = int(np.flatnonzero((f.coords[:, 0] == 2) & (f.coords[:, 1] == 2))[0])
        f, _ = f.refine(marks_array(f, [(i, REFINE)]))
        assert not f.balanced
        with pytest.raises(ContractError):
            f.leaf_neighbors(f.nleaves - 1, 0, 0)

    def test_3d_hanging_face_count(self):
        f = new_uniform(conn3d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(1, REFINE)]))
        f, _ = f.balance()
        i = int(np.flatnonzero((f.level == 1) & (f.coords == 0).all(axis=1))[0])
        nb = f.leaf_neighbors(i, 0, 1)
        assert isinstance(nb, Finer)
        assert len(nb.indices) == 4


class TestFaceList:
    def test_uniform_counts(self):
        f = new_uniform(conn2d(), level=2, b=2)
        fl = f.face_list(0)
        assert len(fl.lo) == 3 * 4  # interior x-faces
        assert len(fl.bc_cell) == 8  # 4 per domain side

    def test_periodic_has_no_bc(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=2, b=2)
        fl = f.face_list(0)
        assert len(fl.lo) == 4 * 4
        assert len(fl.bc_cell) == 0

    def test_hanging_faces_once_per_subface(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f, _ = f.balance()
        fl = f.face_list(0)
        # every interior face pairs distinct cells exactly once
        pairs = set(zip(fl.lo.tolist(), fl.hi.tolist()))
        assert len(pairs) == len(fl.lo)
        # face areas of hanging faces are the fine ones
        lv_lo = f.level[fl.lo]
        lv_hi = f.level[fl.hi]
        fine_dx = np.minimum(f.dx[fl.lo], f.dx[fl.hi])
        np.testing.assert_allclose(fl.area, fine_dx)
        assert np.all(np.abs(lv_lo - lv_hi) <= 1)

    def test_matches_leaf_neighbors(self):
        # random balanced forests, 2D and 3D, periodic and walled, several
        # trees, plus the one-sided forest: its only hanging faces are seen
        # from their fine (lo) side, so the coarse hi side alone needs k = 2
        forests = [
            random_balanced(conn2d(trees=(2, 1), periodic=(True, False)), seed=8, rounds=1),
            random_balanced(conn2d(trees=(2, 2)), seed=3),
            random_balanced(conn2d(trees=(1, 2), periodic=(True, True)), seed=4),
            random_balanced(conn3d(trees=(2, 1, 1)), seed=5),
            random_balanced(conn3d(trees=(1, 1, 2), periodic=(True, False, True)), seed=6),
        ]
        one_sided = new_uniform(conn2d(), level=1, b=3)
        one_sided, _ = one_sided.refine(marks_array(one_sided, [(0, REFINE)]))
        forests.append(one_sided)
        for f in forests:
            for axis in range(f.dim):
                fl = f.face_list(axis)
                pairs = set()
                for l, h in zip(fl.lo.tolist(), fl.hi.tolist()):
                    pairs.add((min(l, h), max(l, h)))
                expected = set()
                for i in range(f.nleaves):
                    for side in (0, 1):
                        nb = f.leaf_neighbors(i, axis, side)
                        if isinstance(nb, SameOrCoarser):
                            expected.add((min(i, nb.index), max(i, nb.index)))
                        elif isinstance(nb, Finer):
                            for j in nb.indices:
                                expected.add((min(i, j), max(i, j)))
                        check_slots(f, fl, i, side, nb)
                assert pairs == expected
                # every row sits in exactly one real slot on each of its sides
                nf = len(fl.lo)
                for side in (0, 1):
                    real = np.sort(fl.slots[:, side][fl.slot_area[:, side] > 0])
                    walls = nf + np.flatnonzero(fl.bc_side == side)
                    np.testing.assert_array_equal(real, np.concatenate([np.arange(nf), walls]))


def random_balanced(conn, seed, rounds=2):
    rng = np.random.default_rng(seed)
    f = new_uniform(conn, level=1, b=3)
    for _ in range(rounds):
        marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = f.balance()
    return f


def check_slots(f, fl, i, side, nb):
    """Slot rows of (i, side) against the scalar ``leaf_neighbors`` answer."""
    rows, area = fl.slots[i, side], fl.slot_area[i, side]
    where = f"leaf {i} axis {fl.axis} side {side}"
    nreal = int(np.count_nonzero(area))
    # real slots first, in row order; zero-area slots repeat the last one
    assert np.all(area[:nreal] > 0) and np.all(area[nreal:] == 0), where
    assert np.all(np.diff(rows[:nreal]) > 0), where
    assert np.all(rows[nreal:] == rows[nreal - 1]), where
    row_area = np.concatenate([fl.area, fl.bc_area])
    np.testing.assert_array_equal(area[:nreal], row_area[rows[:nreal]])
    assert sum(area.tolist()) == f.dx[i] ** (f.dim - 1), where
    across = np.concatenate([fl.hi if side else fl.lo, fl.bc_cell])[rows[:nreal]]
    if isinstance(nb, Boundary):
        assert nreal == 1 and rows[0] >= len(fl.lo), where
        assert fl.bc_side[rows[0] - len(fl.lo)] == side, where
        expected = [i]
    elif isinstance(nb, SameOrCoarser):
        expected = [nb.index]
    else:
        expected = sorted(nb.indices)
    assert sorted(across.tolist()) == expected, where


class TestExtremeDepth:
    @pytest.mark.parametrize("dim,b", [(2, 31), (3, 21)])
    def test_keys_fit_at_max_b(self, dim, b):
        conn = conn2d() if dim == 2 else conn3d()
        f = new_uniform(conn, level=1, b=b)
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f, _ = f.balance()
        assert np.all(f.keys >= 0)  # no int64 overflow
        nb = f.leaf_neighbors(0, 0, 1)
        assert isinstance(nb, SameOrCoarser)
        center, dx, vol = f.cell_geometry(0)
        assert dx == pytest.approx(2.0 ** -(2))

    def test_tree_key_overflow_rejected(self):
        # locate searches tree * 2**(dim*b) + key, which must fit in int64
        with pytest.raises(ConfigError, match=r"2\*\*63"):
            new_uniform(conn3d(trees=(2, 1, 1)), level=1, b=21)
        with pytest.raises(ConfigError, match=r"2\*\*63"):
            new_uniform(conn2d(trees=(3, 1)), level=1, b=31)
        f = new_uniform(conn2d(trees=(2, 1)), level=1, b=31)
        top = (1 << 31) - 1
        assert f.locate([1, 0], [[top, top], [0, 0]]).tolist() == [f.nleaves - 1, 0]

    def test_b_too_large_rejected(self):
        with pytest.raises(ConfigError):
            new_uniform(conn2d(), level=1, b=32)
        with pytest.raises(ConfigError):
            new_uniform(conn3d(), level=1, b=22)


class TestDump:
    def test_golden_lines(self):
        f = new_uniform(conn2d(), level=1, b=2)
        expected = "0 1 0 0 0\n0 1 2 0 4\n0 1 0 2 8\n0 1 2 2 12\n"
        assert f.dump_leaves() == expected
