import itertools

import numpy as np
import pytest

from amrfv import morton
from amrfv.errors import ConfigError, ContractError
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, Forest, new_uniform
from amrfv.partition import partition

import oracles
from oracles import PointerForest, face_neighbors
from test_leafmap import CONNECTIVITIES


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


def oracle_neighbors(f):
    """``oracles.face_neighbors`` of the forest's leaves."""
    leaves = zip(f.tree, f.level, f.coords)
    return face_neighbors(leaves, f.dim, f.conn.tree_dims, f.conn.periodic, f.b)


def assert_two_to_one(f):
    """Every face neighbour the oracle finds is at most one level away."""
    for (i, axis, side), nbrs in oracle_neighbors(f).items():
        for j in nbrs or ():
            assert abs(int(f.level[i]) - int(f.level[j])) <= 1, f"leaf {i} axis {axis} side {side}"


def side_rows(fl, side):
    """Each cell's rows on ``side`` (0 = low, 1 = high) as lists: its first row, then those of ``fl.more``."""
    first = fl.low if side == 0 else np.arange(len(fl.low))
    rows = [[r] for r in first.tolist()]
    for r in fl.more[side].tolist():
        rows[(fl.hi, fl.lo)[side][r]].append(r)
    return rows


def side_cells(fl, i, side):
    """Rows of cell side (i, side) and the cells across them.

    A wall row joins its cell to itself, so the cell is across its walls.
    """
    rows = np.array(side_rows(fl, side)[i])
    across = (fl.hi if side else fl.lo)[rows]
    return rows, sorted(across.tolist())


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

    @pytest.mark.parametrize("dim, trees", [(2, (1, 1)), (2, (3, 2)), (3, (1, 1, 1)), (3, (2, 1, 3))])
    def test_builds_a_valid_forest(self, dim, trees):
        # new_uniform skips Forest._validate; its forests must pass it
        for level, b, periodic in ((0, 0, False), (1, 3, True), (2, 2, False), (3, 5, True)):
            conn = Connectivity(dim, trees, (periodic,) * dim, 0.5)
            f = new_uniform(conn, level=level, b=b, min_level=level // 2)
            f._validate()
            assert f.nleaves == conn.ntrees << dim * level
            np.testing.assert_array_equal(f.keys, morton.encode_many(f.coords))
            # centres from the tree origins, each tree's brick coordinates x fastest
            origin = np.stack(np.unravel_index(f.tree, trees, order="F"), axis=1) * 0.5
            want = origin + (f.coords + 0.5 * f.sizes[:, None]) * (0.5 / (1 << b))
            np.testing.assert_array_equal(f.centers.view(np.int64), want.view(np.int64))

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
        assert np.bincount(rmap.first, minlength=f.nleaves).tolist() == [4, 1, 1, 1]
        assert rmap.counts.tolist() == [1] * 7

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


class TestNothingToDo:
    """Refine, coarsen and adapt with no work return their own forest."""

    def forests(self):
        yield new_uniform(conn2d(), level=2, b=2)  # every leaf at b
        yield random_balanced(conn2d(trees=(2, 1), periodic=(True, False)), seed=8)
        yield random_balanced(conn3d(), seed=5, rounds=1)

    @staticmethod
    def assert_identity(f, g, lmap):
        assert g is f
        assert (lmap.first.tolist(), lmap.counts.tolist()) == (list(range(f.nleaves)), [1] * f.nleaves)

    def test_refine_without_refines(self):
        for f in self.forests():
            keep = np.full(f.nleaves, KEEP, dtype=np.int8)
            self.assert_identity(f, *f.refine(keep))
            self.assert_identity(f, *f.refine(np.where(f.level == f.b, REFINE, COARSEN)))  # none below b

    def test_coarsen_without_merges(self):
        for f in self.forests():
            marks = np.full(f.nleaves, COARSEN, dtype=np.int8)
            marks[np.arange(0, f.nleaves, 1 << f.dim)] = KEEP  # each sibling group loses a member
            self.assert_identity(f, *f.coarsen(marks))
            g = new_uniform(f.conn, level=1, b=3, min_level=1)  # the groups lie at min_level
            self.assert_identity(g, *g.coarsen(np.full(g.nleaves, COARSEN, dtype=np.int8)))

    def test_adapt_without_changes_returns_its_own_forest(self):
        for f in self.forests():
            built = [f.face_list(axis) for axis in range(f.dim)]
            self.assert_identity(f, *f.adapt(np.full(f.nleaves, KEEP, dtype=np.int8)))
            assert all(f.face_list(axis) is fl for axis, fl in enumerate(built))

    def test_refine_only_adapt_makes_no_merge(self, monkeypatch):
        # the refined forest is the adapt's result: coarsen makes no copy of it
        f = random_balanced(conn2d(periodic=(True, True)), seed=2)
        made = []
        init = Forest.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Forest, "__init__", counted)
        g, _ = f.adapt(marks_array(f, [(0, REFINE)]))
        assert made == [g]


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
        f3, _ = f2.coarsen(np.where(marks[rmap.first] == REFINE, COARSEN, KEEP))
        assert leaves_list(f3) == leaves_list(f)


# the pass-based oracles.balance against the pointer forest; Forest.adapt is
# checked against it in TestAdapt, tests/test_leafmap.py and criterion 05
class TestBalance:
    def test_balanced_unchanged(self):
        f = new_uniform(conn2d(), level=2, b=3)
        f2, _ = oracles.balance(f)
        assert leaves_list(f2) == leaves_list(f)
        assert_two_to_one(f2)

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
        f2, _ = oracles.balance(f)
        oracle.balance()
        assert leaves_list(f2) == oracle.leaves()
        # every neighbor chain steps by one level
        assert_two_to_one(f2)

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
        f2, _ = oracles.balance(f)
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
        f1, _ = oracles.balance(f)
        f2, _ = oracles.balance(f1)
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
            f, _ = oracles.balance(f)
            oracle.balance()
            assert leaves_list(f) == oracle.leaves()


class TestAdapt:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_reads_the_cached_face_lists(self, monkeypatch, dim):
        # adapt balances on the rows of the face lists of the forest it
        # starts from and queries no neighbour; the new forest's face lists
        # are built on first use, one high-face query and one sub-face query
        # per axis
        sizes = []
        locate = Forest.locate

        def counted(self, tree_ids, points):
            sizes.append(len(points))
            return locate(self, tree_ids, points)

        f = new_uniform(conn2d(periodic=(True, True)) if dim == 2 else conn3d(periodic=(True,) * 3), level=2, b=4)
        f, _ = f.adapt(marks_array(f, [(0, REFINE)]))
        for axis in range(dim):
            f.face_list(axis)
        monkeypatch.setattr(Forest, "locate", counted)
        f2, _ = f.adapt(marks_array(f, [(0, REFINE)]))
        assert sizes == []
        assert f2.level.max() == 4 and f2.nleaves > f.nleaves + (1 << dim) - 1
        for axis in range(dim):
            f2.face_list(axis)
        assert len(sizes) == 2 * dim

    @pytest.mark.parametrize("dim", [2, 3])
    def test_encodes_only_the_located_points(self, monkeypatch, dim):
        # refine and coarsen derive the new forest's keys from the old ones:
        # an adapt over cached face lists encodes nothing, and building the
        # new forest's face lists encodes once per locate: one per axis, and
        # one more per axis where a leaf has a finer high neighbour
        encoded, located = [], []
        encode_many, locate = morton.encode_many, Forest.locate

        def counted_encode(coords):
            encoded.append(len(coords))
            return encode_many(coords)

        def counted_locate(self, tree_ids, points):
            located.append(len(points))
            return locate(self, tree_ids, points)

        # a refine at the low corner and a merge at the high corner, which
        # balance leaves as they are
        f = new_uniform(conn2d() if dim == 2 else conn3d(), level=3, b=5)
        for axis in range(dim):
            f.face_list(axis)
        m = 1 << dim
        marks = marks_array(f, [(0, REFINE)] + [(f.nleaves - m + j, COARSEN) for j in range(m)])
        monkeypatch.setattr(morton, "encode_many", counted_encode)
        monkeypatch.setattr(Forest, "locate", counted_locate)
        f2, _ = f.adapt(marks)
        assert (encoded, located) == ([], [])
        assert (f2.nleaves, f2.level.min(), f2.level.max()) == (f.nleaves, 2, 4)
        finer = 0
        for axis in range(dim):
            head = f2.face_list(axis).hi[: f2.nleaves]
            finer += bool((f2.level.take(head) > f2.level).any())
        assert encoded == located and len(located) == dim + finer

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sibling_groups_found_on_the_old_forest_only(self, monkeypatch, dim):
        # an adapt that refines and merges coarsens the forest it starts
        # from, on the sibling groups its marks found, and then refines a
        # forest that needs none: only the old forest works out sibling ids
        derived = []
        sibling_ids = Forest.__dict__["sibling_ids"].func
        monkeypatch.setattr(Forest, "sibling_ids", property(lambda self: derived.append(self) or sibling_ids(self)))
        f = new_uniform(conn2d() if dim == 2 else conn3d(), level=3, b=5)
        m = 1 << dim
        marks = marks_array(f, [(0, REFINE)] + [(f.nleaves - m + j, COARSEN) for j in range(m)])
        f2, lmap = f.adapt(marks)
        assert len(derived) == 1 and derived[0] is f
        assert (f2.nleaves, f2.level.min(), f2.level.max()) == (f.nleaves, 2, 4)
        u = np.random.default_rng(dim).random(f.nleaves)
        f3, u3 = oracles.sequential_adapt(f, marks, u)
        assert leaves_list(f2) == leaves_list(f3)
        np.testing.assert_array_equal(lmap.project(u), u3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_uniform_face_lists_locate_once_per_axis(self, monkeypatch, dim):
        # no leaf of a uniform forest has a finer neighbour, so no axis makes
        # a sub-face query
        sizes = []
        locate = Forest.locate

        def counted(self, tree_ids, points):
            sizes.append(len(points))
            return locate(self, tree_ids, points)

        f = new_uniform(conn2d(trees=(2, 1)) if dim == 2 else conn3d(periodic=(True, False, True)), level=2, b=4)
        monkeypatch.setattr(Forest, "locate", counted)
        for axis in range(dim):
            check_face_list(f, f.face_list(axis), oracle_neighbors(f))
        assert sizes == [f.nleaves] * dim

    def test_kept_member_keeps_its_whole_group(self):
        # the level-2 group of the low-left quadrant and the two level-3
        # groups across its high x face all want to merge; a refine next to
        # the member at (10, 0), which does not touch that face, keeps it and
        # so its whole group, and the level-2 group must then stay as well,
        # while the level-3 group at (8, 4) merges
        f = new_uniform(conn2d(), level=2, b=4)
        f, _ = f.refine(np.where((f.coords[:, 0] >= 8) & (f.coords[:, 1] < 8), REFINE, KEEP))

        def at(x, y):
            return int(np.flatnonzero((f.coords == (x, y)).all(axis=1))[0])

        tags = [(at(x, y), COARSEN) for x, y in itertools.product((0, 4), (0, 4))]
        tags += [(at(x, y), COARSEN) for x, y in itertools.product((8, 10), (0, 2, 4, 6))]
        marks = marks_array(f, tags + [(at(12, 0), REFINE)])
        f2, _ = f.adapt(marks)
        assert f2.nleaves == f.nleaves  # the refine adds 3 leaves, the merge removes 3
        assert f2.level[:4].tolist() == [2] * 4
        assert leaves_list(f2) == leaves_list(oracles.sequential_adapt(f, marks, np.zeros(f.nleaves))[0])

    def test_unbalanced_forest_raises(self):
        f = new_uniform(conn2d(), level=1, b=3)
        for _ in range(2):
            f, _ = f.refine(marks_array(f, [(1, REFINE)]))
        with pytest.raises(ContractError, match="requires a 2:1-balanced forest"):
            f.adapt(np.zeros(f.nleaves, dtype=np.int8))


class TestGeometry:
    def test_root_leaf(self):
        f = new_uniform(conn2d(), level=0, b=2)
        np.testing.assert_allclose(f.centers[0], [0.5, 0.5])
        assert f.dx[0] == 1.0
        assert f.volumes[0] == 1.0

    def test_level1_first_leaf(self):
        f = new_uniform(conn2d(), level=1, b=2)
        np.testing.assert_allclose(f.centers[0], [0.25, 0.25])
        assert f.dx[0] == 0.5
        assert f.volumes[0] == 0.25

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
        fl = f.face_list(0)
        rows, across = side_cells(fl, i, 1)
        assert len(rows) == 1
        assert fl.area[rows[0]] == pytest.approx(0.25)
        assert fl.dist[rows[0]] == pytest.approx(0.25)
        assert [tuple(f.coords[j]) for j in across] == [(4, 2)]
        assert oracle_neighbors(f)[i, 0, 1] == across

    def test_wall_is_boundary(self):
        f = new_uniform(conn2d(), level=1, b=2)
        fl = f.face_list(0)
        rows, across = side_cells(fl, 0, 0)
        # one head row per cell, its high face: 1 and 3 have a high wall;
        # then the tail, the low walls of 0 and 2
        assert rows.tolist() == [4] and across == [0]
        assert fl.wall_lo.tolist() == [4, 5] and fl.wall_hi.tolist() == [1, 3]
        assert fl.lo.tolist() == [0, 1, 2, 3, 0, 2]
        assert fl.hi.tolist() == [1, 1, 3, 3, 0, 2]
        assert fl.area[4] == fl.dist[4] == f.dx[0]
        assert oracle_neighbors(f)[0, 0, 0] is None

    def test_periodic_wraps(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=1, b=2)
        rows, across = side_cells(f.face_list(0), 0, 0)
        assert [tuple(f.coords[j]) for j in across] == [(2, 0)]
        assert oracle_neighbors(f)[0, 0, 0] == across

    def test_hanging_face(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(1, REFINE)]))  # refine leaf at (4, 0)
        f, _ = oracles.balance(f)
        i = int(np.flatnonzero((f.coords[:, 0] == 0) & (f.coords[:, 1] == 0) & (f.level == 1))[0])
        fl = f.face_list(0)
        rows, across = side_cells(fl, i, 1)
        assert len(rows) == 2
        np.testing.assert_allclose(fl.area[rows], 0.25)  # dx_fine in 2D
        np.testing.assert_allclose(fl.dist[rows], 0.75 * 0.5)
        assert sorted(tuple(f.coords[j]) for j in across) == [(4, 0), (4, 2)]
        assert oracle_neighbors(f)[i, 0, 1] == across

    # each forest breaks 2:1 balance across x faces in one way, built by
    # refining the leaves at the listed anchors in turn (z = 0 in 3D); the
    # x face-list error names the querying leaf at (anchor, level)
    UNBALANCED = {
        # a level-3 leaf's high face lies on a level-1 leaf
        "coarser_by_2": ([(0, 0), (2, 2)], (3, 2), 3),
        # a level-1 leaf's high face anchor lies in a level-3 leaf
        "finer_by_2": ([(4, 0), (4, 0)], (0, 0), 1),
        # its anchor lies in a level-2 leaf and another sub-face in a level-3 leaf
        "deeper_subface": ([(4, 0), (4, 2)], (0, 0), 1),
    }

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", sorted(UNBALANCED))
    def test_unbalanced_raises(self, kind, dim):
        b = 3
        refined, anchor, level = self.UNBALANCED[kind]
        conn = conn2d() if dim == 2 else conn3d()
        f = new_uniform(conn, level=1, b=b)
        oracle = PointerForest(dim, conn.tree_dims, conn.periodic, b=b, level=1)
        for at in refined:
            at = at + (0,) * (dim - 2)
            marks = marks_array(f, [(int(np.flatnonzero((f.coords == at).all(axis=1))[-1]), REFINE)])
            f, _ = f.refine(marks)
            oracle.refine_marks(marks == REFINE)
        i = int(np.flatnonzero((f.coords == anchor + (0,) * (dim - 2)).all(axis=1) & (f.level == level))[0])
        assert max(abs(f.level[oracle_neighbors(f)[i, 0, 1]] - level)) == 2
        with pytest.raises(ContractError) as err:
            f.face_list(0)
        assert "axis 0" in str(err.value)
        assert f"{f.leaf_label(i)} has a face neighbour" in str(err.value)
        if (kind, dim) == ("coarser_by_2", 2):
            assert "leaf 4 (level 3, centre (0.4375, 0.3125))" in str(err.value)
        f2, _ = oracles.balance(f)
        oracle.balance()
        assert leaves_list(f2) == oracle.leaves()
        assert_two_to_one(f2)

    def test_3d_hanging_face_count(self):
        f = new_uniform(conn3d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(1, REFINE)]))
        f, _ = oracles.balance(f)
        i = int(np.flatnonzero((f.level == 1) & (f.coords == 0).all(axis=1))[0])
        rows, across = side_cells(f.face_list(0), i, 1)
        assert len(rows) == 4
        assert f.level[across].tolist() == [2] * 4
        assert oracle_neighbors(f)[i, 0, 1] == across


class TestFaceList:
    def test_uniform_counts(self):
        f = new_uniform(conn2d(), level=2, b=2)
        fl = f.face_list(0)
        assert len(fl.lo) == 3 * 4 + 8  # interior x-faces, then 4 walls per domain side
        assert len(fl.wall_lo) == len(fl.wall_hi) == 4

    def test_periodic_has_no_bc(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=2, b=2)
        fl = f.face_list(0)
        assert len(fl.lo) == 4 * 4
        assert len(fl.wall_lo) == len(fl.wall_hi) == 0

    def test_hanging_faces_once_per_subface(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f, _ = oracles.balance(f)
        fl = f.face_list(0)
        # every interior face pairs distinct cells exactly once
        inner = np.setdiff1d(np.arange(len(fl.lo)), np.concatenate([fl.wall_lo, fl.wall_hi]))
        pairs = set(zip(fl.lo[inner].tolist(), fl.hi[inner].tolist()))
        assert len(pairs) == len(inner) and np.all(fl.lo[inner] != fl.hi[inner])
        # face areas of hanging faces are the fine ones
        lv_lo = f.level[fl.lo]
        lv_hi = f.level[fl.hi]
        fine_dx = np.minimum(f.dx[fl.lo], f.dx[fl.hi])
        np.testing.assert_allclose(fl.area, fine_dx)
        assert np.all(np.abs(lv_lo - lv_hi) <= 1)

    def test_matches_leaf_neighbors(self):
        # cell-side neighbours of random balanced forests, 2D and 3D,
        # periodic and walled, several trees, against the lattice oracle;
        # plus the one-sided forest: its only hanging faces are seen from
        # their fine (lo) side, so only coarse low sides have later rows
        for f in layout_forests():
            expected = oracle_neighbors(f)
            for axis in range(f.dim):
                check_face_list(f, f.face_list(axis), expected)

    def test_head_and_tail(self):
        # row i < n starts at cell i, whose first low row ends at it; walls
        # on a high face are head rows, those on a low face tail rows; and a
        # rank owning cells [a, b) fluxes head rows [a, b) plus one
        # contiguous slice of the tail; in the last forest, three coarse cells
        # have a hanging high face with three sub-faces in the tail
        corner = new_uniform(conn3d(), level=1, b=3)
        corner, _ = corner.refine(marks_array(corner, [(7, REFINE)]))
        tails = 0
        for f in layout_forests() + [corner]:
            n = f.nleaves
            for axis in range(f.dim):
                fl = f.face_list(axis)
                nf = len(fl.lo)
                np.testing.assert_array_equal(fl.lo[:n], np.arange(n))
                np.testing.assert_array_equal(fl.hi[fl.low], np.arange(n))
                assert np.all((fl.wall_hi >= 0) & (fl.wall_hi < n))
                assert np.all((fl.wall_lo >= n) & (fl.wall_lo < nf))
                tails += nf > n
                for P in (2, 3, 5):
                    offsets = partition(f, P).offsets
                    for a, b in zip(offsets[:-1], offsets[1:]):
                        owned = np.flatnonzero((fl.lo >= a) & (fl.lo < b))
                        head, tail = owned[owned < n], owned[owned >= n]
                        np.testing.assert_array_equal(head, np.arange(a, b))
                        assert len(tail) == 0 or tail[-1] - tail[0] == len(tail) - 1
        assert tails > 10


def layout_forests():
    """Random balanced forests, 2D and 3D, periodic and walled, several trees; and a one-sided one."""
    forests = [
        random_balanced(conn2d(trees=(2, 1), periodic=(True, False)), seed=8, rounds=1),
        random_balanced(conn2d(trees=(2, 2)), seed=3),
        random_balanced(conn2d(trees=(1, 2), periodic=(True, True)), seed=4),
        random_balanced(conn3d(trees=(2, 1, 1)), seed=5),
        random_balanced(conn3d(trees=(1, 1, 2), periodic=(True, False, True)), seed=6),
    ]
    one_sided = new_uniform(conn2d(), level=1, b=3)
    one_sided, _ = one_sided.refine(marks_array(one_sided, [(0, REFINE)]))
    return forests + [one_sided]


def random_balanced(conn, seed, rounds=2):
    rng = np.random.default_rng(seed)
    f = new_uniform(conn, level=1, b=3)
    for _ in range(rounds):
        marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
    return f


def check_face_list(f, fl, expected):
    """Row layout and cell sides of ``fl`` against the oracle's neighbours of every cell side.

    ``expected`` is the ``oracles.face_neighbors`` dict of the forest's leaves.
    """
    n, nf = f.nleaves, len(fl.lo)
    # head row i starts at cell i, the first row of its high side; the tail
    # follows, ordered by lo cell, a cell's sub-faces ahead of its low wall
    np.testing.assert_array_equal(fl.lo[:n], np.arange(n))
    low_wall = np.zeros(nf, dtype=bool)
    low_wall[fl.wall_lo] = True
    assert np.all(np.diff(2 * fl.lo[n:] + low_wall[n:]) >= 0)
    # high walls are head rows and low walls tail rows, one per cell at most;
    # each joins its cell to itself with area dx^(d-1) and distance dx
    assert np.all(fl.wall_hi < n) and np.all(np.diff(fl.wall_hi) > 0)
    assert np.all(fl.wall_lo >= n) and np.all(np.diff(fl.lo[fl.wall_lo]) > 0)
    walls = np.concatenate([fl.wall_lo, fl.wall_hi])
    cells = fl.lo[walls]
    np.testing.assert_array_equal(fl.hi[walls], cells)
    np.testing.assert_array_equal(fl.area[walls], f.dx[cells] ** (f.dim - 1))
    np.testing.assert_array_equal(fl.dist[walls], f.dx[cells])
    wall = np.zeros(nf, dtype=bool)
    wall[walls] = True
    assert fl.low.shape == (n,)
    for side in (0, 1):
        where = f"axis {fl.axis} side {side}"
        near = fl.lo if side else fl.hi
        # the rows past each side's first, once, by cell and then row
        more = fl.more[side]
        assert np.all(np.diff(near[more] * nf + more) > 0), where
        lists = side_rows(fl, side)
        # each cell side's rows in row order, with the cell at their near
        # end; their areas tile the cell's face
        for i, rows in enumerate(lists):
            assert np.all(np.diff(rows) > 0) and np.all(near[rows] == i), f"leaf {i} {where}"
        np.testing.assert_array_equal([fl.area[rows].sum() for rows in lists], f.dx ** (f.dim - 1), err_msg=where)
        # every row sits in exactly one cell side of this side, but the walls
        # whose end on this side is the mirror
        own, other = (fl.wall_hi, fl.wall_lo) if side else (fl.wall_lo, fl.wall_hi)
        np.testing.assert_array_equal(np.sort(np.concatenate(lists)), np.setdiff1d(np.arange(nf), other))
        for i, rows in enumerate(lists):
            across = sorted((fl.hi if side else fl.lo)[rows].tolist())
            nbrs = expected[i, fl.axis, side]
            if nbrs is None:
                assert len(rows) == 1 and rows[0] in own and across == [i], f"leaf {i} {where}"
            else:
                assert not wall[rows].any() and across == nbrs, f"leaf {i} {where}"


class TestExtremeDepth:
    @pytest.mark.parametrize("dim,b", [(2, 31), (3, 21)])
    def test_keys_fit_at_max_b(self, dim, b):
        conn = conn2d() if dim == 2 else conn3d()
        f = new_uniform(conn, level=1, b=b)
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f, _ = oracles.balance(f)
        assert np.all(f.keys >= 0)  # no int64 overflow
        rows, across = side_cells(f.face_list(0), 0, 1)
        h = 1 << (b - 2)
        assert len(rows) == 1 and f.coords[across[0]].tolist() == [h] + [0] * (dim - 1)
        assert f.dx[0] == pytest.approx(2.0 ** -(2))

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
        rows = zip(f.tree.tolist(), f.level.tolist(), f.coords.tolist(), f.keys.tolist())
        text = "".join(f"{t} {lvl} {' '.join(map(str, c))} {k}\n" for t, lvl, c, k in rows)
        assert text == expected


def fuzz_forests(conn, b, min_level, seed, count=3, rounds=4):
    """Random balanced forests made by ``Forest.adapt`` from random Refine and Coarsen marks."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = new_uniform(conn, level=min_level + 1, b=b, min_level=min_level)
        for _ in range(rounds):
            marks = rng.choice([KEEP, REFINE, COARSEN], p=[0.4, 0.3, 0.3], size=f.nleaves).astype(np.int8)
            f, _ = f.adapt(marks)
        out.append(f)
    return out


def brute_force_sides(fl):
    """``(low, more)`` of a face list, row by row: a cell's first low-side row is the first row whose hi end
    is the cell (high walls excluded), or else the cell's low wall; the later rows of each side by cell, then row."""
    n, nf = len(fl.low), len(fl.lo)
    walls = set(fl.wall_lo.tolist()) | set(fl.wall_hi.tolist())
    low_wall = dict(zip(fl.lo[fl.wall_lo].tolist(), fl.wall_lo.tolist()))
    reach = [[] for _ in range(n)]
    for row in range(nf):
        if row not in walls:
            reach[fl.hi[row]].append(row)
    low = [rows[0] if rows else low_wall[i] for i, rows in enumerate(reach)]
    later_low = [row for rows in reach for row in rows[1:]]
    later_high = sorted((fl.lo[row], row) for row in range(n, nf) if row not in walls)
    return low, (later_low, [row for _, row in later_high])


class TestCellSides:
    @pytest.mark.parametrize("conn, b, min_level", list(CONNECTIVITIES.values()), ids=list(CONNECTIVITIES))
    def test_low_and_more_match_brute_force(self, conn, b, min_level):
        hanging = walled = 0
        for f in fuzz_forests(conn, b, min_level, seed=b + 7 * conn.dim + conn.ntrees):
            for axis in range(f.dim):
                fl = f.face_list(axis)
                low, more = brute_force_sides(fl)
                assert fl.low.dtype == np.int64 and fl.low.tolist() == low
                for got, expected in zip(fl.more, more):
                    assert got.dtype == np.int64 and got.tolist() == expected
                hanging += len(more[0]) > 0 and len(more[1]) > 0
                walled += len(fl.wall_lo) > 0
        assert hanging > 0
        assert walled > 0 or all(conn.periodic)
