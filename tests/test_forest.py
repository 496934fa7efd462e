import numpy as np
import pytest

from amrfv.errors import ConfigError, ContractError
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, Forest, new_uniform

from oracles import PointerForest, face_neighbors


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


def slot_cells(fl, i, side):
    """Real slot rows of cell side (i, side) and the cells across them."""
    rows = fl.slots[i, side][fl.slot_area[i, side] > 0]
    across = np.concatenate([fl.hi if side else fl.lo, fl.bc_cell])[rows]
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
        f2, _ = f.balance()
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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_last_pass_builds_the_face_lists(self, monkeypatch, dim):
        # a pass locates one point across each leaf's high faces, dim queries
        # on a forest without hanging faces; the face lists of the forest
        # balance returns are built by then and need no further query
        sizes = []
        locate = Forest.locate

        def counted(self, tree_ids, points):
            sizes.append(len(points))
            return locate(self, tree_ids, points)

        monkeypatch.setattr(Forest, "locate", counted)
        f = new_uniform(conn2d(periodic=(True, True)) if dim == 2 else conn3d(periodic=(True,) * 3), level=2, b=4)
        f.balance()
        assert sizes == [f.nleaves] * dim
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f2, _ = f.balance()
        sizes.clear()
        for axis in range(dim):
            f2.face_list(axis)
        assert sizes == []

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
        rows, across = slot_cells(fl, i, 1)
        assert len(rows) == 1
        assert fl.area[rows[0]] == pytest.approx(0.25)
        assert fl.dist[rows[0]] == pytest.approx(0.25)
        assert [tuple(f.coords[j]) for j in across] == [(4, 2)]
        assert oracle_neighbors(f)[i, 0, 1] == across

    def test_wall_is_boundary(self):
        f = new_uniform(conn2d(), level=1, b=2)
        fl = f.face_list(0)
        rows, across = slot_cells(fl, 0, 0)
        nf = len(fl.lo)
        assert rows.tolist() == [nf] and across == [0]
        assert fl.bc_side[rows[0] - nf] == 0
        assert oracle_neighbors(f)[0, 0, 0] is None

    def test_periodic_wraps(self):
        f = new_uniform(conn2d(periodic=(True, True)), level=1, b=2)
        rows, across = slot_cells(f.face_list(0), 0, 0)
        assert [tuple(f.coords[j]) for j in across] == [(2, 0)]
        assert oracle_neighbors(f)[0, 0, 0] == across

    def test_hanging_face(self):
        f = new_uniform(conn2d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(1, REFINE)]))  # refine leaf at (4, 0)
        f, _ = f.balance()
        i = int(np.flatnonzero((f.coords[:, 0] == 0) & (f.coords[:, 1] == 0) & (f.level == 1))[0])
        fl = f.face_list(0)
        rows, across = slot_cells(fl, i, 1)
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
        f2, _ = f.balance()
        oracle.balance()
        assert leaves_list(f2) == oracle.leaves()
        assert_two_to_one(f2)

    def test_3d_hanging_face_count(self):
        f = new_uniform(conn3d(), level=1, b=3)
        f, _ = f.refine(marks_array(f, [(1, REFINE)]))
        f, _ = f.balance()
        i = int(np.flatnonzero((f.level == 1) & (f.coords == 0).all(axis=1))[0])
        rows, across = slot_cells(f.face_list(0), i, 1)
        assert len(rows) == 4
        assert f.level[across].tolist() == [2] * 4
        assert oracle_neighbors(f)[i, 0, 1] == across


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
        # slot neighbours of random balanced forests, 2D and 3D, periodic and
        # walled, several trees, against the lattice oracle; plus the
        # one-sided forest: its only hanging faces are seen from their fine
        # (lo) side, so the coarse hi side alone needs k = 2
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
            expected = oracle_neighbors(f)
            for axis in range(f.dim):
                check_face_list(f, f.face_list(axis), expected)


def random_balanced(conn, seed, rounds=2):
    rng = np.random.default_rng(seed)
    f = new_uniform(conn, level=1, b=3)
    for _ in range(rounds):
        marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = f.balance()
    return f


def check_face_list(f, fl, expected):
    """Slot table of ``fl`` against the oracle's neighbours of every cell side.

    ``expected`` is the ``oracles.face_neighbors`` dict of the forest's leaves.
    """
    nf = len(fl.lo)
    row_area = np.concatenate([fl.area, fl.bc_area])
    for side in (0, 1):
        where = f"axis {fl.axis} side {side}"
        rows, area = fl.slots[:, side], fl.slot_area[:, side]
        nreal = np.count_nonzero(area, axis=1)
        real = np.arange(rows.shape[1]) < nreal[:, None]
        # real slots first, in row order; zero-area slots repeat the last one
        assert np.all((area > 0) == real), where
        assert np.all(np.diff(rows, axis=1)[real[:, 1:]] > 0), where
        last = rows[np.arange(f.nleaves), nreal - 1]
        assert np.all(np.where(real, True, rows == last[:, None])), where
        np.testing.assert_array_equal(area[real], row_area[rows[real]], err_msg=where)
        assert np.all(area.sum(axis=1) == f.dx ** (f.dim - 1)), where
        # every row sits in exactly one real slot of this side
        walls = nf + np.flatnonzero(fl.bc_side == side)
        np.testing.assert_array_equal(np.sort(rows[real]), np.concatenate([np.arange(nf), walls]))
        across = np.concatenate([fl.hi if side else fl.lo, fl.bc_cell])[rows]
        for i, (cells, r, k) in enumerate(zip(across.tolist(), rows.tolist(), nreal.tolist())):
            nbrs = expected[i, fl.axis, side]
            if nbrs is None:
                assert k == 1 and r[0] >= nf and fl.bc_side[r[0] - nf] == side, f"leaf {i} {where}"
            else:
                assert max(r[:k]) < nf and sorted(cells[:k]) == nbrs, f"leaf {i} {where}"


class TestExtremeDepth:
    @pytest.mark.parametrize("dim,b", [(2, 31), (3, 21)])
    def test_keys_fit_at_max_b(self, dim, b):
        conn = conn2d() if dim == 2 else conn3d()
        f = new_uniform(conn, level=1, b=b)
        f, _ = f.refine(marks_array(f, [(0, REFINE)]))
        f, _ = f.balance()
        assert np.all(f.keys >= 0)  # no int64 overflow
        rows, across = slot_cells(f.face_list(0), 0, 1)
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
