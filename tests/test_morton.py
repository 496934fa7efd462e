import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amrfv import morton
from amrfv.errors import ConfigError
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, Forest, new_uniform

import oracles
from oracles import deinterleave_oracle, interleave_oracle, zorder_traversal
from test_forest import oracle_neighbors, side_cells
from test_leafmap import CONNECTIVITIES, random_marks


def encode(coords):
    return int(morton.encode_many(np.array([coords]))[0])


def decode(key, dim):
    """The lattice point of a key at the widest lattice, by the textual oracle."""
    return deinterleave_oracle(key, dim, morton.MAX_B[dim])


def anchors(f):
    return [tuple(c) for c in f.coords.tolist()]


def conn(dim):
    return Connectivity(dim, (1,) * dim, (False,) * dim)


def marked(f, tag):
    return np.full(f.nleaves, tag, dtype=np.int8)


def across(f, i, axis, side):
    """Cells across leaf i's (axis, side) face from its face list; None at a wall."""
    fl = f.face_list(axis)
    rows, cells = side_cells(fl, i, side)
    return None if np.isin(rows, fl.wall_hi if side else fl.wall_lo).any() else cells


class TestEncodeDecode:
    def test_zero(self):
        assert encode((0, 0, 0)) == 0
        assert decode(0, dim=3) == (0, 0, 0)

    def test_unit_corner(self):
        # lowest bit of each axis set -> key bits 0,1,2
        assert encode((1, 1, 1)) == 7
        assert decode(7, dim=3) == (1, 1, 1)

    def test_2d_hand_interleave(self):
        # x=2, y=3: m = y1 x1 y0 x0 = 1110b = 14 (frozen from string oracle)
        assert interleave_oracle((2, 3), 2) == 14
        assert encode((2, 3)) == 14
        assert decode(14, dim=2) == (2, 3)

    def test_out_of_range(self):
        # the forest checks the range of what it encodes: anchors outside the
        # reference cube, b beyond MAX_B and keys overflowing int64
        c = conn(2)
        for coords in ([[16, 0]], [[0, -4]]):
            with pytest.raises(ConfigError, match="outside the reference cube"):
                Forest(c, 4, 0, [0], [2], coords)
        with pytest.raises(ConfigError, match="b=32"):
            Forest(c, 32, 0, [0], [0], [[0, 0]])
        with pytest.raises(morton.DomainError):
            morton.encode_many(np.zeros((1, 4), dtype=np.int64))

    @pytest.mark.parametrize(
        "coords, bad",
        [
            # 2**32 + 1 aliased to 1, the key of (1, 0); y = 2**31 gave a negative key
            ([[0, 0], [2**32 + 1, 0]], 1),
            ([[5, 2**31]], 0),
            ([[2**31 - 1, 2**31 - 1], [1, 2], [-1, 0]], 2),
            # x = 2**21 gave key 0 in 3D
            ([[2**21, 0, 0]], 0),
            ([[0, 0, 0], [2**21 - 1, 2**21 - 1, 2**21 - 1], [3, -2, 1], [2**22, 0, 0]], 2),
        ],
        ids=["2d_wraps_32_bits", "2d_sign_bit", "2d_negative", "3d_wraps_21_bits", "3d_first_of_two"],
    )
    def test_coordinates_outside_the_lattice_rejected(self, coords, bad):
        dim = len(coords[0])
        with pytest.raises(morton.DomainError, match=rf"row {bad} .*\({coords[bad][0]}, .* outside \[0, 2\*\*{morton.MAX_B[dim]}\)"):
            morton.encode_many(np.array(coords))
        # the rows before it are in range and encode as they did
        good = morton.encode_many(np.array(coords[:bad], dtype=np.int64).reshape(-1, dim))
        assert good.tolist() == [interleave_oracle(c, morton.MAX_B[dim]) for c in coords[:bad]]

    def test_empty_and_widest_coordinates(self):
        assert morton.encode_many(np.zeros((0, 3), dtype=np.int64)).tolist() == []
        top = (1 << 31) - 1
        assert encode((top, top)) == (1 << 62) - 1
        assert encode((0, top)) == interleave_oracle((0, top), 31)

    @pytest.mark.parametrize("dim,b", [(2, 4), (3, 3)])
    def test_exhaustive_roundtrip_vs_oracle(self, dim, b):
        coords = list(itertools.product(range(1 << b), repeat=dim))
        keys = morton.encode_many(np.array(coords)).tolist()
        assert keys == [interleave_oracle(c, b) for c in coords]
        assert [deinterleave_oracle(k, dim, b) for k in keys] == coords

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_roundtrip_2d_full_width(self, x, y):
        key = encode((x, y))
        assert key == interleave_oracle((x, y), 31)
        assert decode(key, 2) == (x, y)

    @given(
        st.integers(0, 2**21 - 1),
        st.integers(0, 2**21 - 1),
        st.integers(0, 2**21 - 1),
    )
    def test_roundtrip_3d_full_width(self, x, y, z):
        key = encode((x, y, z))
        assert key == interleave_oracle((x, y, z), 21)
        assert decode(key, 3) == (x, y, z)


class TestVectorized:
    def test_full_width_random(self):
        # every 11-bit chunk of the table encode, against the string oracle
        rng = np.random.default_rng(7)
        for dim in (2, 3):
            b = morton.MAX_B[dim]
            coords = rng.integers(0, 2**b, size=(1000, dim))
            keys = morton.encode_many(coords).tolist()
            assert keys == [interleave_oracle(c, b) for c in coords.tolist()]
            assert [decode(k, dim) for k in keys] == [tuple(c) for c in coords.tolist()]


class TestTreeArithmetic:
    """Parents, children and face neighbours as the forest computes them."""

    def test_parent_of_level1(self):
        b = 5
        f = new_uniform(conn(3), level=1, b=b)
        assert anchors(f)[1] == (1 << (b - 1), 0, 0)
        parent, _ = f.coarsen(marked(f, COARSEN))
        assert (parent.level.tolist(), anchors(parent)) == ([0], [(0, 0, 0)])

    def test_parent_hand_case(self):
        # 2D b=3: level-2 quadrant at (2,4) -> clear bit b-2=1: (0,4) at level 1
        f = new_uniform(conn(2), level=2, b=3)
        i = anchors(f).index((2, 4))
        m = marked(f, KEEP)
        m[i - 1 : i + 3] = COARSEN  # (0,4) (2,4) (0,6) (2,6)
        coarse, _ = f.coarsen(m)
        j = anchors(coarse).index((0, 4))
        assert coarse.level[j] == 1 and (2, 4) not in anchors(coarse)

    def test_root_has_no_parent(self):
        f = new_uniform(conn(2), level=0, b=3)
        root, cmap = f.coarsen(marked(f, COARSEN))
        assert (root.level.tolist(), anchors(root)) == ([0], [(0, 0)])
        assert cmap.counts.tolist() == [1]

    def test_children_root_2d_b1(self):
        f, _ = new_uniform(conn(2), level=0, b=1).refine(np.array([REFINE]))
        assert anchors(f) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_children_at_max_level(self):
        f = new_uniform(conn(2), level=2, b=2)
        f2, rmap = f.refine(marked(f, REFINE))
        assert anchors(f2) == anchors(f)
        assert np.bincount(rmap.first, minlength=f.nleaves).tolist() == [1] * f.nleaves

    @pytest.mark.parametrize("dim,b", [(2, 3), (3, 3)])
    def test_parent_children_duality_exhaustive(self, dim, b):
        for lvl in range(b):
            f = new_uniform(conn(dim), level=lvl, b=b)
            kids, rmap = f.refine(marked(f, REFINE))
            assert np.bincount(rmap.first, minlength=f.nleaves).tolist() == [1 << dim] * f.nleaves
            # each parent's children: distinct, at its level + 1, and their
            # keys consecutive in Morton order from the parent's key
            step = 1 << (dim * (b - lvl - 1))
            k = kids.keys.reshape(f.nleaves, 1 << dim)
            np.testing.assert_array_equal(k, f.keys[:, None] + step * np.arange(1 << dim))
            assert np.all(kids.level == lvl + 1)
            back, cmap = kids.coarsen(marked(kids, COARSEN))
            assert anchors(back) == anchors(f) and back.level.tolist() == f.level.tolist()
            assert cmap.counts.tolist() == [1 << dim] * f.nleaves

    def test_face_neighbor_root(self):
        f = new_uniform(conn(2), level=0, b=4)
        for axis in range(2):
            for side in (0, 1):
                assert across(f, 0, axis, side) is None

    def test_face_neighbor_step(self):
        b = 4
        f = new_uniform(conn(2), level=1, b=b)
        (j,) = across(f, 0, 0, 1)
        assert anchors(f)[j] == (1 << (b - 1), 0)

    def test_face_neighbor_involution(self):
        b = 4
        f = new_uniform(conn(3), level=2, b=b)
        i = anchors(f).index((4, 8, 4))
        for axis in range(3):
            (j,) = across(f, i, axis, 1)
            assert across(f, j, axis, 0) == [i]
        expected = oracle_neighbors(f)
        for axis in range(3):
            for side in (0, 1):
                assert across(f, i, axis, side) == expected[i, axis, side]


class TestZOrder:
    @pytest.mark.parametrize("dim,b", [(2, 4), (3, 3)])
    def test_order_compactness_vs_recursive_traversal(self, dim, b):
        # sorting anchors by key must equal the recursive z-order descent
        for lvl in range(b + 1):
            expected = zorder_traversal(dim, b, lvl)
            scrambled = np.array(sorted(expected))  # lexicographic, not z-order
            keyed = scrambled[np.argsort(morton.encode_many(scrambled))]
            assert [tuple(c) for c in keyed.tolist()] == expected

    @pytest.mark.parametrize("dim, trees, top", [(2, (2, 1), 5), (3, (1, 1, 1), 4)])
    def test_new_uniform_anchors_at_max_b(self, dim, trees, top):
        # at b = MAX_B the anchors new_uniform builds from the child offsets
        # are the deinterleaved keys, and the keys encode the anchors (a 3D
        # lattice at MAX_B leaves room in the (tree, key) index for one tree)
        b = morton.MAX_B[dim]
        for level in range(top + 1):
            f = new_uniform(Connectivity(dim, trees, (False,) * dim), level=level, b=b)
            assert anchors(f) == [deinterleave_oracle(k, dim, b) for k in f.keys.tolist()]
            np.testing.assert_array_equal(f.keys, morton.encode_many(f.coords))

    def test_morton_key_orders_ancestors_first(self):
        b = 4
        f = Forest(conn(2), b, 0, [0], [2], [[4, 8]])
        kids, _ = f.refine(np.array([REFINE]))
        for key, level in zip(kids.keys.tolist(), kids.level.tolist()):
            assert (int(f.keys[0]), int(f.level[0])) < (key, level)


def fresh_sibling_ids(f):
    """Child ids and parent keys from the anchors alone: the bits of each
    anchor at its level's place, and the key of the anchor with them cleared."""
    shift = (f.b - f.level)[:, None]
    cid = (((f.coords >> shift) & 1) << np.arange(f.dim)).sum(axis=1)
    return cid, morton.encode_many(f.coords & ~(np.int64(1) << shift))


def assert_keys_derived(f):
    """Keys as encoded from the anchors; shared sibling ids and complete groups as computed afresh."""
    np.testing.assert_array_equal(f.keys, morton.encode_many(f.coords))
    cid, pkey = fresh_sibling_ids(f)
    np.testing.assert_array_equal(f.sibling_ids[0], cid)
    np.testing.assert_array_equal(f.sibling_ids[1], pkey)
    m = 1 << f.dim
    same = [(f.tree[i], f.level[i], pkey[i]) for i in range(f.nleaves)]
    whole = [i for i in range(f.nleaves - m + 1) if cid[i] == 0 and len(set(same[i : i + m])) == 1]
    assert f.sibling_groups(np.ones(f.nleaves, dtype=bool))[0].tolist() == whole


class TestDerivedKeys:
    """refine, coarsen and adapt hand the new forest keys derived by octant
    arithmetic and share the sibling ids; both must equal a fresh computation."""

    @pytest.mark.parametrize("name", sorted(CONNECTIVITIES))
    def test_fuzz_refine_coarsen_adapt(self, name):
        conn, b, min_level = CONNECTIVITIES[name]
        rng = np.random.default_rng(sorted(CONNECTIVITIES).index(name))
        for start in (min_level + 1, min_level + 2):
            f = new_uniform(conn, level=start, b=b, min_level=min_level)
            assert_keys_derived(f)
            for _ in range(10):
                op = rng.choice(["refine", "coarsen", "adapt"])
                f, _ = getattr(f, op)(random_marks(rng, f))
                assert_keys_derived(f)
                if op != "adapt":  # the next adapt needs a balanced forest
                    f, _ = oracles.balance(f)
                    assert_keys_derived(f)

    def test_roots_of_different_trees_are_no_siblings(self):
        # 2^d level-0 leaves in a row share child id 0, parent key 0 and level
        for dim in (2, 3):
            f = new_uniform(Connectivity(dim, (2,) * dim, (True,) * dim), level=0, b=3)
            assert_keys_derived(f)
            assert f.sibling_groups(np.ones(f.nleaves, dtype=bool))[0].tolist() == []

    @pytest.mark.parametrize("dim, trees", [(2, (2, 1)), (3, (1, 1, 1))])
    def test_max_b_leaves_in_the_last_tree(self, dim, trees):
        # at b = MAX_B the last tree's top corner has key 2**(dim*b) - 1 and
        # the combined (tree, key) index reaches 2**63 - 1
        b = morton.MAX_B[dim]
        conn = Connectivity(dim, trees, (False,) * dim)
        f = new_uniform(conn, level=1, b=b)
        while f.level[-1] < b:
            marks = marked(f, KEEP)
            marks[-1] = REFINE
            f, _ = f.refine(marks)
            assert_keys_derived(f)
        assert f.tree[-1] == conn.ntrees - 1 and f.keys[-1] == (1 << dim * b) - 1
        assert f._tree_keys[-1] == (1 << 63) - 1
        rng = np.random.default_rng(b)
        for _ in range(6):
            f, _ = f.adapt(random_marks(rng, f))
            assert_keys_derived(f)

