import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amrfv import morton
from amrfv.errors import ConfigError
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, Forest, new_uniform

from oracles import deinterleave_oracle, interleave_oracle, zorder_traversal
from test_forest import oracle_neighbors, slot_cells


def encode(coords):
    return int(morton.encode_many(np.array([coords]))[0])


def decode(key, dim):
    return tuple(morton.decode_many(np.array([key]), dim)[0].tolist())


def anchors(f):
    return [tuple(c) for c in f.coords.tolist()]


def conn(dim):
    return Connectivity(dim, (1,) * dim, (False,) * dim)


def marked(f, tag):
    return np.full(f.nleaves, tag, dtype=np.int8)


def across(f, i, axis, side):
    """Cells across leaf i's (axis, side) face from the slot table; None at a wall."""
    fl = f.face_list(axis)
    rows, cells = slot_cells(fl, i, side)
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

    @pytest.mark.parametrize("dim,b", [(2, 4), (3, 3)])
    def test_exhaustive_roundtrip_vs_oracle(self, dim, b):
        coords = list(itertools.product(range(1 << b), repeat=dim))
        keys = morton.encode_many(np.array(coords)).tolist()
        assert keys == [interleave_oracle(c, b) for c in coords]
        assert [tuple(c) for c in morton.decode_many(np.array(keys), dim).tolist()] == coords
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
        rng = np.random.default_rng(7)
        c2 = rng.integers(0, 2**31, size=(1000, 2))
        np.testing.assert_array_equal(morton.decode_many(morton.encode_many(c2), 2), c2)
        c3 = rng.integers(0, 2**21, size=(1000, 3))
        np.testing.assert_array_equal(morton.decode_many(morton.encode_many(c3), 3), c3)


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

    def test_morton_key_orders_ancestors_first(self):
        b = 4
        f = Forest(conn(2), b, 0, [0], [2], [[4, 8]])
        kids, _ = f.refine(np.array([REFINE]))
        for key, level in zip(kids.keys.tolist(), kids.level.tolist()):
            assert (int(f.keys[0]), int(f.level[0])) < (key, level)
