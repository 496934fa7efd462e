"""One leaf map per adapt: ``Forest.adapt`` and its single projection against
the operation-at-a-time chain of ``oracles.sequential_adapt``, bit for bit."""
import numpy as np
import pytest

from amrfv import harness
from amrfv.criteria import Criterion
from amrfv.eos import FluidPair
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, new_uniform

import oracles

MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)
CRIT = Criterion("rho_gradient", 1.0)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def random_field(rng, n):
    # mixed signs and magnitudes, so a changed summation order shows in the bits
    return rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))


def random_marks(rng, f):
    """Random tags, then whole sibling groups set to Coarsen so that merges are common."""
    marks = rng.choice([KEEP, REFINE, COARSEN], p=rng.dirichlet([1.0, 1.0, 1.0]), size=f.nleaves)
    starts, _ = f.sibling_groups(np.ones(f.nleaves, dtype=bool))
    whole = starts[rng.random(len(starts)) < 0.3]
    marks[(whole[:, None] + np.arange(1 << f.dim)).ravel()] = COARSEN
    return marks.astype(np.int8)


def adapt_with_marks(monkeypatch, f, u, marks):
    # the fields are not states (their densities take both signs), so the
    # criterion, which rejects a non-positive density, is skipped with the marks
    monkeypatch.setattr(harness, "evaluate", lambda *a: None)
    monkeypatch.setattr(harness, "mark", lambda *a: marks)
    return harness.adapt_mesh(f, u, CRIT, MILD)


def assert_same(fa, ua, fb, ub):
    np.testing.assert_array_equal(fa.tree, fb.tree)
    np.testing.assert_array_equal(fa.level, fb.level)
    np.testing.assert_array_equal(fa.coords, fb.coords)
    np.testing.assert_array_equal(bits(ua), bits(ub))


# (connectivity, b, min_level) of the adapt fuzz tests
CONNECTIVITIES = {
    "2d_periodic": (Connectivity(2, (1, 1), (True, True)), 5, 0),
    "2d_walls_two_trees": (Connectivity(2, (2, 1), (False, True)), 5, 1),
    "2d_walls_three_trees": (Connectivity(2, (1, 3), (False, False), 0.5), 4, 0),
    "3d_walls_two_trees": (Connectivity(3, (1, 2, 1), (False, False, True)), 4, 0),
    "3d_walled_box": (Connectivity(3, (2, 1, 1), (False, False, False)), 3, 1),
}


@pytest.mark.parametrize("conn, b, min_level", list(CONNECTIVITIES.values()), ids=list(CONNECTIVITIES))
def test_single_projection_matches_sequential_chain(conn, b, min_level):
    rng = np.random.default_rng(b * 10 + conn.dim + conn.ntrees)
    shared = 0
    for _ in range(4):
        f = new_uniform(conn, level=min_level + 1, b=b, min_level=min_level)
        u = random_field(rng, f.nleaves)
        for _ in range(5):
            marks = random_marks(rng, f)
            fo, uo = oracles.sequential_adapt(f, marks, u)
            f, lmap = f.adapt(marks)
            shared += np.count_nonzero((np.diff(lmap.first) == 0) & (lmap.counts[1:] > 1))
            u = lmap.project(u)
            assert_same(f, u, fo, uo)
    # somewhere in the fuzz, balance kept a wanted merge unmade
    assert shared > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_balance_re_refines_a_merged_parent(monkeypatch, dim):
    # the first 2^d leaves want to merge and leaf 2^d, across their high x
    # face, refines: the merged parent would be two levels coarser than its
    # new neighbours, so balance keeps the 2^d leaves, which share one span
    m = 1 << dim
    f = new_uniform(Connectivity(dim, (1,) * dim, (False,) * dim), level=2, b=3)
    u = random_field(np.random.default_rng(dim), f.nleaves)
    marks = np.full(f.nleaves, KEEP, dtype=np.int8)
    marks[:m] = COARSEN
    marks[m] = REFINE
    _, total = f.adapt(marks)
    assert total.first[:m].tolist() == [0] * m and total.counts[:m].tolist() == [m] * m
    fa, ua = adapt_with_marks(monkeypatch, f, u, marks)
    assert_same(fa, ua, *oracles.sequential_adapt(f, marks, u))
    np.testing.assert_array_equal(fa.level[:m], [2] * m)
    # each of them takes the mean of all 2^d merged leaves, not one old value
    mean = np.tile(u[:m].sum(axis=0) / m, (m, 1))
    np.testing.assert_allclose(ua[:m], mean, rtol=0, atol=1e-14 * np.abs(u[:m]).max())


@pytest.mark.parametrize("dim", [2, 3])
def test_kept_merge_without_a_change_takes_the_group_mean(monkeypatch, dim):
    # the first 2^d leaves want to merge, and the children of leaf 2^d across
    # their high x face keep them: the adapt changes no leaf and returns its
    # own forest, yet the 2^d leaves still share one span and take its mean
    m = 1 << dim
    f = new_uniform(Connectivity(dim, (1,) * dim, (False,) * dim), level=2, b=3)
    f, _ = f.refine(np.where(np.arange(f.nleaves) == m, REFINE, KEEP))
    u = random_field(np.random.default_rng(dim), f.nleaves)
    marks = np.full(f.nleaves, KEEP, dtype=np.int8)
    marks[:m] = COARSEN
    g, total = f.adapt(marks)
    assert g is f
    assert total.first[:m].tolist() == [0] * m and total.counts[:m].tolist() == [m] * m
    fa, ua = adapt_with_marks(monkeypatch, f, u, marks)
    assert fa is f
    assert_same(fa, ua, *oracles.sequential_adapt(f, marks, u))
    np.testing.assert_array_equal(bits(ua[m:]), bits(u[m:]))
    mean = np.tile(u[:m].sum(axis=0) / m, (m, 1))
    np.testing.assert_allclose(ua[:m], mean, rtol=0, atol=1e-14 * np.abs(u[:m]).max())
    assert not np.array_equal(ua[:m], u[:m])


class TestLeafMap:
    def test_refine_and_coarsen_maps(self):
        f = new_uniform(Connectivity(2, (1, 1), (False, False)), level=1, b=2)
        f2, rmap = f.refine(np.array([KEEP, REFINE, KEEP, KEEP], dtype=np.int8))
        assert rmap.first.tolist() == [0, 1, 1, 1, 1, 2, 3]
        assert rmap.counts.tolist() == [1] * 7
        f3, cmap = f2.coarsen(np.array([KEEP] + [COARSEN] * 4 + [KEEP] * 2, dtype=np.int8))
        assert cmap.first.tolist() == [0, 1, 5, 6]
        assert cmap.counts.tolist() == [1, 4, 1, 1]
