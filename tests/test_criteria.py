import numpy as np
import pytest

from amrfv import criteria, eos, harness
from amrfv.criteria import Criterion, evaluate, mark, project_solution
from amrfv.eos import FluidPair
from amrfv.errors import ConfigError, EosError
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, Forest, new_uniform

import oracles
from test_forest import oracle_neighbors

MILD = FluidPair(p1_0=1e5, rho1_0=1.0, c1=3.0, p2_0=1e5, rho2_0=2.0, c2=3.0)


def conn2d(periodic=(True, True)):
    return Connectivity(2, (1, 1), periodic)


def random_balanced(seed=0, level=2, b=4, periodic=(True, True)):
    rng = np.random.default_rng(seed)
    f = new_uniform(conn2d(periodic), level=level, b=b)
    for _ in range(2):
        marks = rng.choice([KEEP, REFINE], p=[0.7, 0.3], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
    return f


def relative_jump(b_i, neighbors, floor=0.0):
    """max |b_i - b_j| / max(b_i, b_j, floor) over the neighbour values, literally."""
    out = 0.0
    for b_j in neighbors:
        denom = max(b_i, b_j, floor)
        if denom > 0:
            out = max(out, abs(b_i - b_j) / denom)
    return out


class TestRelativeJump:
    def test_equal_neighbors(self):
        f = random_balanced(seed=3)
        assert np.all(criteria._jump_field(f, np.ones(f.nleaves), 0.0) == 0.0)

    def test_hand_value(self):
        # two walled cells, values 1 and 2: each sees |1 - 2| / 2, and |1 - 2| without a floor
        f = new_uniform(Connectivity(2, (2, 1), (False, False)), level=0, b=0)
        assert criteria._jump_field(f, np.array([1.0, 2.0]), 0.0).tolist() == [0.5, 0.5]
        assert criteria._jump_field(f, np.array([1.0, 2.0])).tolist() == [1.0, 1.0]

    def test_bulk_matches_bruteforce(self):
        f = random_balanced(seed=3)
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.5, 2.0, f.nleaves)
        got = criteria._jump_field(f, vals, 0.0)
        nbrs = oracle_neighbors(f)
        for i in range(f.nleaves):
            nbr_vals = []
            for axis in range(2):
                for side in (0, 1):
                    nbr_vals.extend(vals[j] for j in nbrs[i, axis, side])
            assert got[i] == pytest.approx(relative_jump(vals[i], nbr_vals), rel=1e-13)


class TestEvaluate:
    def test_uniform_field_all_zero(self):
        f = random_balanced(seed=5)
        u = eos.state_from_pressure_alpha(1e5, np.full(f.nleaves, 0.4), np.array([1.0, 0.0]), MILD)
        for kind in ("alpha_gradient", "rho_gradient", "mixed"):
            crit = Criterion(kind, xi=1e-5)
            assert np.all(evaluate(crit, f, u, MILD) == 0.0)
        marks = mark(f, evaluate(Criterion("rho_gradient", 1e-5), f, u, MILD), 1e-5)
        assert np.all((marks == KEEP) | (marks == COARSEN))  # nothing refines

    def test_disk_interface_locality(self):
        f = new_uniform(conn2d(), level=5, b=5)
        centers = f.centers
        r = np.hypot(centers[:, 0] - 0.5, centers[:, 1] - 0.5)
        alpha = np.where(r < 0.25, 0.9, 0.1)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.array([0.0, 0.0]), MILD)
        vals = evaluate(Criterion("alpha_gradient", 1e-3), f, u, MILD)
        nonzero = vals > 1e-12
        # nonzero only on cells whose face stencil crosses the jump
        dx = float(f.dx[0])
        assert np.all(np.abs(r[nonzero] - 0.25) < 2.5 * dx)
        assert nonzero.sum() > 0

    def test_mixed_dominates_components(self):
        f = random_balanced(seed=7)
        rng = np.random.default_rng(2)
        alpha = rng.uniform(0.2, 0.8, f.nleaves)
        u = eos.state_from_pressure_alpha(1e5, alpha, np.array([0.5, 0.2]), MILD)
        u[:, 2] += rng.normal(0, 0.05, f.nleaves) * u[:, 0]
        mixed = evaluate(Criterion("mixed", 1e-5), f, u, MILD)
        rho_only = evaluate(Criterion("rho_gradient", 1e-5), f, u, MILD)
        assert np.all(mixed >= rho_only - 1e-15)

    @pytest.mark.parametrize("kind", ["alpha_gradient", "rho_gradient", "mixed"])
    def test_zero_density_names_the_leaf(self, kind):
        # every kind checks the density before anything divides by it
        f = random_balanced(seed=5)
        u = eos.state_from_pressure_alpha(1e5, np.full(f.nleaves, 0.4), np.array([1.0, 0.0]), MILD)
        u[6, 0] = 0.0
        with pytest.raises(EosError) as err:
            evaluate(Criterion(kind, xi=1e-5), f, u, MILD)
        assert str(err.value) == f"non-positive or non-finite density at {f.leaf_label(6)}"
        assert err.value.index == 6

    def test_bad_criterion(self):
        with pytest.raises(ConfigError):
            Criterion("vorticity", 1e-3)
        with pytest.raises(ConfigError):
            Criterion("mixed", 1e-3, weights=(0.0, 0.0, 0.0))
        with pytest.raises(ConfigError, match="weights"):
            Criterion("mixed", 1e-3, weights=(1.0, 1.0))
        with pytest.raises(ConfigError):
            Criterion("rho_gradient", 0.0)


class TestMark:
    def test_all_low_groups_coarsen(self):
        f = new_uniform(conn2d(), level=2, b=2, min_level=0)
        vals = np.zeros(f.nleaves)
        marks = mark(f, vals, xi=0.5)
        assert np.all(marks == COARSEN)

    def test_one_sibling_above_keeps_group(self):
        f = new_uniform(conn2d(), level=1, b=2, min_level=0)
        vals = np.array([0.0, 0.9, 0.0, 0.0])
        marks = mark(f, vals, xi=0.5)
        assert marks[1] == REFINE
        assert np.all(marks[[0, 2, 3]] == KEEP)

    def test_exact_threshold_keeps(self):
        f = new_uniform(conn2d(), level=1, b=2, min_level=1)
        vals = np.full(f.nleaves, 0.5)
        marks = mark(f, vals, xi=0.5)
        assert np.all(marks == KEEP)

    def test_max_level_blocks_refine(self):
        # the forest's finest level b is the max level
        f = new_uniform(conn2d(), level=2, b=2, min_level=2)
        vals = np.full(f.nleaves, 1.0)
        marks = mark(f, vals, xi=0.5)
        assert np.all(marks == KEEP)

    @staticmethod
    def mark_oracle(f, values, xi, min_level, max_level):
        """Per leaf: Refine above xi below max_level; Coarsen where the leaf's
        complete sibling group (all 2^d children of one parent are leaves) lies
        above min_level with every value at or below xi; else Keep."""
        groups = {}
        for i, (t, lev, c) in enumerate(zip(f.tree.tolist(), f.level.tolist(), f.coords.tolist())):
            if lev > 0:
                groups.setdefault((t, lev, *(x >> (f.b - lev + 1) for x in c)), []).append(i)
        out = []
        for i, (t, lev, c) in enumerate(zip(f.tree.tolist(), f.level.tolist(), f.coords.tolist())):
            group = groups.get((t, lev, *(x >> (f.b - lev + 1) for x in c)), [])
            if values[i] > xi and lev < max_level:
                out.append(REFINE)
            elif lev > min_level and len(group) == 1 << f.dim and all(values[j] <= xi for j in group):
                out.append(COARSEN)
            else:
                out.append(KEEP)
        return out

    @staticmethod
    def random_values(f, seed, xi):
        # a third equal to xi or NaN, neither of which refines
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 2 * xi, f.nleaves)
        vals[rng.random(f.nleaves) < 0.15] = xi
        vals[rng.random(f.nleaves) < 0.15] = np.nan
        return vals

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_leaf_oracle(self, seed):
        f = random_balanced(seed=seed, level=2 if seed % 2 else 1)
        xi = 0.5
        vals = self.random_values(f, seed, xi)
        # and without a value above xi, so that whole groups coarsen
        no_refine = np.where(vals > xi, 0.25 * xi, vals)
        for v in (vals, no_refine):
            for floor in (0, 1, 2):
                assert mark(f, v, xi, floor).tolist() == self.mark_oracle(f, v, xi, floor, f.b)

    @pytest.mark.parametrize("seed", range(6))
    def test_refine_only_floor(self, seed):
        # a coarsening floor at the finest level gives the Refine marks of
        # the full marks, re-masked to Refine or Keep, and computes no groups
        f = random_balanced(seed=seed, level=2 if seed % 2 else 1)
        xi = 0.5
        vals = self.random_values(f, seed, xi)
        no_refine = np.where(vals > xi, 0.25 * xi, vals)
        for v in (vals, no_refine):
            g = Forest(f.conn, f.b, f.min_level, f.tree, f.level, f.coords)
            only = mark(g, v, xi, f.b)
            assert "_sibling_starts" not in vars(g)
            full = mark(f, v, xi, 0)
            assert (full == COARSEN).any() or v is vals
            assert only.tolist() == np.where(full == REFINE, REFINE, KEEP).tolist()

    def test_monotone_in_xi(self):
        f = random_balanced(seed=9)
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 1, f.nleaves)
        for xi_hi, xi_lo in [(0.8, 0.4), (0.4, 0.1)]:
            m_hi = mark(f, vals, xi=xi_hi)
            m_lo = mark(f, vals, xi=xi_lo)
            assert np.all((m_hi != REFINE) | (m_lo == REFINE))


class TestProjectSolution:
    def test_noop_identity(self):
        f = random_balanced(seed=1)
        u = np.random.default_rng(0).random((f.nleaves, 4))
        f2, rmap = f.refine(np.full(f.nleaves, KEEP, dtype=np.int8))
        u2 = project_solution(f, f2, rmap, u)
        np.testing.assert_array_equal(u2, u)

    def test_refine_copies_parent(self):
        f = new_uniform(conn2d(), level=1, b=2)
        u = np.arange(16, dtype=float).reshape(4, 4)
        f2, rmap = f.refine(np.array([REFINE, KEEP, KEEP, KEEP], dtype=np.int8))
        u2 = project_solution(f, f2, rmap, u)
        assert u2.shape == (7, 4)
        np.testing.assert_array_equal(u2[:4], np.tile(u[0], (4, 1)))
        np.testing.assert_array_equal(u2[4:], u[1:])

    def test_coarsen_takes_mean_and_conserves(self):
        f = new_uniform(conn2d(), level=2, b=2)
        rng = np.random.default_rng(5)
        u = rng.random((f.nleaves, 4))
        f2, cmap = f.coarsen(np.full(f.nleaves, COARSEN, dtype=np.int8))
        u2 = project_solution(f, f2, cmap, u)
        tot_before = (f.volumes[:, None] * u).sum(axis=0)
        tot_after = (f2.volumes[:, None] * u2).sum(axis=0)
        np.testing.assert_allclose(tot_after, tot_before, rtol=1e-15)

    def test_refine_then_coarsen_restores_exactly(self):
        f = random_balanced(seed=11)
        rng = np.random.default_rng(6)
        u = rng.random((f.nleaves, 4))
        marks = rng.choice([KEEP, REFINE], size=f.nleaves).astype(np.int8)
        f2, rmap = f.refine(marks)
        u2 = project_solution(f, f2, rmap, u)
        fresh = np.bincount(rmap.first, minlength=f.nleaves)[rmap.first] > 1
        f3, cmap = f2.coarsen(np.where(fresh, COARSEN, KEEP))
        u3 = project_solution(f2, f3, cmap, u2)
        assert f3.nleaves == f.nleaves
        np.testing.assert_array_equal(u3, u)

    def test_conservation_exact_through_random_adapts(self):
        f = random_balanced(seed=13)
        rng = np.random.default_rng(7)
        u = rng.random((f.nleaves, 4)) + 0.5
        tot = (f.volumes[:, None] * u).sum(axis=0)
        for _ in range(4):
            marks = rng.choice([KEEP, REFINE, COARSEN], p=[0.4, 0.3, 0.3], size=f.nleaves).astype(np.int8)
            f2, rmap = f.refine(marks)
            u = project_solution(f, f2, rmap, u)
            f3, cmap = f2.coarsen(marks[rmap.first])
            u = project_solution(f2, f3, cmap, u)
            f4, bmap = oracles.balance(f3)
            u = project_solution(f3, f4, bmap, u)
            f = f4
            now = (f.volumes[:, None] * u).sum(axis=0)
            np.testing.assert_allclose(now, tot, rtol=1e-14)


class TestFreshChildren:
    def test_never_coarsened_in_the_same_adapt(self):
        # children inherit their parent's Refine mark, which coarsen ignores,
        # while the Coarsen-marked siblings of a partial group stay as they are
        f = new_uniform(conn2d(), level=1, b=2)
        marks = np.array([REFINE, COARSEN, KEEP, COARSEN], dtype=np.int8)
        f2, rmap = f.refine(marks)
        assert marks[rmap.first].tolist() == [REFINE] * 4 + [COARSEN, KEEP, COARSEN]
        f3, cmap = f2.coarsen(marks[rmap.first])
        np.testing.assert_array_equal(f3.level, f2.level)
        np.testing.assert_array_equal(f3.coords, f2.coords)
        assert cmap.counts.tolist() == [1] * f2.nleaves

    def test_adapt_keeps_every_fresh_child(self, monkeypatch):
        # every leaf is a complete Coarsen group member or Refine: the refined
        # group's children survive the adapt that made them, the rest merge
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=2, b=3)
        marks = np.full(f.nleaves, COARSEN, dtype=np.int8)
        marks[:4] = REFINE
        monkeypatch.setattr(harness, "mark", lambda *a: marks)
        f4, _ = harness.adapt_mesh(f, np.ones((f.nleaves, 4)), Criterion("rho_gradient", 1.0), MILD)
        # balance re-refines the two merged parents that face the fresh children
        assert f4.level.tolist() == [3] * 16 + [2] * 8 + [1]
