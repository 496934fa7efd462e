import numpy as np
import pytest

from amrfv.errors import ConfigError
from amrfv.forest import COARSEN, KEEP, REFINE, Connectivity, new_uniform
from amrfv.harness import default_config, init_case
from amrfv.partition import balance_metrics, ghost_layer, metrics_csv, partition

import oracles
from oracles import rank_contract_violations
from test_forest import oracle_neighbors


def uniform2d(level, b=None, periodic=(False, False)):
    conn = Connectivity(2, (1, 1), periodic)
    return new_uniform(conn, level, b if b is not None else level)


def random_forest(seed=0, rounds=3):
    rng = np.random.default_rng(seed)
    f = uniform2d(2, b=5)
    for _ in range(rounds):
        marks = rng.choice([KEEP, REFINE, COARSEN], p=[0.5, 0.3, 0.2], size=f.nleaves).astype(np.int8)
        f, _ = f.refine(marks)
        f, _ = oracles.balance(f)
    return f


class TestPartition:
    def test_even_split(self):
        f = uniform2d(3)
        pm = partition(f, 4)
        assert [pm.range(r)[1] - pm.range(r)[0] for r in range(4)] == [16, 16, 16, 16]

    def test_uneven_split_sizes(self):
        f = uniform2d(2)  # 16 leaves; emulate N=10 with a sub-check below
        pm = partition(f, 4)
        assert pm.offsets == (0, 4, 8, 12, 16)
        # explicit N=10, P=4 example via a level-1 3-tree brick is overkill;
        # size law: {ceil, floor} only
        sizes = np.diff(pm.offsets)
        assert sizes.max() - sizes.min() <= 1

    def test_n10_p4(self):
        # 10 leaves: refine one corner of a 3x3... simplest: 1 tree level 1 + refine
        f = uniform2d(1, b=3)
        marks = np.array([REFINE, KEEP, KEEP, KEEP], dtype=np.int8)
        f, _ = f.refine(marks)
        f, _ = f.refine(np.array([REFINE] + [KEEP] * (f.nleaves - 1), dtype=np.int8))
        assert f.nleaves == 10
        pm = partition(f, 4)
        assert sorted(np.diff(pm.offsets), reverse=True) == [3, 3, 2, 2]

    def test_single_rank_identity(self):
        f = uniform2d(2)
        pm = partition(f, 1)
        assert pm.offsets == (0, f.nleaves)

    def test_p_exceeds_n(self):
        f = uniform2d(0)
        with pytest.raises(ConfigError):
            partition(f, 2)

    @pytest.mark.parametrize("P", [1, 2, 3, 5, 7, 16])
    def test_load_balance_bound(self, P):
        f = random_forest(seed=P)
        pm = partition(f, P)
        sizes = np.diff(pm.offsets)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == f.nleaves


class TestGhostLayer:
    def test_single_rank_empty(self):
        f = uniform2d(2)
        gl = ghost_layer(f, partition(f, 1), 0)
        assert len(gl.indices) == 0

    def test_two_rank_split_matches_bruteforce(self):
        f = uniform2d(3)  # 8x8
        pm = partition(f, 2)
        nbrs = oracle_neighbors(f)
        for rank in range(2):
            lo_idx, hi_idx = pm.range(rank)
            expected = set()
            for i in range(lo_idx, hi_idx):
                for axis in range(2):
                    for side in (0, 1):
                        for j in nbrs[i, axis, side] or ():
                            if not (lo_idx <= j < hi_idx):
                                expected.add(j)
            gl = ghost_layer(f, pm, rank)
            assert set(gl.indices.tolist()) == expected

    def test_ghosts_owned_elsewhere_and_symmetry(self):
        f = random_forest(seed=4)
        pm = partition(f, 4)
        layers = [ghost_layer(f, pm, r) for r in range(4)]
        for r, gl in enumerate(layers):
            lo_idx, hi_idx = pm.range(r)
            for g in gl.indices.tolist():
                assert not (lo_idx <= g < hi_idx)
                owner = int(pm.owner_of(np.array([g]))[0])
                # some owned leaf of r is a ghost of g's owner
                olo, ohi = pm.range(r)
                assert any(olo <= x < ohi for x in layers[owner].indices.tolist())


def fuzz_forests(seed=2024):
    """The balanced forests of criterion 05: same seed, marks and draw order."""
    rng = np.random.default_rng(seed)
    for dim, b, count in ((2, 5, 200), (3, 3, 134)):
        for _ in range(count):
            f = new_uniform(Connectivity(dim, (1,) * dim, (False,) * dim), level=1, b=b)
            for _ in range(3):
                marks = rng.choice([KEEP, REFINE, COARSEN], p=[0.4, 0.3, 0.3], size=f.nleaves).astype(np.int8)
                f, _ = f.refine(marks)
                f, _ = oracles.balance(f)
            yield f


def assert_rank_contract(f, ranks=(2, 3, 5)):
    rows = []
    for axis in range(f.dim):
        fl = f.face_list(axis)
        rows += zip(fl.lo.tolist(), fl.hi.tolist())
    for P in ranks:
        if P <= f.nleaves:
            pm = partition(f, P)
            ghosts = [set(ghost_layer(f, pm, r).indices.tolist()) for r in range(P)]
            assert rank_contract_violations(rows, pm.offsets, ghosts) == [], f"P={P}"


class TestRankContract:
    def test_fuzz_forests(self):
        n = 0
        for f in fuzz_forests():
            assert_rank_contract(f)
            n += 1
        assert n == 334

    @pytest.mark.parametrize("case", ["disk_advection", "drop2d"])
    def test_adapted_forests(self, case):
        f = init_case(default_config(case, max_level=6, min_level=3)).forest
        assert len(np.unique(f.level)) > 2
        assert_rank_contract(f)

    def test_oracle_flags_a_missing_ghost(self):
        f = uniform2d(2)
        pm = partition(f, 2)
        ghosts = [set(ghost_layer(f, pm, r).indices.tolist()) for r in range(2)]
        fl = f.face_list(1)
        rows = list(zip(fl.lo.tolist(), fl.hi.tolist()))
        assert rank_contract_violations(rows, pm.offsets, ghosts) == []
        lo, hi = next((a, b) for a, b in rows if pm.owner_of(np.array([a]))[0] != pm.owner_of(np.array([b]))[0])
        ghosts[0].discard(hi)
        assert (0, lo, hi) in rank_contract_violations(rows, pm.offsets, ghosts)


class TestBalanceMetrics:
    def test_single_rank(self):
        f = uniform2d(2)
        m = balance_metrics(f, partition(f, 1))
        assert m[0].frontier == 0
        assert m[0].ratio == 0.0
        assert m[0].components == 1

    def test_uniform_divisible_load(self):
        f = uniform2d(5)
        m = balance_metrics(f, partition(f, 4))
        loads = [x.leaves for x in m]
        assert max(loads) / min(loads) == 1.0

    def test_components_match_flood_fill(self):
        f = random_forest(seed=9)
        pm = partition(f, 5)
        nbrs = oracle_neighbors(f)
        metrics = balance_metrics(f, pm)
        for r in range(pm.P):
            lo_idx, hi_idx = pm.range(r)
            owned = list(range(lo_idx, hi_idx))
            seen = set()
            comps = 0
            for start in owned:
                if start in seen:
                    continue
                comps += 1
                stack = [start]
                seen.add(start)
                while stack:
                    i = stack.pop()
                    for axis in range(2):
                        for side in (0, 1):
                            for j in nbrs[i, axis, side] or ():
                                if lo_idx <= j < hi_idx and j not in seen:
                                    seen.add(j)
                                    stack.append(j)
                assert comps < 1000
            assert metrics[r].components == comps

    @pytest.mark.parametrize("P", range(1, 9))
    def test_frontier_matches_bruteforce(self, P):
        # a frontier cell has an oracle face neighbour that another rank owns
        for seed in (P, 20 + P):
            f = random_forest(seed=seed)
            pm = partition(f, P)
            owner = pm.owner_of(np.arange(f.nleaves)).tolist()
            nbrs = oracle_neighbors(f)
            frontier = [0] * P
            for i in range(f.nleaves):
                frontier[owner[i]] += any(
                    owner[j] != owner[i] for axis in range(2) for side in (0, 1) for j in nbrs[i, axis, side] or ()
                )
            for m in balance_metrics(f, pm):
                lo_idx, hi_idx = pm.range(m.rank)
                assert (m.frontier, m.ratio) == (frontier[m.rank], frontier[m.rank] / (hi_idx - lo_idx))
                assert type(m.frontier) is int and type(m.ratio) is float

    def test_frontier_ratio_monotone_in_p(self):
        f = uniform2d(5)
        ratios = []
        for P in (1, 2, 4, 8, 16):
            m = balance_metrics(f, partition(f, P))
            ratios.append(max(x.ratio for x in m))
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_csv_format(self):
        f = uniform2d(2)
        pm = partition(f, 2)
        text = metrics_csv(balance_metrics(f, pm), [len(ghost_layer(f, pm, r).indices) for r in range(2)])
        lines = text.strip().split("\n")
        assert lines[0] == "rank,leaves,frontier,ratio,components,ghosts"
        assert len(lines) == 3
        assert all(line.endswith(",4") for line in lines[1:])  # the 4 cells across the cut
