"""Forest of Morton-ordered quad/octrees over an axis-aligned brick macro-mesh.

The leaf array is kept sorted by (tree id, Morton key); refinement and
coarsening splice children / merged parents in place, which preserves the
z-order without re-sorting.  ``adapt`` refines, coarsens and 2:1-balances
in level space: ``balance`` lifts each leaf's wanted level to the least 2:1
fixed point over the old forest's face rows, one refine and one coarsen make
it, and one ``LeafMap`` (each new leaf averages a span of old leaves)
projects the solution once.  There is one neighbour query, ``_face_rows``:
each leaf locates the lattice point one step across its high face, and a
leaf with a finer neighbour locates each fine sub-face, so every face of an
axis is found once, from its lower leaf.  ``face_list`` is the one
face-connectivity structure the kernels and ``balance`` use: row i is cell
i's first high face, then a tail of the other sub-faces and the low walls by
cell (a wall is a row from its cell to itself), plus a per-cell slot table,
so kernels read each head row's lo end in place, each cell reduces its own
faces in a fixed order and a rank fluxes one slice of the head and the tail.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from amrfv import morton
from amrfv.errors import ConfigError, ContractError

__all__ = [
    "KEEP",
    "REFINE",
    "COARSEN",
    "Connectivity",
    "Forest",
    "LeafMap",
    "FaceList",
    "new_uniform",
]

# per-leaf adaptation tags
KEEP, REFINE, COARSEN = 0, 1, 2


@dataclass(frozen=True)
class Connectivity:
    """Brick of trees with identical coordinate frames and optional periodicity."""

    dim: int
    tree_dims: tuple[int, ...]
    periodic: tuple[bool, ...]
    tree_extent: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.tree_dims) != self.dim or len(self.periodic) != self.dim:
            raise ConfigError("tree_dims/periodic length must match dim")
        if any(t < 1 for t in self.tree_dims):
            raise ConfigError("tree_dims must be positive")
        if self.tree_extent <= 0:
            raise ConfigError("tree_extent must be positive")

    @property
    def ntrees(self) -> int:
        n = 1
        for t in self.tree_dims:
            n *= t
        return n

    @property
    def domain_extents(self) -> tuple[float, ...]:
        return tuple(t * self.tree_extent for t in self.tree_dims)

    def tree_coords_many(self, tids: np.ndarray) -> np.ndarray:
        """Brick coordinates of tree ids (x fastest)."""
        tids = np.asarray(tids, dtype=np.int64)
        out = np.empty(tids.shape + (self.dim,), dtype=np.int64)
        rem = tids
        for a in range(self.dim):
            out[..., a] = rem % self.tree_dims[a]
            rem = rem // self.tree_dims[a]
        return out

    def tree_ids_many(self, tcoords: np.ndarray) -> np.ndarray:
        tcoords = np.asarray(tcoords, dtype=np.int64)
        out = np.zeros(tcoords.shape[:-1], dtype=np.int64)
        for a in reversed(range(self.dim)):
            out = out * self.tree_dims[a] + tcoords[..., a]
        return out


@dataclass(frozen=True)
class LeafMap:
    """New leaf j takes the mean of old leaves [first[j], first[j] + counts[j]).

    Refinement repeats the parent (counts 1) and coarsening merges 2^d
    siblings (counts 2^d).
    """

    first: np.ndarray  # (N_new,) first old leaf of each new leaf's span
    counts: np.ndarray  # (N_new,) old leaves in the span

    @property
    def n_old(self) -> int:
        return int(self.first[-1] + self.counts[-1])

    @property
    def n_new(self) -> int:
        return len(self.first)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Mean over each span of equal-volume old leaves.

        An adapt may keep a wanted merge unmade, so new leaves can share a
        span: each run of equal ``first`` is summed once and repeated to the run.
        """
        starts = np.concatenate(([True], self.first[1:] != self.first[:-1]))
        head = np.flatnonzero(starts)
        sums = np.add.reduceat(np.asarray(u, dtype=np.float64), self.first[head], axis=0)
        shape = (len(head),) + (1,) * (sums.ndim - 1)
        means = sums / self.counts[head].reshape(shape)
        return np.take(means, np.cumsum(starts) - 1, axis=0)


@dataclass(frozen=True)
class FaceList:
    """All unique faces of one sweep axis, and each cell side's share of them.

    ``Forest.face_list`` builds it on first use; an adapt builds none for its
    new forest.  Each row joins ``lo`` (lower coordinate side) to ``hi``, and
    every kernel reads every row the same way.  Hanging faces appear once per
    fine sub-face.  A wall (a non-periodic domain face) is a row from its cell
    to itself, with area dx^(d-1) and distance dx, whose end across the wall
    stands for the cell's mirror image, the cell with its normal momentum
    negated.  ``wall_lo`` names the wall rows on a cell's low face (their lo
    end is the mirror) and ``wall_hi`` those on its high face (their hi end is).
    The head, rows i < n, holds cell i's first high face (the first sub-face
    of a hanging face, or the high wall) in row i, so ``lo[:n] == arange(n)``
    and kernels read the head's lo ends in place.  The tail holds the other
    sub-faces and the low walls, ordered by lo cell, a cell's sub-faces first:
    a rank owning cells [a, b) fluxes head rows [a, b) and one tail slice.
    ``slots[i, s]`` lists the rows on side s (0 = low, 1 = high) of cell i in
    row order, so ``slots[i, 1, 0] == i``.  Its last extent k is the largest
    face count of a cell side; a side with fewer faces repeats its last row
    with zero ``slot_area``: no change to a running min/max, +0.0 to sums.
    """

    axis: int
    lo: np.ndarray
    hi: np.ndarray
    area: np.ndarray
    dist: np.ndarray  # center-to-center distance along axis
    wall_lo: np.ndarray  # rows whose lo end mirrors the cell across its low face
    wall_hi: np.ndarray  # rows whose hi end mirrors the cell across its high face
    slots: np.ndarray  # (n, 2, k), Fortran order so slot columns are contiguous
    slot_area: np.ndarray  # (n, 2, k)

    def columns(self, row_values: np.ndarray, out=None):
        """Per-row values one slot column at a time, low side first.

        Slot 0 of the high side is the head, ``row_values[:n]`` itself; every
        other column is gathered into ``out`` when given, overwriting the last.
        """
        n, _, k = self.slots.shape
        return (
            row_values[:n] if (s, j) == (1, 0) else row_values.take(self.slots[:, s, j], out=out, mode="clip")
            for s in (0, 1) for j in range(k)
        )


class Forest:
    """Immutable macro-mesh plus z-order-sorted leaf arrays."""

    def __init__(self, conn, b, min_level, tree, level, coords, validate=True):
        self.conn = conn
        self.b = int(b)
        self.min_level = int(min_level)
        self.tree = np.asarray(tree, dtype=np.int64)
        self.level = np.asarray(level, dtype=np.int64)
        self.coords = np.asarray(coords, dtype=np.int64)
        self.keys = morton.encode_many(self.coords)
        self._face_lists: dict[int, FaceList] = {}

        if not 0 <= self.b <= morton.MAX_B[conn.dim]:
            raise ConfigError(f"b={b} outside [0, {morton.MAX_B[conn.dim]}]")
        if conn.ntrees << (conn.dim * self.b) > 1 << 63:
            raise ConfigError(
                f"{conn.ntrees} trees at b={b} overflow the int64 (tree, key) "
                f"index: ntrees * 2**(dim*b) may not exceed 2**63"
            )
        if not 0 <= self.min_level <= self.b:
            raise ConfigError("min_level must lie in [0, b]")
        # z-order invariant is load-bearing for every query; always verify
        order = (self.tree[:-1] < self.tree[1:]) | (
            (self.tree[:-1] == self.tree[1:]) & (self.keys[:-1] < self.keys[1:])
        )
        if not np.all(order):
            raise ContractError("leaf array is not strictly (tree, z-order) sorted")
        if validate:
            self._validate()

    def _validate(self):
        if np.any((self.level < 0) | (self.level > self.b)):
            raise ConfigError("leaf level outside [0, b]")
        size = self.sizes
        if np.any(self.coords % size[:, None] != 0):
            raise ConfigError("leaf coords not anchored to their level lattice")
        if np.any((self.coords < 0) | (self.coords + size[:, None] > (1 << self.b))):
            raise ConfigError("leaf coords outside the reference cube")
        if np.any((self.tree < 0) | (self.tree >= self.conn.ntrees)):
            raise ConfigError("tree id out of range")

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.conn.dim

    @property
    def nleaves(self) -> int:
        return len(self.level)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Leaf edge length on the level-b lattice."""
        return np.int64(1) << (self.b - self.level)

    @cached_property
    def _tree_keys(self) -> np.ndarray:
        """Sorted combined keys ``tree * 2**(dim*b) + key`` of the leaves."""
        return (self.tree << (self.dim * self.b)) | self.keys

    @cached_property
    def dx(self) -> np.ndarray:
        return self.conn.tree_extent * (self.sizes / float(1 << self.b))

    @cached_property
    def volumes(self) -> np.ndarray:
        return self.dx**self.dim

    @cached_property
    def centers(self) -> np.ndarray:
        origin = self.conn.tree_coords_many(self.tree) * self.conn.tree_extent
        scale = self.conn.tree_extent / float(1 << self.b)
        return origin + (self.coords + 0.5 * self.sizes[:, None]) * scale

    # -- point location ------------------------------------------------------

    def locate(self, tree_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Index of the leaf containing each lattice point of its tree."""
        tree_ids = np.asarray(tree_ids, dtype=np.int64)
        query = (tree_ids << (self.dim * self.b)) | morton.encode_many(points)
        return np.searchsorted(self._tree_keys, query, side="right") - 1

    def _adjacent_points(self, axis: int):
        """One lattice point just across each leaf's high face on ``axis``.

        Returns (tree_ids, points, interior) where ``interior`` is False on
        non-periodic domain faces; entries there are left unusable.
        """
        pts = self.coords.copy()
        pts[:, axis] += self.sizes
        ntree = self.tree.copy()
        cross = np.flatnonzero(pts[:, axis] == np.int64(1) << self.b)
        interior = np.ones(self.nleaves, dtype=bool)
        if len(cross):
            tc = self.conn.tree_coords_many(self.tree[cross])
            step = tc[:, axis] + 1
            tc[:, axis] = step % self.conn.tree_dims[axis]
            ntree[cross] = self.conn.tree_ids_many(tc)
            pts[cross, axis] = 0
            interior[cross] = self.conn.periodic[axis] | (step < self.conn.tree_dims[axis])
        return ntree, pts, interior

    # -- adaptation ----------------------------------------------------------

    def refine(self, marks: np.ndarray) -> tuple["Forest", LeafMap]:
        """Replace each Refine-marked leaf below level b by its 2^d children."""
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        do = (marks == REFINE) & (self.level < self.b)
        m = 1 << self.dim
        counts = np.where(do, m, 1)
        src = np.repeat(np.arange(self.nleaves), counts)
        pos = np.arange(len(src)) - (np.cumsum(counts) - counts)[src]
        new_level = self.level[src] + do[src]
        h = np.where(do[src], np.int64(1) << (self.b - new_level), 0)
        offs = ((pos[:, None] >> np.arange(self.dim)[None, :]) & 1) * h[:, None]
        f = Forest(
            self.conn,
            self.b,
            self.min_level,
            self.tree[src],
            new_level,
            self.coords[src] + offs,
            validate=False,
        )
        return f, LeafMap(src, np.ones_like(src))

    def coarsen(self, marks: np.ndarray) -> tuple["Forest", LeafMap]:
        """Merge complete sibling groups where all children are marked Coarsen."""
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        starts, in_group = self.sibling_groups((marks == COARSEN) & (self.level > self.min_level))
        is_start = np.zeros(self.nleaves, dtype=bool)
        is_start[starts] = True
        keep = ~in_group | is_start
        # child 0 shares the parent anchor, so coords pass through unchanged
        f = Forest(
            self.conn,
            self.b,
            self.min_level,
            self.tree[keep],
            self.level[keep] - is_start[keep],
            self.coords[keep],
            validate=False,
        )
        return f, LeafMap(np.flatnonzero(keep), np.where(is_start[keep], 1 << self.dim, 1))

    def sibling_groups(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complete sibling groups whose 2^d leaves all lie in ``members``.

        Returns the first leaf of each group and the mask of all their leaves.
        """
        m = 1 << self.dim
        n = self.nleaves
        lowbit = (self.coords >> (self.b - self.level)[:, None]) & 1
        cid = (lowbit << np.arange(self.dim)[None, :]).sum(axis=1)
        pkey = self.keys & ~np.left_shift(np.int64(m - 1), self.dim * (self.b - self.level))
        cand = np.flatnonzero(members & (cid == 0) & (np.arange(n) + m <= n))
        good = np.ones(len(cand), dtype=bool)
        for j in range(1, m):
            idx = cand + j
            good &= (
                members[idx]
                & (self.tree[idx] == self.tree[cand])
                & (self.level[idx] == self.level[cand])
                & (pkey[idx] == pkey[cand])
            )
        starts = cand[good]
        in_group = np.zeros(n, dtype=bool)
        in_group[(starts[:, None] + np.arange(m)).ravel()] = True
        return starts, in_group

    def balance(self, level: np.ndarray) -> np.ndarray:
        """Least levels t >= ``level``, 2:1 across this balanced forest's face rows.

        ``level`` lies within one of each leaf's own, so t[lo] >= t[hi] - 1
        and t[hi] >= t[lo] - 1 on the old rows keep the new forest 2:1.  The
        leaves below their own level are sibling groups that want to merge:
        once one member keeps its level, all do.  A leaf at level L lifts its
        neighbours to L - 1 only, so one pass per level, finest first, suffices.
        """
        t = np.array(level, dtype=np.int64)
        rows = [self.face_list(axis) for axis in range(self.dim)]
        ends = np.concatenate([fl.lo for fl in rows] + [fl.hi for fl in rows])
        across = np.concatenate([fl.hi for fl in rows] + [fl.lo for fl in rows])
        groups = np.flatnonzero(t < self.level).reshape(-1, 1 << self.dim)
        for top in range(int(t.max()), int(t.min()) + 1, -1):
            near = ends[t[across] == top]
            t[near] = np.maximum(t[near], top - 1)
            kept = groups[(t[groups] >= self.level[groups]).any(axis=1)]
            t[kept] = np.maximum(t[kept], self.level[kept])
        return t

    def adapt(self, marks: np.ndarray) -> tuple["Forest", LeafMap]:
        """Refine, coarsen and 2:1-balance this balanced forest in one step.

        Each leaf wants one level more (Refine below b), one less (a complete
        Coarsen sibling group above ``min_level``) or its own; ``balance``
        lifts the levels, one refine and one coarsen make them.  A new leaf
        whose old leaf wanted to merge takes the mean of its group, merged or
        not; any other takes its old leaf.
        """
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        starts, merge = self.sibling_groups((marks == COARSEN) & (self.level > self.min_level))
        t = self.balance(self.level + ((marks == REFINE) & (self.level < self.b)) - merge)
        f, rmap = self.refine(np.where(t > self.level, REFINE, KEEP))
        f, cmap = f.coarsen(np.where(t < self.level, COARSEN, KEEP)[rmap.first])
        src = rmap.first[cmap.first]
        first = np.arange(self.nleaves)
        first[merge] = np.repeat(starts, 1 << self.dim)
        return f, LeafMap(first[src], np.where(merge, 1 << self.dim, 1)[src])

    # -- face lists ----------------------------------------------------------

    def _face_rows(self, axis: int):
        """Face rows of ``axis``, each found from its lower leaf.

        One ``locate`` across every leaf's high face gives the neighbour and
        the level gap; a row with a finer neighbour splits into its fine
        sub-faces, located at the unit offsets {0, 1} on the transverse axes
        scaled by the fine size.  Each pair of face neighbours two or more
        levels apart shows from its lower leaf: as a gap of -2 or less, of +2
        or more, or as a sub-face in a leaf two levels finer.

        Returns ``(lo, hi, interior, named)``: the rows, one per interior
        high face (its first sub-face) by lo cell, then the other sub-faces by
        lo cell; the interior mask of the high faces; and the querying leaf a
        face-list error names (None on a balanced axis).
        """
        dim = self.dim
        ntree, pts, interior = self._adjacent_points(axis)
        ii = np.flatnonzero(interior)
        lo = ii
        hi = nb = self.locate(ntree[ii], pts[ii])
        dlvl = self.level[nb] - self.level[ii]
        m = 1 << (dim - 1)
        fin = np.flatnonzero(dlvl == 1)
        deep = np.zeros(0, dtype=np.int64)
        if len(fin):
            offs = np.zeros((m, dim), dtype=np.int64)
            taxes = [a for a in range(dim) if a != axis]
            offs[:, taxes] = (np.arange(m)[:, None] >> np.arange(dim - 1)) & 1
            src = ii[fin]
            h = self.sizes[src] // 2
            sub_pts = pts[src][:, None, :] + offs[None, :, :] * h[:, None, None]
            idx = self.locate(np.repeat(ntree[src], m), sub_pts.reshape(-1, dim)).reshape(-1, m)
            deep = src[(self.level[idx] != self.level[src, None] + 1).any(axis=1)]
            nb[fin] = idx[:, 0]
            lo, hi = np.concatenate([ii, np.repeat(src, m - 1)]), np.concatenate([nb, idx[:, 1:].ravel()])
        wide = ii[np.abs(dlvl) > 1]
        named = wide.min() if len(wide) else deep.min() if len(deep) else None
        return lo, hi, interior, named

    def face_list(self, axis: int) -> FaceList:
        """Faces along ``axis`` with the per-cell slot table (cached)."""
        if axis not in self._face_lists:
            lo, hi, interior, named = self._face_rows(axis)
            if named is not None:
                raise ContractError(
                    f"face list on axis {axis} requires a 2:1-balanced forest: "
                    f"{self.leaf_label(int(named))} has a face neighbour two or more levels away"
                )
            self._face_lists[axis] = self._finish_face_list(axis, lo, hi, interior)
        return self._face_lists[axis]

    def leaf_label(self, i: int) -> str:
        """``leaf i (level l, centre (x, y))``, the way error messages name a leaf."""
        centre = ", ".join(f"{v:.6g}" for v in self.centers[i])
        return f"leaf {i} (level {self.level[i]}, centre ({centre}))"

    def _finish_face_list(self, axis: int, lo, hi, interior) -> FaceList:
        """Head and tail rows, areas, distances and slot table of the balanced rows ``_face_rows`` found."""
        dim, n = self.dim, self.nleaves

        # head row i: cell i's first high (sub-)face or wall; the tail: other
        # sub-faces, then low walls (a leaf on the low face of a tree on the
        # low face of the brick), by cell
        low_wall = np.zeros(n, dtype=bool)
        if not self.conn.periodic[axis]:
            edge = np.flatnonzero(self.coords[:, axis] == 0)
            low_wall[edge] = self.conn.tree_coords_many(self.tree[edge])[:, axis] == 0
        ni = np.count_nonzero(interior)
        head_hi = np.arange(n)
        head_hi[interior] = hi[:ni]
        cells = np.flatnonzero(low_wall)
        order = np.argsort(np.concatenate([lo[ni:], cells]), kind="stable")
        tail_lo, tail_hi = (np.concatenate([ends[ni:], cells])[order] for ends in (lo, hi))
        wall_lo = n + np.flatnonzero(order >= len(order) - len(cells))
        wall_hi = np.flatnonzero(~interior)
        lo, hi = np.concatenate([np.arange(n), tail_lo]), np.concatenate([head_hi, tail_hi])
        dlo, dhi = self.dx[lo], self.dx[hi]
        area = np.minimum(dlo, dhi) ** (dim - 1)
        dist = 0.5 * (dlo + dhi)

        # slot table: the rows each cell side touches, grouped by cell in row
        # order; a wall row's mirrored end gets the out-of-range key n.  It is
        # built as (k, 2, n) so that its transpose has contiguous slot columns.
        side_keys = hi.copy(), lo.copy()
        side_keys[0][wall_hi] = n
        side_keys[1][wall_lo] = n
        order = np.concatenate([np.argsort(key, kind="stable") for key in side_keys])
        cnt = np.stack([np.bincount(key, minlength=n + 1)[:n] for key in side_keys])
        first = np.cumsum(cnt, axis=1) - cnt + np.array([[0], [len(lo)]])
        j = np.arange(cnt.max())[:, None, None]
        slots = order[first + np.minimum(j, cnt - 1)]
        slot_area = np.where(j < cnt, area[slots], 0.0)
        return FaceList(axis, lo, hi, area, dist, wall_lo, wall_hi, slots.T, slot_area.T)


def new_uniform(conn: Connectivity, level: int, b: int, min_level: int = 0) -> Forest:
    """Forest with every tree uniformly refined to ``level``."""
    if not 0 <= min_level <= level <= b:
        raise ConfigError(
            f"need 0 <= min_level({min_level}) <= level({level}) <= b({b})"
        )
    dim = conn.dim
    per_tree = 1 << (dim * level)
    keys = np.arange(per_tree, dtype=np.int64) << (dim * (b - level))
    coords = morton.decode_many(keys, dim)
    tree = np.repeat(np.arange(conn.ntrees, dtype=np.int64), per_tree)
    return Forest(
        conn,
        b,
        min_level,
        tree,
        np.full(conn.ntrees * per_tree, level, dtype=np.int64),
        np.tile(coords, (conn.ntrees, 1)),
    )
