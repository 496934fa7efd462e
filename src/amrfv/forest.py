"""Forest of Morton-ordered quad/octrees over an axis-aligned brick macro-mesh.

The leaf array is kept sorted by (tree id, Morton key); refinement and
coarsening splice children / merged parents in place, which preserves the
z-order without re-sorting.  There is one neighbour query, ``_face_rows``:
each leaf locates the lattice point one step across its high face, and a
leaf with a finer neighbour locates each fine sub-face, so every face of an
axis is found once, from its lower leaf, with the level gap across it.  2:1
balance refines the coarse side of every gap of two or more levels that the
query shows, and its last pass, which finds none, is the face-list build of
the forest it returns.  ``face_list`` is the one face-connectivity structure
the kernels use: lo-ordered face rows plus a per-cell slot table, so each
cell reduces its own faces in a fixed order and a rank's flux duty is a
contiguous slice of rows.
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
    "RefineMap",
    "CoarsenMap",
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
class RefineMap:
    """Old leaf i expands to new leaves [starts[i], starts[i+1])."""

    starts: np.ndarray  # (N_old + 1,) cumulative

    @property
    def n_old(self) -> int:
        return len(self.starts) - 1

    @property
    def n_new(self) -> int:
        return int(self.starts[-1])

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Children copy the parent value; unchanged leaves copy through."""
        return np.repeat(u, self.counts, axis=0)

    def compose(self, later: "RefineMap") -> "RefineMap":
        """Map through a subsequent refinement of the output array."""
        return RefineMap(later.starts[self.starts])

    @staticmethod
    def identity(n: int) -> "RefineMap":
        return RefineMap(np.arange(n + 1, dtype=np.int64))


@dataclass(frozen=True)
class CoarsenMap:
    """New leaf j gathers old leaves [starts[j], starts[j+1])."""

    starts: np.ndarray  # (N_new + 1,) cumulative

    @property
    def n_new(self) -> int:
        return len(self.starts) - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Merged parents take the mean of their (equal-volume) children."""
        counts = self.counts
        out = np.add.reduceat(np.asarray(u, dtype=np.float64), self.starts[:-1], axis=0)
        shape = (len(counts),) + (1,) * (out.ndim - 1)
        return out / counts.reshape(shape)


@dataclass(frozen=True)
class FaceList:
    """All unique faces of one sweep axis, and each cell side's share of them.

    It finishes the rows of the face-row query that 2:1 balance runs, so a
    forest returned by ``Forest.balance`` holds its face lists already.
    Interior rows join ``lo`` (lower coordinate side) to ``hi`` and are
    ordered by ``lo``; hanging faces appear once per fine sub-face.  Wall
    rows (non-periodic domain faces) carry the owning cell, ordered by it,
    and which side of it the wall sits on.  ``slots[i, s]`` lists the rows
    of [interior; wall] on side s (0 = low, 1 = high) of cell i in row
    order.  Its last extent k is the largest face count of any cell side;
    a side with fewer faces repeats its last row with zero ``slot_area``,
    so the repeat changes no running min/max and adds an exact zero to sums.
    """

    axis: int
    lo: np.ndarray
    hi: np.ndarray
    area: np.ndarray
    dist: np.ndarray  # center-to-center distance along axis
    bc_cell: np.ndarray
    bc_side: np.ndarray  # 0 = low face of the cell, 1 = high face
    bc_area: np.ndarray
    slots: np.ndarray  # (n, 2, k), Fortran order so slot columns are contiguous
    slot_area: np.ndarray  # (n, 2, k)

    def columns(self, row_values: np.ndarray):
        """Per-row values of [interior; wall] gathered one slot column at a time."""
        k = self.slots.shape[2]
        return (row_values[self.slots[:, s, j]] for s in (0, 1) for j in range(k))


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

    def refine(self, marks: np.ndarray) -> tuple["Forest", RefineMap]:
        """Replace each Refine-marked leaf below level b by its 2^d children."""
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        return self._apply_refine((marks == REFINE) & (self.level < self.b))

    def _apply_refine(self, do: np.ndarray) -> tuple["Forest", RefineMap]:
        m = 1 << self.dim
        counts = np.where(do, m, 1).astype(np.int64)
        starts = np.zeros(self.nleaves + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        src = np.repeat(np.arange(self.nleaves), counts)
        pos = np.arange(starts[-1], dtype=np.int64) - starts[src]
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
        return f, RefineMap(starts)

    def coarsen(self, marks: np.ndarray) -> tuple["Forest", CoarsenMap]:
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
        counts_new = np.where(is_start[keep], 1 << self.dim, 1).astype(np.int64)
        ostarts = np.zeros(f.nleaves + 1, dtype=np.int64)
        np.cumsum(counts_new, out=ostarts[1:])
        return f, CoarsenMap(ostarts)

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

    # -- face rows: 2:1 balance and face lists -------------------------------

    def _face_rows(self, axis: int):
        """Face rows of ``axis``, each found from its lower leaf, and the leaves breaking 2:1.

        One ``locate`` across every leaf's high face gives the neighbour and
        the level gap; a row with a finer neighbour splits into its fine
        sub-faces, located at the unit offsets {0, 1} on the transverse axes
        scaled by the fine size.  Each pair of face neighbours two or more
        levels apart shows from its lower leaf: as a gap of -2 or less, of +2
        or more, or as a sub-face in a leaf two levels finer.

        Returns ``(lo, hi, interior, coarse, named)``: the lo-ordered rows, the
        interior mask of the high faces, the leaves with a face neighbour two
        or more levels finer, and the querying leaf a face-list error names
        (None on a balanced axis).
        """
        dim = self.dim
        ntree, pts, interior = self._adjacent_points(axis)
        ii = np.flatnonzero(interior)
        nb = self.locate(ntree[ii], pts[ii])
        dlvl = self.level[nb] - self.level[ii]
        m = 1 << (dim - 1)
        counts = np.where(dlvl == 1, m, 1)
        lo = np.repeat(ii, counts)
        hi = np.repeat(nb, counts)
        fin = np.flatnonzero(dlvl == 1)
        deep = np.zeros(0, dtype=np.int64)
        if len(fin):
            offs = np.zeros((m, dim), dtype=np.int64)
            taxes = [a for a in range(dim) if a != axis]
            offs[:, taxes] = (np.arange(m)[:, None] >> np.arange(dim - 1)) & 1
            src = ii[fin]
            h = self.sizes[src] // 2
            sub_pts = pts[src][:, None, :] + offs[None, :, :] * h[:, None, None]
            idx = self.locate(np.repeat(ntree[src], m), sub_pts.reshape(-1, dim))
            deep = src[(self.level[idx] != np.repeat(self.level[src] + 1, m)).reshape(-1, m).any(axis=1)]
            first = np.cumsum(counts)[fin] - m
            hi[(first[:, None] + np.arange(m)).ravel()] = idx
        wide = ii[np.abs(dlvl) > 1]
        coarse = np.concatenate([nb[dlvl < -1], ii[dlvl > 1], deep])
        named = wide.min() if len(wide) else deep.min() if len(deep) else None
        return lo, hi, interior, coarse, named

    def balance(self) -> tuple["Forest", RefineMap]:
        """Minimal refinement enforcing the face 2:1 constraint; idempotent.

        Each pass runs the face-row query on every axis and refines every
        leaf with a face neighbour two or more levels finer.  The pass that
        finds none has built the rows of the returned forest, so it finishes
        and caches their face lists.
        """
        f, total = self, RefineMap.identity(self.nleaves)
        while True:
            rows = [f._face_rows(axis) for axis in range(f.dim)]
            marks = np.zeros(f.nleaves, dtype=bool)
            for _, _, _, coarse, _ in rows:
                marks[coarse] = True
            if not marks.any():
                for axis, (lo, hi, interior, _, _) in enumerate(rows):
                    f._face_lists[axis] = f._finish_face_list(axis, lo, hi, interior)
                return f, total
            f, rmap = f._apply_refine(marks)
            total = total.compose(rmap)

    def face_list(self, axis: int) -> FaceList:
        """Faces along ``axis`` with the per-cell slot table (cached)."""
        if axis not in self._face_lists:
            lo, hi, interior, _, named = self._face_rows(axis)
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
        """Areas, distances, walls and slot table of the balanced rows ``_face_rows`` found."""
        dim, n = self.dim, self.nleaves
        dlo, dhi = self.dx[lo], self.dx[hi]
        area = np.minimum(dlo, dhi) ** (dim - 1)
        dist = 0.5 * (dlo + dhi)

        # non-periodic domain faces, ordered by cell, low side first; a low
        # wall is a leaf on the low face of a tree on the low face of the brick
        low_wall = np.zeros(n, dtype=bool)
        if not self.conn.periodic[axis]:
            edge = np.flatnonzero(self.coords[:, axis] == 0)
            low_wall[edge] = self.conn.tree_coords_many(self.tree[edge])[:, axis] == 0
        bc_cell, bc_side = np.nonzero(np.stack([low_wall, ~interior], axis=1))
        bc_area = self.dx[bc_cell] ** (dim - 1)

        # slot table: the rows each cell side touches, grouped by cell in row
        # order; the other side's wall rows get the out-of-range key n.  It is
        # built as (k, 2, n) so that its transpose has contiguous slot columns.
        row_area = np.concatenate([area, bc_area])
        side_keys = (
            np.concatenate([hi, np.where(bc_side == 0, bc_cell, n)]),
            np.concatenate([lo, np.where(bc_side == 1, bc_cell, n)]),
        )
        order = np.concatenate([np.argsort(key, kind="stable") for key in side_keys])
        cnt = np.stack([np.bincount(key, minlength=n + 1)[:n] for key in side_keys])
        first = np.cumsum(cnt, axis=1) - cnt + np.array([[0], [len(row_area)]])
        j = np.arange(cnt.max())[:, None, None]
        slots = order[first + np.minimum(j, cnt - 1)]
        slot_area = np.where(j < cnt, row_area[slots], 0.0)
        return FaceList(axis, lo, hi, area, dist, bc_cell, bc_side, bc_area, slots.T, slot_area.T)


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
