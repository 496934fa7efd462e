"""Forest of Morton-ordered quad/octrees over an axis-aligned brick macro-mesh.

The leaf array is kept sorted by (tree id, Morton key); refinement and
coarsening splice children / merged parents in place, which preserves the
z-order without re-sorting, and derive the new keys from the old ones.
``adapt`` refines, coarsens and 2:1-balances in level space: ``balance``
lifts each leaf's wanted level to the least 2:1 fixed point over the old
forest's face rows, one coarsen (on the old forest's sibling groups) and one
refine make it, and one ``LeafMap`` (each new leaf averages a span of old
leaves) projects the solution once.  There is one neighbour query, ``_face_rows``:
each leaf locates the lattice point one step across its high face, and a
leaf with a finer neighbour locates each fine sub-face, so every face of an
axis is found once, from its lower leaf.  ``face_list`` is the one
face-connectivity structure the kernels and ``balance`` use: row i is cell
i's first high face, then a tail of the other sub-faces and the low walls by
cell (a wall is a row from its cell to itself), plus each cell's first
low-side row and a short list of the rows past a side's first, so kernels
read each head row's lo end in place, each cell reduces its own faces in a
fixed order and a rank fluxes one slice of the head and the tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# per (dim, axis): offsets of sub-faces 1.. of a high face, in fine sizes: the low-side children but child 0
_SUB_FACES = {(d, ax): morton.CHILDREN[d][morton.CHILDREN[d][:, ax] == 0][1:] for d in (2, 3) for ax in range(d)}


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
        if not 0 < self.tree_extent < np.inf:
            raise ConfigError(f"tree_extent must be positive and finite, got {self.tree_extent}")

    @property
    def ntrees(self) -> int:
        return math.prod(self.tree_dims)

    @property
    def domain_extents(self) -> tuple[float, ...]:
        return tuple(t * self.tree_extent for t in self.tree_dims)

    @cached_property
    def high_faces(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis and tree: the id step to the tree across its high face
        (around the brick at its high end), and whether that face is a wall."""
        out = []
        for axis, (dims, periodic) in enumerate(zip(self.tree_dims, self.periodic)):
            stride = math.prod(self.tree_dims[:axis])
            last = np.arange(self.ntrees) // stride % dims == dims - 1
            out.append((np.where(last, (1 - dims) * stride, stride), last & (not periodic)))
        return tuple(out)

    @cached_property
    def tree_origins(self) -> np.ndarray:
        """``(ntrees, dim)`` low corner of each tree: its brick coordinates (x fastest) times the extent."""
        out = np.empty((self.ntrees, self.dim))
        rem = np.arange(self.ntrees)
        for a, dims in enumerate(self.tree_dims):
            out[:, a] = rem % dims * self.tree_extent
            rem = rem // dims
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

    ``Forest.face_list`` builds it on first use; an adapt that changes a leaf
    builds none.  Each row joins ``lo`` (lower coordinate side) to ``hi``, and
    every kernel reads every row the same way.  Hanging faces appear once per
    fine sub-face.  A wall (a non-periodic domain face) is a row from its cell
    to itself, with area dx^(d-1) and distance dx, whose end across the wall
    stands for the cell's mirror image: the row's other end with its normal
    momentum negated, the one wall rule of every kernel.  ``wall_lo`` names
    the wall rows on a cell's low face (their lo end is the mirror) and
    ``wall_hi`` those on its high face (their hi end is).
    The head, rows i < n, holds cell i's first high face (the first sub-face
    of a hanging face, or the high wall) in row i, so ``lo[:n] == arange(n)``
    and kernels read the head's lo ends in place.  The tail holds the other
    sub-faces and the low walls, ordered by lo cell, a cell's sub-faces first:
    a rank or a cell block (``blocks``) owning cells [a, b) fluxes head rows
    [a, b) and one tail slice.
    A cell side's rows, in row order, are on the high side head row i and
    then its other sub-faces, and on the low side ``low[i]`` (the first row
    whose hi end is the cell, or its low wall) and then the later ones.
    Hanging faces are rare, so the rows past a side's first are listed once,
    in ``more``: the later low-side rows by hi cell and the tail sub-faces by
    lo cell, each by cell and then row.  Kernels reduce the first rows over
    all cells and fold in ``more`` on its cells alone.
    """

    axis: int
    lo: np.ndarray
    hi: np.ndarray
    area: np.ndarray
    dist: np.ndarray  # center-to-center distance along axis
    wall_lo: np.ndarray  # rows whose lo end mirrors the cell across its low face
    wall_hi: np.ndarray  # rows whose hi end mirrors the cell across its high face
    low: np.ndarray  # (n,) each cell's first low-side row
    more: tuple[np.ndarray, np.ndarray]  # (low side, high side) rows past a cell side's first
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def blocks(self, count: int, ncomp: int = 1):
        """``(cells, ranges)`` of ``count`` nearly equal cell blocks (cached).

        Block j owns cells [a, b) and, in ``ranges``, head rows [a, b) and its
        tail slice (one range where they meet) as ``(r0, r1, wall_lo,
        wall_hi)``, its wall rows counted from r0; one block takes them all
        unsearched.  The lo cells of a block's rows lie in the block, the hi cells anywhere.
        ``cells[j]`` is ``(a, b, more)``, where ``more`` holds, low side first,
        ``(flat, rows)`` of the rows of ``self.more`` whose cell lies in the
        block: ``flat`` indexes each row's ``(component, cell - a)`` slots in a
        C-contiguous ``(ncomp, b - a)`` block, component-major.
        """
        if (count, ncomp) not in self._blocks:
            n, one, walls = len(self.low), count == 1, (self.wall_lo, self.wall_hi)
            cells = [j * n // count for j in range(count + 1)]
            tail = [n, len(self.lo)] if one else (self.lo[n:].searchsorted(cells) + n).tolist()
            ranges = []
            for a, b, ta, tb in zip(cells, cells[1:], tail, tail[1:]):
                for r0, r1 in [(a, tb)] if b == ta else [(a, b), (ta, tb)]:
                    if r0 < r1:
                        own = walls if one else (w[w.searchsorted(r0):w.searchsorted(r1)] - r0 for w in walls)
                        ranges.append((r0, r1, *own))
            slots = [(b - a) * np.arange(ncomp)[:, None] - a for a, b in zip(cells, cells[1:])]
            sides = []
            for ends, rows in zip((self.hi, self.lo), self.more):
                at = ends.take(rows)
                cut = [0, len(rows)] if one else at.searchsorted(cells).tolist()
                sides.append([((at[i:j] + s).ravel(), rows[i:j]) for s, i, j in zip(slots, cut, cut[1:])])
            self._blocks[count, ncomp] = list(zip(cells, cells[1:], zip(*sides))), ranges
        return self._blocks[count, ncomp]

    def fold(self, ufunc, out: np.ndarray, row_values: np.ndarray) -> np.ndarray:
        """``ufunc`` (an order-free one: max or min) of ``out`` and every row value of each cell, into ``out``."""
        n = len(self.low)
        ufunc(out, row_values[:n], out=out)
        ufunc(out, row_values.take(self.low), out=out)
        for ends, rows in zip((self.hi, self.lo), self.more):
            ufunc.at(out, ends.take(rows), row_values.take(rows))
        return out


class Forest:
    """Immutable macro-mesh plus z-order-sorted leaf arrays."""

    def __init__(self, conn, b, min_level, tree, level, coords, validate=True, keys=None):
        """``keys``, the leaves' Morton keys, are encoded from ``coords`` when not given."""
        self.conn = conn
        self.b = int(b)
        self.min_level = int(min_level)
        self.tree = np.asarray(tree, dtype=np.int64)
        self.level = np.asarray(level, dtype=np.int64)
        self.coords = np.asarray(coords, dtype=np.int64)
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
        if validate:
            self._validate()
        self.keys = morton.encode_many(self.coords) if keys is None else keys
        # z-order invariant is load-bearing for every query; always verify.
        # ``locate`` searches these combined keys ``tree * 2**(dim*b) + key``
        self._tree_keys = tree_keys = (self.tree << (conn.dim * self.b)) | self.keys
        if not np.all(tree_keys[1:] > tree_keys[:-1]):
            raise ContractError("leaf array is not strictly (tree, z-order) sorted")

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
    def dx(self) -> np.ndarray:
        return self.conn.tree_extent * (self.sizes / float(1 << self.b))

    @cached_property
    def volumes(self) -> np.ndarray:
        return self.dx**self.dim

    @cached_property
    def centers(self) -> np.ndarray:
        out = self.coords + 0.5 * self.sizes[:, None]
        out *= self.conn.tree_extent / float(1 << self.b)
        out += self.conn.tree_origins.take(self.tree, axis=0)
        return out

    # -- point location ------------------------------------------------------

    def locate(self, tree_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Index of the leaf containing each lattice point of its tree."""
        query = np.left_shift(tree_ids, self.dim * self.b, dtype=np.int64)
        query |= morton.encode_many(points)
        return self._tree_keys.searchsorted(query, side="right") - 1

    # -- adaptation ----------------------------------------------------------

    def refine(self, marks: np.ndarray) -> tuple["Forest", LeafMap]:
        """Replace each Refine-marked leaf below level b by its 2^d children; with none, return ``self``."""
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        do = (marks == REFINE) & (self.level < self.b)
        if not do.any():
            return self, LeafMap(np.arange(self.nleaves), np.ones(self.nleaves, dtype=np.int64))
        m = 1 << self.dim
        counts = np.where(do, m, 1)
        src = np.repeat(np.arange(self.nleaves), counts)
        # child id pos of a refined leaf, 0 for a kept one, goes in the new
        # level's bit slot: of each anchor coordinate and of the key.  (Takes
        # and array methods skip numpy's fancy-indexing and Python layers.)
        pos = np.arange(len(src)) - (counts.cumsum() - counts).take(src)
        shift = (self.b - self.level - do).take(src)
        f = Forest(
            self.conn,
            self.b,
            self.min_level,
            self.tree.take(src),
            self.b - shift,
            self.coords.take(src, axis=0) + (morton.CHILDREN[self.dim].take(pos, axis=0) << shift[:, None]),
            validate=False,
            keys=self.keys.take(src) | pos << self.dim * shift,
        )
        return f, LeafMap(src, np.ones_like(src))

    def coarsen(self, marks: np.ndarray) -> tuple["Forest", LeafMap]:
        """Merge complete sibling groups where all children are marked Coarsen; with none, return ``self``."""
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        starts, in_group = self.sibling_groups((marks == COARSEN) & (self.level > self.min_level))
        if not len(starts):
            return self, LeafMap(np.arange(self.nleaves), np.ones(self.nleaves, dtype=np.int64))
        keep = ~in_group
        keep[starts] = True
        kept = keep.nonzero()[0]
        merged = in_group.take(kept)
        # child 0 shares the parent anchor and key, so both pass through unchanged
        f = Forest(
            self.conn,
            self.b,
            self.min_level,
            self.tree.take(kept),
            self.level.take(kept) - merged,
            self.coords.take(kept, axis=0),
            validate=False,
            keys=self.keys.take(kept),
        )
        return f, LeafMap(kept, np.where(merged, 1 << self.dim, 1))

    @cached_property
    def sibling_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Each leaf's child id, its key's d bits in its level's slot, and its parent's key."""
        shift = self.dim * (self.b - self.level)
        slot = np.left_shift(np.int64((1 << self.dim) - 1), shift)
        return (self.keys & slot) >> shift, self.keys & ~slot

    @cached_property
    def _sibling_starts(self) -> np.ndarray:
        """First leaf of each complete sibling group: 2^d consecutive leaves of one parent."""
        cid, pkey = self.sibling_ids
        m = 1 << self.dim
        # leaves i and i + 1 are siblings
        sib = (pkey[1:] == pkey[:-1]) & (self.level[1:] == self.level[:-1]) & (self.tree[1:] == self.tree[:-1])
        whole = cid[: max(self.nleaves - m + 1, 0)] == 0
        for j in range(m - 1):
            whole &= sib[j : j + len(whole)]
        return whole.nonzero()[0]

    def sibling_groups(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complete sibling groups whose 2^d leaves all lie in ``members``.

        Returns the first leaf of each group and the mask of all their leaves.
        """
        in_group = np.zeros(self.nleaves, dtype=bool)
        if not members.any():  # a forest that merges nothing never computes its groups
            return np.zeros(0, dtype=np.int64), in_group
        groups = self._sibling_starts[:, None] + np.arange(1 << self.dim)
        groups = groups[members.take(groups).all(axis=1)]
        in_group[groups] = True
        return groups[:, 0], in_group

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
        groups = (t < self.level).nonzero()[0].reshape(-1, 1 << self.dim)
        own = self.level.take(groups[:, 0])  # a group's common level
        for top in range(int(t.max()), int(t.min()) + 1, -1):
            np.maximum.at(t, ends[t.take(across) == top], top - 1)
            kept = groups[t.take(groups).max(axis=1) >= own]
            np.maximum.at(t, kept, self.level.take(kept))
        return t

    def adapt(self, marks: np.ndarray) -> tuple["Forest", LeafMap]:
        """Refine, coarsen and 2:1-balance this balanced forest in one step.

        Each leaf wants one level more (Refine below b), one less (a complete
        Coarsen sibling group above ``min_level``) or its own; ``balance``
        lifts the levels.  One coarsen of this forest, on the sibling groups
        it has found, and one refine of leaves that no merge made reach them,
        so no other forest works out sibling groups.  A new leaf
        whose old leaf wanted to merge takes the mean of its group, merged or
        not; any other takes its old leaf.  When the balanced levels equal the
        old ones the result is this forest, with the face lists it has built.
        """
        marks = np.asarray(marks)
        if len(marks) != self.nleaves:
            raise ContractError("marks not aligned with leaves")
        starts, merge = self.sibling_groups((marks == COARSEN) & (self.level > self.min_level))
        t = self.balance(self.level + ((marks == REFINE) & (self.level < self.b)) - merge)
        f, cmap = self.coarsen(np.where(t < self.level, COARSEN, KEEP))
        f, rmap = f.refine(np.where(t > self.level, REFINE, KEEP)[cmap.first])
        src = cmap.first[rmap.first]
        first = np.arange(self.nleaves)
        first[merge] = np.repeat(starts, 1 << self.dim)
        return f, LeafMap(first[src], np.where(merge, 1 << self.dim, 1)[src])

    # -- face lists ----------------------------------------------------------

    def _face_rows(self, axis: int):
        """Face rows of ``axis``, each found from its lower leaf.

        One ``locate`` of the lattice point just across every leaf's high face
        (wrapped into the next tree; a point on a non-periodic domain face
        wraps too, and is a wall) gives the neighbour and the level gap; a
        row with a finer neighbour splits into its fine sub-faces, the others
        located (if any) at the unit offsets {0, 1} on the transverse axes
        scaled by the fine size.  Each pair of face neighbours two or more
        levels apart shows from its lower leaf: as a gap of -2 or less, of +2
        or more, or as a sub-face in a leaf two levels finer.

        Returns ``(head, fin, sub, wall_hi)``: each leaf's first high face's hi
        end (itself at a wall), the leaves with a finer high neighbour, the hi
        ends of their other sub-faces by lo cell, and the high-wall leaves.
        """
        dim, m = self.dim, 1 << (self.dim - 1)
        pts = self.coords.copy()
        pts[:, axis] += self.sizes
        ntree = pts[:, axis] >> self.b  # 1 where the point leaves its tree; then the tree it lies in
        pts[:, axis] &= (1 << self.b) - 1
        step, wall = self.conn.high_faces[axis]
        wall_hi = np.logical_and(ntree, wall.take(self.tree)).nonzero()[0]
        ntree *= step.take(self.tree)
        ntree += self.tree
        head = self.locate(ntree, pts)
        head[wall_hi] = wall_hi  # a wall joins its cell to itself, never to a finer leaf
        fin = (self.level.take(head) == self.level + 1).nonzero()[0]
        if not len(fin):
            return head, fin, fin, wall_hi
        sub_pts = pts.take(fin, axis=0)[:, None] + _SUB_FACES[dim, axis] * (self.sizes.take(fin) >> 1)[:, None, None]
        return head, fin, self.locate(ntree.take(fin).repeat(m - 1), sub_pts.reshape(-1, dim)), wall_hi

    def face_list(self, axis: int) -> FaceList:
        """Faces along ``axis`` and the rows of each cell side (cached)."""
        if axis not in self._face_lists:
            self._face_lists[axis] = self._finish_face_list(axis, *self._face_rows(axis))
        return self._face_lists[axis]

    def leaf_label(self, i: int) -> str:
        """``leaf i (level l, centre (x, y))``, the way error messages name a leaf."""
        centre = ", ".join(f"{v:.6g}" for v in self.centers[i])
        return f"leaf {i} (level {self.level[i]}, centre ({centre}))"

    def _finish_face_list(self, axis: int, head, fin, sub, wall_hi) -> FaceList:
        """Head and tail rows, areas, distances and cell sides of the rows ``_face_rows`` found.

        A cell's first low-side row is the least row whose hi end it is (a high wall's is a mirror, slot n), from
        one ``np.minimum.at``; a stable argsort puts the few later rows in cell order.  A ContractError names the
        first leaf with a face neighbour two or more levels away.
        """
        dim, n, m = self.dim, self.nleaves, 1 << (self.dim - 1)

        # each cell's tail rows: its other sub-faces, then its low wall if no
        # row reaches it (a high wall's hi end is its mirror, not a reach)
        reach = np.bincount(np.concatenate([head, sub]), minlength=n)
        reach[wall_hi] -= 1
        low_wall = reach == 0
        tail = low_wall.astype(np.int64)
        tail[fin] += m - 1
        end = tail.cumsum() + n
        cells = np.arange(n)
        lo = np.concatenate([cells, cells.repeat(tail)])
        hi = np.concatenate([head, lo[n:]])
        subs = (end.take(fin) - tail.take(fin))[:, None] + np.arange(m - 1)  # the sub-face rows of each leaf in fin
        hi[subs] = sub.reshape(-1, m - 1)
        wall_lo = end[low_wall] - 1
        dlo, dhi = self.dx.take(lo), self.dx.take(hi)
        near = np.minimum(dlo, dhi)
        dist = np.multiply(0.5, np.add(dlo, dhi, out=dlo), out=dlo)  # 0.5 * (dlo + dhi), in place
        wide = dist > np.multiply(near, 1.5, out=dhi)  # the ends' levels differ by 2 or more
        if wide.any():
            raise ContractError(
                f"face list on axis {axis} requires a 2:1-balanced forest: "
                f"{self.leaf_label(int(lo[wide].min()))} has a face neighbour two or more levels away"
            )
        area = near if dim == 2 else np.square(near, out=near)  # near ** (dim - 1)

        rows, ends = np.arange(len(hi)), hi.copy()
        ends[wall_hi] = n
        low = np.full(n + 1, len(hi))
        np.minimum.at(low, ends, rows)
        low[n] = len(hi)
        later = (low.take(ends) < rows).nonzero()[0]
        more = later.take(hi.take(later).argsort(kind="stable")), subs.ravel()
        return FaceList(axis, lo, hi, area, dist, wall_lo, wall_hi, low[:n], more)


def new_uniform(conn: Connectivity, level: int, b: int, min_level: int = 0) -> Forest:
    """Forest with every tree uniformly refined to ``level``.

    Anchors grow level by level, one column per axis: each anchor's children
    in z-order, at it plus their ``morton.CHILDREN`` offsets times their size.
    """
    if not 0 <= min_level <= level <= b:
        raise ConfigError(
            f"need 0 <= min_level({min_level}) <= level({level}) <= b({b})"
        )
    dim = conn.dim
    per_tree = 1 << (dim * level)
    keys = np.arange(per_tree, dtype=np.int64) << (dim * (b - level))
    cols = [np.zeros(1, dtype=np.int64)] * dim
    for lvl in range(1, level + 1):
        offs = morton.CHILDREN[dim] << (b - lvl)
        cols = [np.add.outer(col, offs[:, a]).ravel() for a, col in enumerate(cols)]
    coords = np.stack(cols, axis=1)
    del cols  # before the forest's arrays are made: at 65,536 leaves, ~250 fewer page faults per build
    tree = np.repeat(np.arange(conn.ntrees, dtype=np.int64), per_tree)
    return Forest(
        conn,
        b,
        min_level,
        tree,
        np.full(conn.ntrees * per_tree, level, dtype=np.int64),
        np.tile(coords, (conn.ntrees, 1)),
        validate=False,  # valid by construction, once the arguments are
        keys=np.tile(keys, conn.ntrees),
    )
