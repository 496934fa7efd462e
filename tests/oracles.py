"""Independent brute-force oracles shared by the test suite.

Everything here is deliberately written in the most literal way possible
(string bit twiddling, pointer trees, recursion, a lattice owner map,
bisection, decimal arithmetic) so it shares no code path with the library being checked.
"""
from __future__ import annotations

import decimal
import itertools

import numpy as np


# ---------------------------------------------------------------------------
# Bit interleaving via binary strings.

def interleave_oracle(coords, b):
    """Morton key by textual interleave: bit d*i+axis of key = bit i of coords[axis]."""
    dim = len(coords)
    bits = [format(c, f"0{b}b")[::-1] for c in coords]  # bits[axis][i] = bit i
    out = 0
    for i in range(b):
        for axis in range(dim):
            if bits[axis][i] == "1":
                out |= 1 << (dim * i + axis)
    return out


def deinterleave_oracle(key, dim, b):
    bits = format(key, f"0{dim * b}b")[::-1]
    coords = [0] * dim
    for i in range(b):
        for axis in range(dim):
            if bits[dim * i + axis] == "1":
                coords[axis] |= 1 << i
    return tuple(coords)


def zorder_traversal(dim, b, level):
    """Anchors of a uniformly refined tree, by recursive z-order descent."""
    out = []

    def visit(anchor, lvl):
        if lvl == level:
            out.append(tuple(anchor))
            return
        h = 1 << (b - lvl - 1)
        for j in range(1 << dim):
            child = [anchor[a] + ((j >> a) & 1) * h for a in range(dim)]
            visit(child, lvl + 1)

    visit([0] * dim, 0)
    return out


# ---------------------------------------------------------------------------
# Pointer-tree forest oracle: literal recursive trees, one per macro cell.

class _Node:
    def __init__(self, anchor, level):
        self.anchor = tuple(anchor)
        self.level = level
        self.children = None
        self.mark = False

    def is_leaf(self):
        return self.children is None

    def split(self, dim, b):
        h = 1 << (b - self.level - 1)
        self.children = [
            _Node([self.anchor[a] + ((j >> a) & 1) * h for a in range(dim)], self.level + 1)
            for j in range(1 << dim)
        ]


class PointerForest:
    """Brute-force forest of pointer trees over an axis-aligned brick."""

    def __init__(self, dim, tree_dims, periodic, b, level=0, min_level=0):
        self.dim = dim
        self.tree_dims = tuple(tree_dims)
        self.periodic = tuple(periodic)
        self.b = b
        self.min_level = min_level
        self.roots = [_Node([0] * dim, 0) for _ in range(self.ntrees)]
        for r in self.roots:
            self._refine_to(r, level)

    @property
    def ntrees(self):
        n = 1
        for t in self.tree_dims:
            n *= t
        return n

    def _refine_to(self, node, level):
        if node.level >= level:
            return
        node.split(self.dim, self.b)
        for c in node.children:
            self._refine_to(c, level)

    def _leaf_nodes(self):
        out = []

        def visit(t, node):
            if node.is_leaf():
                out.append((t, node))
            else:
                for c in node.children:
                    visit(t, c)

        for t, r in enumerate(self.roots):
            visit(t, r)
        return out

    def leaves(self):
        """(tree, level, anchor) triples in (tree, z-order)."""
        return [(t, n.level, n.anchor) for t, n in self._leaf_nodes()]

    def refine_marks(self, marks):
        """Split every marked leaf below b; marks aligned with leaves()."""
        for (t, node), m in zip(self._leaf_nodes(), marks):
            if m and node.level < self.b:
                node.split(self.dim, self.b)

    def coarsen_marks(self, marks):
        """Merge sibling groups where all 2^d children are marked leaves."""
        for (t, node), m in zip(self._leaf_nodes(), marks):
            node.mark = bool(m)

        def merge(node):
            if node.is_leaf():
                return
            for c in node.children:
                merge(c)
            if all(c.is_leaf() and c.mark for c in node.children):
                if node.level >= self.min_level:
                    node.children = None
                    node.mark = False

        for r in self.roots:
            merge(r)

    # -- brute-force neighbor machinery for 2:1 balancing --------------------

    def _tree_coords(self, t):
        out = []
        for n in self.tree_dims:
            out.append(t % n)
            t //= n
        return out

    def leaf_regions(self):
        """(tree, level, lo, hi) with lo/hi the lattice corner coords."""
        out = []
        for t, lvl, anchor in self.leaves():
            h = 1 << (self.b - lvl)
            out.append((t, lvl, anchor, tuple(a + h for a in anchor)))
        return out

    def _face_adjacent(self, ra, rb):
        """True if leaf regions ra, rb share a (d-1)-face (trees and wraps included)."""
        ta, _, loa, hia = ra
        tb, _, lob, hib = rb
        tca = self._tree_coords(ta)
        tcb = self._tree_coords(tb)
        n = 1 << self.b
        options = []
        for ax in range(self.dim):
            diff = tcb[ax] - tca[ax]
            opts = {diff}
            if self.periodic[ax]:
                w = self.tree_dims[ax]
                opts |= {diff - w, diff + w}
            options.append(sorted(opts))
        for shift in itertools.product(*options):
            lob2 = [lob[ax] + shift[ax] * n for ax in range(self.dim)]
            hib2 = [hib[ax] + shift[ax] * n for ax in range(self.dim)]
            touch_axis = None
            ok = True
            for ax in range(self.dim):
                if hia[ax] == lob2[ax] or hib2[ax] == loa[ax]:
                    if touch_axis is not None:  # corner/edge contact only
                        ok = False
                        break
                    touch_axis = ax
                elif max(loa[ax], lob2[ax]) < min(hia[ax], hib2[ax]):
                    continue  # positive overlap on this axis
                else:
                    ok = False
                    break
            if ok and touch_axis is not None:
                return True
        return False

    def balance(self):
        """Fixed point: split any leaf with a face neighbor 2+ levels finer."""
        while True:
            regions = self.leaf_regions()
            to_split = set()
            for i, j in itertools.combinations(range(len(regions)), 2):
                li = regions[i][1]
                lj = regions[j][1]
                if abs(li - lj) < 2:
                    continue
                if self._face_adjacent(regions[i], regions[j]):
                    to_split.add(i if li < lj else j)
            if not to_split:
                return
            marks = [k in to_split for k in range(len(regions))]
            self.refine_marks(marks)


# ---------------------------------------------------------------------------
# Face neighbours from a finest-lattice owner map.

def face_neighbors(leaves, dim, tree_dims, periodic, b):
    """Sorted owners just across every leaf face, or None at a wall.

    ``leaves`` are (tree, level, anchor) triples as ``PointerForest.leaves()``
    gives them, trees numbered x fastest over the brick ``tree_dims``.  Every
    finest-lattice cell of the brick records the leaf that covers it, in
    global coordinates; the owners of the layer of cells just outside a face
    are its neighbours, with periodic axes wrapping around.  Returns a dict
    keyed by (leaf index, axis, side), side 0 being the low face.
    """
    n = 1 << b
    shape = tuple(t * n for t in tree_dims)
    owner = np.full(shape, -1, dtype=np.int64)
    boxes = []
    for i, (t, level, anchor) in enumerate(leaves):
        tc = []
        for td in tree_dims:
            tc.append(int(t) % td)
            t = int(t) // td
        lo = [tc[a] * n + int(anchor[a]) for a in range(dim)]
        h = 1 << (b - int(level))
        box = tuple(slice(lo[a], lo[a] + h) for a in range(dim))
        assert np.all(owner[box] == -1), f"leaf {i} overlaps another leaf"
        owner[box] = i
        boxes.append((lo, h))
    assert np.all(owner >= 0), "leaves do not tile the brick"
    out = {}
    for i, (lo, h) in enumerate(boxes):
        for axis in range(dim):
            for side in (0, 1):
                x = lo[axis] + h if side else lo[axis] - 1
                if not 0 <= x < shape[axis]:
                    if not periodic[axis]:
                        out[i, axis, side] = None
                        continue
                    x %= shape[axis]
                layer = [slice(lo[a], lo[a] + h) for a in range(dim)]
                layer[axis] = x
                out[i, axis, side] = sorted(set(owner[tuple(layer)].ravel().tolist()))
    return out


# ---------------------------------------------------------------------------
# Scalar EOS oracles.

def stiffened_p(rho_k, p0, rho0, c):
    return p0 + c * c * (rho_k - rho0)


def bisect_alpha(rho, Y, fp, tol=1e-15):
    """Volume fraction by bisection on p1(rho*Y/a) - p2(rho*(1-Y)/(1-a))."""
    m1 = rho * Y
    m2 = rho * (1.0 - Y)

    def f(a):
        return stiffened_p(m1 / a, fp.p1_0, fp.rho1_0, fp.c1) - stiffened_p(
            m2 / (1.0 - a), fp.p2_0, fp.rho2_0, fp.c2
        )

    lo, hi = 1e-300, 1.0 - 1e-16
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * mid:
            break
    return 0.5 * (lo + hi)


def equilibrium_p_c(rho, Y, fp, digits=50):
    """Equilibrium pressure and Wood sound speed by decimal bisection in p.

    Each phase density is rho_k(p) = rho_k0 + (p - p_k0)/c_k^2, and the
    volume constraint Y/rho1(p) + (1-Y)/rho2(p) = 1/rho falls monotonically
    from +inf at the vacuum pressure, where one phase density vanishes; the
    root is bracketed by doubling the offset above that pressure, then
    halved to ``digits`` digits.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        rho, Y = D(float(rho)), D(float(Y))
        fluids = [
            (D(fp.p1_0), D(fp.rho1_0), D(fp.c1) ** 2, Y),
            (D(fp.p2_0), D(fp.rho2_0), D(fp.c2) ** 2, 1 - Y),
        ]
        floor = max(p0 - c2 * r0 for p0, r0, c2, _ in fluids)

        def phase_rhos(p):
            return [r0 + (p - p0) / c2 for p0, r0, c2, _ in fluids]

        def excess(p):
            return sum(y / r for (_, _, _, y), r in zip(fluids, phase_rhos(p))) - 1 / rho

        hi = D(1)
        while excess(floor + hi) > 0:
            hi *= 2
        lo = hi
        while excess(floor + lo) <= 0:
            lo /= 2
        eps = D(10) ** (5 - digits)
        while hi - lo > eps * hi:
            mid = (lo + hi) / 2
            if excess(floor + mid) > 0:
                lo = mid
            else:
                hi = mid
        p = floor + (lo + hi) / 2
        inv = sum(y / (r * r * c2) for (_, _, c2, y), r in zip(fluids, phase_rhos(p)))
        return float(p), float(1 / (rho * inv.sqrt()))


# ---------------------------------------------------------------------------
# Simulated-rank read contract.

def rank_contract_violations(face_rows, offsets, ghosts):
    """Face rows that a rank would flux or read without holding both cells.

    ``face_rows`` are (lo, hi) leaf pairs, ``offsets`` the P+1 ascending rank
    offsets (rank r owns leaves offsets[r] <= i < offsets[r+1]) and
    ``ghosts[r]`` the set of ghost leaves of rank r.  The owner of a row's lo
    cell fluxes it, so it must own the hi cell or hold it as a ghost; the
    owner of the hi cell adds that flux to its cell, so it must own or ghost
    the lo cell.  Returns (rank, lo, hi) for every breach; empty if none.
    """
    owner = []
    for r in range(len(offsets) - 1):
        owner += [r] * (offsets[r + 1] - offsets[r])
    bad = []
    for lo, hi in face_rows:
        for reader, other in ((owner[lo], hi), (owner[hi], lo)):
            if owner[other] != reader and other not in ghosts[reader]:
                bad.append((reader, lo, hi))
    return bad


# ---------------------------------------------------------------------------
# Line-by-line VTK and CSV text: one repr per value, one join per line.

def _boxes_and_fields(f, u, fp):
    """Leaf boxes and cell fields: the library computes the values, the oracles write the text."""
    from amrfv import eos

    scale = f.conn.tree_extent / float(1 << f.b)
    origin = np.stack(np.unravel_index(f.tree, f.conn.tree_dims, order="F"), axis=1) * f.conn.tree_extent
    lo = origin + f.coords * scale
    hi = origin + (f.coords + f.sizes[:, None]) * scale
    rho = u[:, 0]
    Y = u[:, 1] / rho
    alpha, p = eos.solve_alpha(rho, Y, fp), eos.mixture_pressure(rho, Y, fp)
    return lo, hi, (rho, Y, alpha, p, u[:, 2:] / rho[:, None])


def vtk_text(f, u, fp, ranks=None):
    """Legacy ASCII VTK file of the leaves, built one value and one line at a time."""
    dim, n = f.dim, f.nleaves
    ncorn = 1 << dim
    lo, hi, (rho, Y, alpha, p, vel) = _boxes_and_fields(f, u, fp)
    if ranks is None:
        ranks = [0] * n
    lines = [
        "# vtk DataFile Version 2.0",
        "amrfv leaves",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n * ncorn} double",
    ]
    for i in range(n):
        for j in range(ncorn):
            pt = [(hi if (j >> a) & 1 else lo)[i, a] for a in range(dim)]
            if dim == 2:
                pt.append(0.0)
            lines.append(" ".join(repr(float(v)) for v in pt))
    lines.append(f"CELLS {n} {n * (1 + ncorn)}")
    for i in range(n):
        lines.append(f"{ncorn} " + " ".join(str(i * ncorn + j) for j in range(ncorn)))
    lines.append(f"CELL_TYPES {n}")
    lines.extend(["8" if dim == 2 else "11"] * n)
    lines.append(f"CELL_DATA {n}")
    for name, arr in (("rho", rho), ("Y", Y), ("alpha", alpha), ("p", p)):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines.extend(repr(float(v)) for v in arr)
    for name, arr in (("level", f.level), ("rank", ranks)):
        lines += [f"SCALARS {name} int 1", "LOOKUP_TABLE default"]
        lines.extend(str(int(v)) for v in arr)
    lines.append("VECTORS u double")
    for i in range(n):
        lines.append(" ".join(repr(float(vel[i, a]) if a < dim else 0.0) for a in range(3)))
    return "\n".join(lines) + "\n"


def csv_text(f, u, fp, point, direction):
    """CSV cut along point + s*direction: a per-leaf slab clip, one value at a time."""
    dim = f.dim
    lo, hi, (rho, Y, alpha, p, vel) = _boxes_and_fields(f, u, fp)
    direction = np.asarray(direction, dtype=np.float64)
    direction = (direction / np.linalg.norm(direction)).tolist()
    cut = []
    for i in range(f.nleaves):
        s0, s1 = -np.inf, np.inf
        for a in range(dim):
            d, x, xlo, xhi = direction[a], float(point[a]), lo[i, a], hi[i, a]
            if abs(d) < 1e-300:
                s0 = np.inf if x < xlo or x > xhi else s0
                continue
            ta, tb = (xlo - x) / d, (xhi - x) / d
            s0, s1 = max(s0, min(ta, tb)), min(s1, max(ta, tb))
        if s1 > s0:
            cut.append((0.5 * (s0 + s1), i))
    header = ["s", *"xyz"[:dim], "rho", "Y", "alpha", "p", *("ux", "uy", "uz")[:dim], "level"]
    rows = [",".join(header)]
    for s, i in sorted(cut, key=lambda c: c[0]):
        vals = [s, *f.centers[i], rho[i], Y[i], alpha[i], p[i], *vel[i]]
        rows.append(",".join(repr(float(v)) for v in vals) + f",{int(f.level[i])}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Column-at-a-time sweep kernels: the flux, slope and MUSCL-Hancock kernels
# written one state component at a time, as the solver had them before its
# kernels worked on whole (ncomp, n) blocks.  They share the EOS conversions
# and the physical flux with the library, and nothing else.

def suliciu_flux_columns(WL, WR, fp, pL, pR, cL, cR, normal=2):
    """Relaxation flux across a face whose normal momentum is column ``normal``, one column at a time."""
    WL = np.asarray(WL, dtype=np.float64)
    WR = np.asarray(WR, dtype=np.float64)
    rhoL, rhoR = WL[..., 0], WR[..., 0]
    a = fp.theta * np.maximum(rhoL * cL, rhoR * cR)
    uL = WL[..., normal] / rhoL
    uR = WR[..., normal] / rhoR
    half_du = 0.5 * (uR - uL)
    half_dp = 0.5 * (pL - pR) / a
    duL = half_du + half_dp
    duR = -half_du + half_dp
    ustar = uL + duL
    mL = rhoL * duL
    mR = rhoR * duR
    denomL = 1.0 + mL / a
    denomR = 1.0 - mR / a
    sL = np.abs(uL - a / rhoL)
    s0 = np.abs(ustar)
    sR = np.abs(uR + a / rhoR)
    out = np.empty_like(WL)
    starL, starR, term = np.empty_like(uL), np.empty_like(uL), np.empty_like(uL)
    for i in range(WL.shape[-1]):
        wl, wr, o = WL[..., i], WR[..., i], out[..., i]
        np.multiply(wl, uL, out=o)
        np.multiply(wr, uR, out=term)
        if i == normal:
            o += pL
            term += pR
            np.divide(wl + mL, denomL, out=starL)
            np.divide(wr + mR, denomR, out=starR)
        else:
            np.divide(wl, denomL, out=starL)
            np.divide(wr, denomR, out=starR)
        o += term
        np.subtract(starL, wl, out=term)
        term *= sL
        o -= term
        np.subtract(starR, starL, out=term)
        term *= s0
        o -= term
        np.subtract(wr, starR, out=term)
        term *= sR
        o -= term
        o *= 0.5
    return out


def wall_image(W, normal=2):
    """The state across a wall: a copy with the normal momentum (column ``normal``) negated."""
    G = np.array(W, dtype=np.float64)
    G[..., normal] = -G[..., normal]
    return G


def minmod_sigma_columns(f, axis, V, dx):
    """Minmod slopes over every face of each cell, one component column at a time.

    A cell's faces are the rows with lo or hi equal to it, in any order.  A wall row takes the slope to the cell's wall image, -2 u_n / dx on a
    low wall and +2 u_n / dx on a high one, from the cell alone; u_n is the
    velocity in column 2 + axis.
    """
    fl = f.face_list(axis)
    walls = np.concatenate([fl.wall_lo, fl.wall_hi])
    sign = np.repeat([-1.0, 1.0], [len(fl.wall_lo), len(fl.wall_hi)])
    cells = fl.lo[walls]
    rows = np.empty(len(fl.lo))
    sigma = np.empty_like(V)
    for i in range(V.shape[1]):
        v = V[:, i]
        np.subtract(v[fl.hi], v[fl.lo], out=rows)
        rows /= fl.dist
        rows[walls] = sign * (-2.0 * v[cells]) / dx[cells] if i == 2 + axis else 0.0
        # each cell over the rows with either end at it
        smin, smax = np.full(len(V), np.inf), np.full(len(V), -np.inf)
        for ends in (fl.lo, fl.hi):
            np.minimum.at(smin, ends, rows)
            np.maximum.at(smax, ends, rows)
        s = np.where(smin > 0.0, smin, np.where(smax < 0.0, smax, 0.0))
        sigma[:, i] = np.where(np.isfinite(s), s, 0.0)
    return sigma


def muscl_predict_columns(W, sigma, dx, dt, fp, V=None, normal=2):
    """MUSCL-Hancock face states, each side and component separately; (WfL, WfR, fallback).

    Column ``normal`` of ``W`` is the sweep axis' momentum.
    """
    from amrfv import eos, riemann

    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    dx = np.atleast_1d(np.asarray(dx, dtype=np.float64))
    if V is None:
        V = eos.to_primitive(W)
    WL, WR = np.empty_like(V), np.empty_like(V)
    for i in range(V.shape[1]):
        half = 0.5 * sigma[:, i] * dx
        np.subtract(V[:, i], half, out=WL[:, i])
        np.add(V[:, i], half, out=WR[:, i])
    WL, WR = eos.from_primitive(WL), eos.from_primitive(WR)

    def bad(A):
        return (A[:, 0] <= 0) | (A[:, 1] <= 0) | (A[:, 1] >= A[:, 0])

    fallback = bad(WL) | bad(WR)
    WL[fallback] = W[fallback]
    WR[fallback] = W[fallback]
    pL = eos.mixture_pressure(WL[:, 0], WL[:, 1] / WL[:, 0], fp)
    pR = eos.mixture_pressure(WR[:, 0], WR[:, 1] / WR[:, 0], fp)
    WfL = riemann.physical_flux(WL, pL, normal=normal)
    WfR = riemann.physical_flux(WR, pR, normal=normal)
    scale = 0.5 * dt / dx
    for i in range(V.shape[1]):
        dF = WfR[:, i] - WfL[:, i]
        dF *= scale
        np.subtract(WL[:, i], dF, out=WfL[:, i])
        np.subtract(WR[:, i], dF, out=WfR[:, i])
    fallback = fallback | bad(WfL) | bad(WfR)
    WfL[fallback] = W[fallback]
    WfR[fallback] = W[fallback]
    return WfL, WfR, fallback


# ---------------------------------------------------------------------------
# Solution transfer one operation at a time: the reference for an adapt's
# single projection through its chained leaf maps.

def refine_projection(u, per_old):
    """Old leaf i copies its value into ``per_old[i]`` consecutive new leaves."""
    return np.repeat(u, per_old, axis=0)


def coarsen_projection(u, starts, counts):
    """New leaf j averages the old leaves [starts[j], starts[j] + counts[j])."""
    out = np.add.reduceat(np.asarray(u, dtype=np.float64), starts, axis=0)
    return out / counts.reshape((-1,) + (1,) * (out.ndim - 1))


def carry_marks(marks, per_old):
    """Marks through a refinement: fresh children get Keep, others keep theirs."""
    from amrfv.forest import KEEP

    out = np.repeat(marks, per_old)
    out[np.repeat(per_old, per_old) > 1] = KEEP
    return out


def balance(f):
    """2:1 face balance by passes: refine the coarse side of every violation until none is left.

    A pass runs ``Forest._face_rows`` on every axis and lays its parts out
    as rows (the head rows, then each finer-neighbour leaf's other
    sub-faces); the coarse side of a violation is the lower-level end of
    each row whose level gap is 2 or more.  Returns the balanced forest and the ``LeafMap`` from ``f``: each
    new leaf copies the old leaf it lies in.
    """
    from amrfv.forest import KEEP, REFINE, LeafMap

    src = np.arange(f.nleaves)
    while True:
        coarse = np.zeros(f.nleaves, dtype=bool)
        for axis in range(f.dim):
            head, fin, sub, _ = f._face_rows(axis)
            lo = np.concatenate([np.arange(f.nleaves), fin.repeat((1 << (f.dim - 1)) - 1)])
            hi = np.concatenate([head, sub])
            gap = f.level[hi] - f.level[lo]
            coarse[np.where(gap > 0, lo, hi)[np.abs(gap) >= 2]] = True
        if not coarse.any():
            return f, LeafMap(src, np.ones_like(src))
        f, rmap = f.refine(np.where(coarse, REFINE, KEEP))
        src = src[rmap.first]


def sequential_adapt(f, marks, u):
    """refine -> project -> coarsen -> project -> balance -> project.

    The meshes come from the library's refine and coarsen and the pass-based
    ``balance`` above (checked against ``PointerForest`` elsewhere); each
    transfer uses the one-operation oracles above, reading the per-old
    fan-out off the maps with ``bincount``.
    """
    f2, rmap = f.refine(marks)
    per_old = np.bincount(rmap.first, minlength=f.nleaves)
    u = refine_projection(u, per_old)
    f3, cmap = f2.coarsen(carry_marks(marks, per_old))
    u = coarsen_projection(u, cmap.first, cmap.counts)
    f4, bmap = balance(f3)
    return f4, refine_projection(u, np.bincount(bmap.first, minlength=f3.nleaves))


# ---------------------------------------------------------------------------
# Initial conditions as first written: a norm and a dome over every point,
# np.where to choose, and the state rows from whole-array products.


def smooth_alpha(x, p, x0):
    """cos^4 dome of radius 0.3 around x0 over lambda, the dome evaluated at every point."""
    lam = p["lambda"]
    r = np.linalg.norm(np.atleast_2d(x) - x0, axis=1)
    bump = lam + (1.0 - lam) * np.cos(np.pi * r / 0.6) ** 4
    return np.where(r <= 0.3, bump, lam)


def disk_alpha(x, p, x0):
    r = np.linalg.norm(np.atleast_2d(x) - x0, axis=1)
    return np.where(r < p["radius"], 1.0 - p["lambda"], p["lambda"])


def state_from_pressure_alpha(p, alpha, u, fp, eps_y):
    """Rows [rho, rho Y, rho u...] at pressure p and volume fraction alpha clipped into (eps_y, 1 - eps_y)."""
    p = np.asarray(p, dtype=np.float64)
    alpha = np.clip(np.asarray(alpha, dtype=np.float64), eps_y, 1.0 - eps_y)
    rho1 = fp.rho1_0 + (p - fp.p1_0) / fp.c1**2
    rho2 = fp.rho2_0 + (p - fp.p2_0) / fp.c2**2
    if np.any(rho1 <= 0) or np.any(rho2 <= 0):
        raise ArithmeticError("pressure below vacuum for one fluid")
    rho = alpha * rho1 + (1.0 - alpha) * rho2
    rhoY = alpha * rho1
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = np.broadcast_to(u, rho.shape + u.shape)
    W = np.empty(rho.shape + (2 + u.shape[-1],), dtype=np.float64)
    W[..., 0] = rho
    W[..., 1] = rhoY
    W[..., 2:] = rho[..., None] * u
    return W
