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
    origin = f.conn.tree_coords_many(f.tree) * f.conn.tree_extent
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
