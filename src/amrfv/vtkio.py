"""Legacy ASCII VTK and CSV line-cut writers.

The VTK file is an unstructured grid with one axis-aligned quad (VTK_PIXEL)
or hexahedron (VTK_VOXEL) per leaf, corner points duplicated per cell, and
cell data {rho, Y, alpha, p, u, level, rank}.  Floats are written as their
``repr``, the shortest text that reads back to the same double, so identical
runs produce bit-identical files.  Each block of a file is built by one ``%``
format call over a flat ``tolist`` of its values, and each distinct corner
coordinate is formatted once.
"""
from __future__ import annotations

import numpy as np

from amrfv import eos
from amrfv.eos import FluidPair
from amrfv.forest import Forest

__all__ = ["write_vtk", "write_csv_cut"]


def _rows(line: str, values) -> str:
    """``line`` once per row of ``values``, every row filled by one ``%`` call.

    ``'%r' % x`` is ``repr(x)`` for the Python floats ``tolist`` yields.
    """
    values = np.asarray(values)
    return (line * len(values)) % tuple(values.ravel().tolist())


def _boxes(f: Forest):
    """Low and high corner of every leaf box."""
    scale = f.conn.tree_extent / float(1 << f.b)
    origin = f.conn.tree_coords_many(f.tree) * f.conn.tree_extent
    return origin + f.coords * scale, origin + (f.coords + f.sizes[:, None]) * scale


def _cell_fields(u: np.ndarray, fp: FluidPair):
    """rho, Y, alpha, p and velocity of state rows ``u``."""
    rho = u[:, 0]
    Y = u[:, 1] / rho
    return rho, Y, eos.solve_alpha(rho, Y, fp), eos.mixture_pressure(rho, Y, fp), u[:, 2:] / rho[:, None]


def write_vtk(f: Forest, u: np.ndarray, fp: FluidPair, path, ranks=None) -> None:
    """One leaf per cell; 2^d duplicated corner points per leaf."""
    dim, n, ncorn = f.dim, f.nleaves, 1 << f.dim
    rho, Y, alpha, p, vel = _cell_fields(u, fp)
    # 2D points and vectors carry a zero z component
    zero_z = " 0.0" * (3 - dim) + "\n"

    # corner j of a leaf takes the high side on axis a where bit a of j is
    # set.  The coordinates are >= 0, so np.unique, which merges -0.0 with
    # 0.0, cannot change a byte; field values may be -0.0 and are not merged
    lo, hi = _boxes(f)
    high = (np.arange(ncorn)[:, None] >> np.arange(dim)) & 1 == 1
    corners = np.where(high, hi[:, None, :], lo[:, None, :])
    values, inverse = np.unique(corners.ravel(), return_inverse=True)
    text = np.array([repr(v) for v in values.tolist()], dtype=object)[inverse]

    ctype = "8" if dim == 2 else "11"  # VTK_PIXEL / VTK_VOXEL
    parts = [
        "# vtk DataFile Version 2.0\namrfv leaves\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n * ncorn} double\n", _rows(" ".join(["%s"] * dim) + zero_z, text.reshape(-1, dim)),
        f"CELLS {n} {n * (1 + ncorn)}\n",
        _rows(f"{ncorn}" + " %d" * ncorn + "\n", np.arange(n * ncorn).reshape(n, ncorn)),
        f"CELL_TYPES {n}\n", f"{ctype}\n" * n,
        f"CELL_DATA {n}\n",
    ]
    for name, arr in (("rho", rho), ("Y", Y), ("alpha", alpha), ("p", p)):
        parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", _rows("%r\n", arr)]
    ranks = np.zeros(n, dtype=np.int64) if ranks is None else ranks
    for name, arr in (("level", f.level), ("rank", ranks)):
        parts += [f"SCALARS {name} int 1\nLOOKUP_TABLE default\n", _rows("%d\n", arr)]
    parts += ["VECTORS u double\n", _rows(" ".join(["%r"] * dim) + zero_z, vel)]
    with open(path, "w") as fh:
        fh.write("".join(parts))


def write_csv_cut(f: Forest, u: np.ndarray, fp: FluidPair, point, direction, path) -> None:
    """Sample cells intersecting the line point + s*direction, sorted by s."""
    dim = f.dim
    point = np.asarray(point, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    lo, hi = _boxes(f)

    # slab clipping of the parametric line against each cell box
    s0 = np.full(f.nleaves, -np.inf)
    s1 = np.full(f.nleaves, np.inf)
    for a in range(dim):
        d = direction[a]
        if abs(d) < 1e-300:
            outside = (point[a] < lo[:, a]) | (point[a] > hi[:, a])
            s0 = np.where(outside, np.inf, s0)
            continue
        ta = (lo[:, a] - point[a]) / d
        tb = (hi[:, a] - point[a]) / d
        s0 = np.maximum(s0, np.minimum(ta, tb))
        s1 = np.minimum(s1, np.maximum(ta, tb))
    cut = np.flatnonzero(s1 > s0)
    smid = 0.5 * (s0[cut] + s1[cut])
    order = np.argsort(smid, kind="stable")
    cut, smid = cut[order], smid[order]

    header = ",".join(["s", *"xyz"[:dim], "rho", "Y", "alpha", "p", *("ux", "uy", "uz")[:dim], "level"])
    # the level rides in the float table; '%d' writes it as the integer it is
    table = np.column_stack([smid, f.centers[cut], *_cell_fields(u[cut], fp), f.level[cut]])
    with open(path, "w") as fh:
        fh.write(header + "\n" + _rows("%r," * (5 + 2 * dim) + "%d\n", table))
