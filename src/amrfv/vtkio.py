"""Legacy ASCII VTK and CSV line-cut writers.

The VTK file is an unstructured grid with one axis-aligned quad (VTK_PIXEL)
or hexahedron (VTK_VOXEL) per leaf, corner points duplicated per cell, and
cell data {rho, Y, alpha, p, u, level, rank}.  Floats are written with repr
so identical runs produce bit-identical files.
"""
from __future__ import annotations

import numpy as np

from amrfv import eos
from amrfv.eos import FluidPair
from amrfv.forest import Forest

__all__ = ["write_vtk", "write_csv_cut"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _cell_fields(f: Forest, u: np.ndarray, fp: FluidPair, ranks=None):
    rho = u[:, 0]
    Y = u[:, 1] / rho
    alpha = eos.solve_alpha(rho, Y, fp)
    p = eos.mixture_pressure(rho, Y, fp)
    vel = u[:, 2:] / rho[:, None]
    if ranks is None:
        ranks = np.zeros(f.nleaves, dtype=np.int64)
    return rho, Y, alpha, p, vel, ranks


def write_vtk(f: Forest, u: np.ndarray, fp: FluidPair, path, ranks=None) -> None:
    """One leaf per cell; 2^d duplicated corner points per leaf."""
    dim = f.dim
    n = f.nleaves
    ncorn = 1 << dim
    rho, Y, alpha, p, vel, rank_arr = _cell_fields(f, u, fp, ranks)

    scale = f.conn.tree_extent / float(1 << f.b)
    origin = f.conn.tree_coords_many(f.tree) * f.conn.tree_extent
    lo = origin + f.coords * scale
    hi = origin + (f.coords + f.sizes[:, None]) * scale

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
            lines.append(" ".join(_fmt(v) for v in pt))
    lines.append(f"CELLS {n} {n * (1 + ncorn)}")
    for i in range(n):
        base = i * ncorn
        lines.append(f"{ncorn} " + " ".join(str(base + j) for j in range(ncorn)))
    lines.append(f"CELL_TYPES {n}")
    ctype = "8" if dim == 2 else "11"  # VTK_PIXEL / VTK_VOXEL
    lines.extend([ctype] * n)
    lines.append(f"CELL_DATA {n}")
    for name, arr in (("rho", rho), ("Y", Y), ("alpha", alpha), ("p", p)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in arr)
    for name, arr in (("level", f.level), ("rank", rank_arr)):
        lines.append(f"SCALARS {name} int 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(str(int(v)) for v in arr)
    lines.append("VECTORS u double")
    for i in range(n):
        v3 = [vel[i, a] if a < dim else 0.0 for a in range(3)]
        lines.append(" ".join(_fmt(v) for v in v3))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv_cut(f: Forest, u: np.ndarray, fp: FluidPair, point, direction, path) -> None:
    """Sample cells intersecting the line point + s*direction, sorted by s."""
    dim = f.dim
    point = np.asarray(point, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)

    scale = f.conn.tree_extent / float(1 << f.b)
    origin = f.conn.tree_coords_many(f.tree) * f.conn.tree_extent
    lo = origin + f.coords * scale
    hi = origin + (f.coords + f.sizes[:, None]) * scale

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
    cut = cut[order]
    smid = smid[order]

    rho, Y, alpha, p, vel, _ = _cell_fields(f, u, fp)
    coords = ["x", "y", "z"][:dim]
    vels = ["ux", "uy", "uz"][:dim]
    header = ",".join(["s", *coords, "rho", "Y", "alpha", "p", *vels, "level"])
    rows = [header]
    centers = f.centers
    for s, i in zip(smid, cut):
        vals = [s, *centers[i], rho[i], Y[i], alpha[i], p[i], *vel[i]]
        rows.append(",".join(_fmt(v) for v in vals) + f",{int(f.level[i])}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
