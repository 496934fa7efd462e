"""Finite-volume update on the adaptive forest.

A directional sweep rotates the state so the sweep axis' momentum sits in
slot 2, evaluates one Suliciu flux per unique face (hanging faces once per
fine sub-face) and accumulates signed contributions scaled by face area over
cell volume.  Second order uses minmod-limited slopes of the primitive
variables [m1, m2, u...] and the MUSCL-Hancock half-step prediction.

A sweep is one pass over all leaves.  Its rotated copy of the state is
column-major, so each component is one contiguous array, and the kernels
work one component column at a time.  Each face state's pressure and sound
speed come off one closure solve.  Faces come from ``Forest.face_list``:
rows ordered by their lower-z-order cell and a per-cell slot table.  One
flux call covers the interior rows and one the wall rows, then each cell sums
its sides' slots in slot order from +0.0, so no bit depends on a partition.
The simulated-rank contract (a rank fluxes the rows whose lo cell it owns,
reading owned and ghost cells only) is a property of the face list and
``partition.ghost_layer`` that the test suite checks, not a loop here.
"""
from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

from amrfv import eos, riemann
from amrfv.errors import ConfigError, EosError, VacuumError
from amrfv.eos import FluidPair
from amrfv.forest import Forest

__all__ = [
    "IRHO", "IRHOY", "IMX", "SweepConfig", "compute_dt", "muscl_predict", "gravity_op", "sweep", "step",
    "total_entropy",
]

log = logging.getLogger(__name__)

IRHO, IRHOY, IMX = 0, 1, 2
IMY = 3  # vertical momentum slot (gravity acts here in 2D and 3D)


@dataclass(frozen=True)
class SweepConfig:
    order: int = 1
    cfl: float = 0.9
    gravity: float = 0.0
    splitting: str = "strang"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ConfigError("order must be 1 or 2")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError("CFL number must lie in (0, 1]")
        if self.splitting not in ("lie", "strang"):
            raise ConfigError("splitting must be 'lie' or 'strang'")


def _sec(prof, name: str):
    """Profiler section or no-op."""
    return prof.section(name) if prof is not None else contextlib.nullcontext()


def _mom_perm(dim: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Component permutation rotating the axis momentum into slot IMX."""
    if dim == 2:
        perm = [0, 1, 2, 3] if axis == 0 else [0, 1, 3, 2]
    else:
        perm = {0: [0, 1, 2, 3, 4], 1: [0, 1, 3, 4, 2], 2: [0, 1, 4, 2, 3]}[axis]
    perm = np.array(perm)
    return perm, np.argsort(perm)


def _cell_speeds(u: np.ndarray, fp: FluidPair):
    """Mixture pressure and Wood sound speed of state rows, one closure solve."""
    rho = u[:, IRHO]
    return eos._pressure_and_speed(rho, u[:, IRHOY] / rho, fp)


def compute_dt(f: Forest, u: np.ndarray, cfg: SweepConfig, fp: FluidPair, prof=None) -> float:
    """Global time step C * min_i dx_i / (|u_i| + a_i/rho_i).

    The relaxation parameter a_i takes the largest acoustic impedance
    rho*c over the cell and its face neighbors, matching the face-level
    a = theta*max(rho_L c_L, rho_R c_R) seen by the flux.  |u_i| is the
    max-norm: sweeps are one-dimensional, so each needs only its own
    velocity component bounded, and the largest component is the sharp
    stability bound for the whole splitting sequence.
    """
    rho = u[:, IRHO]
    with _sec(prof, "eos"):
        try:
            c = eos.wood_sound_speed(rho, u[:, IRHOY] / rho, fp)
        except EosError as exc:
            raise EosError(f"time step at {f.leaf_label(exc.index)}: {exc}", index=exc.index) from exc
    imp = rho * c
    imp_max = imp.copy()
    for axis in range(f.dim):
        fl = f.face_list(axis)
        rows = np.concatenate([np.maximum(imp[fl.lo], imp[fl.hi]), imp[fl.bc_cell]])
        for col in fl.columns(rows):
            np.maximum(imp_max, col, out=imp_max)
    speed = np.max(np.abs(u[:, IMX:]), axis=1) / rho + fp.theta * imp_max / rho
    dts = f.dx / speed
    dt = cfg.cfl * float(dts.min())
    if not np.isfinite(dt) or dt <= 0:
        first = int(np.argmin((dts > 0) & (dts < np.inf)))
        raise ArithmeticError(f"non-finite or non-positive time step at {f.leaf_label(first)}")
    return dt


def _wall_mirror(W: np.ndarray) -> np.ndarray:
    """Ghost state across a wall: normal momentum negated (rotated frame)."""
    G = W.copy()
    G[..., IMX] = -G[..., IMX]
    return G


def _minmod_sigma(f: Forest, axis: int, V: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Minmod slope of primitive variables over all axis faces of each cell.

    Componentwise: the smallest-magnitude one-sided slope if every face
    slope shares its sign, else zero.  Wall faces contribute the mirrored
    ghost slope at center distance dx.
    """
    fl = f.face_list(axis)
    nf = len(fl.lo)
    cells = fl.bc_cell
    sign = np.where(fl.bc_side == 1, 1.0, -1.0)
    rows = np.empty(nf + len(cells))
    sigma = np.empty_like(V)
    for i in range(V.shape[1]):
        v = V[:, i]
        np.subtract(v[fl.hi], v[fl.lo], out=rows[:nf])
        rows[:nf] /= fl.dist
        # mirror ghost differs only in normal velocity: slope -2*u_n/dx
        rows[nf:] = sign * (-2.0 * v[cells]) / dx[cells] if i == IMX else 0.0
        cols = fl.columns(rows)
        smin = next(cols)
        smax = smin.copy()
        for col in cols:
            np.minimum(smin, col, out=smin)
            np.maximum(smax, col, out=smax)
        s = np.where(smin > 0.0, smin, np.where(smax < 0.0, smax, 0.0))
        sigma[:, i] = np.where(np.isfinite(s), s, 0.0)
    return sigma


def muscl_predict(W, sigma, dx, dt, fp: FluidPair, V=None):
    """Half-step MUSCL-Hancock face states from cell states and slopes.

    ``V`` is ``eos.to_primitive(W)`` when the caller already has it.
    Returns (W_left_face, W_right_face, fallback) where ``fallback`` marks
    cells retreated to first order because a predicted state left the
    admissible set.
    """
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
    eos.from_primitive(WL, out=WL)
    eos.from_primitive(WR, out=WR)

    def bad(A):
        return (A[:, IRHO] <= 0) | (A[:, IRHOY] <= 0) | (A[:, IRHOY] >= A[:, IRHO])

    # inadmissible reconstructions retreat to first order before any EOS call
    fallback = bad(WL) | bad(WR)
    if np.any(fallback):
        WL[fallback] = W[fallback]
        WR[fallback] = W[fallback]
    pL = eos.mixture_pressure(WL[:, IRHO], WL[:, IRHOY] / WL[:, IRHO], fp)
    pR = eos.mixture_pressure(WR[:, IRHO], WR[:, IRHOY] / WR[:, IRHO], fp)
    # the face states overwrite the fluxes: W - (F_R - F_L) * dt / (2 dx)
    WfL = riemann.physical_flux(WL, pL)
    WfR = riemann.physical_flux(WR, pR)
    scale = 0.5 * dt / dx
    for i in range(V.shape[1]):
        dF = WfR[:, i] - WfL[:, i]
        dF *= scale
        np.subtract(WL[:, i], dF, out=WfL[:, i])
        np.subtract(WR[:, i], dF, out=WfR[:, i])
    fallback = fallback | bad(WfL) | bad(WfR)
    if np.any(fallback):
        log.debug("MUSCL positivity fallback on %d cells", int(fallback.sum()))
        WfL[fallback] = W[fallback]
        WfR[fallback] = W[fallback]
    return WfL, WfR, fallback


def _gather(W: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``W[idx]`` in column-major order, gathered one column at a time."""
    out = np.empty((W.shape[1], len(idx))).T
    for i in range(W.shape[1]):
        np.take(W[:, i], idx, out=out[:, i])
    return out


def sweep(
    f: Forest, u: np.ndarray, axis: int, dt: float, cfg: SweepConfig, fp: FluidPair, prof=None
) -> np.ndarray:
    """One dimensional-splitting operator application along ``axis``."""
    with _sec(prof, "sweep"):
        perm, iperm = _mom_perm(f.dim, axis)
        # the rotated copy is column-major: each component is contiguous
        Wq = u.T[perm].T
        n, ncomp = Wq.shape
        fl = f.face_list(axis)

    # phase A (per cell): face states and their EOS data
    try:
        if cfg.order == 1:
            with _sec(prof, "eos"):
                p, c = _cell_speeds(Wq, fp)
            WfL = WfR = Wq
            pfL = pfR = p
            cfL = cfR = c
        else:
            with _sec(prof, "slopes"):
                V = eos.to_primitive(Wq)
                sigma = _minmod_sigma(f, axis, V, f.dx)
                WfL, WfR, _ = muscl_predict(Wq, sigma, f.dx, dt, fp, V=V)
            with _sec(prof, "eos"):
                pfL, cfL = _cell_speeds(WfL, fp)
                pfR, cfR = _cell_speeds(WfR, fp)
    except EosError as exc:
        raise EosError(f"sweep on axis {axis} at {f.leaf_label(exc.index)}: {exc}", index=exc.index) from exc

    lo, hi, cc = fl.lo, fl.hi, fl.bc_cell
    nf = len(lo)
    with _sec(prof, "flux"):
        # phase B1 (per face row): interior rows join the high face state of
        # lo to the low face state of hi, wall rows follow them
        flux = np.empty((ncomp, nf + len(cc))).T
        row0 = 0
        try:
            riemann.suliciu_flux(
                _gather(WfR, lo), _gather(WfL, hi), fp,
                pfR[lo], pfL[hi], cfR[lo], cfL[hi], out=flux[:nf],
            )
            if len(cc):
                # the mirror ghost shares the cell's face state and thermodynamics
                row0 = nf
                high = fl.bc_side == 1
                W = np.where(high[:, None], WfR[cc], WfL[cc])
                pw = np.where(high, pfR[cc], pfL[cc])
                cw = np.where(high, cfR[cc], cfL[cc])
                G = _wall_mirror(W)
                riemann.suliciu_flux(
                    np.where(high[:, None], W, G), np.where(high[:, None], G, W), fp,
                    pw, pw, cw, cw, out=flux[nf:],
                )
        except VacuumError as exc:
            row = row0 + exc.row
            at = " and ".join(map(f.leaf_label, (lo[row], hi[row]) if row < nf else (cc[row - nf],)))
            raise VacuumError(f"sweep on axis {axis}, face row {row} at {at}: {exc}", row=row) from exc

        # phase B2 (per cell): each cell side sums its slots in slot order
        # from +0.0, low side minus high side, one component at a time
        out = np.empty((ncomp, n)).T
        coef = dt * fl.slot_area
        k = fl.slots.shape[2]
        acc = np.empty((2, n))
        term = np.empty(n)
        for i in range(ncomp):
            col = flux[:, i]
            for s in (0, 1):
                acc[s] = 0.0
                for j in range(k):
                    np.take(col, fl.slots[:, s, j], out=term)
                    term *= coef[:, s, j]
                    acc[s] += term
            np.subtract(acc[0], acc[1], out=term)
            term /= f.volumes
            np.add(Wq[:, i], term, out=out[:, i])
    with _sec(prof, "sweep"):
        return out.T[iperm].T


def gravity_op(u: np.ndarray, dt: float, g: float) -> np.ndarray:
    """Half-step gravity source: vertical momentum loses rho*g*dt/2."""
    out = u.copy()
    out[:, IMY] -= u[:, IRHO] * g * (0.5 * dt)
    return out


def step(
    f: Forest, u: np.ndarray, cfg: SweepConfig, fp: FluidPair, dt: float | None = None, prof=None
) -> tuple[np.ndarray, float]:
    """Advance one time step with the configured splitting sequence."""
    if dt is None:
        dt = compute_dt(f, u, cfg, fp, prof=prof)
    # Lie: one full sweep per axis, then both gravity half-steps.  Strang:
    # palindromic half sweeps, one gravity half-step after the first sweep
    # and one before the last
    if cfg.splitting == "lie":
        axes = list(range(f.dim))
        sweep_dt, gravity_after = dt, (f.dim - 1, f.dim - 1)
    else:
        axes = [*range(f.dim), *reversed(range(f.dim))]
        sweep_dt, gravity_after = 0.5 * dt, (0, len(axes) - 2)
    for i, axis in enumerate(axes):
        u = sweep(f, u, axis, sweep_dt, cfg, fp, prof=prof)
        for j in gravity_after:
            if cfg.gravity and j == i:
                u = gravity_op(u, dt, cfg.gravity)
    return u, dt


def total_entropy(f: Forest, u: np.ndarray, fp: FluidPair) -> float:
    """Sum of |K_i| (rho F(rho, Y) + rho |u|^2 / 2) over all leaves."""
    rho = u[:, IRHO]
    Y = u[:, IRHOY] / rho
    F = eos.free_energy(rho, Y, fp)
    kinetic = 0.5 * np.sum(u[:, IMX:] ** 2, axis=1) / rho
    return float(np.sum(f.volumes * (rho * F + kinetic)))
