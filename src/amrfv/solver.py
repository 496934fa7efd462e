"""Finite-volume update on the adaptive forest.

A directional sweep rotates the state so the sweep axis' momentum sits in
slot 2, evaluates one Suliciu flux per unique face (hanging faces once per
fine sub-face) and accumulates signed contributions scaled by face area over
cell volume.  Second order uses minmod-limited slopes of the primitive
variables [m1, m2, u...] and the MUSCL-Hancock half-step prediction.

Faces come from ``Forest.face_list``: rows ordered by their lower-z-order
cell and a per-cell slot table.  With a partition map, sweeps follow the
simulated-rank contract: a rank's flux duty is the slice of face rows whose
lo cell it owns, each phase runs over all ranks in turn before the next one
starts, and every rank writes only its own cells, summing each cell side's
gathered fluxes in slot order.  That order does not depend on the partition,
so results are bitwise independent of the rank count by construction.
"""
from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

from amrfv import eos, riemann
from amrfv.errors import ConfigError
from amrfv.eos import FluidPair
from amrfv.forest import Forest
from amrfv.partition import PartitionMap

__all__ = [
    "IRHO",
    "IRHOY",
    "IMX",
    "SweepConfig",
    "compute_dt",
    "muscl_predict",
    "gravity_op",
    "sweep",
    "step",
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
    rho = u[:, IRHO]
    Y = u[:, IRHOY] / rho
    return eos.mixture_pressure(rho, Y, fp), eos.wood_sound_speed(rho, Y, fp)


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
        c = eos.wood_sound_speed(rho, u[:, IRHOY] / rho, fp)
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
        raise ArithmeticError("non-finite or non-positive time step")
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
    s_face = (V[fl.hi] - V[fl.lo]) / fl.dist[:, None]
    # mirror ghost differs only in normal velocity: slope -2*u_n/dx
    cells = fl.bc_cell
    sign = np.where(fl.bc_side == 1, 1.0, -1.0)
    s_bc = np.zeros((len(cells), V.shape[1]))
    s_bc[:, IMX] = sign * (-2.0 * V[cells, IMX]) / dx[cells]
    cols = fl.columns(np.concatenate([s_face, s_bc]))
    smin = smax = next(cols)
    for col in cols:
        smin = np.minimum(smin, col)
        smax = np.maximum(smax, col)
    sigma = np.where(smin > 0.0, smin, np.where(smax < 0.0, smax, 0.0))
    return np.where(np.isfinite(sigma), sigma, 0.0)


def muscl_predict(W, sigma, dx, dt, fp: FluidPair):
    """Half-step MUSCL-Hancock face states from cell states and slopes.

    Returns (W_left_face, W_right_face, fallback) where ``fallback`` marks
    cells retreated to first order because a predicted state left the
    admissible set.
    """
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    dx = np.atleast_1d(np.asarray(dx, dtype=np.float64))
    V = eos.to_primitive(W)
    half = 0.5 * sigma * dx[:, None]
    WL = eos.from_primitive(V - half)
    WR = eos.from_primitive(V + half)

    def bad(A):
        return (A[:, IRHO] <= 0) | (A[:, IRHOY] <= 0) | (A[:, IRHOY] >= A[:, IRHO])

    # inadmissible reconstructions retreat to first order before any EOS call
    fallback = bad(WL) | bad(WR)
    if np.any(fallback):
        WL[fallback] = W[fallback]
        WR[fallback] = W[fallback]
    pL = eos.mixture_pressure(WL[:, IRHO], WL[:, IRHOY] / WL[:, IRHO], fp)
    pR = eos.mixture_pressure(WR[:, IRHO], WR[:, IRHOY] / WR[:, IRHO], fp)
    dF = (riemann.physical_flux(WR, pR) - riemann.physical_flux(WL, pL)) * (
        0.5 * dt / dx[:, None]
    )
    WfL = WL - dF
    WfR = WR - dF
    fallback = fallback | bad(WfL) | bad(WfR)
    if np.any(fallback):
        log.debug("MUSCL positivity fallback on %d cells", int(fallback.sum()))
        WfL[fallback] = W[fallback]
        WfR[fallback] = W[fallback]
    return WfL, WfR, fallback


def sweep(
    f: Forest,
    u: np.ndarray,
    axis: int,
    dt: float,
    cfg: SweepConfig,
    fp: FluidPair,
    pm: PartitionMap | None = None,
    prof=None,
) -> np.ndarray:
    """One dimensional-splitting operator application along ``axis``."""
    with _sec(prof, "sweep"):
        perm, iperm = _mom_perm(f.dim, axis)
        Wq = u[:, perm]
        n, ncomp = Wq.shape
        fl = f.face_list(axis)

    # phase A (data-parallel per cell): face states and their EOS data
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
            WfL, WfR, _ = muscl_predict(Wq, sigma, f.dx, dt, fp)
        with _sec(prof, "eos"):
            pfL, cfL = _cell_speeds(WfL, fp)
            pfR, cfR = _cell_speeds(WfR, fp)

    ranges = [(0, n)] if pm is None else [pm.range(r) for r in range(pm.P)]
    nf = len(fl.lo)
    flux = np.empty((nf + len(fl.bc_cell), ncomp))
    with _sec(prof, "flux"):
        # phase B1: each rank fluxes the face rows of the cells it owns,
        # frontier faces by the owner of their lo cell
        for r0, r1 in ranges:
            a, b = np.searchsorted(fl.lo, (r0, r1))
            lo, hi = fl.lo[a:b], fl.hi[a:b]
            flux[a:b] = riemann.suliciu_flux(
                WfR[lo], WfL[hi], fp, pL=pfR[lo], pR=pfL[hi], cL=cfR[lo], cR=cfL[hi]
            )
            a, b = np.searchsorted(fl.bc_cell, (r0, r1))
            if b > a:
                # the mirror ghost shares the cell's face state and thermodynamics
                cc = fl.bc_cell[a:b]
                high = fl.bc_side[a:b] == 1
                W = np.where(high[:, None], WfR[cc], WfL[cc])
                pw = np.where(high, pfR[cc], pfL[cc])
                cw = np.where(high, cfR[cc], cfL[cc])
                G = _wall_mirror(W)
                flux[nf + a : nf + b] = riemann.suliciu_flux(
                    np.where(high[:, None], W, G),
                    np.where(high[:, None], G, W),
                    fp,
                    pL=pw,
                    pR=pw,
                    cL=cw,
                    cR=cw,
                )

        # phase B2: each rank sums its own cells' slots, low side minus high
        out = np.empty_like(Wq)
        coef = dt * fl.slot_area
        k = fl.slots.shape[2]
        for r0, r1 in ranges:
            side = []
            for s in (0, 1):
                acc = np.zeros((r1 - r0, ncomp))
                for j in range(k):
                    acc += coef[r0:r1, s, j, None] * flux[fl.slots[r0:r1, s, j]]
                side.append(acc)
            out[r0:r1] = Wq[r0:r1] + (side[0] - side[1]) / f.volumes[r0:r1, None]
    with _sec(prof, "sweep"):
        return out[:, iperm]


def gravity_op(u: np.ndarray, dt: float, g: float) -> np.ndarray:
    """Half-step gravity source: vertical momentum loses rho*g*dt/2."""
    out = u.copy()
    out[:, IMY] -= u[:, IRHO] * g * (0.5 * dt)
    return out


def step(
    f: Forest,
    u: np.ndarray,
    cfg: SweepConfig,
    fp: FluidPair,
    pm: PartitionMap | None = None,
    dt: float | None = None,
    prof=None,
) -> tuple[np.ndarray, float]:
    """Advance one time step with the configured splitting sequence."""
    if dt is None:
        dt = compute_dt(f, u, cfg, fp, prof=prof)
    d = f.dim
    g = cfg.gravity

    def sw(w, axis, step_dt):
        return sweep(f, w, axis, step_dt, cfg, fp, pm=pm, prof=prof)

    if cfg.splitting == "lie":
        for axis in range(d):
            u = sw(u, axis, dt)
        if g:
            u = gravity_op(gravity_op(u, dt, g), dt, g)
        return u, dt

    # Strang: palindromic half-step sequence; with gravity the source slots
    # in right after the first X half-sweep and before the last one
    axes = [0, 1, 2, 2, 1, 0] if d == 3 else [0, 1, 1, 0]
    if not g:
        for axis in axes:
            u = sw(u, axis, 0.5 * dt)
        return u, dt
    mid = len(axes) // 2
    for i, axis in enumerate(axes):
        if i == 1:
            u = gravity_op(u, dt, g)
        u = sw(u, axis, 0.5 * dt)
        if i == len(axes) - 2:
            u = gravity_op(u, dt, g)
    return u, dt


def total_entropy(f: Forest, u: np.ndarray, fp: FluidPair) -> float:
    """Sum of |K_i| (rho F(rho, Y) + rho |u|^2 / 2) over all leaves."""
    rho = u[:, IRHO]
    Y = u[:, IRHOY] / rho
    F = eos.free_energy(rho, Y, fp)
    kinetic = 0.5 * np.sum(u[:, IMX:] ** 2, axis=1) / rho
    return float(np.sum(f.volumes * (rho * F + kinetic)))
