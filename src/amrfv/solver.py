"""Finite-volume update on the adaptive forest.

A directional sweep rotates the state so the sweep axis' momentum sits in
slot 2, evaluates one Suliciu flux per unique face (hanging faces once per
fine sub-face) and accumulates signed contributions scaled by face area over
cell volume.  Second order uses minmod-limited slopes of the primitive
variables [m1, m2, u...] and the MUSCL-Hancock half-step prediction.

With a partition map, sweeps follow the simulated-rank contract: fluxes of a
frontier face are computed by the rank owning its lower-z-order cell, every
rank writes only its owned cells, and each phase runs over all ranks in turn
before the next one starts.  Results are bitwise independent of the rank
count.
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
    "compute_slope",
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
    alpha = eos.solve_alpha(rho, Y, fp)
    p = eos.mixture_pressure(rho, Y, fp, alpha=alpha)
    c = eos.wood_sound_speed(rho, Y, fp, alpha=alpha)
    return p, c


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
        _, c = _cell_speeds(u, fp)
    imp = rho * c
    imp_max = imp.copy()
    for axis in range(f.dim):
        fl = f.face_list(axis)
        np.maximum.at(imp_max, fl.lo, imp[fl.hi])
        np.maximum.at(imp_max, fl.hi, imp[fl.lo])
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
    inc = f.face_incidence(axis)
    n, ncomp = V.shape
    s_face = (V[fl.hi] - V[fl.lo]) / fl.dist[:, None]
    slots = np.concatenate([s_face, s_face])[inc.order]
    smin = np.full((n, ncomp), np.inf)
    smax = np.full((n, ncomp), -np.inf)
    if len(inc.cells):
        smin[inc.cells] = np.minimum.reduceat(slots, inc.seg_starts, axis=0)
        smax[inc.cells] = np.maximum.reduceat(slots, inc.seg_starts, axis=0)
    if len(fl.bc_cell):
        # mirror ghost differs only in normal velocity: slope -2*u_n/dx
        cells = fl.bc_cell
        sign = np.where(fl.bc_side == 1, 1.0, -1.0)
        s_bc = np.zeros((len(cells), ncomp))
        s_bc[:, IMX] = sign * (-2.0 * V[cells, IMX]) / dx[cells]
        np.minimum.at(smin, cells, s_bc)
        np.maximum.at(smax, cells, s_bc)
    sigma = np.where(smin > 0.0, smin, np.where(smax < 0.0, smax, 0.0))
    return np.where(np.isfinite(sigma), sigma, 0.0)


def compute_slope(f: Forest, u: np.ndarray, i: int, axis: int, fp: FluidPair) -> np.ndarray:
    """Limited slope of leaf i (primitive components) along ``axis``."""
    perm, _ = _mom_perm(f.dim, axis)
    V = eos.to_primitive(u[:, perm])
    return _minmod_sigma(f, axis, V, f.dx)[i]


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


def _rank_faces(f: Forest, pm: PartitionMap | None, axis: int):
    """Per-rank face index sets: owned-lo (flux duty) and incident (update)."""
    fl = f.face_list(axis)
    if pm is None or pm.P == 1:
        all_faces = np.arange(len(fl.lo))
        all_bc = np.arange(len(fl.bc_cell))
        return [(all_faces, all_faces, all_bc)]
    key = ("rank_faces", pm.offsets, axis)
    if key not in f._aux_cache:
        owner_lo = pm.owner_of(fl.lo)
        owner_hi = pm.owner_of(fl.hi)
        owner_bc = pm.owner_of(fl.bc_cell)
        split = []
        for r in range(pm.P):
            duty = np.flatnonzero(owner_lo == r)
            incident = np.flatnonzero((owner_lo == r) | (owner_hi == r))
            bc = np.flatnonzero(owner_bc == r)
            split.append((duty, incident, bc))
        f._aux_cache[key] = split
    return f._aux_cache[key]


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
    rho = Wq[:, IRHO]
    Y = Wq[:, IRHOY] / rho
    with _sec(prof, "eos"):
        alpha = eos.solve_alpha(rho, Y, fp)
        p = eos.mixture_pressure(rho, Y, fp, alpha=alpha)
        c = eos.wood_sound_speed(rho, Y, fp, alpha=alpha)
    if cfg.order == 1:
        WfL = WfR = Wq
        pfL = pfR = p
        cfL = cfR = c
    else:
        with _sec(prof, "slopes"):
            V = eos.to_primitive(Wq)
            sigma = _minmod_sigma(f, axis, V, f.dx)
            WfL, WfR, _ = muscl_predict(Wq, sigma, f.dx, dt, fp)
        with _sec(prof, "eos"):
            YL = WfL[:, IRHOY] / WfL[:, IRHO]
            YR = WfR[:, IRHOY] / WfR[:, IRHO]
            aL = eos.solve_alpha(WfL[:, IRHO], YL, fp)
            aR = eos.solve_alpha(WfR[:, IRHO], YR, fp)
            pfL = eos.mixture_pressure(WfL[:, IRHO], YL, fp, alpha=aL)
            pfR = eos.mixture_pressure(WfR[:, IRHO], YR, fp, alpha=aR)
            cfL = eos.wood_sound_speed(WfL[:, IRHO], YL, fp, alpha=aL)
            cfR = eos.wood_sound_speed(WfR[:, IRHO], YR, fp, alpha=aR)

    # phase B1: one flux per face, frontier faces computed by the lo-owner rank
    flux = np.empty((len(fl.lo), ncomp))
    splits = _rank_faces(f, pm, axis)

    with _sec(prof, "flux"):
        for duty, _, _ in splits:
            lo = fl.lo[duty]
            hi = fl.hi[duty]
            flux[duty] = riemann.suliciu_flux(
                WfR[lo], WfL[hi], fp, pL=pfR[lo], pR=pfL[hi], cL=cfR[lo], cR=cfL[hi]
            )

    # phase B2: accumulate face contributions into owned cells only
    out = np.empty_like(Wq)
    coef = dt * fl.area
    with _sec(prof, "flux"):
        for rank, (_, incident, bc) in enumerate(splits):
            lo = fl.lo[incident]
            hi = fl.hi[incident]
            du = np.zeros((n, ncomp))
            w = coef[incident, None] * flux[incident]
            for k in range(ncomp):
                du[:, k] = np.bincount(lo, weights=-w[:, k], minlength=n)
                du[:, k] += np.bincount(hi, weights=w[:, k], minlength=n)
            if len(bc):
                cells = fl.bc_cell[bc]
                sides = fl.bc_side[bc]
                barea = fl.bc_area[bc]
                hi_side = sides == 1
                # the mirror ghost shares the cell's thermodynamics exactly
                if np.any(hi_side):
                    cc = cells[hi_side]
                    bflux = riemann.suliciu_flux(
                        WfR[cc],
                        _wall_mirror(WfR[cc]),
                        fp,
                        pL=pfR[cc],
                        pR=pfR[cc],
                        cL=cfR[cc],
                        cR=cfR[cc],
                    )
                    w2 = (dt * barea[hi_side])[:, None] * bflux
                    for k in range(ncomp):
                        du[:, k] += np.bincount(cc, weights=-w2[:, k], minlength=n)
                if np.any(~hi_side):
                    cc = cells[~hi_side]
                    bflux = riemann.suliciu_flux(
                        _wall_mirror(WfL[cc]),
                        WfL[cc],
                        fp,
                        pL=pfL[cc],
                        pR=pfL[cc],
                        cL=cfL[cc],
                        cR=cfL[cc],
                    )
                    w2 = (dt * barea[~hi_side])[:, None] * bflux
                    for k in range(ncomp):
                        du[:, k] += np.bincount(cc, weights=w2[:, k], minlength=n)
            sl = slice(0, n) if pm is None else slice(*pm.range(rank))
            out[sl] = Wq[sl] + du[sl] / f.volumes[sl, None]
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
