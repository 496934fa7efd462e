"""Finite-volume update on the adaptive forest.

A directional sweep along an axis reads the state as it is, with that axis'
momentum in row IMX + axis, the face normal of the flux kernels.  It
evaluates one Suliciu flux per unique face (hanging faces once per fine
sub-face) and accumulates signed contributions scaled by face area over cell
volume.  Second order uses minmod-limited slopes of the primitive variables
[m1, m2, u...] and the MUSCL-Hancock half-step prediction.

``step`` copies the state once into its column-major result, whose
transpose is a C-contiguous ``(ncomp, n)`` block, and every sweep and
gravity half-step updates that result in place.  Consecutive Strang steps
may share one x sweep at dt_n/2 + dt_{n+1}/2 (``owed`` and ``close``), so
a 2D run makes 2 sweeps per step between dumps and a 3D run 4; the
shared sweep keeps ``compute_dt``'s bound of the state it acts on while
dt_n/2 + dt_{n+1}/2 does.  A sweep runs each phase over contiguous Morton
blocks [a, b) of at most ``_BLOCK`` cells, so that a block's temporaries
stay in a core's L2 cache: the primitives, the slope rows, the minmod
reduction, MUSCL-Hancock prediction and closure, the fluxes, the per-cell
sums and update; a phase that reads other blocks' results waits for the
phase before it in every block.  Each kernel makes one numpy call per
operation over all components of a block.  The face states,
pressures and sound speeds of all cells share one side-major
``(ncomp + 2, k, n)`` block, k = order, so a cell block is its columns of
each side (one conversion, pressure and physical flux call, and one closure
solve once corrected).  Faces come from ``Forest.face_list``, and one
gather, ``_ends``, reads the ends of a range of rows, the lo cell's high
side and the hi cell's low side: a wall row's end across the wall is its
other end with the normal momentum negated, so one flux call covers a range
of rows.  Then each cell sums each side's rows in row order, the first
over all cells and the few others (``FaceList.more``) on their cells
alone, so no bit depends on the blocks or on a partition.  The
simulated-rank contract (a rank fluxes the rows whose lo cell it owns,
reading owned and ghost cells only) is a property of the face list and
``partition.ghost_layer`` that the test suite checks.

Every block temporary of a step is carved from one flat buffer, the module's
``_Arena``, which lives across steps and is re-laid when the leaf or
component count changes; each cell block hands its scratch back at its end.
At order 2 on a uniform 2D mesh the buffer is 10.03 times the state in one
block and 6.53 times it at 65,536 leaves in four, where only the face
states, primitives, slopes and slope rows span all leaves.  The kernels
write into it through ``out=`` (``work=`` for the flux's scratch rows) with
the same operations in the same order as into fresh arrays, so once the
first sweep of a shape has sized the buffer a step allocates only its result
and touches no fresh pages.  Nothing returned shares memory with the buffer:
``step`` and ``sweep`` return a fresh array or the caller's ``out=``, and a
kernel called without ``out=`` runs into fresh arrays.  There is one buffer
per process, so two threads must not step at once.
"""
from __future__ import annotations

import contextlib
import logging
import math
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
        if not np.isfinite(self.gravity):
            raise ConfigError(f"gravity must be finite, got {self.gravity}")
        if self.splitting not in ("lie", "strang"):
            raise ConfigError("splitting must be 'lie' or 'strang'")


def _sec(prof, name: str):
    """Profiler section or no-op."""
    return prof.section(name) if prof is not None else contextlib.nullcontext()


class _Arena:
    """One flat float buffer handed out front to back as C-contiguous blocks.

    ``take`` carves float, int64 or bool blocks, and a ``with arena:``
    block hands back everything taken inside it.  A request past the end of
    the buffer gets a fresh array and raises the high-water mark, which
    ``reset`` then grows the buffer to, so only the first sweep of a shape
    allocates.  Each block view is made once and looked up after that: a
    sweep takes a few dozen of them per cell block, and on a mesh of a
    thousand leaves making their views anew cost about a tenth of the sweep.
    An arena without a key keeps no buffer: every block it hands out is fresh.
    """

    def __init__(self, key=None):
        self.key = key
        self.buf = np.empty(0)
        self.top = self.high = 0
        self.marks = []
        self.views = {}

    def take(self, *shape, dtype=np.float64):
        at = (self.top, shape, dtype)
        hit = self.views.get(at)
        if hit is not None:
            self.top = hit[1]
            return hit[0]
        size = math.prod(shape)
        end = self.top + -(-size * np.dtype(dtype).itemsize // 8)
        self.high = max(self.high, end)
        if end > len(self.buf):
            self.top = end
            return np.empty(shape, dtype)
        view = np.ndarray(shape, dtype, self.buf, 8 * self.top)
        self.views[at] = view, end
        self.top = end
        return view

    def __enter__(self):
        self.marks.append(self.top)

    def __exit__(self, *exc):
        self.top = self.marks.pop()

    def reset(self):
        self.top = 0
        self.marks.clear()
        if self.key is not None and self.high > len(self.buf):
            self.buf = np.empty(self.high)
            self.views.clear()


_ARENA = _Arena()

_BLOCK = 16384  # the most cells in a block of a sweep's phases


def _blocks(fl, ncomp: int):
    """``fl.blocks`` for blocks of at most ``_BLOCK`` cells of ``ncomp`` components."""
    return fl.blocks(-(-len(fl.low) // _BLOCK), ncomp)


def _arena(n: int, ncomp: int) -> _Arena:
    """The module's arena for ``n`` leaves of ``ncomp`` components, reset.

    A new leaf or component count drops the block views; the buffer carries
    over, as an adapt changes the leaf count a little, unless the leaf count
    fell below half or the component count changed, when the buffer starts
    again from empty.
    """
    key = (n, ncomp)
    if _ARENA.key != key:
        if _ARENA.key is None or 2 * n < _ARENA.key[0] or ncomp != _ARENA.key[1]:
            _ARENA.buf = np.empty(0)
        _ARENA.key, _ARENA.high = key, 0
        _ARENA.views.clear()
    _ARENA.reset()
    return _ARENA


def compute_dt(f: Forest, u: np.ndarray, cfg: SweepConfig, fp: FluidPair, prof=None) -> float:
    """Global time step C * min_i dx_i / (|u_i| + a_i/rho_i): one full-dt sweep's bound.

    The relaxation parameter a_i takes the largest acoustic impedance
    rho*c over the cell and its face neighbors, matching the face-level
    a = theta*max(rho_L c_L, rho_R c_R) seen by the flux.  |u_i| is the
    max-norm: sweeps are one-dimensional, so each needs only its own velocity
    component bounded, and the largest component bounds any sweep at full dt
    (Lie's, and Strang's middle one); a half sweep is within half the bound.
    An x sweep merged across a step boundary acts on ``u`` itself, so it is
    within the bound where ``owed + dt/2`` is.
    """
    n, fls = f.nleaves, [f.face_list(axis) for axis in range(f.dim)]
    with _sec(prof, "eos"):
        arena = _arena(n, u.shape[1])
        rho = u[:, IRHO]
        imp, imp_max = arena.take(2, n)
        for a, b, _ in _blocks(fls[0], u.shape[1])[0]:
            with arena:
                rows, r = arena.take(6, b - a), rho[a:b]
                # a bad density gives a bad Y here, but the sound speed rejects it first
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(u[a:b, IRHOY], r, out=rows[0])
                try:
                    c = eos.wood_sound_speed(r, rows[0], fp, out=rows)
                except EosError as exc:
                    raise EosError(f"time step at {f.leaf_label(a + exc.index)}: {exc}", index=a + exc.index) from exc
                np.multiply(r, c, out=imp[a:b])
    with _sec(prof, "dt"):
        np.copyto(imp_max, imp)
        for fl in fls:
            with arena:
                # both ends of a wall row are its cell, whose impedance has no sign
                lo, hi = _ends(fl, imp[None], 0, 0, len(fl.lo), (), (), 0, arena)
                fl.fold(np.maximum, imp_max, np.maximum(lo[0], hi[0], out=hi[0]))
        speed = np.max(np.abs(u[:, IMX:].T, out=arena.take(f.dim, n)), axis=0, out=imp)
        speed /= rho
        imp_max *= fp.theta
        imp_max /= rho
        speed += imp_max
        dts = np.divide(f.dx, speed, out=speed)
        dt = cfg.cfl * float(dts.min())
    if not np.isfinite(dt) or dt <= 0:
        first = int(np.argmin((dts > 0) & (dts < np.inf)))
        raise ArithmeticError(f"non-finite or non-positive time step at {f.leaf_label(first)}")
    return dt


def _ends(fl, block, shift: int, r0: int, r1: int, wall_lo, wall_hi, normal: int, arena: _Arena):
    """Lo and hi ends of face rows [r0, r1): columns ``lo + shift`` and ``hi`` of ``block``.

    In a sweep's side-major face states, the lo cell's high side and the hi
    cell's low side.  A wall row's end across the wall (``wall_lo``,
    ``wall_hi``, counted from r0) is its other end with row ``normal``
    negated.  Head rows alone read their lo ends in place (low walls lie in
    the tail); all other ends are C-contiguous blocks from ``arena``, held to
    the end of the caller's scope.  ``take`` copies a strided ``block`` whole.
    """
    h = max(min(r1, len(fl.low)) - r0, 0)
    hi = block.take(fl.hi[r0:r1], axis=1, out=arena.take(len(block), r1 - r0), mode="clip")
    lo = block[:, r0 + shift:r0 + shift + h]
    if h < r1 - r0:
        # one C-contiguous block, as kernels on row-strided views cost more per call on small meshes
        los = np.add(fl.lo[r0 + h:r1], shift, out=arena.take(r1 - r0 - h, dtype=np.int64))
        tail = block.take(los, axis=1, out=arena.take(len(block), r1 - r0 - h), mode="clip")
        lo = np.concatenate((lo, tail), axis=1, out=arena.take(len(block), r1 - r0)) if h else tail
    for ends, other, walls in ((lo, hi, wall_lo), (hi, lo, wall_hi)):
        if len(walls):
            image = other.take(walls, axis=1, out=arena.take(len(block), len(walls)), mode="clip")
            np.negative(image[normal], out=image[normal])
            ends[:, walls] = image
    return lo, hi


def _minmod_sigma(f: Forest, axis: int, V: np.ndarray, out=None, arena=None) -> np.ndarray:
    """Minmod slope of primitive variables over all axis faces of each cell.

    Componentwise: the smallest-magnitude one-sided slope if every face
    slope shares its sign, else zero.  Each face row gives the slope between
    its two ends over its center distance; the mirrored end of a wall row has
    its normal velocity negated, so a wall gives a slope of +-2 u_n / dx in
    that component and 0 in the others.  All slope rows come first, a block's
    rows at a time, then each block's reduction.  The slopes go into ``out``
    when given, else into a fresh column-major array; scratch comes from
    ``arena`` when given.
    """
    fl = f.face_list(axis)
    Vt = V.T
    ncomp, n = Vt.shape
    arena = arena or _Arena()
    sigma = np.empty((ncomp, n)) if out is None else out.T
    cells, ranges = _blocks(fl, ncomp)
    with arena:
        rows = arena.take(ncomp, len(fl.lo))
        for r0, r1, wall_lo, wall_hi in ranges:
            with arena:
                vlo, vhi = _ends(fl, Vt, 0, r0, r1, wall_lo, wall_hi, IMX + axis, arena)
                np.subtract(vhi, vlo, out=(seg := rows[:, r0:r1]))
            seg /= fl.dist[r0:r1]
        for a, b, extra in cells:
            with arena:
                # the first row of each side, the high side's the head, in
                # place, then the few rows past them on their cells alone
                smin, smax = arena.take(2, ncomp, b - a)
                col = rows.take(fl.low[a:b], axis=1, out=smax, mode="clip")
                np.minimum(rows[:, a:b], col, out=smin)
                np.maximum(rows[:, a:b], col, out=smax)
                for flat, later in extra:
                    if len(later):
                        # ufunc.at on the flat block takes numpy's fast path
                        v = rows.take(later, axis=1).ravel()
                        np.minimum.at(smin.reshape(-1), flat, v)
                        np.maximum.at(smax.reshape(-1), flat, v)
                # smin where it is positive, smax where it is negative, else +0.0
                # (+= 0.0 turns -0.0 into +0.0); a NaN slope makes both NaN, which
                # fmax turns into 0.0, and an infinite slope becomes +0.0 too
                sig = sigma[:, a:b]
                np.fmax(smin, 0.0, out=sig)
                np.fmin(sig, smax, out=sig)
                sig += 0.0
                np.copyto(sig, 0.0, where=np.isinf(sig, out=arena.take(ncomp, b - a, dtype=bool)))
    return sigma.T


def _inadmissible(C: np.ndarray, out: np.ndarray, arena: _Arena) -> np.ndarray:
    """Cells with a face state outside the admissible set, a side per row of the ``(ncomp, 2, n)`` ``C``."""
    with arena:
        bad = arena.take(3, 2, len(out), dtype=bool)
        np.less_equal(C[IRHO : IRHOY + 1], 0, out=bad[:2])  # rho <= 0, rho Y <= 0
        np.greater_equal(C[IRHOY], C[IRHO], out=bad[2])  # rho Y >= rho
        return np.logical_or.reduce(bad, axis=(0, 1), out=out)


def muscl_predict(W, sigma, dx, dt, fp: FluidPair, V=None, out=None, arena=None, normal=IMX):
    """Half-step MUSCL-Hancock face states from cell states and slopes.

    Row ``normal`` of ``W`` is the sweep axis' momentum.  ``V`` is
    ``eos.to_primitive(W)`` when the caller already has it.
    Returns (W_left_face, W_right_face, fallback) where ``fallback`` marks
    cells retreated to first order because a predicted state left the
    admissible set.  Both face states are the sides of one ``(n, 2, ncomp)``
    batch, left faces first: ``out`` when given, else a fresh one whose
    transpose is C-contiguous.  Scratch, and ``fallback``, come from
    ``arena`` when given.
    """
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    dx = np.atleast_1d(np.asarray(dx, dtype=np.float64))
    n, ncomp = W.shape
    arena = arena or _Arena()
    if V is None:
        V = eos.to_primitive(W, out=arena.take(ncomp, n).T)
    WS = np.empty((ncomp, 2, n)).T if out is None else out
    C = WS.T
    fallback = arena.take(n, dtype=bool)
    with arena:
        # left (S[:, 0]) and right (S[:, 1]) primitive face states, S[:, 1]
        # first holding sigma dx / 2; converted, they go to C
        S = arena.take(ncomp, 2, n)
        half = np.multiply(0.5, sigma.T, out=S[:, 1])
        half *= dx
        np.subtract(V.T, half, out=S[:, 0])
        np.add(V.T, half, out=half)
        eos.from_primitive(S.T, out=WS)
        # inadmissible reconstructions retreat to first order before any EOS call
        if _inadmissible(C, fallback, arena).any():
            C[:, :, fallback] = W.T[:, None, fallback]
        with arena:
            rows = arena.take(6, 2, n)
            Y = np.divide(C[IRHOY], C[IRHO], out=rows[0])
            p = eos.mixture_pressure(C[IRHO], Y, fp, out=rows)
            # the fluxes overwrite the primitive face states
            riemann.physical_flux(WS, p.T, out=S.T, normal=normal)
        # the face states move by -(F_R - F_L) * dt / (2 dx)
        dF, coef = arena.take(ncomp, n), arena.take(n)
        np.subtract(S[:, 1], S[:, 0], out=dF)
        dF *= np.divide(0.5 * dt, dx, out=coef)
        np.subtract(C, dF[:, None], out=C)
    fallback |= _inadmissible(C, arena.take(n, dtype=bool), arena)
    if fallback.any():
        log.debug("MUSCL positivity fallback on %d cells", int(fallback.sum()))
        C[:, :, fallback] = W.T[:, None, fallback]
    return WS[:, 0], WS[:, 1], fallback


def sweep(
    f: Forest, u: np.ndarray, axis: int, dt: float, cfg: SweepConfig, fp: FluidPair, prof=None, out=None
) -> np.ndarray:
    """One dimensional-splitting operator application along ``axis``.

    Row IMX + axis of ``u`` is the face normal's momentum.  The new state
    goes into ``out``, which may be ``u`` itself, or else into a fresh
    column-major array.
    """
    n, ncomp = u.shape
    normal = IMX + axis
    arena = _arena(n, ncomp)
    fl = f.face_list(axis)
    cells, ranges = _blocks(fl, ncomp)

    # phase A (per cell block [a, b)): columns a:b of each side of B hold the
    # face states of its cells, side 0 the left faces when k = order is 2,
    # over their pressures p and sound speeds c
    k = cfg.order
    B = arena.take(ncomp + 2, k, n)
    a, m = 0, n
    try:
        with arena:
            if k == 2:
                with _sec(prof, "slopes"):
                    V, sigma = arena.take(2, ncomp, n)
                    V = eos.to_primitive(u, out=V.T)
                    sigma = _minmod_sigma(f, axis, V, out=sigma.T, arena=arena)
            for a, b, _ in cells:
                m, Bk = b - a, B[:, :, a:b]
                FS, p, c = Bk[:ncomp], Bk[ncomp], Bk[ncomp + 1]
                if k == 2:
                    with _sec(prof, "slopes"), arena:
                        muscl_predict(
                            u[a:b], sigma[a:b], f.dx[a:b], dt, fp, V=V[a:b], out=FS.T, arena=arena, normal=normal
                        )
                with _sec(prof, "eos"), arena:
                    if k == 1:
                        np.copyto(FS[:, 0], u.T[:, a:b])
                    # all face states in one closure solve from Y; p and c (closure
                    # rows 3 and 0) are kept for the flux phase, the others are scratch
                    rows = arena.take(4, k, m)
                    rho = eos._check_density(FS[IRHO])
                    Y = np.divide(FS[IRHOY], rho, out=c)
                    eos._pressure_and_speed(rho, Y, fp, (c, rows[0], rows[1], p, rows[2], rows[3]))
    except EosError as exc:
        # the (k, m) batch holds side i // m of leaf a + i % m at flat index i
        leaf = a + exc.index % m
        raise EosError(f"sweep on axis {axis} at {f.leaf_label(leaf)}: {exc}", index=leaf) from exc

    with _sec(prof, "flux"):
        # phase B1 (per row range of a cell block [a, b)): each row joins the
        # high face state of lo to the low face state of hi, with their p and
        # c, gathered from B's columns with side s of cell i at s n + i
        flux = arena.take(ncomp, len(fl.lo))
        flat = B.reshape(ncomp + 2, k * n)
        try:
            for r0, r1, wall_lo, wall_hi in ranges:
                with arena:
                    L, R = _ends(fl, flat, (k - 1) * n, r0, r1, wall_lo, wall_hi, normal, arena)
                    F = flux[:, r0:r1]
                    riemann.suliciu_flux(
                        L[:ncomp].T, R[:ncomp].T, fp, L[ncomp], R[ncomp], L[ncomp + 1], R[ncomp + 1],
                        out=F.T, work=arena.take(riemann.FLUX_ROWS + 2 * ncomp, r1 - r0), normal=normal,
                    )
                    F *= np.multiply(dt, fl.area[r0:r1], out=arena.take(r1 - r0))  # each row times dt area, once
        except VacuumError as exc:
            # a wall row joins its cell to itself: name the cell once
            row = r0 + exc.row
            at = " and ".join(map(f.leaf_label, dict.fromkeys((fl.lo[row], fl.hi[row]))))
            raise VacuumError(f"sweep on axis {axis}, face row {row} at {at}: {exc}", row=row) from exc

        # phase B2 (per cell block): each cell side sums its rows in row
        # order, low side (from +0.0, so never -0.0) minus high side (from its
        # own head row), so no sign of a zero shows; the rows are in range,
        # and mode="clip" lets take fill ``dW`` without an intermediate copy
        out = np.empty((ncomp, n)).T if out is None else out
        for a, b, extra in cells:
            with arena:
                dW, acc = arena.take(2, ncomp, b - a)
                flux.take(fl.low[a:b], axis=1, out=dW, mode="clip")
                dW += 0.0
                np.copyto(acc, flux[:, a:b])
                for side, (flat, later) in zip((dW, acc), extra):
                    if len(later):  # a cell's terms in row order
                        np.add.at(side.reshape(-1), flat, flux.take(later, axis=1).ravel())
                dW -= acc
                dW /= f.volumes[a:b]
                np.add(u.T[:, a:b], dW, out=out.T[:, a:b])
    return out


def gravity_op(u: np.ndarray, dt: float, g: float, out=None) -> np.ndarray:
    """Half-step gravity source: vertical momentum loses rho*g*dt/2.

    Into ``out`` when given, which may be ``u`` itself, else into a copy.
    """
    if out is None:
        out = u.copy()
    elif out is not u:
        np.copyto(out, u)
    out[:, IMY] -= u[:, IRHO] * g * (0.5 * dt)
    return out


def step(
    f: Forest, u: np.ndarray, cfg: SweepConfig, fp: FluidPair, dt: float | None = None, prof=None,
    owed: float = 0.0, close: bool = True,
) -> tuple[np.ndarray, float]:
    """Advance one time step: Lie x(dt) y(dt), or Strang x(dt/2) y(dt) x(dt/2).

    In 3D, Lie adds z(dt) and Strang is x y z(dt) y x.  Strang steps may
    share an x sweep (LeVeque 2002, section 17.3): the first runs at
    ``owed + dt/2``, taking in the half sweep the step before left out, and
    ``close=False`` leaves out the last; gravity keeps its place.  The merged
    sweep keeps ``compute_dt``'s bound of ``u`` while ``owed + dt/2`` does.
    ``harness.run`` closes a step only before a dump or t_end, not an adapt.
    The defaults run every sweep of the step; Lie merges nothing.  The new
    state is the step's one fresh (column-major) array: a copy of ``u`` that
    every sweep and gravity half-step updates in place.
    """
    if dt is None:
        dt = compute_dt(f, u, cfg, fp, prof=prof)
    # Lie: one full sweep per axis, then both gravity half-steps.  Strang
    # (1968): half sweeps around one full-dt sweep of the last axis, a gravity
    # half-step after the first sweep and one before the last (xgygx, xgyzygx)
    if cfg.splitting == "lie":
        if owed or not close:
            raise ConfigError("Lie splitting has no half sweep to merge")
        sweeps, gravity_after = [(axis, dt) for axis in range(f.dim)], (f.dim - 1, f.dim - 1)
    else:
        half = [(axis, 0.5 * dt) for axis in range(f.dim - 1)]
        sweeps, gravity_after = [(0, owed + 0.5 * dt), *half[1:], (f.dim - 1, dt), *reversed(half)], (0, 2 * f.dim - 3)
        if not close:
            sweeps.pop()
    with _sec(prof, "sweep"):
        u = u.copy(order="F")
    for i, (axis, sweep_dt) in enumerate(sweeps):
        sweep(f, u, axis, sweep_dt, cfg, fp, prof=prof, out=u)
        for j in gravity_after:
            if cfg.gravity and j == i:
                gravity_op(u, dt, cfg.gravity, out=u)
    return u, dt


def total_entropy(f: Forest, u: np.ndarray, fp: FluidPair) -> float:
    """Sum of |K_i| (rho F(rho, Y) + rho |u|^2 / 2) over all leaves."""
    rho = eos._check_density(u[:, IRHO], f.leaf_label)
    Y = u[:, IRHOY] / rho
    F = eos.free_energy(rho, Y, fp)
    kinetic = 0.5 * np.sum(u[:, IMX:] ** 2, axis=1) / rho
    return float(np.sum(f.volumes * (rho * F + kinetic)))
