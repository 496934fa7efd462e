"""Suliciu relaxation flux for the 1D face Riemann problem.

States are conservative rows [rho, rho*Y, rho*u_1, ..., rho*u_d]; the face
normal's momentum sits in row ``normal`` (2 unless the caller says
otherwise), and the other momenta are tangential.  The flux is the
HLLC-family four-wave form built from a single relaxation parameter
a = theta * max(rho_L c_L, rho_R c_R) per face.  Callers pass each state's
mixture pressure p and Wood sound speed c, which they evaluate once per cell.

Batches are ``(n, ncomp)`` arrays of any memory order, or single rows.  The
flux kernel works on the transposed ``(ncomp, n)`` block, one numpy call per
operation over all components, with the normal-momentum fix-ups on row
``normal``, so column-major (Fortran-ordered) batches, whose transposes are
C-contiguous, are the fast case; a C-ordered batch gives the same bits.  The
sweep passes its reused block buffers as ``out=`` (and ``work=`` for the
flux's scratch rows); without them the same kernel runs into fresh arrays.
"""
from __future__ import annotations

import numpy as np

from amrfv.errors import VacuumError

__all__ = ["physical_flux", "relaxation_speed", "suliciu_flux"]


def physical_flux(W, p, out=None, normal=2):
    """Normal flux of states: every row times u, plus p in row ``normal``.

    u is the velocity in row ``normal``: [rho u, rho Y u, ..., rho u^2 + p,
    ...].  ``out`` must not overlap ``W``.
    """
    W = np.asarray(W, dtype=np.float64)
    F = np.empty_like(W) if out is None else out
    # the normal velocity waits in the normal-momentum row, scaled last
    u = np.divide(W[..., normal], W[..., 0], out=F[..., normal])
    np.multiply(W[..., :normal], u[..., None], out=F[..., :normal])
    np.multiply(W[..., normal + 1:], u[..., None], out=F[..., normal + 1:])
    u *= W[..., normal]
    F[..., normal] += p
    return F


def relaxation_speed(WL, WR, fp, cL, cR, out=None):
    """a = theta * max(rho_L c_L, rho_R c_R) from the Wood sound speeds c.

    ``fp`` is the ``eos.FluidPair``; only its relaxation factor theta is read.
    ``out`` holds two float arrays of the batch shape: a lands in the first,
    and the second is scratch.
    """
    rhoL = np.asarray(WL, dtype=np.float64)[..., 0]
    rhoR = np.asarray(WR, dtype=np.float64)[..., 0]
    if out is None:
        shape = np.broadcast_shapes(np.shape(rhoL), np.shape(rhoR), np.shape(cL), np.shape(cR))
        out = [np.empty(shape) for _ in range(2)]
    a, aR = out
    np.multiply(rhoL, cL, out=a)
    np.maximum(a, np.multiply(rhoR, cR, out=aR), out=a)
    a *= fp.theta
    return a[()]


# scratch rows of ``suliciu_flux`` besides its two (ncomp, n) blocks
FLUX_ROWS = 9


def suliciu_flux(WL, WR, fp, pL, pR, cL, cR, out=None, work=None, normal=2):
    """Relaxation flux between states (single rows or batches) across a face.

    Row ``normal`` of each state is the face normal's momentum.  Star
    densities are formed as rho/(1 + rho*(u* - u)/a), which reduces to
    rho exactly when both states coincide, keeping free streams bitwise
    stable.  Raises VacuumError, carrying the first offending row, if an
    intermediate density is non-positive.  The flux is written into ``out``
    when given.  ``work`` is a C-contiguous ``(FLUX_ROWS + 2 ncomp, n)``
    float block of scratch rows; a fresh one is used without it.
    """
    WL = np.asarray(WL, dtype=np.float64)
    WR = np.asarray(WR, dtype=np.float64)
    F = np.empty_like(WL) if out is None else out
    # a single row is a batch of one
    L, R, o = np.atleast_2d(WL).T, np.atleast_2d(WR).T, np.atleast_2d(F).T
    ncomp = len(L)
    if work is None:
        work = np.empty((FLUX_ROWS + 2 * ncomp, L.shape[1]))
    sR, uL, uR, mR, s0, mL, denomL, denomR, sL = work[:FLUX_ROWS]
    term, star = work[FLUX_ROWS:FLUX_ROWS + ncomp], work[FLUX_ROWS + ncomp:]
    rhoL, rhoR = L[0], R[0]
    # a holds sR's row until sR, computed last, replaces it
    a = relaxation_speed(L.T, R.T, fp, cL, cR, out=work[:2])

    np.divide(L[normal], rhoL, out=uL)
    np.divide(R[normal], rhoR, out=uR)
    # u* - u_L and u* - u_R as explicit jumps so they vanish exactly when
    # WL == WR (then every star state collapses onto its base state bitwise):
    # half_du = (uR - uL) / 2 and half_dp = (pL - pR) / (2 a) make
    # duL = half_du + half_dp and duR = -half_du + half_dp
    half_du = np.subtract(uR, uL, out=mR)
    half_du *= 0.5
    half_dp = np.subtract(pL, pR, out=s0)
    half_dp *= 0.5
    half_dp /= a
    duL = np.add(half_du, half_dp, out=mL)
    duR = np.negative(half_du, out=mR)
    duR += half_dp
    # s0 = |u*| with u* = uL + duL; then m = rho du
    np.abs(np.add(uL, duL, out=s0), out=s0)
    np.multiply(rhoL, duL, out=mL)
    np.multiply(rhoR, duR, out=mR)
    np.add(1.0, np.divide(mL, a, out=denomL), out=denomL)
    np.subtract(1.0, np.divide(mR, a, out=denomR), out=denomR)
    # fmin skips a NaN, so a NaN denominator is not bad, as with <= 0
    if np.fmin.reduce(denomL, initial=np.inf) <= 0 or np.fmin.reduce(denomR, initial=np.inf) <= 0:
        bad = (denomL <= 0) | (denomR <= 0)
        raise VacuumError(
            "relaxation produced a non-positive star density; "
            "states too strong for theta={}".format(fp.theta),
            row=int(np.argmax(bad)),
        )

    # wave speeds of the three jumps: star minus base on the left, the
    # contact between the star states, base minus star on the right
    np.abs(np.subtract(uL, np.divide(a, rhoL, out=sL), out=sL), out=sL)
    np.abs(np.add(uR, np.divide(a, rhoR, out=sR), out=sR), out=sR)
    # 0.5 * (FL + FR - sL (WsL - WL) - s0 (WsR - WsL) - sR (WR - WsR)) over
    # the (ncomp, n) blocks; star states carry u* in the normal momentum and
    # Y and the tangential velocities from their own side
    np.multiply(L, uL, out=o)
    o[normal] += pL
    np.multiply(R, uR, out=term)
    term[normal] += pR
    o += term
    np.divide(L, denomL, out=star)
    np.add(L[normal], mL, out=star[normal])
    star[normal] /= denomL
    np.subtract(star, L, out=term)
    term *= sL
    o -= term
    # the right star state replaces the left one after its last use
    np.divide(R, denomR, out=term)
    np.add(R[normal], mR, out=term[normal])
    term[normal] /= denomR
    np.subtract(term, star, out=star)
    star *= s0
    o -= star
    np.subtract(R, term, out=term)
    term *= sR
    o -= term
    o *= 0.5
    return F
