"""Suliciu relaxation flux for the 1D face Riemann problem.

States are conservative rows [rho, rho*Y, rho*u, (tangential momenta...)]
already rotated so the face normal sits in the third slot.  The flux is the
HLLC-family four-wave form built from a single relaxation parameter
a = theta * max(rho_L c_L, rho_R c_R) per face.  Callers pass each state's
mixture pressure p and Wood sound speed c, which they evaluate once per cell.

Batches are ``(n, ncomp)`` arrays of any memory order, or single rows.  The
flux kernel works on the transposed ``(ncomp, n)`` block, one numpy call per
operation over all components, with the normal-momentum fix-ups on row 2, so
column-major (Fortran-ordered) batches, whose transposes are C-contiguous,
are the fast case; a C-ordered batch gives the same bits.
"""
from __future__ import annotations

import numpy as np

from amrfv.errors import VacuumError

__all__ = ["physical_flux", "relaxation_speed", "suliciu_flux"]


def physical_flux(W, p):
    """F_x of rotated states: [rho u, rho Y u, rho u^2 + p, rho u v, ...]."""
    W = np.asarray(W, dtype=np.float64)
    u = W[..., 2] / W[..., 0]
    F = W * u[..., None]
    F[..., 2] += p
    return F


def relaxation_speed(WL, WR, fp, cL, cR):
    """a = theta * max(rho_L c_L, rho_R c_R) from the Wood sound speeds c.

    ``fp`` is the ``eos.FluidPair``; only its relaxation factor theta is read.
    """
    rhoL = np.asarray(WL, dtype=np.float64)[..., 0]
    rhoR = np.asarray(WR, dtype=np.float64)[..., 0]
    return fp.theta * np.maximum(rhoL * cL, rhoR * cR)


def suliciu_flux(WL, WR, fp, pL, pR, cL, cR, out=None):
    """Relaxation flux between rotated states (single rows or batches).

    Star densities are formed as rho/(1 + rho*(u* - u)/a), which reduces to
    rho exactly when both states coincide, keeping free streams bitwise
    stable.  Raises VacuumError, carrying the first offending row, if an
    intermediate density is non-positive.  The flux is written into ``out``
    when given.
    """
    WL = np.asarray(WL, dtype=np.float64)
    WR = np.asarray(WR, dtype=np.float64)
    rhoL, rhoR = WL[..., 0], WR[..., 0]
    a = relaxation_speed(WL, WR, fp, cL, cR)

    uL = WL[..., 2] / rhoL
    uR = WR[..., 2] / rhoR
    # u* - u_L and u* - u_R as explicit jumps so they vanish exactly when
    # WL == WR (then every star state collapses onto its base state bitwise)
    half_du = 0.5 * (uR - uL)
    half_dp = 0.5 * (pL - pR) / a
    duL = half_du + half_dp
    duR = -half_du + half_dp
    ustar = uL + duL
    mL = rhoL * duL
    mR = rhoR * duR
    denomL = 1.0 + mL / a
    denomR = 1.0 - mR / a
    bad = (denomL <= 0) | (denomR <= 0)
    if np.any(bad):
        raise VacuumError(
            "relaxation produced a non-positive star density; "
            "states too strong for theta={}".format(fp.theta),
            row=int(np.argmax(bad)) if bad.ndim else 0,
        )

    # wave speeds of the three jumps: star minus base on the left, the
    # contact between the star states, base minus star on the right
    sL = np.abs(uL - a / rhoL)
    s0 = np.abs(ustar)
    sR = np.abs(uR + a / rhoR)
    if out is None:
        out = np.empty_like(WL)
    # 0.5 * (FL + FR - sL (WsL - WL) - s0 (WsR - WsL) - sR (WR - WsR)) over
    # the (ncomp, n) blocks; star states carry u* in the normal momentum and
    # Y and the tangential velocities from their own side
    L, R, o = WL.T, WR.T, out.T
    np.multiply(L, uL, out=o)
    o[2] += pL
    term = R * uR
    term[2] += pR
    o += term
    star = L / denomL
    star[2] = (L[2] + mL) / denomL
    np.subtract(star, L, out=term)
    term *= sL
    o -= term
    # the right star state replaces the left one after its last use
    np.divide(R, denomR, out=term)
    term[2] = (R[2] + mR) / denomR
    np.subtract(term, star, out=star)
    star *= s0
    o -= star
    np.subtract(R, term, out=term)
    term *= sR
    o -= term
    o *= 0.5
    return out
