"""Suliciu relaxation flux for the 1D face Riemann problem.

States are conservative rows [rho, rho*Y, rho*u, (tangential momenta...)]
already rotated so the face normal sits in the third slot.  The flux is the
HLLC-family four-wave form built from a single relaxation parameter
a = theta * max(rho_L c_L, rho_R c_R) per face.  Callers pass each state's
mixture pressure p and Wood sound speed c, which they evaluate once per cell.
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


def suliciu_flux(WL, WR, fp, pL, pR, cL, cR):
    """Relaxation flux between rotated states (single rows or batches).

    Star densities are formed as rho/(1 + rho*(u* - u)/a), which reduces to
    rho exactly when both states coincide, keeping free streams bitwise
    stable.  Raises VacuumError if an intermediate density is non-positive.
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
    denomL = 1.0 + rhoL * duL / a
    denomR = 1.0 - rhoR * duR / a
    if np.any(denomL <= 0) or np.any(denomR <= 0):
        raise VacuumError(
            "relaxation produced a non-positive star density; "
            "states too strong for theta={}".format(fp.theta)
        )

    # star states: normal velocity u*, Y and tangentials carried from each side
    WsL = np.empty_like(WL)
    WsL[..., 0] = rhoL / denomL
    WsL[..., 1] = WL[..., 1] / denomL
    WsL[..., 2] = (WL[..., 2] + rhoL * duL) / denomL
    WsL[..., 3:] = WL[..., 3:] / denomL[..., None]
    WsR = np.empty_like(WR)
    WsR[..., 0] = rhoR / denomR
    WsR[..., 1] = WR[..., 1] / denomR
    WsR[..., 2] = (WR[..., 2] + rhoR * duR) / denomR
    WsR[..., 3:] = WR[..., 3:] / denomR[..., None]

    sL = np.abs(uL - a / rhoL)[..., None]
    s0 = np.abs(ustar)[..., None]
    sR = np.abs(uR + a / rhoR)[..., None]
    FL = physical_flux(WL, pL)
    FR = physical_flux(WR, pR)
    return 0.5 * (FL + FR - sL * (WsL - WL) - s0 * (WsR - WsL) - sR * (WR - WsR))
