"""Barotropic stiffened-gas two-fluid EOS and the pressure-equilibrium closure.

Each fluid obeys p_k(rho_k) = p_k0 + c_k^2 (rho_k - rho_k0) = A_k + c_k^2 rho_k.
Given the mixture density rho and mass fraction Y of fluid 1, pressure
equilibrium p1(rho1) = p2(rho2) with rho*Y/rho1 + rho*(1-Y)/rho2 = 1 is a
quadratic in the pressure, whose one admissible root has a closed form.  One
solve of that closure yields x_k = c_k^2 rho_k and the pressure, and each
quantity is read off one such solve: the volume fraction alpha = rho*Y/rho1,
the pressure, the Wood sound speed and the closed-form free energy; a caller
that needs both p and c reads them off a single solve.  All functions
broadcast over numpy arrays and accept plain scalars.  The state conversions
keep the memory order of their input, so a column-major ``(n, ncomp)`` batch
stays component-contiguous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from amrfv.errors import ConfigError, EosError

__all__ = [
    "EPS_Y", "FluidPair", "solve_alpha", "mixture_pressure", "wood_sound_speed", "to_primitive",
    "from_primitive", "free_energy", "state_from_pressure_alpha",
]

# mass/volume fractions are kept strictly inside (0,1)
EPS_Y = 1e-9


@dataclass(frozen=True)
class FluidPair:
    """Stiffened-gas constants for both fluids plus the relaxation factor."""

    p1_0: float
    rho1_0: float
    c1: float
    p2_0: float
    rho2_0: float
    c2: float
    theta: float = 1.05

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ConfigError("sound speeds must be positive")
        if self.rho1_0 <= 0 or self.rho2_0 <= 0:
            raise ConfigError("reference densities must be positive")
        if self.theta <= 1:
            raise ConfigError("relaxation factor theta must exceed 1")

    @property
    def A1(self) -> float:
        return self.p1_0 - self.c1**2 * self.rho1_0

    @property
    def A2(self) -> float:
        return self.p2_0 - self.c2**2 * self.rho2_0


def _clamp_Y(Y):
    return np.clip(Y, EPS_Y, 1.0 - EPS_Y)


def _closure(rho, Y, fp: FluidPair):
    """Clamped Y, c1^2 rho1, c2^2 rho2 and the pressure at equilibrium.

    With x_k = p - A_k = c_k^2 rho_k, volume fractions summing to one read
    Y c1^2/x1 + (1-Y) c2^2/x2 = 1/rho.  It is solved for s = p - max(A1, A2)
    with D = |A1 - A2| as u s^2 + b s - Y_s c_s^2 D = 0, u = 1/rho.  The
    constant term is <= 0, so the roots have opposite signs, the discriminant
    adds two non-negative terms, and the one positive root comes from the
    cancellation-free root pair.  The other x_k is s + D, also without
    cancellation, and the pressure is A_s + s, which D never enters.
    """
    rho = np.asarray(rho, dtype=np.float64)
    ok = (rho > 0) & (rho < np.inf)
    if not ok.all():
        raise EosError("non-positive or non-finite density", index=int(np.argmin(ok)))
    Yc = _clamp_Y(np.asarray(Y, dtype=np.float64))
    # s belongs to the fluid with the larger A_k, o to the other one
    k1, k2 = (fp.p1_0, fp.rho1_0, fp.c1, Yc), (fp.p2_0, fp.rho2_0, fp.c2, 1.0 - Yc)
    one_first = fp.A1 >= fp.A2
    (ps, rs, cs, Ys), (po, ro, co, Yo) = (k1, k2) if one_first else (k2, k1)
    u = 1.0 / rho
    # reference pressures expanded term by term so nearly equal ones cancel
    # exactly instead of eating the precision of the c^2-scaled terms
    e = (ps - po) - cs**2 * rs
    D = e + co**2 * ro
    b = u * (e + co**2 * (ro - rho * Yo)) - Ys * cs**2
    c = -Ys * cs**2 * D
    sq = np.sqrt(b * b - 4.0 * u * c)
    q = -0.5 * (b + np.where(b >= 0, sq, -sq))
    s = np.maximum(q / u, c / q)
    p = ps + (s - cs**2 * rs)
    return (Yc, s, s + D, p) if one_first else (Yc, s + D, s, p)


def _scalar(a):
    return float(a) if a.ndim == 0 else a


def solve_alpha(rho, Y, fp: FluidPair):
    """Volume fraction of fluid 1: alpha = rho*Y/rho1 = rho*Y*c1^2/x1."""
    Yc, x1, _, _ = _closure(rho, Y, fp)
    return _scalar(np.asarray(rho, dtype=np.float64) * Yc * fp.c1**2 / x1)


def mixture_pressure(rho, Y, fp: FluidPair):
    """Equilibrium pressure p1(rho1) = p2(rho2)."""
    return _scalar(_closure(rho, Y, fp)[3])


def wood_sound_speed(rho, Y, fp: FluidPair):
    """Mixture sound speed: 1/(rho c)^2 = Y/(rho1 c1)^2 + (1-Y)/(rho2 c2)^2.

    rho_k c_k = x_k/c_k, so each term is Y_k c_k^2/x_k^2.
    """
    return _pressure_and_speed(rho, Y, fp)[1]


def _pressure_and_speed(rho, Y, fp: FluidPair):
    """``mixture_pressure`` and ``wood_sound_speed`` off one closure solve."""
    Yc, x1, x2, p = _closure(rho, Y, fp)
    inv = Yc * fp.c1**2 / x1**2 + (1.0 - Yc) * fp.c2**2 / x2**2
    return _scalar(p), _scalar(1.0 / (np.asarray(rho, dtype=np.float64) * np.sqrt(inv)))


def to_primitive(W):
    """Conservative [rho, rho Y, rho u...] -> primitive [m1, m2, u...]."""
    W = np.asarray(W, dtype=np.float64)
    rho = W[..., 0]
    Yc = _clamp_Y(W[..., 1] / rho)
    V = np.empty_like(W)
    np.multiply(rho, Yc, out=V[..., 0])
    np.multiply(rho, 1.0 - Yc, out=V[..., 1])
    np.divide(W[..., 2:], rho[..., None], out=V[..., 2:])
    return V


def from_primitive(V, out=None):
    """Primitive [m1, m2, u...] -> conservative [rho, rho Y, rho u...].

    ``out`` may be ``V`` itself, which is then converted in place.
    """
    V = np.asarray(V, dtype=np.float64)
    rho = V[..., 0] + V[..., 1]
    W = np.empty_like(V) if out is None else out
    W[..., 1] = V[..., 0]
    W[..., 0] = rho
    np.multiply(V[..., 2:], rho[..., None], out=W[..., 2:])
    return W


def free_energy(rho, Y, fp: FluidPair, rho_ref=None):
    """F(rho, Y) = integral of p(r, Y)/r^2 dr from rho_ref, in closed form.

    Each fluid has F_k(r) = -A_k/r + c_k^2 ln r, and at pressure equilibrium
    dF = p/rho^2 drho at fixed Y, so F = G(rho) - G(rho_ref) with
    G = Y F_1(rho1) + (1-Y) F_2(rho2) at the equilibrium phase densities.
    """
    if rho_ref is None:
        rho_ref = 0.5 * min(fp.rho1_0, fp.rho2_0)

    def G(r):
        Yc, x1, x2, _ = _closure(r, Y, fp)
        rho1 = x1 / fp.c1**2
        rho2 = x2 / fp.c2**2
        return Yc * (fp.c1**2 * np.log(rho1) - fp.A1 / rho1) + (1.0 - Yc) * (
            fp.c2**2 * np.log(rho2) - fp.A2 / rho2
        )

    return _scalar(G(rho) - G(rho_ref))


def state_from_pressure_alpha(p, alpha, u, fp: FluidPair):
    """Conservative state rows from (p, alpha, velocity) at equilibrium.

    ``alpha`` may be an array; ``u`` is a (dim,) vector or (N, dim) array.
    """
    p = np.asarray(p, dtype=np.float64)
    alpha = np.clip(np.asarray(alpha, dtype=np.float64), EPS_Y, 1.0 - EPS_Y)
    rho1 = fp.rho1_0 + (p - fp.p1_0) / fp.c1**2
    rho2 = fp.rho2_0 + (p - fp.p2_0) / fp.c2**2
    if np.any(rho1 <= 0) or np.any(rho2 <= 0):
        raise EosError("pressure below vacuum for one fluid")
    rho = alpha * rho1 + (1.0 - alpha) * rho2
    rhoY = alpha * rho1
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = np.broadcast_to(u, rho.shape + u.shape)
    W = np.empty(rho.shape + (2 + u.shape[-1],), dtype=np.float64)
    W[..., 0] = rho
    W[..., 1] = rhoY
    W[..., 2:] = rho[..., None] * u
    return W
