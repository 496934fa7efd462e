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

The public functions check the density once, before any division by it; the
private closure kernels take checked densities.  The conversions and the
closure family take an optional ``out=``: the sweep passes rows of its reused
block buffers there, so a step allocates no temporaries.  Without ``out=`` the
same kernel runs into fresh arrays, so nothing returned shares memory with
those buffers.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

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
        bad = [c.name for c in fields(self) if not np.isfinite(getattr(self, c.name))]
        if bad:
            raise ConfigError(f"fluid constants {bad} must be finite")
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


def _check_density(rho, label=None):
    """``rho`` as floats, checked before any division by it; EosError names the first bad one.

    ``label(i)``, such as ``Forest.leaf_label``, names state i in the message when given.
    """
    rho = np.asarray(rho, dtype=np.float64)
    # min and max carry a NaN through, which fails both comparisons
    if rho.size and not (rho.min() > 0 and rho.max() < np.inf):
        i = int(np.argmin((rho > 0) & (rho < np.inf)))
        raise EosError("non-positive or non-finite density" + (f" at {label(i)}" if label else ""), index=i)
    return rho


def _closure(rho, Y, fp: FluidPair, out=None):
    """Clamped Y, c1^2 rho1, c2^2 rho2 and the pressure at equilibrium.

    With x_k = p - A_k = c_k^2 rho_k, volume fractions summing to one read
    Y c1^2/x1 + (1-Y) c2^2/x2 = 1/rho.  It is solved for s = p - max(A1, A2)
    with D = |A1 - A2| as u s^2 + b s - Y_s c_s^2 D = 0, u = 1/rho.  The
    constant term is <= 0, so the roots have opposite signs, the discriminant
    adds two non-negative terms, and the one positive root comes from the
    cancellation-free root pair.  The other x_k is s + D, also without
    cancellation, and the pressure is A_s + s, which D never enters.

    ``rho`` is a checked density.  The results land in the first four of the
    six float arrays ``out`` (the rows of a ``(6, m)`` block will do; ``Y``
    may be the first), and the last two are scratch; fresh ones without it.
    """
    if out is None:
        out = _six(rho, Y)
    Yc, x1, x2, p, u, c = out
    np.minimum(np.maximum(Y, EPS_Y, out=Yc), 1.0 - EPS_Y, out=Yc)  # np.clip's bits, without its wrappers
    # s belongs to the fluid with the larger A_k, o to the other one; 1 - Yc
    # waits in p until the pressure is due
    k1, k2 = (fp.p1_0, fp.rho1_0, fp.c1, Yc), (fp.p2_0, fp.rho2_0, fp.c2, np.subtract(1.0, Yc, out=p))
    one_first = fp.A1 >= fp.A2
    (ps, rs, cs, Ys), (po, ro, co, Yo) = (k1, k2) if one_first else (k2, k1)
    xs, xo = (x1, x2) if one_first else (x2, x1)
    np.divide(1.0, rho, out=u)
    # reference pressures expanded term by term so nearly equal ones cancel
    # exactly instead of eating the precision of the c^2-scaled terms
    e = (ps - po) - cs**2 * rs
    D = e + co**2 * ro
    # b = u (e + co^2 (ro - rho Yo)) - Ys cs^2 in xo, and c = -Ys cs^2 D
    b = np.multiply(rho, Yo, out=xo)
    np.subtract(ro, b, out=b)
    np.multiply(co**2, b, out=b)
    np.add(e, b, out=b)
    b *= u
    np.negative(Ys, out=c)
    c *= cs**2
    b += c
    c *= D
    # sq = sqrt(b^2 - 4 u c) in xs, then q = -(b + sign(b) sq) / 2 over it;
    # b ends by subtracting Ys cs^2 > 0, so it is never -0.0 and copysign
    # picks +sq exactly where b >= 0
    sq = np.multiply(b, b, out=xs)
    np.multiply(4.0, u, out=p)
    p *= c
    sq -= p
    np.sqrt(sq, out=sq)
    np.copysign(sq, b, out=sq)
    q = np.add(b, sq, out=sq)
    q *= -0.5
    np.divide(q, u, out=u)
    np.divide(c, q, out=c)
    s = np.maximum(u, c, out=xs)
    np.subtract(s, cs**2 * rs, out=p)
    np.add(ps, p, out=p)
    np.add(s, D, out=xo)
    return Yc, x1, x2, p


def _six(rho, Y):
    """Six fresh float arrays of the broadcast shape of ``rho`` and ``Y``."""
    shape = np.broadcast_shapes(np.shape(rho), np.shape(Y))
    return [np.empty(shape) for _ in range(6)]


def _scalar(a):
    return float(a) if a.ndim == 0 else a


def solve_alpha(rho, Y, fp: FluidPair):
    """Volume fraction of fluid 1: alpha = rho*Y/rho1 = rho*Y*c1^2/x1."""
    rho = _check_density(rho)
    Yc, x1, _, _ = _closure(rho, Y, fp)
    return _scalar(rho * Yc * fp.c1**2 / x1)


def mixture_pressure(rho, Y, fp: FluidPair, out=None):
    """Equilibrium pressure p1(rho1) = p2(rho2), in ``out[3]`` when given (see ``_closure``)."""
    return _scalar(_closure(_check_density(rho), Y, fp, out)[3])


def wood_sound_speed(rho, Y, fp: FluidPair, out=None):
    """Mixture sound speed: 1/(rho c)^2 = Y/(rho1 c1)^2 + (1-Y)/(rho2 c2)^2.

    rho_k c_k = x_k/c_k, so each term is Y_k c_k^2/x_k^2.  It lands in
    ``out[0]`` when given (see ``_closure``).
    """
    return _pressure_and_speed(_check_density(rho), Y, fp, out)[1]


def _pressure_and_speed(rho, Y, fp: FluidPair, out=None):
    """``mixture_pressure`` and ``wood_sound_speed`` off one closure solve.

    ``rho`` is a checked density; p lands in ``out[3]`` and c in ``out[0]``.
    """
    if out is None:
        out = _six(rho, Y)
    Yc, x1, x2, p = _closure(rho, Y, fp, out)
    t, q = out[4], out[5]
    # 1/(rho c)^2 = Yc c1^2/x1^2 + (1 - Yc) c2^2/x2^2
    np.multiply(Yc, fp.c1**2, out=t)
    t /= np.square(x1, out=x1)
    np.subtract(1.0, Yc, out=q)
    q *= fp.c2**2
    q /= np.square(x2, out=x2)
    t += q
    np.sqrt(t, out=t)
    np.multiply(rho, t, out=t)
    return _scalar(p), _scalar(np.divide(1.0, t, out=Yc))


def to_primitive(W, out=None):
    """Conservative [rho, rho Y, rho u...] -> primitive [m1, m2, u...].

    ``out`` must not overlap ``W``.
    """
    W = np.asarray(W, dtype=np.float64)
    rho = _check_density(W[..., 0])
    V = np.empty_like(W) if out is None else out
    m1, m2 = V[..., 0], V[..., 1]
    # the clamped Y waits in the m2 slot
    Yc = np.minimum(np.maximum(np.divide(W[..., 1], rho, out=m2), EPS_Y, out=m2), 1.0 - EPS_Y, out=m2)
    np.multiply(rho, Yc, out=m1)
    np.subtract(1.0, Yc, out=m2)
    np.multiply(rho, m2, out=m2)
    np.divide(W[..., 2:], rho[..., None], out=V[..., 2:])
    return V


def from_primitive(V, out=None):
    """Primitive [m1, m2, u...] -> conservative [rho, rho Y, rho u...].

    ``out`` must not overlap ``V``.
    """
    V = np.asarray(V, dtype=np.float64)
    W = np.empty_like(V) if out is None else out
    rho = np.add(V[..., 0], V[..., 1], out=W[..., 0])
    W[..., 1] = V[..., 0]
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
    rho, rho_ref = _check_density(rho), _check_density(rho_ref)

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
    A pressure at or below a fluid's vacuum raises EosError with the index of
    the first such state.
    """
    p = np.asarray(p, dtype=np.float64)
    alpha = np.clip(np.asarray(alpha, dtype=np.float64), EPS_Y, 1.0 - EPS_Y)
    rho1 = fp.rho1_0 + (p - fp.p1_0) / fp.c1**2
    rho2 = fp.rho2_0 + (p - fp.p2_0) / fp.c2**2
    bad = np.minimum(rho1, rho2) <= 0
    if bad.any():
        i = int(bad.argmax())
        fluids = " and ".join(f"fluid {k}" for k, r in ((1, rho1), (2, rho2)) if r.flat[i] <= 0)
        raise EosError(f"pressure {float(p.flat[i])!r} below vacuum for {fluids}", index=i)
    u = np.asarray(u, dtype=np.float64)
    W = np.empty(np.broadcast_shapes(p.shape, alpha.shape) + (2 + u.shape[-1],), dtype=np.float64)
    # rho = alpha rho1 + (1 - alpha) rho2, and rho Y = alpha rho1
    rhoY = np.multiply(alpha, rho1, out=W[..., 1])
    rho = np.multiply(1.0 - alpha, rho2, out=W[..., 0])
    rho += rhoY
    for a in range(u.shape[-1]):  # a column at a time: numpy runs an (n, dim) broadcast dim items per call
        np.multiply(rho, u[..., a], out=W[..., 2 + a])
    return W
