"""Refinement criteria, mark generation and solution transfer across adapts.

Criteria compare a per-cell indicator C(W) against a threshold xi: cells
above it refine below the forest's finest level b, complete sibling groups
entirely below it coarsen above its ``min_level``.  The indicator is built
from maximal jumps against all face neighbors (fine sub-neighbors counted
individually), relative for rho, p and |u| and absolute for alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from amrfv import eos
from amrfv.errors import ConfigError, ContractError
from amrfv.eos import FluidPair
from amrfv.forest import COARSEN, KEEP, REFINE, Forest, LeafMap

__all__ = [
    "EPS_U",
    "Criterion",
    "evaluate",
    "mark",
    "project_solution",
]

# velocity-jump denominators are floored to stay defined near rest states
EPS_U = 1e-8

_KINDS = ("alpha_gradient", "rho_gradient", "mixed")


@dataclass(frozen=True)
class Criterion:
    kind: str
    xi: float
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown criterion kind {self.kind!r}; use one of {_KINDS}")
        if not 0 < self.xi < np.inf:
            raise ConfigError(f"criterion threshold xi must be positive and finite, got {self.xi}")
        if len(self.weights) != 3:
            raise ConfigError(f"criterion weights are 3 numbers (rho, p, |u| jumps), got {len(self.weights)}")
        if not np.isfinite(self.weights).all():
            raise ConfigError(f"criterion weights {self.weights} must be finite")
        if self.kind == "mixed":
            if any(w < 0 for w in self.weights) or not any(self.weights):
                raise ConfigError("mixed-criterion weights must be >= 0, not all zero")


def _jump_field(f: Forest, values: np.ndarray, floor: float | None = None) -> np.ndarray:
    """Per-leaf max jump against all face neighbors, every axis; with a ``floor``, each jump is
    relative, over the larger of its two values and the floor."""
    out = np.zeros(f.nleaves)
    for axis in range(f.dim):
        fl = f.face_list(axis)
        lo, hi = values.take(fl.lo), values.take(fl.hi)
        jump = np.abs(lo - hi)
        if floor is not None:
            denom = np.maximum(np.maximum(lo, hi), floor)
            with np.errstate(divide="ignore", invalid="ignore"):
                jump = np.where(denom > 0, jump / denom, 0.0)
        # a wall row joins its cell to itself: jump 0
        fl.fold(np.maximum, out, jump)
    return out


def evaluate(crit: Criterion, f: Forest, u: np.ndarray, fp: FluidPair) -> np.ndarray:
    """Per-leaf criterion values C(W)_i; an EosError names a leaf whose density is bad."""
    rho = eos._check_density(u[:, 0], f.leaf_label)
    if crit.kind == "rho_gradient":
        return _jump_field(f, rho, 0.0)
    Y = u[:, 1] / rho
    if crit.kind == "alpha_gradient":
        return _jump_field(f, eos.solve_alpha(rho, Y, fp))
    a, b, c = crit.weights
    p = eos.mixture_pressure(rho, Y, fp)
    speed = np.linalg.norm(u[:, 2:] / rho[:, None], axis=1)
    return np.maximum.reduce(
        [
            a * _jump_field(f, rho, 0.0),
            b * _jump_field(f, p, 0.0),
            c * _jump_field(f, speed, EPS_U),
        ]
    )


def mark(f: Forest, values: np.ndarray, xi: float, min_level: int | None = None) -> np.ndarray:
    """Refine where C > xi (below level b); coarsen complete sibling groups
    with all C <= xi (above ``min_level``, by default the forest's); Keep otherwise."""
    if len(values) != f.nleaves:
        raise ContractError("criterion values not aligned with leaves")
    if min_level is None:
        min_level = f.min_level
    marks = np.full(f.nleaves, KEEP, dtype=np.int8)
    marks[(values > xi) & (f.level < f.b)] = REFINE
    # Coarsen only where the full sibling group is low, the rule forest.coarsen
    # enforces; a floor at the finest level (refine only) computes no groups
    marks[f.sibling_groups((values <= xi) & (f.level > min_level))[1]] = COARSEN
    return marks


def project_solution(old_f: Forest, new_f: Forest, mapping: LeafMap, u_old: np.ndarray) -> np.ndarray:
    """Transfer cell averages across a mesh change, conservatively.

    Each new leaf takes the mean of the equal-volume old leaves it covers:
    refinement children copy the parent, a merged parent averages its children.
    """
    if mapping.n_old != old_f.nleaves or mapping.n_new != new_f.nleaves:
        raise ContractError("leaf map does not match forests")
    return mapping.project(u_old)
