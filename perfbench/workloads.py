"""The benchmark's three workloads and their reference solutions.

A workload turns a seed into one ``RunConfig``: the seed places the initial
condition (dome centre; disk centre and radius; drop centre and radius)
within ranges that keep the mesh scale, so every seed gives about the same
leaf count and step count.  ``t_end`` is a literal of the benchmark, never
derived from the dt of the code under test, so two commits simulate the same
physical time.

The reference alpha of each workload is written here from the case
parameters the benchmark passes, and the closure is solved here by
bisection, so the accuracy check does not rely on the code it measures.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAMBDA = 1e-7  # volume fraction of the absent fluid in pure cells


def _advection_params(rng: random.Random, radius: bool) -> dict:
    p = {
        "x0": rng.uniform(0.35, 0.65),
        "y0": rng.uniform(0.35, 0.65),
        "lambda": LAMBDA,
        "ux": 1.0,
        "uy": 1.0,
        "p": 1e5,
    }
    if radius:
        p["radius"] = rng.uniform(0.098, 0.102)
    return p


def _dome(pos: np.ndarray, p: dict) -> np.ndarray:
    # cos^4 dome of radius 0.3, the smooth_advection initial profile
    r = np.hypot(pos[:, 0] - p["x0"], pos[:, 1] - p["y0"])
    bump = p["lambda"] + (1.0 - p["lambda"]) * np.cos(np.pi * r / 0.6) ** 4
    return np.where(r <= 0.3, bump, p["lambda"])


def _disk(pos: np.ndarray, p: dict) -> np.ndarray:
    r = np.hypot(pos[:, 0] - p["x0"], pos[:, 1] - p["y0"])
    return np.where(r < p["radius"], 1.0 - p["lambda"], p["lambda"])


def _advected(profile: Callable) -> Callable:
    """Exact solution of a profile carried by the uniform velocity (periodic)."""

    def exact(centers: np.ndarray, t: float, p: dict) -> np.ndarray:
        vel = np.array([p["ux"], p["uy"]])
        return profile((centers - t * vel) % 1.0, p)

    return exact


def _drop_params(rng: random.Random) -> dict:
    return {
        "x0": rng.uniform(0.4, 0.6),
        "y0": rng.uniform(0.67, 0.73),
        "radius": rng.uniform(0.098, 0.102),
        "bath_height": 0.4,
        "lambda": LAMBDA,
        "p": 1e5,
    }


def _drop_exact(centers: np.ndarray, t: float, p: dict) -> np.ndarray:
    # over t_end the drop falls g t^2 / 2 < 1e-10, so the initial interface
    # is the reference; the error is then a few finest cells (2.4e-4 each)
    # whose centres lie across it after adaptation, plus smearing by the scheme
    r = np.hypot(centers[:, 0] - p["x0"], centers[:, 1] - p["y0"])
    liquid = (r < p["radius"]) | (centers[:, 1] < p["bath_height"])
    return np.where(liquid, p["lambda"], 1.0 - p["lambda"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case: str
    t_end: float
    overrides: dict
    # correctness gate on the L1 alpha error at t_end, set above the largest
    # error over seeds 1-10 at the commit that defined the benchmark
    l1_ceiling: float
    make_params: Callable[[random.Random], dict]
    exact_alpha: Callable[[np.ndarray, float, dict], np.ndarray]
    writes_output: bool = False

    def config(self, harness, seed: int, output_dir: str):
        """The generated ``RunConfig``; the package sees nothing else."""
        params = self.make_params(random.Random(f"{self.name}:{seed}"))
        extra = {"output_dir": output_dir} if self.writes_output else {}
        return harness.default_config(
            self.case, t_end=self.t_end, case_params=params, **self.overrides, **extra
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform_advection",
            why="65k-leaf uniform mesh: large arrays, per-element cost of eos, slopes and flux",
            case="smooth_advection",
            t_end=0.012,  # 4 steps of dt = 3.44e-3
            overrides=dict(max_level=8, min_level=8, order=2, splitting="strang", ranks=1),
            l1_ceiling=1e-5,
            make_params=lambda rng: _advection_params(rng, radius=False),
            exact_alpha=_advected(_dome),
        ),
        Workload(
            name="adaptive_disk",
            why="1k-leaf adaptive mesh rebuilt every other step, 4 ranks, VTK output: call overhead",
            case="disk_advection",
            t_end=0.165,  # 98 steps of dt <= 1.68e-3
            overrides=dict(
                max_level=7, min_level=3, adapt_every=2, criterion="rho_gradient", ranks=4, output_every=25
            ),
            l1_ceiling=1e-2,
            make_params=lambda rng: _advection_params(rng, radius=True),
            exact_alpha=_advected(_disk),
            writes_output=True,
        ),
        Workload(
            name="drop_gravity",
            why="air-water drop with walls and gravity: stiff EOS closure and its scalar fallback",
            case="drop2d",
            t_end=1.7e-6,  # 2 steps of dt = 8.9e-7, the second one adapts
            overrides=dict(adapt_every=2, criterion="alpha_gradient", ranks=1),
            l1_ceiling=4e-3,
            make_params=_drop_params,
            exact_alpha=_drop_exact,
        ),
    )
}


def closure_alpha(u: np.ndarray, fp, iters: int = 64) -> np.ndarray:
    """Volume fraction of fluid 1 at pressure equilibrium, by bisection.

    The pressure gap p1(rho Y / a) - p2(rho (1 - Y) / (1 - a)) falls
    strictly in a, so bisection on (0, 1) brackets the one root.
    """
    m1 = u[:, 1]
    m2 = u[:, 0] - u[:, 1]
    lo = np.zeros(len(u))
    hi = np.ones(len(u))
    with np.errstate(divide="ignore"):
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            gap = (fp.p1_0 - fp.p2_0) + fp.c1**2 * (m1 / mid - fp.rho1_0) - fp.c2**2 * (
                m2 / (1.0 - mid) - fp.rho2_0
            )
            up = gap > 0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)
