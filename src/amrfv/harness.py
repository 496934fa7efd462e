"""Case setup, time-loop orchestration, error norms, profiling and studies.

The run pipeline follows: compute dt -> step -> (every ``adapt_every`` steps:
evaluate/mark -> refine -> coarsen -> balance -> project -> repartition ->
face lists -> ghost rebuild) -> periodic output.  Runs are deterministic for
a fixed configuration and rank count, and physics outputs are independent
of the rank count.
"""
from __future__ import annotations

import configparser
import logging
import time
from contextlib import contextmanager
from typing import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from amrfv import eos, solver, vtkio
from amrfv.criteria import Criterion, carry_marks, evaluate, mark, project_solution
from amrfv.eos import FluidPair
from amrfv.errors import ConfigError
from amrfv.forest import REFINE, Connectivity, Forest, new_uniform
from amrfv.partition import PartitionMap, balance_metrics, ghost_layer, metrics_csv, partition
from amrfv.solver import SweepConfig

__all__ = [
    "CASES", "RunConfig", "default_config", "load_config", "Profile", "CaseSetup", "init_case",
    "adapt_mesh", "RunResult", "run", "l1_error", "l2_error", "convergence_rate", "compression_rate",
    "converge_study", "compare_amr_study", "bench_partition_study",
]

log = logging.getLogger(__name__)

PHASES = (
    "sweep", "slopes", "flux", "eos", "mark", "refine", "coarsen", "balance", "partition", "faces", "ghost", "io"
)


@dataclass(frozen=True)
class RunConfig:
    case: str = "smooth_advection"
    t_end: float = 1.0
    case_params: dict = field(default_factory=dict)
    dim: int = 2
    trees: tuple[int, ...] = (1, 1)
    tree_extent: float = 1.0
    periodic: tuple[bool, ...] = (True, True)
    max_level: int = 5
    min_level: int = 5
    b: int | None = None
    adapt_every: int = 2
    criterion: str = "rho_gradient"
    xi: float = 5e-5
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    fluids: FluidPair = field(
        default_factory=lambda: FluidPair(1e5, 1.0, 3.0, 1e5, 2.0, 3.0)
    )
    order: int = 2
    splitting: str = "strang"
    cfl: float = 0.9
    gravity: float = 0.0
    ranks: int = 1
    output_every: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; known: {CASES}")
        if self.b is None:
            object.__setattr__(self, "b", self.max_level)
        if not 0 <= self.min_level <= self.max_level <= self.b:
            raise ConfigError("need min_level <= max_level <= b")
        if self.t_end < 0:
            raise ConfigError("t_end must be >= 0")
        if self.adapt_every < 1:
            raise ConfigError("adapt_every must be >= 1")
        if len(self.trees) != self.dim or len(self.periodic) != self.dim:
            raise ConfigError("trees/periodic must have one entry per dimension")
        # coarsening stops at min_level, so every rank always owns a leaf
        min_leaves = int(np.prod(self.trees)) * 2 ** (self.dim * self.min_level)
        if not 1 <= self.ranks <= min_leaves:
            raise ConfigError(
                f"ranks must lie in 1..{min_leaves}, the leaf count at min_level {self.min_level}"
            )
        unknown = sorted(set(self.case_params) - set(_CASES[self.case].params))
        if unknown:
            known = list(_CASES[self.case].params)
            raise ConfigError(f"unknown [case] parameters {unknown} for {self.case}; known: {known}")
        # built once, so a bad [scheme] or [criterion] value fails here, not
        # mid-run; the config is frozen, so they never go stale
        scfg = SweepConfig(self.order, self.cfl, self.gravity, self.splitting)
        object.__setattr__(self, "sweep_config", scfg)
        object.__setattr__(self, "criterion_obj", Criterion(self.criterion, self.xi, tuple(self.weights)))

    @property
    def connectivity(self) -> Connectivity:
        return Connectivity(self.dim, tuple(self.trees), tuple(self.periodic), self.tree_extent)

    @property
    def adaptive(self) -> bool:
        return self.min_level < self.max_level


def default_config(case: str, **overrides) -> RunConfig:
    """Built-in configuration of a named case, with keyword overrides."""
    if case not in _CASES:
        raise ConfigError(f"unknown case {case!r}; known: {CASES}")
    merged = dict(_CASES[case].defaults)
    merged.update(overrides)
    return RunConfig(case=case, **merged)


def _parse_bools(text: str) -> tuple[bool, ...]:
    out = []
    for tok in text.replace(",", " ").split():
        if tok.lower() in ("1", "true", "yes", "on"):
            out.append(True)
        elif tok.lower() in ("0", "false", "no", "off"):
            out.append(False)
        else:
            raise ConfigError(f"cannot parse boolean {tok!r}")
    return tuple(out)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.replace(",", " ").split())


# INI section -> {key: parser}; keys name RunConfig fields, except
# [criterion] kind (the criterion field) and [fluids] (FluidPair fields)
_INI_KEYS: dict[str, dict] = {
    "domain": dict(dim=int, trees=_parse_ints, tree_extent=float, periodic=_parse_bools),
    "mesh": dict(max_level=int, min_level=int, b=int, adapt_every=int),
    "criterion": dict(kind=str, xi=float, weights=_parse_floats),
    "fluids": {f.name: float for f in fields(FluidPair)},
    "scheme": dict(order=int, splitting=str, cfl=float, gravity=float),
    "run": dict(ranks=int, output_every=int, output_dir=str),
}


def load_config(path) -> RunConfig:
    """Line-based ``key = value`` sections; values override case defaults.

    Unknown sections, keys and case parameters are rejected.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if not cp.has_option("case", "name"):
        raise ConfigError("config needs [case] name = <case>")
    case = cp.get("case", "name")
    if case not in _CASES:
        raise ConfigError(f"unknown case {case!r}; known: {CASES}")
    for section in cp.sections():
        if section != "case" and section not in _INI_KEYS:
            raise ConfigError(f"unknown section [{section}]; known: {['case', *_INI_KEYS]}")

    def parse(section, key, val, parser):
        try:
            return parser(val)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {val!r}: {exc}") from exc

    ov: dict = {}
    params: dict = {}
    for key, val in cp.items("case"):
        if key == "t_end":
            ov["t_end"] = parse("case", key, val, float)
        elif key != "name":
            params[key] = parse("case", key, val, float)
    if params:
        ov["case_params"] = params
    fluids: dict = {}
    for section, keys in _INI_KEYS.items():
        for key, val in cp.items(section) if cp.has_section(section) else ():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]; known: {sorted(keys)}")
            name = "criterion" if key == "kind" else key
            (fluids if section == "fluids" else ov)[name] = parse(section, key, val, keys[key])
    if fluids:
        ov["fluids"] = replace(_CASES[case].defaults["fluids"], **fluids)
    return default_config(case, **ov)


class Profile:
    """Cumulative seconds per pipeline phase plus loop wall time."""

    def __init__(self):
        self.seconds = {p: 0.0 for p in PHASES}
        self.wall = 0.0

    @contextmanager
    def section(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0

    @contextmanager
    def walltime(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - t0

    @property
    def covered(self) -> float:
        return sum(self.seconds.values())

    def csv(self) -> str:
        lines = ["phase,seconds,percent"]
        wall = self.wall if self.wall > 0 else max(self.covered, 1e-300)
        for p in PHASES:
            s = self.seconds[p]
            lines.append(f"{p},{s!r},{100.0 * s / wall!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Initial conditions.


def _smooth_alpha(x, p, x0):
    # cos^4 dome of radius 0.3 around x0, decaying smoothly into lambda
    lam = p["lambda"]
    r = np.linalg.norm(np.atleast_2d(x) - x0, axis=1)
    bump = lam + (1.0 - lam) * np.cos(np.pi * r / 0.6) ** 4
    return np.where(r <= 0.3, bump, lam)


def _disk_alpha(x, p, x0):
    r = np.linalg.norm(np.atleast_2d(x) - x0, axis=1)
    return np.where(r < p["radius"], 1.0 - p["lambda"], p["lambda"])


# A sampler maps (cfg, forest, merged [case] parameters, domain extents) to
# the field at the cell centres and the exact alpha profile, if one is known.


def _advected(alpha):
    """Sampler of an alpha(pos, p, x0) profile carried by the uniform velocity."""

    def sample(cfg, f, p, ext):
        x0 = np.array([p["x0"], p["y0"], p["z0"]][: cfg.dim])
        vel = np.array([p["ux"], p["uy"], p["uz"]][: cfg.dim])

        def profile(pos):
            return alpha(pos, p, x0)

        field = eos.state_from_pressure_alpha(p["p"], profile(f.centers), vel, cfg.fluids)

        def exact(centers, t):
            return profile((centers - t * vel) % ext)

        return field, exact

    return sample


def _shock_tube(cfg, f, p, ext):
    x = f.centers
    inside = (x[:, 0] > p["x_lo"] * ext[0]) & (x[:, 0] < p["x_hi"] * ext[0])
    press = np.where(inside, p["p_in"], p["p_out"])
    alpha = np.where(inside, p["alpha_in"], p["alpha_out"])
    return eos.state_from_pressure_alpha(press, alpha, np.zeros(cfg.dim), cfg.fluids), None


def _double_rarefaction(cfg, f, p, ext):
    vel = np.zeros((f.nleaves, cfg.dim))
    vel[:, 0] = np.where(f.centers[:, 0] < 0.5 * ext[0], -p["u0"], p["u0"])
    alpha = np.full(f.nleaves, p["alpha"])
    return eos.state_from_pressure_alpha(np.full(f.nleaves, p["p"]), alpha, vel, cfg.fluids), None


def _drop2d(cfg, f, p, ext):
    x = f.centers
    r = np.hypot(x[:, 0] - p["x0"], x[:, 1] - p["y0"])
    liquid = (r < p["radius"]) | (x[:, 1] < p["bath_height"])
    alpha = np.where(liquid, p["lambda"], 1.0 - p["lambda"])
    return eos.state_from_pressure_alpha(p["p"], alpha, np.zeros(2), cfg.fluids), None


def _dambreak3d(cfg, f, p, ext):
    x = f.centers
    liquid = (x[:, 0] < p["column_x"] * ext[0]) & (x[:, 1] < p["column_y"] * ext[1])
    alpha = np.where(liquid, p["lambda"], 1.0 - p["lambda"])
    return eos.state_from_pressure_alpha(p["p"], alpha, np.zeros(3), cfg.fluids), None


@dataclass(frozen=True)
class _Case:
    """A built-in case: its ``RunConfig`` defaults, its [case] parameters
    with their defaults (the sampler reads every one), and its sampler."""

    defaults: dict
    params: dict
    sample: Callable


_ADVECTION = dict(
    dim=2, trees=(1, 1), tree_extent=1.0, periodic=(True, True), criterion="rho_gradient", xi=5e-5, order=2,
    t_end=1.0,
)
_ADVECTION_PARAMS = {
    "lambda": 1e-7, "x0": 0.5, "y0": 0.5, "z0": 0.5, "ux": 1.0, "uy": 1.0, "uz": 1.0, "p": 1e5
}
# a 1D problem on a row of 64 level-0 trees
_SLAB = dict(
    dim=2, trees=(64, 1), tree_extent=1.0 / 64, periodic=(True, True), max_level=0, min_level=0,
    fluids=FluidPair(10.0, 1.0, 2.0, 10.0, 1.0, 2.0), order=1, splitting="lie", t_end=0.08,
)
_GRAVITY = dict(
    criterion="alpha_gradient", xi=5e-4, fluids=FluidPair(1e5, 1.0, 10.0, 1e5, 1e3, 15.0), order=2,
    splitting="strang", gravity=9.81,
)

_CASES: dict[str, _Case] = {
    # light fluids keep the advective CFL near C, which the convergence
    # rates at coarse resolutions depend on
    "smooth_advection": _Case(
        dict(_ADVECTION, max_level=6, min_level=6, fluids=FluidPair(1e5, 1.0, 0.02, 1e5, 1.5, 0.02)),
        _ADVECTION_PARAMS,
        _advected(_smooth_alpha),
    ),
    # the 1% density contrast puts per-cell rho jumps of the smeared front
    # between the two reference thresholds 5e-5 and 5e-4, so the threshold
    # choice visibly changes the refined band (and the error)
    "disk_advection": _Case(
        dict(_ADVECTION, max_level=7, min_level=3, fluids=FluidPair(1e5, 1.0, 3.0, 1e5, 1.01, 3.0)),
        {**_ADVECTION_PARAMS, "radius": 0.1},
        _advected(_disk_alpha),
    ),
    "shock_tube": _Case(
        _SLAB,
        {"x_lo": 0.25, "x_hi": 0.75, "p_in": 20.0, "p_out": 10.0, "alpha_in": 0.6, "alpha_out": 0.4},
        _shock_tube,
    ),
    "double_rarefaction": _Case(_SLAB, {"u0": 0.4, "alpha": 0.5, "p": 10.0}, _double_rarefaction),
    "drop2d": _Case(
        dict(_GRAVITY, dim=2, trees=(1, 1), tree_extent=1.0, periodic=(False, False),
             max_level=6, min_level=3, t_end=2e-3),
        {"lambda": 1e-7, "x0": 0.5, "y0": 0.7, "radius": 0.1, "bath_height": 0.4, "p": 1e5},
        _drop2d,
    ),
    "dambreak3d": _Case(
        dict(_GRAVITY, dim=3, trees=(2, 1, 1), tree_extent=1.0, periodic=(False, False, False),
             max_level=6, min_level=2, t_end=1e-3),
        {"lambda": 1e-7, "column_x": 0.25, "column_y": 0.5, "p": 1e5},
        _dambreak3d,
    ),
}
CASES = tuple(_CASES)


@dataclass
class CaseSetup:
    forest: Forest
    field: np.ndarray
    fluids: FluidPair
    exact_alpha: Callable | None = None  # (centers, t) -> alpha


def _sample_case(cfg: RunConfig, f: Forest) -> tuple[np.ndarray, Callable | None]:
    """Field sampled at cell centers plus the exact alpha profile if known."""
    case = _CASES[cfg.case]
    ext = np.array(cfg.connectivity.domain_extents)
    return case.sample(cfg, f, {**case.params, **cfg.case_params}, ext)


def init_case(cfg: RunConfig) -> CaseSetup:
    """Initial forest and field; the mesh is pre-adapted until stable."""
    f = new_uniform(cfg.connectivity, cfg.min_level, cfg.b, cfg.min_level)
    field, exact = _sample_case(cfg, f)
    if cfg.adaptive:
        crit = cfg.criterion_obj
        for _ in range(cfg.max_level - cfg.min_level):
            vals = evaluate(crit, f, field, cfg.fluids)
            marks = mark(f, vals, crit.xi, cfg.min_level, cfg.max_level)
            if not np.any(marks == REFINE):
                break
            f2, rmap = f.refine(marks)
            f2, bmap = f2.balance()
            if f2.nleaves == f.nleaves:
                break
            f = f2
            field, _ = _sample_case(cfg, f)  # resample, not project: exact IC
    return CaseSetup(f, field, cfg.fluids, exact)


def adapt_mesh(
    f: Forest,
    u: np.ndarray,
    crit: Criterion,
    fp: FluidPair,
    min_level: int,
    max_level: int,
    prof: Profile | None = None,
) -> tuple[Forest, np.ndarray]:
    """One mark -> refine -> coarsen -> balance -> project pipeline pass."""
    prof = prof or Profile()
    with prof.section("mark"):
        vals = evaluate(crit, f, u, fp)
        marks = mark(f, vals, crit.xi, min_level, max_level)
    with prof.section("refine"):
        f2, rmap = f.refine(marks)
        u = project_solution(f, f2, rmap, u)
        marks = carry_marks(marks, rmap)
    with prof.section("coarsen"):
        f3, cmap = f2.coarsen(marks)
        u = project_solution(f2, f3, cmap, u)
    with prof.section("balance"):
        f4, bmap = f3.balance()
        u = project_solution(f3, f4, bmap, u)
    return f4, u


def _rebuild_comm(f: Forest, cfg: RunConfig, prof: Profile) -> PartitionMap:
    """Repartition, build the face lists unless balance has, and rebuild the ghost layers."""
    with prof.section("partition"):
        pm = partition(f, cfg.ranks)
    with prof.section("faces"):
        for axis in range(f.dim):
            f.face_list(axis)
    with prof.section("ghost"):
        for r in range(pm.P):
            ghost_layer(f, pm, r)  # the simulated decomposition's ghost sets; no sweep reads them
    return pm


@dataclass
class RunResult:
    config: RunConfig
    forest: Forest
    field: np.ndarray
    t: float
    steps: int
    profile: Profile
    partition: PartitionMap
    l1_alpha: float | None = None
    l2_alpha: float | None = None
    artifacts: list = field(default_factory=list)


def run(cfg: RunConfig, write_outputs: bool = True) -> RunResult:
    """Advance the configured case to t_end, producing artifacts on disk."""
    outdir = Path(cfg.output_dir)
    if write_outputs:
        outdir.mkdir(parents=True, exist_ok=True)
    setup = init_case(cfg)
    f, u, fp = setup.forest, setup.field, setup.fluids
    prof = Profile()
    scfg = cfg.sweep_config
    crit = cfg.criterion_obj if cfg.adaptive else None
    artifacts = []

    def dump(tag: str):
        if not write_outputs:
            return
        with prof.section("io"):
            path = outdir / f"{cfg.case}_{tag}.vtk"
            vtkio.write_vtk(f, u, fp, path, ranks=pm.owner_of(np.arange(f.nleaves)))
            artifacts.append(path)

    t, nstep = 0.0, 0
    # the wall spans every booked phase, from the first partition to the last dump
    with prof.walltime():
        pm = _rebuild_comm(f, cfg, prof)
        dump("0000")
        while t < cfg.t_end * (1.0 - 1e-14):
            try:
                dt = solver.compute_dt(f, u, scfg, fp, prof=prof)
                dt = min(dt, cfg.t_end - t)
                u, _ = solver.step(f, u, scfg, fp, dt=dt, prof=prof)
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"solver failed at t={t:.6g} (step {nstep + 1}, "
                    f"{f.nleaves} leaves): {exc}"
                ) from exc
            t += dt
            nstep += 1
            if crit is not None and nstep % cfg.adapt_every == 0:
                f, u = adapt_mesh(f, u, crit, fp, cfg.min_level, cfg.max_level, prof)
                pm = _rebuild_comm(f, cfg, prof)
            if cfg.output_every and nstep % cfg.output_every == 0:
                dump(f"{nstep:04d}")
        dump("final")
    result = RunResult(cfg, f, u, t, nstep, prof, pm, artifacts=artifacts)
    log.info(
        "%s: t=%.6g in %d steps, %d leaves", cfg.case, t, nstep, f.nleaves
    )
    if setup.exact_alpha is not None:
        exact = setup.exact_alpha(f.centers, t)
        result.l1_alpha = l1_error(f, u, fp, exact)
        result.l2_alpha = l2_error(f, u, fp, exact)
    if write_outputs:
        # the reports come after the wall closes and are not booked
        (outdir / f"{cfg.case}_profile.csv").write_text(prof.csv())
        (outdir / f"{cfg.case}_partition.csv").write_text(metrics_csv(balance_metrics(f, pm)))
    return result


# ---------------------------------------------------------------------------
# Norms and rates.


def _alpha_of(u: np.ndarray, fp: FluidPair) -> np.ndarray:
    rho = u[:, 0]
    return eos.solve_alpha(rho, u[:, 1] / rho, fp)


def l1_error(f: Forest, u: np.ndarray, fp: FluidPair, exact_alpha: np.ndarray) -> float:
    """Volume-weighted L1 norm of the alpha error."""
    return float(np.sum(f.volumes * np.abs(_alpha_of(u, fp) - exact_alpha)))


def l2_error(f: Forest, u: np.ndarray, fp: FluidPair, exact_alpha: np.ndarray) -> float:
    return float(np.sqrt(np.sum(f.volumes * (_alpha_of(u, fp) - exact_alpha) ** 2)))


def convergence_rate(errors, dxs) -> float:
    """Least-squares slope of log(error) against log(dx)."""
    if len(errors) < 2 or len(errors) != len(dxs):
        raise ConfigError("need at least two (error, dx) pairs")
    return float(np.polyfit(np.log(np.asarray(dxs)), np.log(np.asarray(errors)), 1)[0])


def compression_rate(f: Forest, max_level: int) -> float:
    """Leaf count over the equivalent uniform mesh count."""
    return f.nleaves / (f.conn.ntrees * 2 ** (f.dim * max_level))


# ---------------------------------------------------------------------------
# Study drivers used by the CLI and the acceptance suite.


def converge_study(cfg: RunConfig, levels, orders=(1, 2)) -> dict:
    """Uniform-mesh error sweep; returns errors and fitted rates per order."""
    out: dict = {"levels": list(levels), "orders": {}}
    for order in orders:
        errs1, errs2, dxs = [], [], []
        for lvl in levels:
            c = replace(
                cfg,
                order=order,
                max_level=lvl,
                min_level=lvl,
                b=lvl,
                splitting="strang" if order == 2 else "lie",
                output_dir=cfg.output_dir,
            )
            res = run(c, write_outputs=False)
            errs1.append(res.l1_alpha)
            errs2.append(res.l2_alpha)
            dxs.append(cfg.tree_extent / 2**lvl)
        out["orders"][order] = {
            "dx": dxs,
            "l1": errs1,
            "l2": errs2,
            "rate_l1": convergence_rate(errs1, dxs),
            "rate_l2": convergence_rate(errs2, dxs),
        }
    return out


def compare_amr_study(cfg: RunConfig, xi: float, compressions) -> list[dict]:
    """AMR-vs-uniform error and cell counts over compression levels."""
    rows = []
    for comp in compressions:
        c = replace(
            cfg,
            xi=xi,
            min_level=cfg.max_level - comp,
            b=cfg.max_level,
            output_dir=cfg.output_dir,
        )
        res = run(c, write_outputs=False)
        rows.append(
            {
                "compression": comp,
                "xi": xi,
                "l1": res.l1_alpha,
                "cells": res.forest.nleaves,
                "uniform_cells": cfg.connectivity.ntrees * 2 ** (cfg.dim * cfg.max_level),
                "compression_rate": compression_rate(res.forest, cfg.max_level),
                "steps": res.steps,
            }
        )
    return rows


def bench_partition_study(cfg: RunConfig, rank_counts) -> dict:
    """Partition quality metrics of the initial adapted mesh per rank count."""
    setup = init_case(cfg)
    f = setup.forest
    out = {"cells": f.nleaves, "ranks": {}}
    for P in rank_counts:
        pm = partition(f, P)
        metrics = balance_metrics(f, pm)
        out["ranks"][P] = {
            "max_ratio": max(m.ratio for m in metrics),
            "load_spread": max(m.leaves for m in metrics) - min(m.leaves for m in metrics),
            "metrics": metrics,
        }
    return out
