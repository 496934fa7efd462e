"""Time-to-solution benchmark of amrfv, one workload per process.

    python3 perfbench/run.py --workload uniform_advection --seed 1 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
and driven only through ``harness.init_case`` and ``harness.run`` with the
workload's generated ``RunConfig``.  The process first makes one warm-up run,
which also counts steps and leaf-steps, then repeats timed runs until
``--seconds`` have passed.  Every run is checked (conservation of mass and
rho*Y, finite admissible states, the L1 alpha error under the workload's
ceiling, bitwise repeatability); a run that raises or fails a check counts
as failed and is never dropped.

``--trace 0`` reports the end-to-end metrics with tracing off.  Their times
are wall times scaled to a reference host speed: between timed passes the
process times a fixed probe (``probe.py``), and each pass's times are scaled
by ``REFERENCE_S`` over the mean of the probes before and after it, which
takes out most of the drift of a shared host.  Raw wall times are printed
beside them.  ``--trace 1`` alternates untraced and traced runs and reports
the per-layer metrics of the traced ones; its spans go to
``perfbench/_out/``.  Human-readable lines come first; the last line of
stdout is one JSON object.
"""
from __future__ import annotations

import os

# BLAS threads pinned before numpy loads: every workload is single process,
# single thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from probe import REFERENCE_S, probe  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, closure_alpha  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

SETUPS_PER_RUN = 5
# measured drift is below 3e-16 on every workload; one lost face flux would
# move the totals by about 1e-6
CONSERVATION_TOL = 1e-14
BISECT = "eos._bisect"


def run_seconds() -> float:
    """The run length the benchmark defines."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def load_harness():
    """``amrfv.harness`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "amrfv" / "__init__.py").is_file():
        raise SystemExit(f"no amrfv package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from amrfv import harness

    if src.resolve() not in Path(harness.__file__).resolve().parents:
        raise SystemExit(f"amrfv imported from {harness.__file__}, not from {src}")
    return harness


def git_revision(root: Path) -> str:
    """Commit of a git checkout read from ``.git``; ``unknown`` elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_rev": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Correctness gate.


def totals(f, u) -> np.ndarray:
    """Volume integrals of rho and rho*Y, correctly rounded.

    A plain float sum over 65k leaves is off by about 1e-13, far more than
    the scheme's own drift.
    """
    return np.array([math.fsum(f.volumes * u[:, k]) for k in (0, 1)])


def check_run(w: Workload, cfg, res, totals0, ref) -> tuple[list[str], float | None]:
    """Problems found in one finished run, and its L1 alpha error."""
    u, f = res.field, res.forest
    if not np.all(np.isfinite(u)):
        return ["non-finite state"], None
    rho, rhoY = u[:, 0], u[:, 1]
    if not np.all((rho > 0) & (rhoY > 0) & (rhoY < rho)):
        return ["inadmissible state (need rho > 0 and 0 < rho*Y < rho)"], None
    problems = []
    if abs(res.t - cfg.t_end) > 1e-12 * cfg.t_end:
        problems.append(f"stopped at t={res.t!r}, not t_end={cfg.t_end!r}")
    drift = np.abs(totals(f, u) - totals0) / np.abs(totals0)
    if drift.max() > CONSERVATION_TOL:
        problems.append(f"relative drift of (mass, rho*Y) = {drift.tolist()} > {CONSERVATION_TOL}")
    exact = w.exact_alpha(f.centers, res.t, cfg.case_params)
    l1 = float(np.sum(f.volumes * np.abs(closure_alpha(u, cfg.fluids) - exact)))
    if l1 > w.l1_ceiling:
        problems.append(f"l1_alpha {l1!r} above ceiling {w.l1_ceiling!r}")
    if ref is not None and (res.steps != ref.steps or not np.array_equal(u, ref.field)):
        problems.append("run differs from the warm-up run of the same config")
    return problems, l1


class Runs:
    """Attempted and failed runs with the L1 errors of the good ones."""

    def __init__(self, w: Workload, cfg, totals0):
        self.w, self.cfg, self.totals0 = w, cfg, totals0
        self.attempted = 0
        self.failed = 0
        self.l1: list[float] = []
        self.ref = None  # the warm-up run's result

    def timed(self, harness, times: list[float]):
        """One timed ``harness.run``; its time is kept only if it passes."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = harness.run(self.cfg, write_outputs=self.w.writes_output)
        except Exception:  # a failing run is counted, reported and survived
            self.failed += 1
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - t0
        problems, l1 = check_run(self.w, self.cfg, res, self.totals0, self.ref)
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
            return None
        times.append(elapsed)
        self.l1.append(l1)
        return res


# ---------------------------------------------------------------------------
# Measurement.


def count_steps(harness, runs: Runs) -> tuple[int, int]:
    """Warm-up run: its steps, and the leaves summed over them.

    The leaves come from the ``solver.step`` spans; a run whose spans do not
    match its own step count ends the process, so a tracer that lost the
    step cannot report a leaf rate of 0 as correct.
    """
    step = tuple(t for t in TARGETS if t.name == "solver.step")
    with Tracer(step) as counter:
        runs.ref = runs.timed(harness, [])
    if runs.ref is None:
        return 0, 0
    items = counter.arrays()["items"]
    if len(items) != runs.ref.steps or not np.all(items > 0):
        raise SystemExit(
            f"solver.step traced {len(items)} spans ({np.count_nonzero(items == 0)} without leaves)"
            f" for a run of {runs.ref.steps} steps; absent: {counter.absent}"
        )
    return runs.ref.steps, int(items.sum())


def measure(harness, w: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """All metrics of one workload and seed; see the module docstring.

    ``metrics`` maps each name to ``(value, unit)``; it is empty when the
    warm-up run or every timed run failed.
    """
    cfg = w.config(harness, seed, workdir)
    setup = harness.init_case(cfg)
    runs = Runs(w, cfg, totals(setup.forest, setup.field))
    steps, leaf_steps = count_steps(harness, runs)
    out = {"runs": runs, "steps": steps, "leaf_steps": leaf_steps, "metrics": {}}
    if runs.ref is None:
        return out
    deadline = time.perf_counter() + seconds
    if trace:
        tracer = Tracer()
        plain, traced = [], []
        last = runs.ref
        while True:
            runs.timed(harness, plain)
            with tracer:
                tracer.run_id = len(traced)
                last = runs.timed(harness, traced) or last
            if time.perf_counter() >= deadline:
                break
        if plain and traced:
            out["metrics"] = layer_metrics(tracer, traced, plain, last, steps, leaf_steps)
            out["tracer"] = tracer
            out["traced_wall"] = statistics.median(traced)
            out["traced_s"] = traced
        return out
    # every pass is timed next to the probes before and after it, and its
    # times are scaled by the host speed those give (see probe.py)
    wall: dict[str, list[float]] = {"run_s": [], "setup_s": [], "probe_s": [probe()]}
    scaled: dict[str, list[float]] = {"run_s": [], "setup_s": []}
    while True:
        setup_s, run_s = [], []
        for _ in range(SETUPS_PER_RUN):
            gc.collect()
            t0 = time.perf_counter()
            harness.init_case(cfg)
            setup_s.append(time.perf_counter() - t0)
        runs.timed(harness, run_s)
        wall["probe_s"].append(probe())
        scale = REFERENCE_S / statistics.fmean(wall["probe_s"][-2:])
        for name, times in (("run_s", run_s), ("setup_s", setup_s)):
            wall[name] += times
            scaled[name] += [t * scale for t in times]
        if time.perf_counter() >= deadline:
            break
    if not scaled["run_s"]:
        return out
    run_med = statistics.median(scaled["run_s"])
    out["metrics"] = {
        "run_s": (run_med, "s"),
        "leaf_steps_per_s": (leaf_steps / run_med, "1/s"),
        "setup_s": (statistics.median(scaled["setup_s"]), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    out["samples"] = {f"scaled {k}": sorted(v) for k, v in scaled.items()}
    out["samples"].update((f"wall {k}", sorted(v)) for k, v in wall.items())
    return out


def layer_metrics(tracer: Tracer, traced: list[float], plain: list[float], last, steps: int, leaf_steps: int) -> dict:
    """Per-run medians of each target's calls, items and self time, plus counters."""
    n = len(traced)
    per_run = [tracer.per_run(r) for r in range(n)]

    def med(name: str, key: str) -> float:
        return statistics.median(run[name][key] for run in per_run)

    m: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        if name == BISECT:
            continue
        items, self_s = med(name, "items"), med(name, "self_s")
        m[f"{name}.calls"] = (med(name, "calls"), "count")
        m[f"{name}.items"] = (items, "count")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.ns_per_item"] = (1e9 * self_s / items if items else 0.0, "ns")
    predicted = sum(run["solver.muscl_predict"]["items"] for run in per_run)
    covered = [sum(t["self_s"] for t in run.values()) for run in per_run]
    m.update(
        {
            "eos.closure_fallbacks": (med(BISECT, "calls"), "count"),
            "eos.closure_fallback_s": (med(BISECT, "self_s"), "s"),
            "eos.closures_per_leaf_step": (med("eos.solve_alpha", "items") / leaf_steps, "1"),
            "solver.muscl_fallback_frac": (
                tracer.counters["muscl_fallback_cells"] / predicted if predicted else 0.0,
                "1",
            ),
            "partition.ghost_cells": (tracer.counters["ghost_cells"] / n, "count"),
            "partition.frontier_ratio_max": (frontier_ratio_max(last), "1"),
            "vtkio.bytes": (tracer.counters["vtk_bytes"] / n, "B"),
            "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "1"),
            "trace.untraced_frac": (statistics.median((w - c) / w for w, c in zip(traced, covered)), "1"),
            "harness.steps": (steps, "count"),
            "harness.leaf_steps": (leaf_steps, "count"),
        }
    )
    return m


def frontier_ratio_max(res) -> float:
    """Largest frontier ratio over the ranks of the final mesh (not timed)."""
    from amrfv import partition

    if not hasattr(partition, "balance_metrics"):
        return 0.0
    return max(r.ratio for r in partition.balance_metrics(res.forest, res.partition))


def layer_shares(metrics: dict, wall: float) -> dict[str, float]:
    """Self time of each layer as a share of the traced wall time."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for key, (val, _) in metrics.items():
        if key.endswith("self_s") or key == "eos.closure_fallback_s":
            shares[key.partition(".")[0]] += val / wall
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    w = WORKLOADS[args.workload]

    harness = load_harness()  # exits here, before any output, outside a full checkout
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        out = measure(harness, w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs, metrics = out["runs"], out["metrics"]

    print(f"workload {w.name} seed {args.seed}: {w.why}")
    print(f"env {json.dumps(environment())}")
    print(f"steps {out['steps']} count, leaf_steps {out['leaf_steps']} count")
    print(f"failed_frac {runs.failed / runs.attempted!r} ({runs.failed} of {runs.attempted} runs)")
    if runs.l1:
        print(f"l1_alpha {runs.l1[0]!r} (ceiling {w.l1_ceiling!r})")
    for name, values in out.get("samples", {}).items():
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"{name} samples {len(values)}: min {values[0]:.6g} q1 {q1:.6g} median {q2:.6g} q3 {q3:.6g} max {values[-1]:.6g} s")
    if "tracer" in out:
        tracer = out["tracer"]
        print(f"absent {json.dumps(tracer.absent)}")
        spans = OUT / f"spans-{w.name}-seed{args.seed}.csv"
        tracer.write(spans)
        print(f"spans {spans.relative_to(ROOT)}")
        for layer, share in layer_shares(metrics, out["traced_wall"]).items():
            print(f"layer {layer} self share {share:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": runs.failed == 0 and bool(metrics),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
