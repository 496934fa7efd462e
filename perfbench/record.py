"""Run every workload over several seeds and record the numbers.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json

Each run is its own process of ``run.py``: ``--trace 0`` for every seed, then
one ``--trace 1`` on the first seed.  For each end-to-end metric the record
holds the per-seed values, their median and their spread (distance between
the first and third quartile over the median), and per seed the medians of
the unscaled wall times and of the host-speed probe.  The environment (git
revision, Python and numpy versions, cores, CPU model) is stored alongside.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, environment, run_seconds
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
WALL_LINE = re.compile(r"wall (?P<name>\w+) samples .* median (?P<median>\S+) ")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["process_s"] = wall
    # medians of the unscaled times and of the probe, from the printed samples
    result["wall"] = {
        m["name"]: float(m["median"]) for m in map(WALL_LINE.match, lines) if m is not None
    }
    return result


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()

    record = {"env": {**environment(), "cpu_model": cpu_model()}, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        w = WORKLOADS[name]
        seeds = list(range(1, args.seeds + 1))
        runs = []
        for seed in seeds:
            runs.append(one_run(name, seed, args.seconds, 0))
            print(name, seed, json.dumps(runs[-1]), flush=True)
        values = {k: [r["metrics"][k]["value"] for r in runs] for k in runs[0]["metrics"]}
        summary = {
            k: {"median": statistics.median(v), "spread": spread(v) if len(v) > 1 else 0.0}
            for k, v in values.items()
        }
        traced = one_run(name, seeds[0], args.seconds, 1)
        steps = traced["metrics"]["harness.steps"]["value"]
        wall_run_s = statistics.median(r["wall"]["run_s"] for r in runs)
        # leaf-steps of each seed: the leaf rate times the run time it came from
        us_per_leaf_step = statistics.median(
            1e6 * r["wall"]["run_s"] / (r["metrics"]["leaf_steps_per_s"]["value"] * r["metrics"]["run_s"]["value"])
            for r in runs
        )
        record["workloads"][name] = {
            "why": w.why,
            "t_end": w.t_end,
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "end_to_end_per_seed": values,
            # unscaled medians, and the host speed the scaling took out
            "wall_per_seed": {k: [r["wall"][k] for r in runs] for k in runs[0]["wall"]},
            "max_process_s": max(r["process_s"] for r in runs + [traced]),
            # the units of the ROADMAP baseline, setup included, from wall times
            "us_per_leaf_step": us_per_leaf_step,
            "s_per_step": wall_run_s / steps,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, s in summary.items():
            print(f"{name} {k}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
        print(f"{name} us_per_leaf_step {record['workloads'][name]['us_per_leaf_step']:.4g}", flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
