"""Alternating timing of this checkout against another revision, in one process.

Run it from the repository root with the package on the path:

    PYTHONPATH=src python tests/pairs.py --base REV [--setup] [--rounds N] name ...

The names are those of ``fingerprint.RUNS``.  ``git archive`` exports REV's
``src/amrfv`` into a temporary directory as the package ``amrfv_base`` (its
imports rewritten to match), so both sides load into the same interpreter.
Each round times ``harness.run`` (``harness.init_case`` with ``--setup``) once
on each side, and the side that goes first alternates from round to round,
after one untimed warm-up call per side.  For each name it prints both
medians, the median of the per-round ratios change/base with its quartiles,
and the number of rounds the change was faster.  Without ``--setup`` it also
prints each side's steps and leaf-steps (leaves summed over the steps) of
its warm-up run, and marks the name when they differ: a change that moves
the bits can move the step count or the adapted mesh, and then the time
ratio is not a ratio per leaf-step.  Beside them it prints each side's
``solver.sweep`` calls, of which how many ran outside ``solver.step`` (the
lone owed half sweeps and their pieces), face-list builds and
``ghost_layer`` calls of the same warm-up run, so a pair shows how much of
its saving comes from fewer sweeps and how much from less mesh rebuilding,
and whether a side ran an owed half sweep alone.  pytest does not collect
this file.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

from fingerprint import RUNS

from amrfv import harness

ROOT = Path(__file__).resolve().parent.parent
BASE = "amrfv_base"
_IMPORT = re.compile(r"^(\s*)(from|import) amrfv\b", re.MULTILINE)


def load_base(rev: str, into: Path):
    """REV's ``amrfv.harness``, exported into ``into`` as ``amrfv_base.harness``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/amrfv"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile() and member.name.endswith(".py"):
                dest = into / BASE / Path(member.name).relative_to("src/amrfv")
                dest.parent.mkdir(parents=True, exist_ok=True)
                text = archive.extractfile(member).read().decode()
                dest.write_text(_IMPORT.sub(rf"\1\2 {BASE}", text))
    sys.path.insert(0, str(into))
    return importlib.import_module(f"{BASE}.harness")


def _timed(call, cfg) -> float:
    gc.collect()
    t0 = time.perf_counter()
    call(cfg)
    return time.perf_counter() - t0


def warm_up(h, call, cfg) -> tuple[int, int, int, int, int, int] | None:
    """One untimed call: a run's steps, from its ``RunResult``, its leaf-steps, sweeps, sweeps
    outside a step, face-list builds and ``ghost_layer`` calls; None for a set-up."""
    step, sweep, finish, ghost_layer = h.solver.step, h.solver.sweep, h.Forest._finish_face_list, h.ghost_layer
    leaves, sweeps, built, ghosts, inside = [], [], [], [], [False]  # sweeps: whether each ran inside a step

    def counted_step(f, *a, **k):
        leaves.append(f.nleaves)
        inside[0] = True
        try:
            return step(f, *a, **k)
        finally:
            inside[0] = False

    h.solver.step = counted_step
    h.solver.sweep = lambda *a, **k: sweeps.append(inside[0]) or sweep(*a, **k)
    h.Forest._finish_face_list = lambda *a, **k: built.append(1) or finish(*a, **k)
    h.ghost_layer = lambda *a, **k: ghosts.append(1) or ghost_layer(*a, **k)
    try:
        res = call(cfg)
    finally:
        h.solver.step, h.solver.sweep, h.Forest._finish_face_list, h.ghost_layer = step, sweep, finish, ghost_layer
    if not isinstance(res, h.RunResult):
        return None
    return res.steps, sum(leaves), len(sweeps), sweeps.count(False), len(built), len(ghosts)


def pairs(sides, name: str, rounds: int, setup: bool):
    """Seconds per round of (base, change) on the config ``RUNS[name]``, and each side's ``warm_up``."""
    calls, counts = [], []
    for h in sides:
        cfg = h.default_config(**RUNS[name])
        call = h.init_case if setup else (lambda c, h=h: h.run(c, write_outputs=False))
        counts.append(warm_up(h, call, cfg))
        calls.append((call, cfg))
    times = ([], [])
    for r in range(rounds):
        for s in (0, 1) if r % 2 == 0 else (1, 0):
            times[s].append(_timed(*calls[s]))
    return times, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--setup", action="store_true", help="time init_case instead of run")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("names", nargs="+", choices=sorted(RUNS), metavar="name")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        sides = (load_base(args.base, Path(tmp)), harness)
        what = "init_case" if args.setup else "run"
        print(f"{what}, {args.rounds} alternating rounds; base {args.base}, ratio = change/base")
        for name in args.names:
            (base, change), counts = pairs(sides, name, args.rounds, args.setup)
            ratios = [c / b for b, c in zip(base, change)]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            wins = sum(c < b for b, c in zip(base, change))
            print(
                f"{name}: base {statistics.median(base) * 1e3:.3f} ms, change {statistics.median(change) * 1e3:.3f} ms, "
                f"ratio {statistics.median(ratios):.3f} [{q1:.3f}, {q3:.3f}], change faster in {wins}/{args.rounds}",
                flush=True,
            )
            if not args.setup:
                (bs, bl, bw, bo, bf, bg), (cs, cl, cw, co, cf, cg) = counts
                differ = "  <- counts differ: the ratio is per run, not per leaf-step" if (bs, bl) != (cs, cl) else ""
                print(
                    f"  steps base {bs}, change {cs}; leaf-steps base {bl}, change {cl}; sweeps base {bw}, change {cw}; "
                    f"lone sweeps base {bo}, change {co}; face lists base {bf}, change {cf}; "
                    f"ghost layers base {bg}, change {cg}{differ}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
