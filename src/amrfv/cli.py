"""Command-line entry points: run, converge, compare-amr, bench-partition."""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from amrfv import harness
from amrfv.errors import ConfigError
from amrfv.partition import metrics_csv


def _parse_range(flag: str, text: str) -> list[int]:
    """'4:7', '4..7' or '4,5,6,7' -> [4, 5, 6, 7]; a ConfigError names ``flag`` if malformed or empty."""
    lo, colon, hi = text.replace("..", ":").partition(":")
    try:
        values = list(range(int(lo), int(hi) + 1)) if colon else [int(t) for t in lo.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{flag} {text!r} is not a non-empty range of integers, such as 4:7 or 4,5,6,7")
    return values


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    res = harness.run(cfg)
    print(f"case {cfg.case}: t={res.t:.6g} steps={res.steps} leaves={res.forest.nleaves}")
    print(f"compression rate {harness.compression_rate(res.forest):.4g}")
    if res.l1_alpha is not None:
        print(f"L1(alpha) error {res.l1_alpha:.6e}  L2(alpha) error {res.l2_alpha:.6e}")
    if args.cut:
        from amrfv import vtkio

        point = [0.0] * cfg.dim
        direction = [1.0] * cfg.dim  # x = y (= z) diagonal
        path = Path(cfg.output_dir) / f"{cfg.case}_cut.csv"
        vtkio.write_csv_cut(res.forest, res.field, cfg.fluids, point, direction, path)
        print(f"cut written to {path}")
    for p in res.artifacts:
        print(f"wrote {p}")
    return 0


def cmd_converge(args) -> int:
    levels, orders = _parse_range("--levels", args.levels), _parse_range("--orders", args.orders)
    cfg = harness.load_config(args.config)
    out = harness.converge_study(cfg, levels, orders)
    lines = ["order,level,dx,l1,l2"]
    for order in orders:
        d = out["orders"][order]
        for lvl, dx, e1, e2 in zip(levels, d["dx"], d["l1"], d["l2"]):
            lines.append(f"{order},{lvl},{_fmt(dx)},{_fmt(e1)},{_fmt(e2)}")
        print(
            f"order {order}: L1 rate {d['rate_l1']:.3f}  L2 rate {d['rate_l2']:.3f}  "
            f"errors {['%.3e' % e for e in d['l1']]}"
        )
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "convergence.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {outdir / 'convergence.csv'}")
    return 0


def cmd_compare_amr(args) -> int:
    comps = _parse_range("--compression", args.compression)
    cfg = harness.load_config(args.config)
    rows = harness.compare_amr_study(cfg, args.xi, comps)
    lines = ["compression,xi,l1,cells,uniform_cells,compression_rate,steps"]
    for r in rows:
        print(
            f"compression {r['compression']}: L1 {r['l1']:.4e}  cells {r['cells']} "
            f"({100 * r['compression_rate']:.2f}% of uniform)"
        )
        lines.append(
            f"{r['compression']},{_fmt(r['xi'])},{_fmt(r['l1'])},{r['cells']},"
            f"{r['uniform_cells']},{_fmt(r['compression_rate'])},{r['steps']}"
        )
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "compare_amr.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {outdir / 'compare_amr.csv'}")
    return 0


def cmd_bench_partition(args) -> int:
    ranks = _parse_range("--ranks", args.ranks)
    cfg = harness.load_config(args.config)
    out = harness.bench_partition_study(cfg, ranks)
    print(f"mesh cells: {out['cells']}")
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for P in ranks:
        d = out["ranks"][P]
        print(
            f"P={P}: max frontier ratio {d['max_ratio']:.4f}  load spread {d['load_spread']}"
        )
        (outdir / f"partition_P{P}.csv").write_text(metrics_csv(d["metrics"], d["ghosts"]))
    print(f"wrote {outdir}/partition_P*.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="amrfv",
        description="Adaptive quad/octree finite-volume solver for barotropic two-fluid flows",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="advance a case to t_end and write artifacts")
    p.add_argument("config")
    p.add_argument("--cut", action="store_true", help="also write the diagonal CSV cut")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("converge", help="uniform-mesh convergence study")
    p.add_argument("config")
    p.add_argument("--levels", default="4:7", help="e.g. 4:7 or 4,5,6,7")
    p.add_argument("--orders", default="1,2")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("compare-amr", help="AMR-vs-uniform compression sweep")
    p.add_argument("config")
    p.add_argument("--xi", type=float, default=5e-5)
    p.add_argument("--compression", default="0:4", help="levels of compression, e.g. 0:6")
    p.set_defaults(func=cmd_compare_amr)

    p = sub.add_parser("bench-partition", help="partition quality metrics per rank count")
    p.add_argument("config")
    p.add_argument("--ranks", default="1,2,4,8,16")
    p.set_defaults(func=cmd_bench_partition)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
