"""One sha256 per run of a fixed list of configs, to compare two commits bit for bit.

Run it from the repository root with the package on the path:

    PYTHONPATH=src python tests/fingerprint.py [--base REV] [name ...]

Each line is ``<hash>  <name>``.  With ``--base REV`` each line is ``<REV's hash>  <this checkout's hash>
<name>``: REV's package is exported with ``git archive`` (``pairs.load_base``), a name whose hashes differ is
marked, and the script exits with status 1 if any does, so one command checks a change bit for bit.  A hash covers, in order: every face list
the run builds (its axis, its per-row arrays ``ROW_ARRAYS``, then ``low`` and
both ``more`` arrays, in build order) with the initial forest and field in their place (after the face
lists of the pre-adapt), then the final forest and field, ``t``, the step count and the
two alpha error norms.  A face list equal to the last one hashed on its
axis is skipped, so rebuilding a mesh that did not change adds nothing, and
after the run the final forest builds any face list the run left unbuilt,
so a run that skips the rebuild after its last adapt hashes the same.  A
forest is its tree ids, levels, coords and Morton keys, a field its int64
bits.  Two commits that print the same lines computed the same bits.  The
three benchmark workloads appear with their parameters at seeds 1-3
written out, so this file reads nothing of the benchmark's code.  ``drop2d:mixed`` weights the mixed criterion so that its
pressure and speed terms each refine cells the density term leaves (without
either term the final mesh differs), and ``drop2d:1e-4`` is the same run
under the case's own criterion.  ``STEPS`` adds direct calls of
``solver.step`` that no run covers: ``step3d:gravity`` hashes three order-2
Strang steps with gravity of a seeded random state with velocity on every
axis, on a two-level 3D forest with walls and hanging faces on every axis,
so a change to the z-sweep or the 3D sweep order shows.  ``tests/pairs.py``
times ``RUNS`` only.  pytest does not collect this file; the whole list
takes about half a minute.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from amrfv import harness

_LAMBDA = {"lambda": 1e-07}


def _uniform(x0, y0):
    params = dict(x0=x0, y0=y0, ux=1.0, uy=1.0, p=1e5, **_LAMBDA)
    return dict(
        case="smooth_advection", t_end=0.012, max_level=8, min_level=8, order=2, splitting="strang", ranks=1,
        case_params=params,
    )


def _disk(x0, y0, radius):
    params = dict(x0=x0, y0=y0, radius=radius, ux=1.0, uy=1.0, p=1e5, **_LAMBDA)
    return dict(
        case="disk_advection", t_end=0.165, max_level=7, min_level=3, adapt_every=2, criterion="rho_gradient",
        ranks=4, output_every=25, case_params=params,
    )


def _drop(x0, y0, radius):
    params = dict(x0=x0, y0=y0, radius=radius, bath_height=0.4, p=1e5, **_LAMBDA)
    return dict(case="drop2d", t_end=1.7e-06, adapt_every=2, criterion="alpha_gradient", ranks=1, case_params=params)


# the arrays of a face list with one entry per row; ``fingerprint`` hashes its cell sides after them
ROW_ARRAYS = ("lo", "hi", "area", "dist", "wall_lo", "wall_hi")

RUNS = {
    "uniform_advection:1": _uniform(0.5876415658716079, 0.5805155452839523),
    "uniform_advection:2": _uniform(0.6031330573230036, 0.3987070393330561),
    "uniform_advection:3": _uniform(0.36574411426385345, 0.5000665113390843),
    "adaptive_disk:1": _disk(0.37036452416788246, 0.47355992276545866, 0.09902128317392347),
    "adaptive_disk:2": _disk(0.462237339890458, 0.4720056661350043, 0.09812249093916958),
    "adaptive_disk:3": _disk(0.3832340529234401, 0.5561177004351924, 0.10189385758907851),
    "drop_gravity:1": _drop(0.5727622551345105, 0.6873783242310003, 0.1013467955220089),
    "drop_gravity:2": _drop(0.5011368864625672, 0.6867138672560064, 0.10066506901584478),
    "drop_gravity:3": _drop(0.49166645822229565, 0.7191716826566239, 0.09832820971837242),
    "disk_advection:ranks=4": dict(case="disk_advection", t_end=0.2, ranks=4),
    "drop2d:mixed": dict(case="drop2d", t_end=1e-4, criterion="mixed", weights=(1.0, 1000.0, 0.1)),
    "drop2d:1e-4": dict(case="drop2d", t_end=1e-4),
    "drop2d:strang": dict(case="drop2d", t_end=2e-4),
    "drop2d:lie": dict(case="drop2d", t_end=1e-4, splitting="lie"),
    "drop2d:order1": dict(case="drop2d", t_end=1e-4, order=1),
    "dambreak3d:1e-4": dict(case="dambreak3d", t_end=1e-4),
    "dambreak3d:2e-5": dict(case="dambreak3d", t_end=2e-5),
    "shock_tube": dict(case="shock_tube"),
    "double_rarefaction": dict(case="double_rarefaction"),
    "smooth_advection": dict(case="smooth_advection", t_end=0.1),
}


def _update(h, f, u: np.ndarray):
    for a in (f.tree, f.level, f.coords, f.keys, np.asarray(u, dtype=np.float64).view(np.int64)):
        h.update(np.ascontiguousarray(a).tobytes())


def fingerprint(hm, overrides: dict) -> str:
    """The sha256 of one run of the harness module ``hm``, in the order of the module docstring."""
    h = hashlib.sha256()
    Forest = hm.Forest
    finish, init_case = Forest._finish_face_list, hm.init_case
    last = {}  # axis -> the bytes of the last face list hashed on it

    def hashed(self, axis, *rows):
        fl = finish(self, axis, *rows)
        arrays = [getattr(fl, name) for name in ROW_ARRAYS] + [fl.low, *fl.more]
        data = [np.ascontiguousarray(a).tobytes() for a in arrays]
        if data != last.get(axis):
            last[axis] = data
            h.update(str(fl.axis).encode())
            for b in data:
                h.update(b)
        return fl

    def hashed_init(cfg):
        setup = init_case(cfg)
        _update(h, setup.forest, setup.field)
        return setup

    Forest._finish_face_list, hm.init_case = hashed, hashed_init
    try:
        res = hm.run(hm.default_config(**overrides), write_outputs=False)
        for axis in range(res.forest.dim):
            res.forest.face_list(axis)
    finally:
        Forest._finish_face_list, hm.init_case = finish, init_case
    _update(h, res.forest, res.field)
    h.update(f"{res.t!r} {res.steps} {res.l1_alpha!r} {res.l2_alpha!r}".encode())
    return h.hexdigest()


def step3d_gravity(hm) -> str:
    """The sha256 of the forest, the initial field and each step's dt and field, of three 3D steps,
    made with the solver, eos and forest of the harness module ``hm``."""
    eos, solver, forest = hm.eos, hm.solver, sys.modules[hm.Forest.__module__]
    rng = np.random.default_rng(2022)
    f = hm.new_uniform(hm.Connectivity(3, (1, 1, 1), (False, False, False)), level=2, b=3)
    f, _ = f.adapt(np.where(rng.random(f.nleaves) < 0.3, forest.REFINE, forest.KEEP))  # levels 2 and 3
    assert sorted(set(f.level.tolist())) == [2, 3]
    fp = eos.FluidPair(1e5, 1.0, 3.0, 1e5, 2.0, 3.0)  # sound speeds near 3 in every mixture
    vel = rng.uniform(-0.5, 0.5, (f.nleaves, 3))
    u = eos.state_from_pressure_alpha(1e5 + rng.uniform(-1.0, 1.0, f.nleaves), rng.random(f.nleaves), vel, fp)
    cfg = solver.SweepConfig(order=2, cfl=0.9, gravity=9.81, splitting="strang")
    h = hashlib.sha256()
    _update(h, f, u)
    for _ in range(3):
        u, dt = solver.step(f, u, cfg, fp)
        h.update(repr(dt).encode())
        _update(h, f, u)
    return h.hexdigest()


STEPS = {"step3d:gravity": step3d_gravity}


def digest(hm, name: str) -> str:
    return STEPS[name](hm) if name in STEPS else fingerprint(hm, RUNS[name])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to hash beside this checkout")
    ap.add_argument("names", nargs="*", metavar="name", help="names of RUNS and STEPS (default: all)")
    args = ap.parse_args(argv)
    names = args.names or [*RUNS, *STEPS]
    unknown = [n for n in names if n not in RUNS and n not in STEPS]
    if unknown:
        ap.error(f"unknown names {unknown}")
    if args.base is None:
        for name in names:
            print(f"{digest(harness, name)}  {name}", flush=True)
        return 0
    from pairs import load_base  # pairs imports this module

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = load_base(args.base, Path(tmp))
        for name in names:
            a, b = digest(base, name), digest(harness, name)
            differ += a != b
            print(f"{a}  {b}  {name}{'  <- differs' if a != b else ''}", flush=True)
    print(f"{differ} of {len(names)} differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
