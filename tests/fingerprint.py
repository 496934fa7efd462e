"""One sha256 per run of a fixed list of configs, to compare two commits bit for bit.

Run it from the repository root with the package on the path:

    PYTHONPATH=src python tests/fingerprint.py [name ...]

Each line is ``<hash>  <name>``.  A hash covers, in order: every face list
the run builds (its axis and its per-row arrays, ``ROW_ARRAYS``, in build
order) with the initial forest and field in their place (after the face
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

import hashlib
import sys

import numpy as np

from amrfv import eos, harness, solver
from amrfv.forest import KEEP, REFINE, Connectivity, Forest, new_uniform

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


# the arrays of a face list, one entry per row; how the list reaches each cell's rows is not hashed
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


def _update(h, f: Forest, u: np.ndarray):
    for a in (f.tree, f.level, f.coords, f.keys, np.asarray(u, dtype=np.float64).view(np.int64)):
        h.update(np.ascontiguousarray(a).tobytes())


def fingerprint(overrides: dict) -> str:
    """The sha256 of one run, in the order of the module docstring."""
    h = hashlib.sha256()
    finish, init_case = Forest._finish_face_list, harness.init_case
    last = {}  # axis -> the bytes of the last face list hashed on it

    def hashed(self, axis, *rows):
        fl = finish(self, axis, *rows)
        data = [np.ascontiguousarray(getattr(fl, name)).tobytes() for name in ROW_ARRAYS]
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

    Forest._finish_face_list, harness.init_case = hashed, hashed_init
    try:
        res = harness.run(harness.default_config(**overrides), write_outputs=False)
        for axis in range(res.forest.dim):
            res.forest.face_list(axis)
    finally:
        Forest._finish_face_list, harness.init_case = finish, init_case
    _update(h, res.forest, res.field)
    h.update(f"{res.t!r} {res.steps} {res.l1_alpha!r} {res.l2_alpha!r}".encode())
    return h.hexdigest()


def step3d_gravity() -> str:
    """The sha256 of the forest, the initial field and each step's dt and field, of three 3D steps."""
    rng = np.random.default_rng(2022)
    f = new_uniform(Connectivity(3, (1, 1, 1), (False, False, False)), level=2, b=3)
    f, _ = f.adapt(np.where(rng.random(f.nleaves) < 0.3, REFINE, KEEP))  # levels 2 and 3
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


def main(names) -> int:
    for name in names or [*RUNS, *STEPS]:
        print(f"{STEPS[name]() if name in STEPS else fingerprint(RUNS[name])}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
