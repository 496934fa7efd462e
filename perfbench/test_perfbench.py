"""Self-checks of the benchmark: tracer accounting, coverage and the gate.

    python3 -m pytest perfbench

Each workload is measured once, traced, with a zero time budget (one warm-up,
one untraced and one traced run).
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
from tracer import LAYERS, TARGETS, Target, Tracer
from workloads import WORKLOADS

harness = run.load_harness()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# the workloads on which each layer does the work the benchmark attributes to it
FIRES_ON = {
    "eos": ("drop_gravity", "uniform_advection"),
    "riemann": ("uniform_advection",),
    "solver": ("uniform_advection",),
    "forest": ("adaptive_disk",),
    "morton": ("adaptive_disk",),
    "criteria": ("adaptive_disk",),
    "partition": ("adaptive_disk",),
    "vtkio": ("adaptive_disk",),
    "harness": ("adaptive_disk",),
}
# only the drop has walls, gravity and air-water cells
ONLY_DROP = ("solver.gravity_op", "eos._bisect")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    w = WORKLOADS[request.param]
    out = run.measure(harness, w, 1, 0.0, True, str(tmp_path_factory.mktemp(w.name)))
    return w, out


def test_every_span_fires_where_it_works(traced):
    w, out = traced
    assert out["runs"].failed == 0
    per_run = out["tracer"].per_run(0)
    for t in TARGETS:
        expected = ("drop_gravity",) if t.name in ONLY_DROP else FIRES_ON[t.module]
        if w.name in expected:
            assert per_run[t.name]["calls"] > 0, f"{t.name} never called on {w.name}"


def test_self_times_add_up_to_traced_wall(traced):
    w, out = traced
    tracer = out["tracer"]
    a = tracer.arrays()
    nested = a["parent"] >= 0
    parent = a["parent"][nested]
    # a child lies inside its parent
    assert np.all(a["start"][nested] >= a["start"][parent])
    assert np.all(a["end"][nested] <= a["end"][parent])
    assert np.all(a["self"] >= -1e-9)
    # a target wrapped twice would nest a span directly in one of its own name
    assert not np.any(a["name"][nested] == a["name"][parent])
    # self times, summed over the layers, fit in the separately timed run
    # (one traced run here) and cover most of it
    m = out["metrics"]
    covered = sum(v for k, (v, _) in m.items() if k.endswith(".self_s") or k == "eos.closure_fallback_s")
    (wall,) = out["traced_s"]
    assert 0.5 * wall < covered <= wall
    assert 0.0 <= m["trace.untraced_frac"][0] < 0.5
    assert math.isfinite(m["trace.overhead_frac"][0])


def test_layer_shares_match_the_workload(traced):
    w, out = traced
    m = out["metrics"]
    shares = run.layer_shares(m, out["traced_wall"])
    if w.name == "drop_gravity":
        assert m["eos.closure_fallbacks"][0] > 0
        assert max(shares, key=shares.get) == "eos"
    elif w.name == "adaptive_disk":
        assert shares["forest"] + shares["vtkio"] >= 0.10
        assert m["vtkio.bytes"][0] > 0 and m["partition.ghost_cells"][0] > 0
    else:
        assert shares["forest"] + shares["vtkio"] < 0.02


def test_traced_metrics_are_the_per_layer_metrics(traced):
    _, out = traced
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in out["metrics"].items()} == declared


def test_untraced_metrics_are_the_end_to_end_metrics(tmp_path):
    out = run.measure(harness, WORKLOADS["adaptive_disk"], 2, 0.0, False, str(tmp_path))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in out["metrics"].items()} == declared
    assert all(v > 0 for v, _ in out["metrics"].values())


def test_gate_matches_package_error_and_rejects_bad_fields(traced):
    w, out = traced
    runs = out["runs"]
    res = runs.ref
    problems, l1 = run.check_run(w, runs.cfg, res, runs.totals0, None)
    assert problems == []
    if res.l1_alpha is not None:
        assert math.isclose(l1, res.l1_alpha, rel_tol=1e-9)
    leaky = res.field.copy()
    leaky[0, 0] *= 1.0 + 1e-9
    leaky[0, 1] *= 1.0 + 1e-9
    vacuum = res.field.copy()
    vacuum[0, 1] = -1e-12
    for bad in (leaky, vacuum):
        problems, _ = run.check_run(w, runs.cfg, replace(res, field=bad), runs.totals0, res)
        assert problems


def test_failing_run_is_counted_not_dropped(tmp_path):
    w = WORKLOADS["adaptive_disk"]
    runs = run.Runs(w, w.config(harness, 1, str(tmp_path)), np.ones(2))

    class Broken:
        def run(self, cfg, write_outputs):
            raise ArithmeticError("solver failed")

    times: list[float] = []
    assert runs.timed(Broken(), times) is None
    assert (runs.attempted, runs.failed, times) == (1, 1, [])


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "amrfv" or n.startswith("amrfv.")]
    from amrfv.forest import Forest

    return [dict(vars(m)) for m in mods] + [dict(vars(Forest))]


def test_wrappers_sit_at_lookup_sites_and_are_removed():
    from amrfv import criteria, partition

    before = _bindings()
    original = criteria.evaluate
    with Tracer():
        # harness bound these with ``from ... import`` at import time
        assert harness.evaluate is criteria.evaluate is not original
        assert harness.ghost_layer is partition.ghost_layer
        assert harness.partition is partition.partition
    after = _bindings()
    assert len(before) == len(after)
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_missing_names_are_absent_not_errors():
    targets = (
        Target("eos", "no_such_closure", lambda a, k, r: 1),
        Target("forest", "Forest.no_such_method", lambda a, k, r: 1),
        Target("no_such_layer", "f", lambda a, k, r: 1),
    )
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["eos.no_such_closure", "forest.no_such_method", "no_such_layer.f"]
    assert tracer.per_run(0)["eos.no_such_closure"]["calls"] == 0


def test_targets_cover_every_layer():
    assert {t.module for t in TARGETS} == set(LAYERS)


@pytest.mark.parametrize(
    "targets",
    [(), (Target("solver", "step", lambda a, k, r: 0),)],
    ids=["step_absent", "step_without_leaves"],
)
def test_lost_step_spans_end_the_process(monkeypatch, tmp_path, targets):
    # a leaf rate of 0 must never be reported as a correct result
    monkeypatch.setattr(run, "TARGETS", targets)
    with pytest.raises(SystemExit):
        run.measure(harness, WORKLOADS["adaptive_disk"], 1, 0.0, False, str(tmp_path))
