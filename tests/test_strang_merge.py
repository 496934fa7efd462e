"""Strang steps that share one x sweep across a step boundary in ``harness.run``.

A run leaves a Strang step open when no sync point (a dump or t_end) follows
it: the step leaves out its last x half sweep, and the next step runs it
inside its own first x sweep, at dt_n/2 + dt_{n+1}/2.  An adapt is no sync
point: it marks and projects the open state, and the owed half sweep runs on
the new forest.  These tests record the sweeps and gravity half-steps of
whole runs, pin where a step closes and what an adapt receives, compare a
run that closes every step with a hand loop of default steps bit for bit,
and check the time-step bound of every merged sweep and of every owed half
sweep that runs alone.
"""
import logging
import numpy as np
import pytest

from amrfv import harness, solver, vtkio
from amrfv.errors import ConfigError
from amrfv.forest import Connectivity, new_uniform
from amrfv.harness import default_config, init_case, run

DTS = (0.25, 0.375, 0.5)  # dyadic, so every merged dt is exact


def record_ops(monkeypatch, bounds=None):
    """Sweeps and gravity half-steps as (op, dt), each the identity; ``bounds``
    replaces compute_dt's bound, one per call."""
    ops = []
    monkeypatch.setattr(solver, "sweep", lambda f, u, axis, dt, *a, **k: ops.append(("xyz"[axis], dt)) or u)
    monkeypatch.setattr(solver, "gravity_op", lambda u, dt, g, out=None: ops.append(("g", dt)) or u)
    if bounds is not None:
        it = iter(bounds)
        monkeypatch.setattr(solver, "compute_dt", lambda *a, **k: next(it))
    return ops


def merged(dim, dts, gravity):
    """Strang steps of ``dts`` with each step's last x half sweep merged into the next step's first."""
    ops, owed = [], 0.0
    for dt in dts:
        inner = [("xyz"[axis], dt / 2) for axis in range(1, dim - 1)]
        ops += [("x", owed + dt / 2), ("g", dt), *inner, ("xyz"[dim - 1], dt), *inner[::-1], ("g", dt)]
        owed = dt / 2
    return [op for op in ops + [("x", owed)] if gravity or op[0] != "g"]


def smooth(dim=2, **over):
    over.setdefault("t_end", sum(DTS))
    if dim == 3:
        over.update(dim=3, trees=(1, 1, 1), periodic=(True, True, True))
    return default_config("smooth_advection", max_level=2, min_level=2, **over)


class TestSequence:
    def test_2d_steps_share_their_x_sweeps(self, monkeypatch):
        ops = record_ops(monkeypatch, DTS)
        run(smooth(), write_outputs=False)
        a, b, c = DTS
        assert ops == [
            ("x", a / 2), ("y", a), ("x", (a + b) / 2), ("y", b), ("x", (b + c) / 2), ("y", c), ("x", c / 2)
        ]

    def test_3d_steps_share_their_x_sweeps(self, monkeypatch):
        ops = record_ops(monkeypatch, DTS)
        run(smooth(dim=3), write_outputs=False)
        assert ops == merged(3, DTS, gravity=False)
        assert ops[:6] == [("x", 0.125), ("y", 0.125), ("z", 0.25), ("y", 0.125), ("x", 0.3125), ("y", 0.1875)]

    @pytest.mark.parametrize("case", ["drop2d", "dambreak3d"])
    def test_gravity_keeps_its_place(self, monkeypatch, case):
        # after the first sweep of a step and before its last: the half-step
        # that closed a step's gravity comes before the merged sweep
        ops = record_ops(monkeypatch, DTS)
        cfg = default_config(case, t_end=sum(DTS), max_level=4, adapt_every=len(DTS) + 1)
        run(cfg, write_outputs=False)
        assert ops == merged(cfg.dim, DTS, gravity=True)
        if cfg.dim == 2:
            assert ops[:6] == [("x", 0.125), ("g", 0.25), ("y", 0.25), ("g", 0.25), ("x", 0.3125), ("g", 0.375)]

    def test_lie_merges_nothing(self, monkeypatch):
        ops = record_ops(monkeypatch, DTS)
        run(smooth(splitting="lie", order=1), write_outputs=False)
        assert ops == [(axis, dt) for dt in DTS for axis in "xy"]

    def test_lie_step_has_no_half_sweep_to_merge(self):
        f = new_uniform(Connectivity(2, (1, 1), (True, True)), level=1, b=1)
        cfg = solver.SweepConfig(splitting="lie")
        for kwargs in (dict(owed=0.5), dict(close=False)):
            with pytest.raises(ConfigError, match="Lie"):
                solver.step(f, np.zeros((4, 4)), cfg, None, dt=1.0, **kwargs)


def test_steps_close_before_every_sync_point(monkeypatch, tmp_path):
    # adapts every third step and dumps every second: of the 12 steps, the odd
    # ones are followed by no dump, and the last closes at t_end; an adapt
    # after step 3 or 9 acts on the open state
    events, step, adapt, write = [], solver.step, harness.adapt_mesh, vtkio.write_vtk

    def recorded_step(*a, owed=0.0, close=True, **k):
        events.append(("step", owed, close))
        return step(*a, owed=owed, close=close, **k)

    monkeypatch.setattr(solver, "step", recorded_step)
    monkeypatch.setattr(harness, "adapt_mesh", lambda *a, **k: events.append(("adapt",)) or adapt(*a, **k))
    monkeypatch.setattr(vtkio, "write_vtk", lambda *a, **k: events.append(("dump",)) or write(*a, **k))
    cfg = default_config(
        "disk_advection", max_level=4, min_level=2, adapt_every=3, output_every=2, t_end=0.6, output_dir=str(tmp_path)
    )
    res = run(cfg)
    steps = [e for e in events if e[0] == "step"]
    assert len(steps) == res.steps == 12
    assert [i + 1 for i, e in enumerate(steps) if not e[2]] == [1, 3, 5, 7, 9, 11]
    assert steps[-1][2]
    synced = [e for e in events if e[0] != "adapt"]  # an adapt is no sync point
    for before, after in zip(synced, synced[1:]):
        if after[0] != "step":
            assert before[0] != "step" or before[2], "a sync point follows an open step"
        elif before[0] == "step" and not before[2]:
            assert after[1] > 0, "the step after an open step owes nothing"
        else:
            assert after[1] == 0.0
    carried = [after for before, adapt, after in zip(events, events[1:], events[2:])
               if adapt[0] == "adapt" and before[0] == "step" and not before[2]]
    assert len(carried) == 2 and all(after[0] == "step" and after[1] > 0 for after in carried)


@pytest.mark.parametrize("splitting,order", [("strang", 2), ("strang", 1), ("lie", 1)])
def test_closing_every_step_gives_the_bits_of_default_steps(splitting, order):
    # a dump after every step closes every step, so each step runs with the
    # default arguments: the run gives the bits of a hand loop of steps
    cfg = default_config(
        "smooth_advection", max_level=4, min_level=4, t_end=0.2, splitting=splitting, order=order, output_every=1
    )
    res = run(cfg, write_outputs=False)
    setup = init_case(cfg)
    f, u, scfg = setup.forest, setup.field, cfg.sweep_config
    t, steps = 0.0, 0
    while t < cfg.t_end * (1.0 - 1e-14):
        dt = min(solver.compute_dt(f, u, scfg, setup.fluids), cfg.t_end - t)
        u, _ = solver.step(f, u, scfg, setup.fluids, dt=dt)
        t, steps = t + dt, steps + 1
    assert res.steps == steps > 3 and res.t == t
    np.testing.assert_array_equal(res.field.view(np.int64), u.view(np.int64))


def test_closing_every_step_with_adapts_gives_the_bits_of_default_steps():
    # a dump after every step closes it, so every adapt acts on a closed state
    cfg = default_config("disk_advection", max_level=5, min_level=3, t_end=0.1, output_every=1)
    res = run(cfg, write_outputs=False)
    setup = init_case(cfg)
    f, u, scfg, crit = setup.forest, setup.field, cfg.sweep_config, cfg.criterion_obj
    t, steps = 0.0, 0
    while t < cfg.t_end * (1.0 - 1e-14):
        dt = min(solver.compute_dt(f, u, scfg, setup.fluids), cfg.t_end - t)
        u, _ = solver.step(f, u, scfg, setup.fluids, dt=dt)
        t, steps = t + dt, steps + 1
        if steps % cfg.adapt_every == 0:
            f, u = harness.adapt_mesh(f, u, crit, setup.fluids)
    assert res.steps == steps > 3 and res.t == t and res.forest.nleaves == f.nleaves
    np.testing.assert_array_equal(res.field.view(np.int64), u.view(np.int64))


class TestAdaptOnTheOpenState:
    def record(self, monkeypatch):
        """Steps as (forest, owed, dt, close, new state), adapts as (forest in, state in, forest out), and
        sweeps as (forest, axis, dt), in one list of events."""
        events, step, adapt, sweep = [], solver.step, harness.adapt_mesh, solver.sweep

        def recorded_step(f, *a, owed=0.0, close=True, **k):
            out = step(f, *a, owed=owed, close=close, **k)
            events.append(("step", f, owed, k["dt"], close, out[0]))
            return out

        def recorded_adapt(f, u, *a, **k):
            events.append(("adapt", f, u.copy(), None))
            out = adapt(f, u, *a, **k)
            events[-1] = events[-1][:3] + (out[0],)
            return out

        monkeypatch.setattr(solver, "step", recorded_step)
        monkeypatch.setattr(harness, "adapt_mesh", recorded_adapt)
        monkeypatch.setattr(solver, "sweep", lambda f, u, axis, dt, *a, **k: events.append(("sweep", f, axis, dt))
                            or sweep(f, u, axis, dt, *a, **k))
        return events

    def test_adapt_receives_the_state_of_the_open_step(self, monkeypatch):
        events = self.record(monkeypatch)
        run(default_config("disk_advection", max_level=5, min_level=3, t_end=0.1), write_outputs=False)
        steps = [e for e in events if e[0] != "sweep"]
        pairs = [(s, a) for s, a in zip(steps[:-2], steps[1:-1]) if a[0] == "adapt"]  # the last step closes at t_end
        assert len(pairs) > 2
        for s, a in pairs:
            assert s[0] == "step" and not s[4], "an adapt follows a closed step"
            assert a[1] is s[1]
            np.testing.assert_array_equal(a[2].view(np.int64), s[5].view(np.int64))

    def test_owed_half_sweep_runs_on_the_new_forest(self, monkeypatch):
        events = self.record(monkeypatch)
        run(default_config("disk_advection", max_level=5, min_level=3, t_end=0.1), write_outputs=False)
        last = max(i for i, e in enumerate(events) if e[0] == "step")  # closes at t_end; no step follows its adapt
        new_mesh = [i for i, e in enumerate(events[:last]) if e[0] == "adapt" and e[3] is not e[1]]
        assert len(new_mesh) > 2
        for i in new_mesh:
            prev = next(e for e in reversed(events[:i]) if e[0] == "step")
            j = next(j for j in range(i + 1, len(events)) if events[j][0] == "step")
            nxt = events[j]
            assert nxt[1] is events[i][3] is not prev[1]
            assert nxt[2] == prev[3] / 2 > 0
            # the step's sweeps come before it in the list, as it appends when it returns
            first = next(e for e in events[i + 1 : j] if e[0] == "sweep")
            assert first[1:] == (nxt[1], 0, nxt[2] + nxt[3] / 2)

    def test_bound_below_owed_after_an_adapt_runs_it_in_pieces(self, monkeypatch, caplog):
        # the open step of dt 0.5 owes 0.25; after the adapt the bound is
        # 0.125, so the owed half sweep runs alone in two pieces at the bound,
        # each followed by a fresh bound, and the last step closes at t_end
        ops = record_ops(monkeypatch, [0.5, 0.125, 0.125, 0.125])
        adapt = harness.adapt_mesh
        monkeypatch.setattr(harness, "adapt_mesh", lambda *a, **k: ops.append(("adapt",)) or adapt(*a, **k))
        with caplog.at_level(logging.INFO, logger="amrfv.harness"):
            res = run(default_config("smooth_advection", max_level=3, min_level=2, adapt_every=1, t_end=0.625),
                      write_outputs=False)
        assert res.steps == 2
        assert ops == [
            ("x", 0.25), ("y", 0.5), ("adapt",),
            ("x", 0.125), ("x", 0.125),  # alone, in pieces within the bounds 0.125
            ("x", 0.0625), ("y", 0.125), ("x", 0.0625), ("adapt",),
        ]
        assert "1 lone owed sweeps in 2 pieces" in caplog.text


class TestTimeStepBound:
    def test_bound_below_the_previous_dt(self, monkeypatch):
        # the bound falls to 3/4 of the previous dt, then to half of it:
        # first the step shrinks so that its merged sweep meets the bound,
        # then the owed half sweep runs alone and a fresh bound follows
        ops = record_ops(monkeypatch, [0.5, 0.375, 0.5, 0.25, 0.5])
        steps, step = [], solver.step
        monkeypatch.setattr(solver, "step", lambda *a, **k: steps.append((k["owed"], k["dt"])) or step(*a, **k))
        run(smooth(t_end=1.75), write_outputs=False)
        assert steps == [(0.0, 0.5), (0.25, 0.25), (0.125, 0.5), (0.0, 0.5)]
        assert ops == [
            ("x", 0.25), ("y", 0.5),
            ("x", 0.375), ("y", 0.25),  # the merged sweep meets the bound 0.375
            ("x", 0.375), ("y", 0.5),  # 2 owed = 0.25, within the bound 0.5
            ("x", 0.25),  # alone: merging would cut dt below half the bound 0.25
            ("x", 0.25), ("y", 0.5), ("x", 0.25),  # at the fresh bound 0.5, closed at t_end
        ]

    def test_every_merged_sweep_meets_the_bound_of_its_state(self, monkeypatch):
        # a real run whose bound drops now and then, at times below the owed
        # half sweep: each merged sweep acts on the state compute_dt saw last,
        # within its bound, and so does each sweep run outside a step, an owed
        # x half sweep or a piece of one, which a fresh bound follows
        seen, merged_dts, lone, inside = [], [], [], [False]
        compute_dt, sweep, step = solver.compute_dt, solver.sweep, solver.step
        factors = iter([1.0, 0.7, 1.0, 0.4] * 20)

        def scaled_dt(f, u, *a, **k):
            seen.append((u.copy(), next(factors) * compute_dt(f, u, *a, **k)))
            return seen[-1][1]

        def checked_step(f, u, *a, owed=0.0, **k):
            if owed:
                assert np.array_equal(u, seen[-1][0])
                merged_dts.append((owed + k["dt"] / 2, seen[-1][1]))
            inside[0] = True
            try:
                return step(f, u, *a, owed=owed, **k)
            finally:
                inside[0] = False

        def counted_sweep(f, u, axis, dt, *a, **k):
            if not inside[0]:
                assert np.array_equal(u, seen[-1][0])
                lone.append((axis, dt, seen[-1][1]))
            return sweep(f, u, axis, dt, *a, **k)

        monkeypatch.setattr(solver, "compute_dt", scaled_dt)
        monkeypatch.setattr(solver, "step", checked_step)
        monkeypatch.setattr(solver, "sweep", counted_sweep)
        res = run(default_config("smooth_advection", max_level=4, min_level=4, t_end=0.4), write_outputs=False)
        assert merged_dts and all(dt <= bound for dt, bound in merged_dts)
        assert any(dt == bound for dt, bound in merged_dts)
        assert lone and all(axis == 0 and dt <= bound for axis, dt, bound in lone)
        assert any(dt == bound for _, dt, bound in lone)  # an owed half sweep above its bound, in pieces
        assert len(seen) == res.steps + len(lone)
