"""Span tracer that measures the amrfv layers from outside the package.

Each target is one function (or ``Forest`` method) of one layer.  Entering a
:class:`Tracer` replaces the target with a timing wrapper at every place it is
looked up: the defining module, every other ``amrfv`` module that bound the
same object with ``from ... import``, and, for methods, the class.  Leaving
restores every original.  A target the package no longer has is reported as
absent and otherwise ignored, so the tracer keeps working when later code
deletes or renames a traced function.

Spans (name, start, end, parent, run id) are kept in memory and written out
by :meth:`Tracer.write`.  The self time of a span is its duration minus the
durations of its direct children, so self times over all spans add up to the
covered wall time exactly once.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "amrfv"
ItemsFn = Callable[[tuple, dict, object], int]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(a) -> int:
    """Row count of a 2D batch; 1 for a single row."""
    shape = np.shape(a)
    return int(shape[0]) if len(shape) >= 2 else 1


def _leaves(pos: int, name: str) -> ItemsFn:
    return lambda a, k, r: _arg(a, k, pos, name).nleaves


def _rows_of(pos: int, name: str) -> ItemsFn:
    return lambda a, k, r: _rows(_arg(a, k, pos, name))


def _size_of(pos: int, name: str) -> ItemsFn:
    return lambda a, k, r: int(np.size(_arg(a, k, pos, name)))


def _self_leaves(a, k, r) -> int:
    return a[0].nleaves


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.qualname`` plus how to count its items."""

    module: str  # layer name, i.e. the module under ``amrfv``
    qualname: str  # ``func`` or ``Class.method``
    items: ItemsFn

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname.rsplit('.', 1)[-1]}"


# Items are the elements one call works on: leaves for mesh-level calls,
# array rows for kernels.
TARGETS: tuple[Target, ...] = (
    Target("morton", "encode_many", _rows_of(0, "coords")),
    Target("forest", "Forest.locate", _rows_of(2, "points")),
    Target("forest", "Forest.refine", _self_leaves),
    Target("forest", "Forest.coarsen", _self_leaves),
    Target("forest", "Forest.balance", _self_leaves),
    Target("forest", "Forest.face_list", _self_leaves),
    Target("eos", "solve_alpha", _size_of(0, "rho")),
    Target("eos", "mixture_pressure", _size_of(0, "rho")),
    Target("eos", "wood_sound_speed", _size_of(0, "rho")),
    Target("eos", "to_primitive", _rows_of(0, "W")),
    Target("eos", "from_primitive", _rows_of(0, "V")),
    Target("eos", "_bisect", lambda a, k, r: 1),
    Target("riemann", "suliciu_flux", _rows_of(0, "WL")),
    Target("riemann", "physical_flux", _rows_of(0, "W")),
    Target("solver", "compute_dt", _leaves(0, "f")),
    Target("solver", "step", _leaves(0, "f")),
    Target("solver", "sweep", _leaves(0, "f")),
    Target("solver", "_minmod_sigma", _rows_of(2, "V")),
    Target("solver", "muscl_predict", _rows_of(0, "W")),
    Target("solver", "gravity_op", _rows_of(0, "u")),
    Target("criteria", "evaluate", _leaves(1, "f")),
    Target("criteria", "mark", _leaves(0, "f")),
    Target("criteria", "project_solution", _leaves(1, "new_f")),
    Target("partition", "partition", _leaves(0, "f")),
    Target("partition", "ghost_layer", _leaves(0, "f")),
    Target("vtkio", "write_vtk", _leaves(0, "f")),
    Target("harness", "init_case", lambda a, k, r: r.forest.nleaves),
    Target("harness", "adapt_mesh", _leaves(0, "f")),
)

LAYERS = ("morton", "forest", "eos", "riemann", "solver", "criteria", "partition", "vtkio", "harness")


def _muscl_fallbacks(tracer: "Tracer", a, k, r) -> None:
    tracer.counters["muscl_fallback_cells"] += int(np.count_nonzero(r[2]))


def _ghost_cells(tracer: "Tracer", a, k, r) -> None:
    tracer.counters["ghost_cells"] += len(r.indices)


def _vtk_bytes(tracer: "Tracer", a, k, r) -> None:
    tracer.counters["vtk_bytes"] += os.path.getsize(_arg(a, k, 3, "path"))


# Counters read from a call's arguments or result after it returns.
AFTER: dict[str, Callable] = {
    "solver.muscl_predict": _muscl_fallbacks,
    "partition.ghost_layer": _ghost_cells,
    "vtkio.write_vtk": _vtk_bytes,
}

# Counting must not break a run of code whose signatures moved on.
_COUNT_ERRORS = (AttributeError, IndexError, KeyError, TypeError, OSError)


class Tracer:
    """Context manager installing span wrappers on the given targets."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.names = [t.name for t in targets]
        self.absent: list[str] = []
        self.counters = {"muscl_fallback_cells": 0, "ghost_cells": 0, "vtk_bytes": 0}
        self.run_id = 0
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_run: list[int] = []
        self.span_items: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, index: int, fn: Callable, target: Target) -> Callable:
        after = AFTER.get(target.name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, runs, items = self.span_parent, self.span_run, self.span_items
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(float("nan"))
            items.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            try:
                items[i] = int(target.items(args, kwargs, result))
                if after is not None:
                    after(self, args, kwargs, result)
            except _COUNT_ERRORS:
                pass
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        self.absent = []
        try:
            for index, target in enumerate(self.targets):
                mod = sys.modules.get(f"{PACKAGE}.{target.module}")
                owner_name, _, attr = target.qualname.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(target.name)
                    continue
                wrapped = self._wrap(index, original, target)
                if owner_name:
                    self._set(owner, attr, wrapped)
                    continue
                # rebind at every lookup site, including ``from x import f``
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._set(m, key, wrapped)
        except BaseException:
            self._undo()
            raise
        return self

    def _undo(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._undo()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Finished spans as arrays, with each span's self time."""
        name = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=np.float64)
        end = np.asarray(self.span_end, dtype=np.float64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "run": np.asarray(self.span_run, dtype=np.int64),
            "items": np.asarray(self.span_items, dtype=np.int64),
            "duration": dur,
            "self": dur - child,
        }

    def per_run(self, run_id: int) -> dict[str, dict[str, float]]:
        """Calls, items and self seconds of each target within one run."""
        a = self.arrays()
        sel = a["run"] == run_id
        n = len(self.targets)
        calls = np.bincount(a["name"][sel], minlength=n)
        items = np.bincount(a["name"][sel], weights=a["items"][sel], minlength=n)
        self_s = np.bincount(a["name"][sel], weights=a["self"][sel], minlength=n)
        return {
            nm: {"calls": int(calls[i]), "items": int(items[i]), "self_s": float(self_s[i])}
            for i, nm in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Spans as CSV rows: index, name, start, end, parent index, run, items."""
        rows = zip(
            (self.names[i] for i in self.span_name),
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_run,
            self.span_items,
        )
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run,items\n")
            for i, (name, start, end, parent, run, items) in enumerate(rows):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{run},{items}\n")
