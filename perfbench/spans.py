"""Host-time spans around the public functions of each layer.

The program has no host-side instrumentation of its own, so the
benchmark wraps, from outside, the functions at each layer boundary the
ROADMAP names.  A wrapper records a span — name, start, end and the
index of the enclosing span — in memory; :meth:`Tracer.write` dumps them
when the benchmark ends.  A span's *self time* is its duration minus
the durations of its direct children.

Wrapping replaces every binding of the original function in the loaded
``repro`` modules (``from x import f`` copies the binding, so patching
the defining module alone would miss those callers), and every class
attribute of that name on the owning class and its subclasses.  Spans
never touch arguments or results, so traced runs produce the same
result bytes as untraced ones (``tests/test_perfbench.py`` checks it).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: (span name, owner, attribute).  ``owner`` is a module, or
#: ``module:Class`` for a method (wrapped on the class and on every
#: subclass that defines its own).
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("pipeline.load_config_dir", "repro.pipeline.loader", "load_config_dir"),
    ("pipeline.run_experiment", "repro.pipeline.runner", "run_experiment"),
    ("pipeline.render_experiment_html", "repro.pipeline.report",
     "render_experiment_html"),
    ("sweep.executor.run", "repro.sweep.executor:SweepExecutor", "run"),
    ("sweep.cache.load", "repro.sweep.cache:ResultCache", "load"),
    ("sweep.cache.store", "repro.sweep.cache:ResultCache", "store"),
    ("core.run_broadcast", "repro.core.runner", "run_broadcast"),
    ("core.algorithms.build_schedule",
     "repro.core.algorithms.base:BroadcastAlgorithm", "build_schedule"),
    ("core.ideal.ideal_row_sources", "repro.core.ideal", "ideal_row_sources"),
    ("core.schedule.lowered", "repro.core.schedule:Schedule", "lowered"),
    ("core.schedule.validate", "repro.core.schedule:Schedule", "validate"),
    ("fastpath.lower_schedule", "repro.fastpath.lowering", "lower_schedule"),
    ("fastpath.bind_plan", "repro.fastpath.evaluator", "bind_plan"),
    ("fastpath.evaluate_plan", "repro.fastpath.evaluator", "evaluate_plan"),
    ("machines.Machine.run", "repro.machines.machine:Machine", "run"),
)

#: Modules imported before wrapping, so every subclass and every
#: ``from x import f`` binding exists when the wrappers go in.
_PRELOAD = (
    "repro.core.algorithms",
    "repro.machines",
    "repro.fastpath.plancache",
    "repro.pipeline.cli",
    "repro.bench.cli",
    "repro.sweep.distributed",
)


def preload() -> None:
    for module in _PRELOAD:
        importlib.import_module(module)


def rebind(original: Any, replacement: Any) -> List[Callable[[], None]]:
    """Replace every binding of ``original`` in the loaded ``repro``
    modules with ``replacement``; returns the undo callables."""
    undo: List[Callable[[], None]] = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    undo.append(functools.partial(setattr, mod, key, original))
    return undo


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder; ``install()`` wraps every layer."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` in start order.
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        preload()
        for name, owner, attr in LAYERS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                for klass in _subclasses(getattr(module, class_name)):
                    if attr in vars(klass):
                        self._set(klass, attr, name)
                continue
            original = getattr(module, attr)
            self._undo.extend(rebind(original, self.wrap(name, original)))
        return self

    def _set(self, klass: type, attr: str, name: str) -> None:
        original = vars(klass)[attr]
        setattr(klass, attr, self.wrap(name, original))
        self._undo.append(functools.partial(setattr, klass, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path, provenance: Dict[str, Any]) -> None:
        """Dump the spans (``[name, start, end, parent]``) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance, "spans": self.spans}, fh)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, pass_start: float, pass_wall_s: float) -> Dict[str, float]:
        """Counts and host times per layer, from the recorded spans.

        ``<layer>.s`` is inclusive time, counting a span only when no
        enclosing span has the same name; ``<layer>.self_s`` is self
        time.  ``trace.named_self_frac`` is the share of the pass's wall
        time that the layers' self times account for.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Dict[str, int] = {name: 0 for name, _, _ in LAYERS}
        incl: Dict[str, float] = {name: 0.0 for name, _, _ in LAYERS}
        self_s: Dict[str, float] = {name: 0.0 for name, _, _ in LAYERS}
        broadcast_ms: List[float] = []
        direct = 0
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            calls[name] += 1
            own = end - start - child_s[i]
            self_s[name] += own
            if start >= pass_start:
                covered += own
            if name not in ancestors:
                incl[name] += end - start
            if name == "core.run_broadcast":
                broadcast_ms.append((end - start) * 1e3)
                if "sweep.executor.run" not in ancestors:
                    direct += 1
        return {
            "pipeline.load_config_dir.s": incl["pipeline.load_config_dir"],
            "pipeline.run_experiment.self_s": self_s["pipeline.run_experiment"],
            "pipeline.render_experiment_html.s":
                incl["pipeline.render_experiment_html"],
            "sweep.executor.run.calls": calls["sweep.executor.run"],
            "sweep.executor.run.self_s": self_s["sweep.executor.run"],
            "sweep.cache.load.calls": calls["sweep.cache.load"],
            "sweep.cache.load.s": incl["sweep.cache.load"],
            "sweep.cache.store.calls": calls["sweep.cache.store"],
            "sweep.cache.store.s": incl["sweep.cache.store"],
            "core.run_broadcast.calls": calls["core.run_broadcast"],
            "core.run_broadcast.p50_ms": _quantile(broadcast_ms, 0.50),
            "core.run_broadcast.p99_ms": _quantile(broadcast_ms, 0.99),
            "core.run_broadcast.direct_calls": direct,
            "core.algorithms.build_schedule.calls":
                calls["core.algorithms.build_schedule"],
            "core.algorithms.build_schedule.self_s":
                self_s["core.algorithms.build_schedule"],
            "core.ideal.ideal_row_sources.calls":
                calls["core.ideal.ideal_row_sources"],
            "core.ideal.ideal_row_sources.s": incl["core.ideal.ideal_row_sources"],
            "core.schedule.lowered.s": incl["core.schedule.lowered"],
            "core.schedule.validate.s": incl["core.schedule.validate"],
            "fastpath.lower_schedule.calls": calls["fastpath.lower_schedule"],
            "fastpath.lower_schedule.self_s": self_s["fastpath.lower_schedule"],
            "fastpath.bind_plan.calls": calls["fastpath.bind_plan"],
            "fastpath.bind_plan.s": incl["fastpath.bind_plan"],
            "fastpath.evaluate_plan.calls": calls["fastpath.evaluate_plan"],
            "fastpath.evaluate_plan.s": incl["fastpath.evaluate_plan"],
            "machines.Machine.run.calls": calls["machines.Machine.run"],
            "machines.Machine.run.s": incl["machines.Machine.run"],
            "trace.named_self_frac": covered / pass_wall_s if pass_wall_s else 0.0,
        }


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]
