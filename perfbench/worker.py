#!/usr/bin/env python3
"""One benchmark step in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, so every pass pays what a
user's ``python -m repro report`` pays: a fresh import, empty
in-process caches.  Commands:

``pass``
    set up (import ``repro``, load the configs or generate the grid,
    build the executor, open the cache) and run one workload pass.
    ``--setup-only`` stops after set-up; ``--trace-out`` wraps every
    layer (:mod:`spans`) and writes the spans there.
``prep-report``
    the event-engine reference of the report workloads: per-experiment
    digests with ``engine="event"`` forced everywhere and no caches.
``prep-msglen``
    the same for every ``msglen-sweep`` point (grids differ only in
    the order of their points) and every defect-probe point.
``probe-defect``
    the defect probe: each of :func:`workloads.defect_probe_grids` on
    the fast path, from an empty plan cache, as a timed sweep would run
    it.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import pathlib
import platform
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports nothing from repro)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Iterations of the calibration loop (about 20 ms on the reference host).
CALIBRATION_STEPS = 15000
#: Seconds the calibration loop takes on the reference host: the 2-core
#: host the benchmark was defined on, with CPython 3.11.
CALIBRATION_REF_S = 0.020


def _calibration_loop(steps: int) -> float:
    """Fixed pure-Python work in the simulator's style: heap, dict, floats."""
    heap: list = []
    table: dict = {}
    x, clock = 12345, 0.0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        clock += (x % 97) * 0.25
        heapq.heappush(heap, (clock, x % 1000, i))
        table[x % 4096] = table.get(x % 4096, 0.0) + clock
        if len(heap) > 512:
            heapq.heappop(heap)
    return clock


class HostSpeed:
    """Calibration probes between the operations of a pass.

    A shared host's speed drifts and jumps (±25% within a minute on the
    reference host), which swamps a 10% change in the program.  Each
    :meth:`tick` times the fixed calibration loop, which does not touch
    :mod:`repro`, so no change to the program can move it.  The time
    between two ticks, probes excluded, is scaled by the reference
    loop time over the mean of the two probes: what it would have taken
    on the reference host.
    """

    def __init__(self) -> None:
        #: ``(start, end)`` of every probe, in order.
        self.ticks: list = []

    def tick(self) -> None:
        gc.disable()  # the heap a pass leaves behind must not slow the probe
        try:
            start = time.perf_counter()
            _calibration_loop(CALIBRATION_STEPS)
            self.ticks.append((start, time.perf_counter()))
        finally:
            gc.enable()

    def between(self, first: int, last: int):
        """(host seconds, reference seconds) from tick ``first`` to ``last``."""
        host = ref = 0.0
        for (s0, e0), (s1, e1) in zip(self.ticks[first:last],
                                      self.ticks[first + 1:last + 1]):
            gap = s1 - e0
            host += gap
            ref += gap * CALIBRATION_REF_S / ((e0 - s0 + e1 - s1) / 2)
        return host, ref


def _provenance() -> dict:
    import numpy

    from repro.fastpath import kernel_mode

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": kernel_mode(),
        "nproc": os.cpu_count(),
    }


def cmd_pass(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    speed = HostSpeed()
    speed.tick()
    import repro  # noqa: F401  (set-up includes the import)

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer().install()
    if workload.kind == "report":
        configs, executor = workloads.setup_report(workload.jobs, args.cache_dir)
    else:
        groups = workloads.msglen_grid(args.seed)
        executor = workloads.make_executor(workload.jobs, None)
    speed.tick()
    setup_s, setup_ref_s = speed.between(0, 1)
    if args.setup_only:
        return {"setup_s": setup_s, "setup_ref_s": setup_ref_s}

    from repro.fastpath import plancache

    plancache.clear()
    start = time.perf_counter()
    if workload.kind == "report":
        out = workloads.run_report(
            configs, executor, pathlib.Path(args.out_dir), speed.tick
        )
    else:
        out = workloads.run_msglen(groups, executor, speed.tick)
    speed.tick()
    wall_s, wall_ref_s = speed.between(1, len(speed.ticks) - 1)

    session = executor.session
    out.update(
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        wall_s=wall_s,
        wall_ref_s=wall_ref_s,
        points=session.total,
        transfers=executor.transfers,
        rss_mb=_rss_mb(),
        provenance=_provenance(),
    )
    if tracer is not None:
        plan = plancache.plan_cache().stats()
        lookups = plan["hits"] + plan["misses"] + plan["bypasses"]
        cache_lookups = session.cached + session.computed
        layers = tracer.layer_metrics(start, wall_s)
        layers.update({
            "sweep.executor.busy_frac": (
                session.busy_s / (session.wall_s * session.jobs)
                if session.wall_s else 0.0
            ),
            "sweep.cache.hit_frac": (
                session.cached / cache_lookups
                if executor.cache is not None and cache_lookups else 0.0
            ),
            "sweep.cache.quarantined": session.reliability.quarantines,
            "fastpath.plancache.hit_frac":
                plan["hits"] / lookups if lookups else 0.0,
            "fastpath.plancache.misses": plan["misses"],
            "fastpath.plancache.bypasses": plan["bypasses"],
            "fastpath.plancache.size_rebinds": plan["size_rebinds"],
        })
        out["layers"] = layers
        tracer.write(args.trace_out, out["provenance"])
    return out


def _force_event_engine() -> None:
    """Route every ``run_broadcast`` call to the event engine.

    The executor's ``engine="event"`` covers sweep points; this also
    covers the points the pipeline runs directly (ad-hoc machines,
    heatmap reruns), so no fast-path code contributes to the reference.
    """
    import functools

    import repro.core.runner as runner

    original = runner.run_broadcast

    @functools.wraps(original)
    def event_only(*args, **kwargs):
        kwargs["engine"] = "event"
        return original(*args, **kwargs)

    import spans

    spans.preload()
    spans.rebind(original, event_only)


def _check_no_plan_reuse() -> None:
    from repro.fastpath import plancache

    stats = plancache.stats()
    if any(stats[k] for k in ("hits", "misses", "bypasses", "size_rebinds")):
        raise SystemExit(f"reference touched the fast path: {stats}")


def cmd_prep_report(args) -> dict:
    _force_event_engine()
    configs, _ = workloads.setup_report(1, None)
    executor = workloads.make_executor(1, None, engine="event")
    out = workloads.run_report(configs, executor, pathlib.Path(args.out_dir))
    _check_no_plan_reuse()
    if out["errors"]:
        raise SystemExit(f"reference run failed: {out['errors']}")
    return {"digests": out["digests"], "shape_ok": out["shape_ok"]}


def cmd_prep_msglen(args) -> dict:
    _force_event_engine()
    executor = workloads.make_executor(1, None, engine="event")
    out = workloads.run_msglen(workloads.msglen_grid(defect=None), executor)
    _check_no_plan_reuse()
    if out["errors"]:
        raise SystemExit(f"reference run failed: {out['errors']}")
    return {"digests": {key: digest for _, key, digest in out["digests"]}}


def cmd_probe_defect(args) -> dict:
    from repro.fastpath import plancache

    digests = []
    for groups in workloads.defect_probe_grids():
        plancache.clear()
        out = workloads.run_msglen(groups, workloads.make_executor(1, None))
        digests.extend(out["digests"])
    return {"digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("pass", "prep-report", "prep-msglen",
                                            "probe-defect"))
    parser.add_argument("--workload", default="report-quick-cold")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    command = {
        "pass": cmd_pass,
        "prep-report": cmd_prep_report,
        "prep-msglen": cmd_prep_msglen,
        "probe-defect": cmd_probe_defect,
    }[args.command]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
