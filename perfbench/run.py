#!/usr/bin/env python3
"""The repository benchmark: host time of the paper reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-quick-cold --seed 1 --seconds 15 --trace 0

Workloads (``perfbench/workloads.py``):

* ``report-quick-cold`` — ``report all --quick``, serial, empty result
  and plan caches;
* ``report-quick-warm`` — the same with the result cache filled
  before timing;
* ``msglen-sweep`` — a seeded message-length grid through
  ``SweepExecutor``, no result cache;
* ``report-quick-cold-j2`` — the cold report at jobs=2 (process pool).

Each pass runs in a fresh interpreter (``worker.py``).  Untraced runs
(``--trace 0``) repeat passes until ``--seconds`` of pass time is spent
(at least one pass) and report the end-to-end metrics, with times
scaled to the reference host speed (``worker.HostSpeed``); ``--trace 1``
runs one untraced and one traced pass and reports per-layer host time.
Every output is compared with an event-engine reference computed once
per source tree under ``.bench_build/perfbench/`` (the first run pays
for it).  Every run also prints the result of the defect probe, which
runs the algorithm the timed sweep leaves out for a known fast-path
defect (``workloads.DEFECT_ALGORITHMS``).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports nothing from repro)

#: (name, unit) of every end-to-end metric, reported by ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("sends_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: (name, unit) of every per-layer metric, reported by ``--trace 1``.
PER_LAYER = (
    ("experiment_s.p50", "s"),
    ("pipeline.load_config_dir.s", "s"),
    ("pipeline.run_experiment.self_s", "s"),
    ("pipeline.render_experiment_html.s", "s"),
    ("sweep.executor.run.calls", "count"),
    ("sweep.executor.run.self_s", "s"),
    ("sweep.executor.busy_frac", "ratio"),
    ("sweep.cache.load.calls", "count"),
    ("sweep.cache.load.s", "s"),
    ("sweep.cache.hit_frac", "ratio"),
    ("sweep.cache.store.calls", "count"),
    ("sweep.cache.store.s", "s"),
    ("sweep.cache.quarantined", "count"),
    ("core.run_broadcast.calls", "count"),
    ("core.run_broadcast.p50_ms", "ms"),
    ("core.run_broadcast.p99_ms", "ms"),
    ("core.run_broadcast.direct_calls", "count"),
    ("core.algorithms.build_schedule.calls", "count"),
    ("core.algorithms.build_schedule.self_s", "s"),
    ("core.ideal.ideal_row_sources.calls", "count"),
    ("core.ideal.ideal_row_sources.s", "s"),
    ("core.schedule.lowered.s", "s"),
    ("core.schedule.validate.s", "s"),
    ("fastpath.plancache.hit_frac", "ratio"),
    ("fastpath.plancache.misses", "count"),
    ("fastpath.plancache.bypasses", "count"),
    ("fastpath.plancache.size_rebinds", "count"),
    ("fastpath.lower_schedule.calls", "count"),
    ("fastpath.lower_schedule.self_s", "s"),
    ("fastpath.bind_plan.calls", "count"),
    ("fastpath.bind_plan.s", "s"),
    ("fastpath.evaluate_plan.calls", "count"),
    ("fastpath.evaluate_plan.s", "s"),
    ("machines.Machine.run.calls", "count"),
    ("machines.Machine.run.s", "s"),
    ("trace.named_self_frac", "ratio"),
    ("host.speed", "ratio"),
    ("trace.overhead_s", "s"),
    ("failed_frac", "ratio"),
    ("defect.auto_predict.mismatches", "count"),
)
#: Set-up samples per run (passes plus set-up-only probes).
SETUP_SAMPLES = 5
#: Per-child time limit (seconds); a run must end within 180 s.
CHILD_TIMEOUT_S = 170
#: Reference preparation time limit (the first run may take 900 s).
PREP_TIMEOUT_S = 800


class BenchError(RuntimeError):
    """A step of the benchmark failed; the run prints no result."""


def _child_env(jobs: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Pin what would otherwise let the environment change a workload.
    env["REPRO_SWEEP_JOBS"] = str(jobs)
    env["REPRO_FASTPATH_JIT"] = "python"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(command: str, **options: Any) -> List[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), command]
    for key, value in options.items():
        if value is True:
            cmd.append(f"--{key.replace('_', '-')}")
        elif value is not None and value is not False:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    return cmd


def _finish(proc: subprocess.Popen, cmd: List[str], timeout: float) -> Dict[str, Any]:
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(
            f"exit {proc.returncode}: {' '.join(cmd)}\n{err.strip()[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _start(cmd: List[str], jobs: int) -> subprocess.Popen:
    return subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(jobs), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _run_worker(command: str, jobs: int = 1, timeout: float = CHILD_TIMEOUT_S,
                **options: Any) -> Dict[str, Any]:
    cmd = _worker_cmd(command, **options)
    return _finish(_start(cmd, jobs), cmd, timeout)


# -- reference state ------------------------------------------------------------


def _fingerprint() -> str:
    """Hash of everything the references depend on."""
    digest = hashlib.sha256()
    files = sorted(
        list((ROOT / "src").rglob("*.py"))
        + list((ROOT / "configs").glob("*.toml"))
        + [HERE / "workloads.py", HERE / "worker.py", HERE / "spans.py"]
    )
    if not any(p.is_relative_to(ROOT / "src") for p in files):
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _state_root() -> pathlib.Path:
    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = ROOT / build
    return build / "perfbench"


def ensure_state() -> pathlib.Path:
    """References and the warm-cache template for this source tree.

    Built on the first run in a checkout: the event-engine reference of
    the report (one process) alongside the reference of every possible
    ``msglen-sweep`` and defect-probe point (another), then one cold
    fast-path report pass that fills the template result cache
    ``report-quick-warm`` copies before each pass, then the defect probe.
    """
    root = _state_root()
    fingerprint = _fingerprint()
    state = root / fingerprint
    if (state / "ready").exists():
        return state
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.iterdir():
        if stale.name != fingerprint and stale.name != "tmp":
            shutil.rmtree(stale, ignore_errors=True)
    building = pathlib.Path(tempfile.mkdtemp(prefix="state-", dir=root))
    try:
        print(f"preparing references in {state} (first run only)", flush=True)
        started = time.perf_counter()
        msglen_cmd = _worker_cmd("prep-msglen")
        msglen = _start(msglen_cmd, 1)
        try:
            report = _run_worker(
                "prep-report", timeout=PREP_TIMEOUT_S,
                out_dir=building / "html-ref",
            )
            template = _run_worker(
                "pass", timeout=PREP_TIMEOUT_S, workload="report-quick-cold",
                cache_dir=building / "warm-cache", out_dir=building / "html-warm",
            )
            probe = _run_worker("probe-defect", timeout=PREP_TIMEOUT_S)
        except BaseException:
            msglen.kill()
            msglen.communicate()
            raise
        msglen_ref = _finish(msglen, msglen_cmd, PREP_TIMEOUT_S)
        bad = _report_failures(template, report)
        if bad:
            raise BenchError(f"template pass differs from reference: {bad}")
        (building / "report_ref.json").write_text(json.dumps(report))
        (building / "msglen_ref.json").write_text(json.dumps(msglen_ref))
        (building / "defect_probe.json").write_text(json.dumps({
            "attempted": len(probe["digests"]),
            "mismatched": _msglen_failures(probe, msglen_ref),
        }))
        shutil.rmtree(building / "html-ref")
        shutil.rmtree(building / "html-warm")
        (building / "ready").write_text(f"{time.perf_counter() - started:.1f} s\n")
        os.replace(building, state)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return state


# -- checking ---------------------------------------------------------------------


def _report_failures(run: Dict[str, Any], ref: Dict[str, Any]) -> Dict[str, str]:
    """Experiments that raised, differ from the reference or fail a shape check."""
    bad = dict(run["errors"])
    for exp_id in run["operations"]:
        if exp_id in bad:
            continue
        digest = run["digests"].get(exp_id)
        if digest != ref["digests"].get(exp_id):
            bad[exp_id] = "differs from the event-engine reference"
        elif not run["shape_ok"][exp_id]:
            bad[exp_id] = "shape check failed"
    return bad


def _msglen_failures(run: Dict[str, Any], ref: Dict[str, Any]) -> Dict[str, int]:
    """Failed points per (machine, algorithm) group."""
    bad: Dict[str, int] = {}
    for group, key, digest in run["digests"]:
        if digest != ref["digests"].get(key):
            bad[group] = bad.get(group, 0) + 1
    return bad


def check(workload, run: Dict[str, Any], state: pathlib.Path):
    """(attempted, failed, failure summary) of one pass."""
    if workload.kind == "report":
        ref = json.loads((state / "report_ref.json").read_text())
        bad = _report_failures(run, ref)
        return len(run["operations"]), len(bad), bad
    ref = json.loads((state / "msglen_ref.json").read_text())
    bad = _msglen_failures(run, ref)
    return len(run["digests"]), sum(bad.values()), bad


# -- passes -------------------------------------------------------------------------


def run_pass(workload, seed: int, state: pathlib.Path, scratch: pathlib.Path,
             trace_out: Optional[pathlib.Path] = None,
             setup_only: bool = False) -> Dict[str, Any]:
    """One pass in a fresh interpreter, with a fresh result cache."""
    work = pathlib.Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        cache_dir = None
        if workload.kind == "report":
            cache_dir = work / "cache"
            if workload.warm and not setup_only:
                shutil.copytree(state / "warm-cache", cache_dir)
        return _run_worker(
            "pass", jobs=workload.jobs, workload=workload.name, seed=seed,
            cache_dir=cache_dir, out_dir=work / "html", trace_out=trace_out,
            setup_only=setup_only,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(passes: List[Dict[str, Any]], setups: List[Dict[str, Any]],
               wall: str = "wall_ref_s", setup: str = "setup_ref_s") -> Dict[str, float]:
    """End-to-end metrics, from reference-speed times by default."""
    walls = [p[wall] for p in passes]
    total = sum(walls)
    return {
        "wall_s": statistics.median(walls),
        "points_per_s": sum(p["points"] for p in passes) / total,
        "sends_per_s": sum(p["transfers"] for p in passes) / total,
        "setup_s": statistics.median([r[setup] for r in setups]),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
    }


def _provenance(workload, seed: int, state: pathlib.Path, run: Dict[str, Any]):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        **run["provenance"],
        "commit": commit,
        "source_fingerprint": state.name,
        "workload": workload.name,
        "seed": seed,
        "jobs": workload.jobs,
    }


def _print_table(title: str, rows) -> None:
    print(title)
    for name, unit, value in rows:
        print(f"  {name:42s} {value:>14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        state = ensure_state()
        scratch = _state_root() / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        passes: List[Dict[str, Any]] = []
        if args.trace:
            passes.append(run_pass(workload, args.seed, state, scratch))
            trace_path = _state_root() / f"spans-{workload.name}-{args.seed}.json"
            traced = run_pass(workload, args.seed, state, scratch,
                              trace_out=trace_path)
            if traced["digests"] != passes[0]["digests"]:
                raise BenchError("tracing changed result digests")
            passes.append(traced)
        else:
            measured = 0.0
            while not passes or measured + statistics.median(
                [p["wall_s"] for p in passes]
            ) <= args.seconds:
                passes.append(run_pass(workload, args.seed, state, scratch))
                measured += passes[-1]["wall_s"]
            setups = list(passes)
            while len(setups) < SETUP_SAMPLES:
                setups.append(run_pass(workload, args.seed, state, scratch,
                                       setup_only=True))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    failures: Dict[str, Any] = {}
    for run in passes:
        n, bad_count, bad = check(workload, run, state)
        attempted += n
        failed += bad_count
        failures.update(bad)

    print(f"workload {workload.name}: {workload.why}")
    print("provenance: " + json.dumps(_provenance(workload, args.seed, state, passes[0])))
    print(f"passes: {len(passes)}; pass wall times (s): "
          + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; host speed vs reference: "
          + ", ".join(f"{p['wall_ref_s'] / p['wall_s']:.3f}" for p in passes))
    print(f"event-engine check: {attempted - failed}/{attempted} operations match, "
          f"failed_frac {failed / attempted:.6g} ratio")
    for name, detail in sorted(failures.items()):
        print(f"  FAILED {name}: {detail}")
    probe = json.loads((state / "defect_probe.json").read_text())
    mismatches = sum(probe["mismatched"].values())
    print(f"defect probe (not timed, not in the counts above): {mismatches}/"
          f"{probe['attempted']} fast-path points of "
          f"{', '.join(workloads.DEFECT_ALGORITHMS)} differ from the event "
          f"engine; ROADMAP \"Correctness bug found: Auto_Predict gives wrong "
          f"results on the fast path\"")
    for name, count in sorted(probe["mismatched"].items()):
        print(f"  DIFFERS {name}: {count} point(s)")

    if args.trace:
        layers = dict(passes[1]["layers"])
        layers["experiment_s.p50"] = statistics.median(passes[0]["experiment_s"])
        layers["host.speed"] = passes[1]["wall_ref_s"] / passes[1]["wall_s"]
        layers["trace.overhead_s"] = passes[1]["wall_ref_s"] - passes[0]["wall_ref_s"]
        layers["failed_frac"] = failed / attempted
        layers["defect.auto_predict.mismatches"] = mismatches
        print(f"spans written to {trace_path}")
        metrics = {name: (unit, layers[name]) for name, unit in PER_LAYER}
        _print_table("per-layer metrics (traced pass):",
                     [(n, u, v) for n, (u, v) in metrics.items()])
    else:
        values = end_to_end(passes, setups)
        raw = end_to_end(passes, setups, wall="wall_s", setup="setup_s")
        metrics = {name: (unit, values[name]) for name, unit in END_TO_END}
        _print_table("end-to-end metrics (untraced, at reference host speed):",
                     [(n, u, v) for n, (u, v) in metrics.items()]
                     + [("failed_frac", "ratio", failed / attempted)])
        _print_table("as measured on this host (not calibrated):",
                     [(n, u, raw[n]) for n, u in END_TO_END])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (unit, value) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
