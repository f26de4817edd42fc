"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def test_metric_names_and_units():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit) and len(unit) <= 16, (name, unit)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_msglen_grid_depends_only_on_the_seed():
    def keys(seed):
        return [p.key() for _, points in workloads.msglen_grid(seed) for p in points]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)
    # Every seed's grid is an ordering of the points the reference covers.
    assert sorted(keys(3)) == sorted(keys(None))


def test_msglen_grid_covers_every_supported_algorithm():
    from repro.core.algorithms import get_algorithm, list_algorithms
    from repro.machines import machine_from_spec

    timed = {name for name, _ in workloads.msglen_grid(0)}
    probed = {name for grid in workloads.defect_probe_grids() for name, _ in grid}
    for spec, _ in workloads.MSGLEN_MACHINES:
        machine = machine_from_spec(spec)
        for algorithm in list_algorithms():
            if get_algorithm(algorithm).supports(machine):
                group = f"{spec}/{algorithm}"
                if algorithm in workloads.DEFECT_ALGORITHMS:
                    assert group in probed and group not in timed
                else:
                    assert group in timed and group not in probed


def test_reference_covers_the_defect_probe():
    def keys(grid):
        return {p.key() for _, points in grid for p in points}

    reference = keys(workloads.msglen_grid(defect=None))
    assert reference == keys(workloads.msglen_grid()) | keys(
        workloads.msglen_grid(defect=True))
    for grid in workloads.defect_probe_grids():
        assert keys(grid) == keys(workloads.msglen_grid(defect=True))


def _msglen_digests(groups):
    from repro.fastpath import plancache

    plancache.clear()
    executor = workloads.make_executor(1, None)
    return workloads.run_msglen(groups, executor)["digests"]


def _report_digests(config_ids, tmp_path):
    from repro.fastpath import plancache

    plancache.clear()
    configs, executor = workloads.setup_report(1, None)
    chosen = [c for c in configs if c.id in config_ids]
    return workloads.run_report(chosen, executor, tmp_path)["digests"]


def test_tracing_changes_no_result_bytes(tmp_path):
    groups = [g for g in workloads.msglen_grid(5, defect=None) if g[0].endswith(
        ("/Auto_Predict", "/Br_Lin", "/MPI_AllGather"))]
    ids = {"fig7", "ablation-mapping"}
    plain = _msglen_digests(groups), _report_digests(ids, tmp_path / "a")
    tracer = spans.Tracer().install()
    try:
        traced = _msglen_digests(groups), _report_digests(ids, tmp_path / "b")
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"core.run_broadcast", "fastpath.evaluate_plan",
            "pipeline.run_experiment", "sweep.executor.run"} <= names
    metrics = tracer.layer_metrics(tracer.spans[0][1], 1.0)
    assert metrics["core.run_broadcast.calls"] > 0


def test_uninstall_restores_every_binding():
    import repro.core.runner as runner
    import repro.sweep.executor as executor

    before = runner.run_broadcast, executor.run_broadcast, executor.SweepExecutor.run
    tracer = spans.Tracer().install()
    assert executor.run_broadcast is not before[1]
    tracer.uninstall()
    after = runner.run_broadcast, executor.run_broadcast, executor.SweepExecutor.run
    assert after == before


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        ["sweep.executor.run", 0.0, 10.0, -1],
        ["core.run_broadcast", 1.0, 5.0, 0],
        ["fastpath.evaluate_plan", 2.0, 4.0, 1],
        ["core.run_broadcast", 11.0, 12.0, -1],
    ]
    metrics = tracer.layer_metrics(0.0, 12.0)
    assert metrics["sweep.executor.run.self_s"] == 6.0
    assert metrics["fastpath.evaluate_plan.s"] == 2.0
    assert metrics["core.run_broadcast.calls"] == 2
    assert metrics["core.run_broadcast.direct_calls"] == 1
    assert metrics["trace.named_self_frac"] == pytest.approx(11.0 / 12.0)


def test_run_fails_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "msglen-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
