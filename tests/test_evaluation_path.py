"""One evaluation path: every simulated number of a report is a sweep point.

A warm report reads its result cache and simulates nothing — ablation
machines with parameter overrides, robustness fault runs and the link
heatmaps of the report pages included — and rendering a page only
formats what the runner measured.
"""

from __future__ import annotations

import collections
import sys

import pytest

import repro.fastpath.plancache as plancache
from repro.bench.robustness import _ALGORITHMS, _DEGRADE, _LINK_FAIL, _NODE_FAIL
from repro.bench.types import FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.distributions import DISTRIBUTIONS
from repro.machines import Machine, paragon
from repro.obs import link_usage, render_link_heatmap
from repro.pipeline.loader import load_config_dir
from repro.pipeline.report import render_experiment_html
from repro.pipeline.runner import representative_point
from repro.simulator.trace import Tracer
from repro.sweep import ResultCache, SweepExecutor, SweepPoint


@pytest.fixture
def simulations(monkeypatch):
    """Counts calls of every simulation entry point, by name.

    ``run_broadcast`` and the fast path's ``evaluate_problem`` are
    replaced at every binding in the loaded ``repro`` modules (``from x
    import f`` copies the binding); ``Machine.run`` on the class.
    """
    calls = collections.Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name, fn in (
        ("run_broadcast", run_broadcast),
        ("evaluate_problem", plancache.evaluate_problem),
    ):
        wrapper = spy(name, fn)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapper)
    monkeypatch.setattr(Machine, "run", spy("Machine.run", Machine.run))
    return calls


def _pages(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.html"))}


class TestWarmReport:
    def test_warm_quick_report_simulates_nothing(self, tmp_path, simulations, capsys):
        from repro.pipeline.cli import main

        cache = str(tmp_path / "cache")
        cold = tmp_path / "cold"
        warm = tmp_path / "warm"
        # The cold pass fills the cache through a worker pool, so the
        # override machines also cross a process boundary.
        assert main(
            ["all", "--quick", "--jobs", "2", "--cache-dir", cache, "--out", str(cold)]
        ) == 0
        assert simulations["run_broadcast"] > 0
        simulations.clear()
        assert main(["all", "--quick", "--cache-dir", cache, "--out", str(warm)]) == 0
        capsys.readouterr()
        assert simulations == {}
        cold_pages = _pages(cold)
        assert len(cold_pages) == 26
        assert _pages(warm) == cold_pages


class TestRenderIsPure:
    def test_render_never_simulates(self, simulations):
        config = load_config_dir()["fig3"]
        result = FigureResult(
            "Figure 3", "demo",
            series=[Series("t", "s", [1, 2], {"Br_Lin": [1.0, 2.0]})],
            link_heatmap="HEATMAP ART",
        )
        page = render_experiment_html(config, result, quick=True)
        assert simulations == {}
        assert "Link utilization (representative point)" in page
        assert "HEATMAP ART" in page
        result.link_heatmap = None
        page = render_experiment_html(config, result, quick=True)
        assert simulations == {}
        assert "Link utilization" not in page

    def test_observation_heatmap_matches_a_direct_trace(self):
        point = representative_point(load_config_dir()["fig3"])
        machine = paragon(10, 10)
        sources = DISTRIBUTIONS[point["dist"]].generate(machine, point["s"])
        problem = BroadcastProblem(machine, sources, message_size=point["L"])
        tracer = Tracer(kinds=("xfer",))
        run_broadcast(problem, point["algorithm"], seed=0, tracer=tracer)
        direct = render_link_heatmap(
            link_usage(tracer.records, topology=machine.topology),
            topology=machine.topology,
            k=10,
        )
        sweep_point = SweepPoint.from_problem(problem, point["algorithm"])
        assert SweepExecutor().observation(sweep_point)["heatmap"] == direct


class TestObservationEntryPoint:
    POINT = SweepPoint(
        machine="paragon:4x4", sources=(0, 5, 10), message_size=512,
        algorithm="Br_Lin",
    )

    def test_traces_once_then_serves_the_sibling(self, tmp_path, simulations):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        first = executor.observation(self.POINT)
        assert simulations["Machine.run"] == 1
        assert cache.obs_path_for(self.POINT.key()).exists()
        assert not cache.path_for(self.POINT.key()).exists()
        again = SweepExecutor(cache=ResultCache(tmp_path)).observation(self.POINT)
        assert simulations["Machine.run"] == 1
        assert again == first
        assert first["heatmap"].startswith("link utilization")

    def test_sibling_without_heatmap_is_retraced(self, tmp_path, simulations):
        cache = ResultCache(tmp_path)
        cache.store_observation(self.POINT, {"summary": {}})
        observation = SweepExecutor(cache=cache).observation(self.POINT)
        assert simulations["Machine.run"] == 1
        assert "heatmap" in observation
        assert cache.load_observation(self.POINT) == observation

    def test_without_a_cache_every_call_traces(self, simulations):
        executor = SweepExecutor()
        assert executor.observation(self.POINT) == executor.observation(self.POINT)
        assert simulations["Machine.run"] == 2


def _robustness_runs():
    """The quick robustness grid: (problem, algorithm, faults, recover)."""
    machine = paragon(8, 8)
    sources = DISTRIBUTIONS["E"].generate(machine, 8)
    problem = BroadcastProblem(machine, sources, message_size=1024)
    conditions = (
        (None, False), (_LINK_FAIL, False), (_DEGRADE, False),
        (_NODE_FAIL, False), (_NODE_FAIL, True),
    )
    return [
        (problem, algorithm, faults, recover)
        for algorithm in _ALGORITHMS[:3]
        for faults, recover in conditions
    ]


def _fields(result):
    return (
        result.elapsed_us, result.delivery, result.recovered,
        result.recovery_time_us,
    )


class TestRobustnessThroughExecutor:
    @pytest.fixture(scope="class")
    def direct(self):
        return [
            _fields(run_broadcast(problem, algorithm, faults=faults, recover=recover))
            for problem, algorithm, faults, recover in _robustness_runs()
        ]

    @staticmethod
    def _points():
        return [
            SweepPoint.from_problem(problem, algorithm, faults=faults, recover=recover)
            for problem, algorithm, faults, recover in _robustness_runs()
        ]

    def test_serial(self, direct):
        assert [_fields(r) for r in SweepExecutor(jobs=1).run(self._points())] == direct

    def test_two_workers(self, direct):
        assert [_fields(r) for r in SweepExecutor(jobs=2).run(self._points())] == direct

    def test_warm_cache(self, direct, tmp_path, simulations):
        SweepExecutor(cache=ResultCache(tmp_path)).run(self._points())
        simulations.clear()
        warm = SweepExecutor(cache=ResultCache(tmp_path))
        results = warm.run(self._points())
        assert simulations == {}
        assert warm.last_report.cached == len(direct)
        assert [_fields(r) for r in results] == direct
        # The degraded and failed conditions really are faulty runs.
        assert any(delivery < 1.0 for _e, delivery, _r, _t in direct)
        assert any(recovered for _e, _d, recovered, _t in direct)
