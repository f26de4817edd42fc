"""Workload definitions shared by ``run.py`` and its workers.

Nothing here imports :mod:`repro` at module level: the worker times
``import repro`` as part of set-up, so every import of the program
happens inside the functions below.

Two kinds of workload exist:

``report``
    ``python -m repro report all --quick`` done through the pipeline's
    public functions, in the order :mod:`repro.pipeline.cli` uses: load
    the 25 configs, build the executor, run every experiment, then
    render every page and the index.  One *operation* is one experiment.

``msglen``
    A message-length sweep generated from the benchmark seed and run
    through :class:`repro.sweep.SweepExecutor` with no result cache.  One
    operation is one sweep point.

The algorithm with a known fast-path defect (:data:`DEFECT_ALGORITHMS`)
is left out of the timed sweep, so every timed operation can pass, and
run instead by the defect probe (:func:`defect_probe_grids`), whose
mismatch count every run prints.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report" | "msglen"
    jobs: int = 1
    warm: bool = False
    why: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "report-quick-cold", "report",
            why="report all --quick, serial, empty result and plan caches: "
                "schedule build, lowering and path binding dominate",
        ),
        Workload(
            "report-quick-warm", "report", warm=True,
            why="the same report with the result cache filled before timing: "
                "cache reads, HTML render and the uncached residue",
        ),
        Workload(
            "msglen-sweep", "msglen",
            why="seeded message-length grid, no result cache: plan-cache hits "
                "and size rebinds, so kernel replay does most of the work",
        ),
        Workload(
            "report-quick-cold-j2", "report", jobs=2,
            why="the cold report at jobs=2: the only workload on the "
                "executor's process-pool path",
        ),
    )
}

# -- msglen-sweep grid -------------------------------------------------------

#: (machine spec, placements) of the sweep.  ``Rnd`` is a random
#: placement with a fixed seed; ``B`` is the paper's band distribution.
MSGLEN_MACHINES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("paragon:16x16", ("B", "Rnd")),
    ("t3d:128", ("Rnd",)),
)
#: Sources per problem.
MSGLEN_S = 30
#: Seed of the ``Rnd`` placement.  Fixed, so every grid simulates the
#: same points and does the same work; only their order changes.
MSGLEN_RND_SEED = 11
#: Message lengths (bytes), spanning the paper's L axis (Figures 4 and
#: 10).  Every grid uses all of them, in an order drawn from the
#: benchmark seed.  The order matters: the first length of each
#: (machine, algorithm, placement) group builds the plan that the later
#: ones rebind.
MSGLEN_LENGTHS: Tuple[int, ...] = (32, 160, 640, 2500, 8192, 24576)
#: The T3D's repetition seeds (:data:`repro.bench.runner.T3D_SEEDS`).
T3D_SEEDS: Tuple[int, ...] = (0, 1, 2, 3, 4)
#: Algorithms with a known fast-path defect: the plan cache serves an
#: Auto_Predict plan built for another message length (ROADMAP,
#: "Correctness bug found: Auto_Predict gives wrong results on the fast
#: path").  They are not timed; the defect probe runs them instead.
DEFECT_ALGORITHMS: Tuple[str, ...] = ("Auto_Predict",)
#: Length orders of the defect probe: ascending, then the orders of
#: these benchmark seeds.  Fixed, so the probe's count moves only when
#: the program does.
DEFECT_PROBE_SEEDS: Tuple[int, ...] = (1, 2, 3)


def msglen_lengths(seed: int) -> Tuple[int, ...]:
    """The seed's order of the message lengths."""
    return tuple(random.Random(seed).sample(MSGLEN_LENGTHS, len(MSGLEN_LENGTHS)))


def msglen_grid(seed: Optional[int] = None, defect: Optional[bool] = False):
    """The sweep grid: ``[(group name, [SweepPoint, ...]), ...]``.

    Points are grouped by (machine, algorithm), in evaluation order;
    ``seed=None`` gives the lengths in ascending order.  ``defect``
    selects the algorithms: ``False`` (the timed sweep) leaves out
    :data:`DEFECT_ALGORITHMS`, ``True`` keeps only them and ``None``
    keeps every one (the reference).
    """
    from repro.core.algorithms import get_algorithm, list_algorithms
    from repro.distributions import get_distribution
    from repro.distributions.random_dist import RandomDistribution
    from repro.machines import machine_from_spec
    from repro.sweep.spec import SweepPoint

    lengths = MSGLEN_LENGTHS if seed is None else msglen_lengths(seed)
    groups: List[Tuple[str, list]] = []
    for spec, placements in MSGLEN_MACHINES:
        machine = machine_from_spec(spec)
        repetitions = (0,) if machine.topology_stable_ranks else T3D_SEEDS
        sources = []
        for key in placements:
            dist = (
                RandomDistribution(seed=MSGLEN_RND_SEED)
                if key == "Rnd"
                else get_distribution(key)
            )
            sources.append((key, tuple(dist.generate(machine, MSGLEN_S))))
        for algorithm in list_algorithms():
            if not get_algorithm(algorithm).supports(machine):
                continue
            if defect is not None and defect != (algorithm in DEFECT_ALGORITHMS):
                continue
            points = [
                SweepPoint(
                    machine=spec,
                    sources=placed,
                    message_size=length,
                    algorithm=algorithm,
                    seed=repetition,
                    distribution=key,
                )
                for key, placed in sources
                for length in lengths
                for repetition in repetitions
            ]
            groups.append((f"{spec}/{algorithm}", points))
    return groups


def defect_probe_grids():
    """The defect probe: one grid of the defect algorithms per length order."""
    return [msglen_grid(seed, defect=True) for seed in (None, *DEFECT_PROBE_SEEDS)]


# -- digests -------------------------------------------------------------------


def _sha(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of one :class:`~repro.core.runner.BroadcastResult`."""
    return _sha(json.dumps(result.to_dict(), sort_keys=True, default=repr))


def figure_digest(result, page: str) -> str:
    """Digest of one experiment: every measured float (exact) plus its page."""
    data = {
        "figure": result.figure,
        "description": result.description,
        "series": [
            {
                "title": s.title,
                "x_label": s.x_label,
                "x_values": list(s.x_values),
                "curves": s.curves,
                "y_label": s.y_label,
            }
            for s in result.series
        ],
        "checks": [[c.description, c.passed, c.detail] for c in result.checks],
        "notes": list(result.notes),
    }
    return _sha(json.dumps(data, sort_keys=True, default=repr) + page)


# -- passes ----------------------------------------------------------------------


def make_executor(jobs: int, cache_dir: Optional[str], engine: str = "auto"):
    """A :class:`~repro.sweep.SweepExecutor` that also counts transfers.

    ``transfers`` sums :attr:`BroadcastResult.num_transfers` over every
    result the executor returns (computed or served from the cache): the
    simulated work delivered, for ``sends_per_s``.
    """
    from repro.sweep import ResultCache, SweepExecutor

    class CountingExecutor(SweepExecutor):
        transfers = 0

        def run(self, points):
            results = super().run(points)
            self.transfers += sum(r.num_transfers for r in results)
            return results

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return CountingExecutor(jobs=jobs, cache=cache, engine=engine)


def setup_report(jobs: int, cache_dir: Optional[str]):
    """Load the configs and build the executor (with its result cache)."""
    import repro.pipeline

    configs = list(repro.pipeline.load_config_dir(CONFIG_DIR).values())
    return configs, make_executor(jobs, cache_dir)


def _nothing() -> None:
    pass


def run_report(configs, executor, out_dir: pathlib.Path,
               between: Callable[[], None] = _nothing) -> Dict[str, Any]:
    """One ``report all --quick`` pass; returns timings and digests.

    Mirrors :func:`repro.pipeline.cli.main`: measure every experiment,
    then write every page and the index.  An experiment that raises is
    recorded and the pass continues.  ``between`` runs after every
    experiment and every page (the benchmark's host-speed probe).
    """
    import repro.pipeline.report as report
    import repro.pipeline.runner as runner
    from repro.bench.runner import use_executor

    experiment_s: List[float] = []
    entries = []
    errors: Dict[str, str] = {}
    with use_executor(executor):
        for config in configs:
            start = time.perf_counter()
            try:
                result = runner.run_experiment(config, quick=True)
            except Exception as exc:  # counted as a failed operation
                errors[config.id] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                experiment_s.append(time.perf_counter() - start)
                between()
            entries.append((config, result))
    out_dir.mkdir(parents=True, exist_ok=True)
    digests: Dict[str, str] = {}
    shape_ok: Dict[str, bool] = {}
    for config, result in entries:
        page = report.render_experiment_html(config, result, quick=True)
        (out_dir / f"{config.id}.html").write_text(page, encoding="utf-8")
        digests[config.id] = figure_digest(result, page)
        shape_ok[config.id] = result.all_passed
        between()
    index = report.render_index_html(entries, quick=True)
    (out_dir / "index.html").write_text(index, encoding="utf-8")
    return {
        "experiment_s": experiment_s,
        "digests": digests,
        "shape_ok": shape_ok,
        "errors": errors,
        "operations": [c.id for c in configs],
    }


def run_msglen(groups, executor,
               between: Callable[[], None] = _nothing) -> Dict[str, Any]:
    """One sweep pass: one ``executor.run`` call per (machine, algorithm).

    ``between`` runs after every group (the benchmark's host-speed probe).
    """
    group_s: List[float] = []
    digests: List[Tuple[str, str, str]] = []
    errors: Dict[str, str] = {}
    for name, points in groups:
        start = time.perf_counter()
        try:
            results = executor.run(points)
        except Exception as exc:  # every point of the group counts as failed
            errors[name] = f"{type(exc).__name__}: {exc}"
            digests.extend((name, p.key(), "error") for p in points)
            continue
        finally:
            group_s.append(time.perf_counter() - start)
            between()
        digests.extend(
            (name, p.key(), result_digest(r)) for p, r in zip(points, results)
        )
    return {
        "experiment_s": group_s,
        "digests": digests,
        "errors": errors,
    }
