"""Measurement primitives shared by every experiment.

The paper reports times "obtained over multiple runs and averaged over
four best runs" (§5).  On the simulated Paragon a run is bit-identical
across seeds (identity rank mapping), so one run suffices; on the T3D
the seed draws a new random virtual→physical mapping — production
scheduling — so :func:`measure_problem` runs several seeds and averages
the best, mirroring the paper's methodology.

Every measurement routes through a
:class:`~repro.sweep.executor.SweepExecutor`: figures batch their whole
grid into one :func:`measure_batch` / :func:`measure_grid` /
:func:`run_batch` call, the executor fans the points out over worker
processes (``--jobs`` / ``$REPRO_SWEEP_JOBS``) and memoizes results in
the on-disk cache.  The default executor is serial and uncached, so
library behaviour without explicit configuration is byte-identical to
the original serial loop.

An item is a problem and a registered algorithm *name*; its machine
must have a canonical spec (every factory machine has one, parameter
overrides included — see :mod:`repro.machines.spec`).  An item that
cannot become a :class:`~repro.sweep.spec.SweepPoint` raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.problem import BroadcastProblem
from repro.core.runner import BroadcastResult
from repro.distributions.base import SourceDistribution
from repro.errors import ConfigurationError
from repro.machines.machine import Machine
from repro.sweep.executor import SweepExecutor
from repro.sweep.spec import SweepPoint

__all__ = [
    "measure_problem",
    "measure_batch",
    "measure_grid",
    "measure_curves",
    "run_batch",
    "sweep",
    "active_executor",
    "use_executor",
    "T3D_SEEDS",
    "T3D_BEST",
]

#: Seeds drawn for machines with seed-dependent mappings (the T3D).
T3D_SEEDS = (0, 1, 2, 3, 4)
#: How many of the best runs are averaged (paper: "four best runs").
T3D_BEST = 4

#: One measurement request: a problem and the algorithm to time on it.
MeasureItem = Tuple[BroadcastProblem, str]
#: One contention flag for a whole batch, or one per item.
Contention = Union[bool, Sequence[bool]]

#: Executor installed by :func:`use_executor`; ``None`` means "build a
#: fresh default" (serial unless ``$REPRO_SWEEP_JOBS`` says otherwise,
#: no cache) per batch.
_installed_executor: Optional[SweepExecutor] = None


def active_executor() -> SweepExecutor:
    """The executor measurements currently route through."""
    if _installed_executor is not None:
        return _installed_executor
    return SweepExecutor()


@contextmanager
def use_executor(executor: SweepExecutor) -> Iterator[SweepExecutor]:
    """Route all measurements inside the ``with`` body through ``executor``.

    This is how the CLIs wire ``--jobs`` / ``--cache-dir`` / ``--no-cache``
    into figure functions without threading an argument through every
    experiment signature.
    """
    global _installed_executor
    previous = _installed_executor
    _installed_executor = executor
    try:
        yield executor
    finally:
        _installed_executor = previous


def _seeds_for(machine: Machine) -> Tuple[int, ...]:
    """The run seeds the paper's methodology demands for this machine."""
    return (0,) if machine.topology_stable_ranks else T3D_SEEDS


def _aggregate_ms(times_ms: List[float]) -> float:
    """Average of the best runs (single-seed machines: the one run)."""
    if len(times_ms) == 1:
        return times_ms[0]
    best = sorted(times_ms)[:T3D_BEST]
    return sum(best) / len(best)


def _point(
    problem: BroadcastProblem, algorithm: str, seed: int, contention: bool
) -> SweepPoint:
    """The sweep point of one measurement item at one seed."""
    if not isinstance(algorithm, str) or problem.machine.spec is None:
        raise ConfigurationError(
            f"cannot measure {algorithm!r} on {problem.machine!r} "
            f"(s={len(problem.sources)}, L={problem.message_size}): a "
            "measurement needs a registered algorithm name and a machine "
            "with a canonical spec"
        )
    return SweepPoint.from_problem(
        problem, algorithm, seed=seed, contention=contention
    )


def _flags(items: Sequence[MeasureItem], contention: Contention) -> List[bool]:
    if isinstance(contention, bool):
        return [contention] * len(items)
    flags = list(contention)
    if len(flags) != len(items):
        raise ConfigurationError(
            f"{len(flags)} contention flags for {len(items)} items"
        )
    return flags


def measure_batch(
    items: Sequence[MeasureItem], *, contention: Contention = True
) -> List[float]:
    """Completion times in milliseconds for a whole grid of measurements.

    The workhorse of every figure: all items expand into per-seed
    :class:`~repro.sweep.spec.SweepPoint`\\ s and go through the active
    executor in **one** batch — maximum fan-out, one cache pass — then
    collapse back to the paper's best-seeds average per item.
    ``contention`` is one flag for every item or one flag per item.
    Returns one value per item, in order.
    """
    points: List[SweepPoint] = []
    counts: List[int] = []
    for (problem, algorithm), flag in zip(items, _flags(items, contention)):
        seeds = _seeds_for(problem.machine)
        counts.append(len(seeds))
        points.extend(_point(problem, algorithm, seed, flag) for seed in seeds)

    times = [r.elapsed_ms for r in active_executor().run(points)] if points else []
    out: List[float] = []
    start = 0
    for count in counts:
        out.append(_aggregate_ms(times[start : start + count]))
        start += count
    return out


def measure_grid(
    problems: Sequence[BroadcastProblem],
    algorithms: Sequence[str],
    *,
    contention: bool = True,
) -> Dict[str, List[float]]:
    """Curves of one y-value per problem, for several algorithms.

    ``problems`` is the x-axis (one problem per x value); the result maps
    each algorithm's name to its curve.  Everything is measured in a
    single executor batch.
    """
    times = measure_batch(
        [(problem, algorithm) for problem in problems for algorithm in algorithms],
        contention=contention,
    )
    curves: Dict[str, List[float]] = {a: [] for a in algorithms}
    it = iter(times)
    for _problem in problems:
        for algorithm in algorithms:
            curves[algorithm].append(next(it))
    return curves


def measure_curves(
    entries: Sequence[Tuple[str, BroadcastProblem, str]],
    *,
    contention: Contention = True,
) -> Dict[str, List[float]]:
    """Labeled curves, measured in one :func:`measure_batch` call.

    Each ``(label, problem, algorithm)`` entry appends its time to the
    curve ``label``; curves keep the order their labels first appear
    in.  ``contention`` is one flag or one per entry.
    """
    times = measure_batch(
        [(problem, algorithm) for _label, problem, algorithm in entries],
        contention=contention,
    )
    curves: Dict[str, List[float]] = {}
    for (label, _problem, _algorithm), value in zip(entries, times):
        curves.setdefault(label, []).append(value)
    return curves


def run_batch(
    items: Sequence[MeasureItem],
    *,
    seed: int = 0,
    contention: bool = True,
) -> List[BroadcastResult]:
    """Full :class:`BroadcastResult`\\ s (metrics included) for a grid.

    Single-seed semantics — the metric-table experiments (Figure 2) want
    counters from one deterministic run, not a seed average.
    """
    points = [
        _point(problem, algorithm, seed, contention) for problem, algorithm in items
    ]
    return active_executor().run(points) if points else []


def measure_problem(
    problem: BroadcastProblem,
    algorithm: str,
    *,
    contention: bool = True,
) -> float:
    """Completion time in milliseconds, averaged over the best seeds."""
    return measure_batch([(problem, algorithm)], contention=contention)[0]


def sweep(
    machine: Machine,
    algorithms: Sequence[str],
    distribution: SourceDistribution,
    s_values: Iterable[int],
    message_size: int,
    *,
    total_bytes: int | None = None,
    contention: bool = True,
) -> Dict[str, List[float]]:
    """Curves of time-vs-s for several algorithms on one distribution.

    With ``total_bytes`` set, the per-source message size is
    ``total_bytes // s`` (the fixed-total experiments of Figures 7/12);
    otherwise every source sends ``message_size`` bytes.
    """
    problems: List[BroadcastProblem] = []
    for s in s_values:
        size = total_bytes // s if total_bytes is not None else message_size
        sources = distribution.generate(machine, s)
        problems.append(
            BroadcastProblem(machine, sources, message_size=max(size, 1))
        )
    return measure_grid(problems, algorithms, contention=contention)

