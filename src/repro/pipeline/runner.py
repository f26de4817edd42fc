"""Execute a validated config through the existing bench machinery.

Bit-identity is the contract here: a declarative series expands into the
**same** :class:`~repro.core.problem.BroadcastProblem` grid, in the same
order, measured through the same :func:`repro.bench.runner.measure_batch`
call the hand-written figure function made — so the measured values, the
sweep-cache keys and the rendered report text all match the original
``benchmarks/`` scripts exactly.  ``builder`` configs simply call the
original function.

The five series kinds and the figure loops they mirror:

==================  =====================================================
``sweep``           s on the x-axis, one machine/distribution
                    (Figures 3, 7, 13a — :func:`repro.bench.runner.sweep`)
``cells``           per-x overrides of machine/dist/placement/s/L
                    (Figures 4, 5, 6, 13b, §5.2 — ``measure_grid``)
``dist_curves``     distributions as curves, x-major/key-minor batch
                    (Figures 11, 12)
``machines_by_s``   machine shapes on x, source counts as curves
                    (Figure 8)
``percent_gain``    % difference of a variant vs a baseline
                    (Figures 9, 10 — ``_repos_percent_grid``)
==================  =====================================================
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import (
    MeasureItem,
    _seeds_for,
    active_executor,
    measure_batch,
)
from repro.bench.types import FigureResult, Series
from repro.core.problem import BroadcastProblem
from repro.distributions import DISTRIBUTIONS
from repro.errors import ConfigurationError
from repro.machines import machine_from_spec
from repro.pipeline.checks import evaluate_check
from repro.pipeline.schema import CellSpec, Dual, ExperimentConfig, SeriesSpec
from repro.sweep.spec import SweepPoint

__all__ = ["run_experiment", "experiment_points", "representative_point"]

#: times → curves, in the grid order the items were emitted.
Collate = Callable[[List[float]], Dict[str, List[float]]]


def _per_x(value: Any, quick: bool, xs: Sequence[Any]) -> List[Any]:
    """Resolve a scalar-or-per-x Dual field against the x-axis."""
    resolved = value.get(quick)
    if isinstance(resolved, list):
        return list(resolved)
    return [resolved] * len(xs)


def _grid_collate(
    n_problems: int, algorithms: Sequence[str]
) -> Collate:
    """The problem-major / algorithm-minor collation of ``measure_grid``."""

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {a: [] for a in algorithms}
        it = iter(times)
        for _ in range(n_problems):
            for algorithm in algorithms:
                curves[algorithm].append(next(it))
        return curves

    return collate


def _cells_for(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[CellSpec]]:
    """The x-axis values and their (possibly derived) cell overrides."""
    xs = spec.x_values.get(quick)
    if spec.cell_axis is None:
        return xs, list(spec.cells.get(quick))
    if spec.cell_axis == "s":
        return xs, [CellSpec(s=x) for x in xs]
    if spec.cell_axis == "L":
        return xs, [CellSpec(L=x) for x in xs]
    if spec.cell_axis == "dist":
        return xs, [CellSpec(dist=x) for x in xs]
    return xs, [CellSpec(machine=x) for x in xs]


def _cell_problem(spec: SeriesSpec, cell: CellSpec) -> BroadcastProblem:
    """One grid cell resolved against the series-level defaults."""
    machine = machine_from_spec(cell.machine or spec.machine)
    s = cell.s if cell.s is not None else spec.s
    size = cell.L if cell.L is not None else spec.message_size
    placement = cell.placement or spec.placement
    if placement == "ideal_rows":
        from repro.core.ideal import ideal_row_sources

        sources = ideal_row_sources(machine, s)
    else:
        sources = DISTRIBUTIONS[cell.dist or spec.distribution].generate(
            machine, s
        )
    return BroadcastProblem(machine, sources, message_size=size)


def _expand_sweep(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    machine = machine_from_spec(spec.machine)
    dist = DISTRIBUTIONS[spec.distribution]
    s_values = spec.s_values.get(quick)
    problems = []
    for s in s_values:
        size = (
            spec.total_bytes // s
            if spec.total_bytes is not None
            else spec.message_size
        )
        problems.append(
            BroadcastProblem(
                machine, dist.generate(machine, s), message_size=max(size, 1)
            )
        )
    items = [(p, a) for p in problems for a in spec.algorithms]
    return list(s_values), items, _grid_collate(len(problems), spec.algorithms)


def _expand_cells(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    xs, cells = _cells_for(spec, quick)
    problems = [_cell_problem(spec, cell) for cell in cells]
    items = [(p, a) for p in problems for a in spec.algorithms]
    return xs, items, _grid_collate(len(problems), spec.algorithms)


def _expand_dist_curves(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    xs = spec.x_values.get(quick)
    machines = _per_x(spec.machine, quick, xs)
    s_list = (
        [int(x) for x in xs]
        if spec.s is None
        else _per_x(spec.s, quick, xs)
    )
    sizes = _per_x(spec.message_size, quick, xs)
    keys = spec.distributions
    items: List[MeasureItem] = []
    for machine_spec, s, size in zip(machines, s_list, sizes):
        machine = machine_from_spec(machine_spec)
        for key in keys:
            sources = DISTRIBUTIONS[key].generate(machine, s)
            items.append(
                (
                    BroadcastProblem(machine, sources, message_size=size),
                    spec.algorithm,
                )
            )

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {k: [] for k in keys}
        it = iter(times)
        for _ in xs:
            for key in keys:
                curves[key].append(next(it))
        return curves

    return list(xs), items, collate


def _expand_machines_by_s(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    xs = spec.x_values.get(quick)
    machines = spec.machines.get(quick)
    s_values = spec.s_values.get(quick)
    dist = DISTRIBUTIONS[spec.distribution]
    items: List[MeasureItem] = []
    for machine_spec in machines:
        machine = machine_from_spec(machine_spec)
        for s in s_values:
            sources = dist.generate(machine, s)
            items.append(
                (
                    BroadcastProblem(
                        machine, sources, message_size=spec.message_size
                    ),
                    spec.algorithm,
                )
            )

    def collate(times: List[float]) -> Dict[str, List[float]]:
        curves: Dict[str, List[float]] = {f"s={s}": [] for s in s_values}
        it = iter(times)
        for _ in machines:
            for s in s_values:
                curves[f"s={s}"].append(next(it))
        return curves

    return list(xs), items, collate


def _expand_percent_gain(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    machine = machine_from_spec(spec.machine)
    xs = spec.x_values.get(quick)
    keys = spec.distributions
    if spec.axis == "s":
        cells = [(key, x, spec.message_size) for key in keys for x in xs]
    else:
        cells = [(key, spec.s, x) for key in keys for x in xs]
    problems = [
        BroadcastProblem(
            machine, DISTRIBUTIONS[key].generate(machine, s), message_size=size
        )
        for key, s, size in cells
    ]
    algorithms = (spec.baseline, spec.variant)
    items = [(p, a) for p in problems for a in algorithms]

    def collate(times: List[float]) -> Dict[str, List[float]]:
        grid = _grid_collate(len(problems), algorithms)(times)
        gains = [
            100.0 * (t_plain - t_variant) / t_plain
            for t_plain, t_variant in zip(
                grid[spec.baseline], grid[spec.variant]
            )
        ]
        return {
            key: gains[i * len(xs) : (i + 1) * len(xs)]
            for i, key in enumerate(keys)
        }

    return list(xs), items, collate


_EXPANDERS = {
    "sweep": _expand_sweep,
    "cells": _expand_cells,
    "dist_curves": _expand_dist_curves,
    "machines_by_s": _expand_machines_by_s,
    "percent_gain": _expand_percent_gain,
}


def _expand_series(
    spec: SeriesSpec, quick: bool
) -> Tuple[List[Any], List[MeasureItem], Collate]:
    """One series → (x values, measurement items, collation)."""
    return _EXPANDERS[spec.kind](spec, quick)


def _measure_series(spec: SeriesSpec, quick: bool) -> Series:
    xs, items, collate = _expand_series(spec, quick)
    times = measure_batch(items, contention=spec.contention)
    return Series(
        title=spec.title,
        x_label=spec.x_label,
        x_values=xs,
        curves=collate(times),
        y_label=spec.y_label,
    )


def representative_point(config) -> Optional[Dict[str, object]]:
    """One concrete (machine, dist, s, L, algorithm) of an experiment.

    Used for the report's link heatmap (measured by
    :func:`run_experiment`) and its Chrome-trace recipe;
    returns ``None`` for builder configs and for series whose cells use
    a searched placement (the trace CLI addresses distributions only).
    """
    if config is None or config.kind != "declarative":
        return None

    def _scalar(value, index=0):
        if isinstance(value, Dual):
            value = value.get(False)
        if isinstance(value, (list, tuple)):
            return value[index] if value else None
        return value

    for series in config.series:
        machine = dist = s = size = algorithm = None
        if series.kind == "sweep":
            machine = series.machine
            dist = series.distribution
            svals = series.s_values.get(False)
            s = svals[len(svals) // 2]
            size = (
                max(series.total_bytes // s, 1)
                if series.total_bytes is not None
                else series.message_size
            )
        elif series.kind == "cells":
            if series.placement is not None:
                continue
            cell = _cells_for(series, False)[1][0]
            if cell.placement is not None:
                continue
            machine = cell.machine or series.machine
            dist = cell.dist or series.distribution
            s = cell.s if cell.s is not None else series.s
            size = cell.L if cell.L is not None else series.message_size
        elif series.kind == "dist_curves":
            machine = _scalar(series.machine)
            dist = series.distributions[0]
            xs = series.x_values.get(False)
            s = _scalar(series.s)
            if s is None:
                s = xs[0]
            size = _scalar(series.message_size)
        elif series.kind == "machines_by_s":
            machine = _scalar(series.machines)
            dist = series.distribution
            s = _scalar(series.s_values)
            size = series.message_size
        elif series.kind == "percent_gain":
            machine = series.machine
            dist = series.distributions[0]
            xs = series.x_values.get(False)
            mid = xs[len(xs) // 2]
            s = mid if series.axis == "s" else series.s
            size = mid if series.axis == "L" else series.message_size
        algorithm = (
            (series.algorithms[0] if series.algorithms else None)
            or series.algorithm
            or series.variant
        )
        if None not in (machine, dist, s, size, algorithm):
            return {
                "machine": machine,
                "dist": dist,
                "s": int(s),
                "L": int(size),
                "algorithm": algorithm,
            }
    return None


def _link_heatmap(point: Dict[str, object]) -> str:
    """ASCII link heatmap of a representative point (event-engine trace).

    Served by the active executor from the point's cached observation
    sibling, or traced and stored there when it is missing.
    """
    machine = machine_from_spec(str(point["machine"]))
    sources = DISTRIBUTIONS[str(point["dist"])].generate(machine, int(point["s"]))
    problem = BroadcastProblem(machine, sources, message_size=int(point["L"]))
    sweep_point = SweepPoint.from_problem(problem, str(point["algorithm"]))
    return active_executor().observation(sweep_point)["heatmap"]


def run_experiment(
    config: ExperimentConfig, quick: bool = False
) -> FigureResult:
    """Measure one experiment and evaluate its shape checks.

    Declarative configs expand and measure through
    :func:`repro.bench.runner.measure_batch` (so ``--jobs``, the on-disk
    cache and the engine selection all apply via the installed
    :class:`~repro.sweep.executor.SweepExecutor`); ``builder`` configs
    dispatch to the named figure function.  Either way the return value
    is the familiar :class:`~repro.bench.types.FigureResult`; a
    declarative one also carries the link heatmap of its
    :func:`representative_point`, measured here — while the caller's
    executor (and its cache) is installed — so rendering the page later
    only formats.
    """
    if config.kind == "builder":
        module_name, _, attr = config.builder.partition(":")
        try:
            builder = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigurationError(
                f"{config.path or config.id}: builder {config.builder!r} "
                f"failed to import: {exc}"
            ) from exc
        return builder(quick)
    result = FigureResult(config.title, config.description)
    # The heatmap's traced run goes first: its records are freed before
    # the grid builds its plans, so they do not add to the peak memory.
    point = representative_point(config)
    if point is not None:
        result.link_heatmap = _link_heatmap(point)
    for spec in config.series:
        result.series.append(_measure_series(spec, quick))
    where = config.path or config.id
    for i, check in enumerate(config.checks):
        result.checks.append(
            evaluate_check(
                check, result.series, context=f"{where}: [checks#{i}]"
            )
        )
    result.notes.extend(config.notes)
    return result


def experiment_points(
    config: ExperimentConfig, quick: bool = False
) -> List[SweepPoint]:
    """Every :class:`SweepPoint` a declarative experiment will evaluate.

    This is the exact per-seed expansion :func:`measure_batch` performs
    (T3D machines fan out over the paper's seed set, stable-rank
    machines use seed 0), so feeding these points to
    :func:`repro.sweep.distributed.run_sharded` pre-warms precisely the
    cache entries ``python -m repro report`` will hit.  Builder
    experiments measure through their own imperative code and are not
    expressible as a point list; they raise.
    """
    config.require_declarative()
    points: List[SweepPoint] = []
    for spec in config.series:
        _xs, items, _collate = _expand_series(spec, quick)
        for problem, algorithm in items:
            points.extend(
                SweepPoint.from_problem(
                    problem, algorithm, seed=seed, contention=spec.contention
                )
                for seed in _seeds_for(problem.machine)
            )
    return points
