"""Differential tests: the fast path bisimulates the event engine.

The fast path (:mod:`repro.fastpath`) promises *bit-identical* results
to the generator event engine — same virtual times, same metric
counters, same link utilization, down to the last float bit.  These
tests exercise that promise three ways:

* a seeded randomized grid over (machine, algorithm, distribution,
  source count, message length, seed, contention) comparing the two
  engines' canonical JSON byte-for-byte — including exception parity
  for combinations an algorithm rejects;
* sweep-level agreement: serial and ``jobs=4`` executors forced to
  ``event``, ``fast`` and ``auto`` all produce the same results;
* cache-key neutrality: entries written by an event-engine sweep are
  served verbatim to a fast-engine sweep (and vice versa).
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.core.algorithms import ALGORITHMS as REGISTRY
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.errors import ReproError
from repro.machines import machine_from_spec
from repro.sweep import ResultCache, SweepExecutor, SweepSpec

#: Pools the seeded sampler draws from.  Machines cover both wormhole
#: meshes and store-and-forward tori plus the hypercube extension;
#: algorithms are the whole registry, mesh-only families included
#: (exception parity on t3d).
MACHINES = ("paragon:4x4", "paragon:8x8", "t3d:16", "t3d:32", "hypercube:16")
DISTRIBUTIONS = ("E", "R", "Sq", "Dr", "C", "Rnd", "B")
ALGORITHMS = tuple(sorted(alg.name for alg in REGISTRY.values()))


def _blob(result) -> str:
    """Canonical JSON rendering — the byte-identity yardstick."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def _sample_points(n: int = 28, seed: int = 20260807):
    """Deterministic random grid sample; resamples invalid placements."""
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < n and attempts < 40 * n:
        attempts += 1
        spec = rng.choice(MACHINES)
        machine = machine_from_spec(spec)
        dist = rng.choice(DISTRIBUTIONS)
        s = rng.randint(1, machine.p)
        try:
            sources = tuple(repro.get_distribution(dist).generate(machine, s))
        except ReproError:
            continue  # distribution rejects this s on this machine
        points.append(
            (
                spec,
                dist,
                rng.choice(ALGORITHMS),
                sources,
                rng.choice((64, 512, 1024, 4096)),
                rng.randint(0, 3),
                rng.random() < 0.25,  # ~1 in 4 points: contention off
            )
        )
    assert len(points) == n, "sampler failed to fill the grid"
    return points


_POINTS = _sample_points()
_IDS = [
    f"{spec}-{alg}-{dist}-s{len(sources)}-L{L}-seed{seed}"
    + ("-nocont" if not contention else "")
    for spec, dist, alg, sources, L, seed, contention in _POINTS
]


@pytest.mark.parametrize(
    "spec,dist,alg,sources,L,seed,contention", _POINTS, ids=_IDS
)
def test_fast_engine_matches_event_engine(
    spec, dist, alg, sources, L, seed, contention
):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=sources, message_size=L
    )
    try:
        event = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="event"
        )
    except ReproError as exc:
        # Exception parity: whatever the event engine rejects, the fast
        # path must reject with the same exception class.
        with pytest.raises(type(exc)):
            run_broadcast(
                problem, alg, seed=seed, contention=contention, engine="fast"
            )
        return
    fast = run_broadcast(
        problem, alg, seed=seed, contention=contention, engine="fast"
    )
    assert _blob(fast) == _blob(event)


def test_warm_plan_cache_replay_matches_event_engine():
    """Cold lowering and warm cache-hit replays are equally bit-identical.

    The first runnable grid points each execute three times: event
    engine, fast with a cleared plan cache (a miss that lowers the
    schedule), and fast again (a hit replaying the cached plan).  All
    three must serialize byte-for-byte the same — the plan cache is an
    amortization, never an approximation.
    """
    from repro.fastpath import plancache

    plancache.clear()
    checked = 0
    for spec, dist, alg, sources, L, seed, contention in _POINTS:
        if checked >= 8:
            break
        problem = BroadcastProblem(
            machine=machine_from_spec(spec), sources=sources, message_size=L
        )
        try:
            event = run_broadcast(
                problem, alg, seed=seed, contention=contention, engine="event"
            )
        except ReproError:
            continue  # exception parity is covered by the grid test
        cold = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="fast"
        )
        warm = run_broadcast(
            problem, alg, seed=seed, contention=contention, engine="fast"
        )
        assert warm.debug["plan_cache"] == "hit"
        assert _blob(cold) == _blob(event)
        assert _blob(warm) == _blob(event)
        checked += 1
    assert checked == 8, "sampler starved the warm-replay check"


#: (L, mixing step) pairs replayed in sequence on one warm plan-cache
#: entry: uniform lengths first small then large (the order that
#: exposed Auto_Predict serving a plan built for another length), then
#: two mixed per-source tables.
_WARM_SIZE_SEQUENCE = ((1, None), (20000, None), (512, None), (1024, 7), (64, 3))


def _sized_problem(machine, sources, L, step):
    sizes = None
    if step is not None:
        sizes = {r: 64 * (1 + (i * step) % 5) for i, r in enumerate(sources)}
    return BroadcastProblem(
        machine=machine, sources=sources, message_size=L, sizes=sizes
    )


@pytest.mark.parametrize("spec", ["paragon:3x5", "t3d:16"])
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_warm_plan_cache_across_sizes_matches_event_engine(alg, spec):
    """One (machine, algorithm, sources) entry replayed at many sizes.

    Every point after the first hits the plan cache (or its sized
    variant), so a plan built for one size table and served for
    another shows up as a byte mismatch against the event engine.
    """
    from repro.fastpath import plancache

    machine = machine_from_spec(spec)
    sources = tuple(repro.get_distribution("B").generate(machine, 9))
    plancache.clear()
    for L, step in _WARM_SIZE_SEQUENCE:
        problem = _sized_problem(machine, sources, L, step)
        try:
            event = run_broadcast(problem, alg, engine="event")
        except ReproError as exc:
            with pytest.raises(type(exc)):
                run_broadcast(problem, alg, engine="fast")
            continue
        fast = run_broadcast(problem, alg, engine="fast")
        assert _blob(fast) == _blob(event), (L, step)


def test_auto_predict_warm_plan_cache_regression():
    """Auto_Predict's choice depends on L, so its plans are keyed by size.

    paragon:3x5, distribution B, s=9: L=1 picks Br_Lin and L=20000
    picks Repos_xy_source.  A plan cache that reused the L=1 lowering
    returned ``Auto_Predict[Br_Lin]`` at 6187.44 us for L=20000.
    """
    from repro.fastpath import plancache

    machine = machine_from_spec("paragon:3x5")
    sources = tuple(repro.get_distribution("B").generate(machine, 9))
    plancache.clear()
    for L, chosen in ((1, "Br_Lin"), (20000, "Repos_xy_source")):
        problem = BroadcastProblem(
            machine=machine, sources=sources, message_size=L
        )
        fast = run_broadcast(problem, "Auto_Predict", engine="fast")
        event = run_broadcast(problem, "Auto_Predict", engine="event")
        assert fast.algorithm == f"Auto_Predict[{chosen}]"
        assert _blob(fast) == _blob(event)
    assert fast.elapsed_us == pytest.approx(4921.64)


def test_fast_engine_matches_event_on_nonuniform_sizes():
    """Per-source byte tables flow through the fast path unchanged."""
    machine = machine_from_spec("paragon:4x4")
    sources = (0, 3, 7, 12)
    problem = BroadcastProblem(
        machine=machine,
        sources=sources,
        message_size=1024,
        sizes={0: 256, 3: 4096, 7: 64, 12: 1024},
    )
    event = run_broadcast(problem, "PersAlltoAll", seed=1, engine="event")
    fast = run_broadcast(problem, "PersAlltoAll", seed=1, engine="fast")
    assert _blob(fast) == _blob(event)


#: Sweep-level grid: both machine families, four algorithms, two seeds.
SWEEP_GRID = SweepSpec(
    machines=("paragon:4x4", "t3d:16"),
    distributions=("E", "R"),
    s_values=(4,),
    message_sizes=(256,),
    algorithms=("Br_Lin", "2-Step", "PersAlltoAll", "MPI_AllGather"),
    seeds=(0, 1),
)


@pytest.fixture(scope="module")
def sweep_points():
    return SWEEP_GRID.points()


@pytest.fixture(scope="module")
def event_serial_blobs(sweep_points):
    executor = SweepExecutor(jobs=1, engine="event")
    return [_blob(r) for r in executor.run(sweep_points)]


@pytest.mark.parametrize("engine", ["auto", "fast"])
@pytest.mark.parametrize("jobs", [1, 4])
def test_sweep_engine_and_jobs_agree(
    sweep_points, event_serial_blobs, engine, jobs
):
    """Serial/parallel x engine: every combination is byte-identical."""
    executor = SweepExecutor(jobs=jobs, engine=engine)
    got = [_blob(r) for r in executor.run(sweep_points)]
    assert got == event_serial_blobs
    assert executor.last_report.computed == len(sweep_points)


def test_cache_entries_shared_across_engines(
    sweep_points, event_serial_blobs, tmp_path
):
    """Engine choice is cache-key neutral: entries are interchangeable."""
    writer = SweepExecutor(jobs=1, cache=ResultCache(tmp_path), engine="event")
    assert [_blob(r) for r in writer.run(sweep_points)] == event_serial_blobs
    assert writer.last_report.computed == len(sweep_points)

    reader = SweepExecutor(jobs=1, cache=ResultCache(tmp_path), engine="fast")
    assert [_blob(r) for r in reader.run(sweep_points)] == event_serial_blobs
    assert reader.last_report.cached == len(sweep_points)
    assert reader.last_report.computed == 0
