"""The two schedule lowerings agree: ``Schedule.lowered()`` and the fast path.

The event engine's :class:`~repro.core.executor.ScheduleExecutor` runs
the per-rank round plans of :meth:`Schedule.lowered`; the fast path's
:func:`repro.fastpath.lower_schedule` builds its :class:`FastPlan`
arrays straight from ``schedule.rounds`` in one numpy pass.  These tests
pin the two equal — every array, dtype and the ``size_reusable`` probe —
against a loop-by-loop flattening of ``lowered()`` kept here as the
reference, across the whole algorithm registry, so the engines'
bit-identical results rest on two independent lowerings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.executor import ScheduleExecutor
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule, Transfer
from repro.errors import AlgorithmError, ConfigurationError
from repro.fastpath.lowering import OP_RECV, OP_SEND, OP_WAIT, lower_schedule
from repro.machines import machine_from_spec

CASES = [
    ("paragon:4x4", "PersAlltoAll", 4),
    ("paragon:4x4", "Br_xy_source", 3),
    ("t3d:16", "MPI_AllGather", 5),
    ("t3d:16", "2-Step", 8),
]

#: A mesh, the T3D (pipelined collectives) and a non-mesh topology.
MACHINES = ("paragon:4x4", "t3d:16", "hypercube:16")
#: Spread-out sources with unequal sizes, so byte counts differ per send.
SOURCES = (1, 4, 6, 11, 13)
SIZE_TABLES = (
    {1: 64, 4: 4096, 6: 512, 11: 96, 13: 1024},
    {1: 1, 4: 1, 6: 1, 11: 1, 13: 1},
    {1: 20000, 4: 8, 6: 333, 11: 4096, 13: 70000},
)
REGISTRY_CASES = [
    (spec, name)
    for spec in MACHINES
    for name in sorted(alg.name for alg in ALGORITHMS.values())
    if get_algorithm(name).supports(machine_from_spec(spec))
]

#: The cases whose plans the plan cache rebinds across size tables.
SIZE_REUSABLE_CASES = [
    (spec, name)
    for spec, name in REGISTRY_CASES
    if not get_algorithm(name).schedule_depends_on_sizes(
        BroadcastProblem(machine_from_spec(spec), SOURCES)
    )
]


def _schedule(spec: str, algorithm: str, s: int):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec),
        sources=tuple(range(s)),
        message_size=512,
    )
    return get_algorithm(algorithm).build_schedule(problem)


def _sized_schedule(spec: str, algorithm: str, sizes):
    problem = BroadcastProblem(
        machine=machine_from_spec(spec), sources=SOURCES, sizes=sizes
    )
    return get_algorithm(algorithm).build_schedule(problem)


def _reference_arrays(schedule: Schedule):
    """Flatten ``schedule.lowered()`` loop by loop into FastPlan's arrays."""
    problem = schedule.problem
    params = problem.machine.params
    rounds = schedule.rounds
    out = {name: [] for name in (
        "send_src", "send_dst", "send_round", "send_nbytes", "msg_members",
        "op_code", "op_arg", "op_aux", "send_ovh", "recv_copy", "recv_total",
    )}
    out["msg_start"] = [0]
    out["op_start"] = [0]
    reusable = True
    for rank, rank_plan in enumerate(schedule.lowered()):
        for round_idx, _phase, collective, mpi, sends, recvs in rank_plan:
            first_sid = len(out["send_src"])
            for dst, msgset, nbytes in sends:
                copy = params.copy_cost(nbytes, collective=collective)
                out["send_src"].append(rank)
                out["send_dst"].append(dst)
                out["send_round"].append(round_idx)
                out["send_nbytes"].append(nbytes)
                out["send_ovh"].append(
                    params.send_overhead(collective=collective, mpi=mpi)
                )
                out["recv_copy"].append(copy)
                out["recv_total"].append(
                    params.recv_overhead(collective=collective, mpi=mpi) + copy
                )
                out["msg_members"].extend(sorted(msgset))
                out["msg_start"].append(len(out["msg_members"]))
                reusable &= nbytes == sum(problem.size_of(m) for m in msgset)
            sids = range(first_sid, len(out["send_src"]))
            ops = [(OP_SEND, sid, 0) for sid in sids]
            ops += [(OP_RECV, src, round_idx) for src in recvs]
            ops += [(OP_WAIT, sid, 0) for sid in sids]
            for code, arg, aux in ops:
                out["op_code"].append(code)
                out["op_arg"].append(arg)
                out["op_aux"].append(aux)
        out["op_start"].append(len(out["op_code"]))
    inbox = [0] * (problem.p + 1)
    for dst in out["send_dst"]:
        inbox[dst + 1] += 1
    out["inbox_base"] = list(np.cumsum(inbox))
    out["round_send_ovh"] = [
        params.send_overhead(collective=r.collective, mpi=r.mpi) for r in rounds
    ]
    out["round_recv_ovh"] = [
        params.recv_overhead(collective=r.collective, mpi=r.mpi) for r in rounds
    ]
    out["round_mem_scale"] = [
        params.collective_mem_scale if r.collective else 1.0 for r in rounds
    ]
    return out, reusable


_DTYPES = {
    "send_nbytes": np.int64,
    "send_ovh": np.float64,
    "recv_copy": np.float64,
    "recv_total": np.float64,
    "round_send_ovh": np.float64,
    "round_recv_ovh": np.float64,
    "round_mem_scale": np.float64,
}


def _assert_lowerings_equal(schedule: Schedule, plan=None) -> None:
    expected, reusable = _reference_arrays(schedule)
    fast = lower_schedule(schedule) if plan is None else plan
    assert fast.p == schedule.problem.p
    assert fast.num_rounds == schedule.num_rounds
    assert fast.num_sends == schedule.num_transfers
    assert fast.size_reusable is reusable
    for name, values in expected.items():
        got = getattr(fast, name)
        assert got.dtype == _DTYPES.get(name, np.int32), name
        assert got.tolist() == values, name


@pytest.mark.parametrize("spec,algorithm,s", CASES)
def test_executor_plan_is_schedule_lowered(spec, algorithm, s):
    """The event executor's per-rank plan IS ``Schedule.lowered()``."""
    schedule = _schedule(spec, algorithm, s)
    assert ScheduleExecutor(schedule)._plan == schedule.lowered()


@pytest.mark.parametrize("spec,algorithm,s", CASES)
def test_lowered_covers_every_transfer_once(spec, algorithm, s):
    """Each transfer appears as exactly one send and one recv entry."""
    schedule = _schedule(spec, algorithm, s)
    plan = schedule.lowered()
    assert len(plan) == schedule.problem.p
    sends = sum(
        len(entry[4]) for rank_plan in plan for entry in rank_plan
    )
    recvs = sum(
        len(entry[5]) for rank_plan in plan for entry in rank_plan
    )
    assert sends == schedule.num_transfers
    assert recvs == schedule.num_transfers
    for rank_plan in plan:
        rounds = [entry[0] for entry in rank_plan]
        assert rounds == sorted(rounds), "round order must be preserved"


@pytest.mark.parametrize("spec,algorithm", REGISTRY_CASES)
def test_fastpath_lowering_consumes_the_same_plan(spec, algorithm):
    """Every registered algorithm lowers to the same arrays both ways."""
    _assert_lowerings_equal(_sized_schedule(spec, algorithm, SIZE_TABLES[0]))


def test_pipelined_allgather_segments_are_not_size_reusable():
    """Explicit segment sizes (``nbytes_override``) lower equal, unreusable."""
    problem = BroadcastProblem(
        machine=machine_from_spec("t3d:16"),
        sources=(0, 1, 2, 3),
        message_size=65536,
    )
    schedule = get_algorithm("MPI_AllGather").build_schedule(problem)
    assert any(
        t.nbytes_override is not None for rnd in schedule.rounds for t in rnd
    )
    _assert_lowerings_equal(schedule)
    assert not lower_schedule(schedule).size_reusable


def test_schedule_without_transfers_lowers_to_empty_arrays():
    problem = BroadcastProblem(machine_from_spec("paragon:4x4"), (5,))
    schedule = Schedule(problem, algorithm="empty")
    _assert_lowerings_equal(schedule)
    plan = lower_schedule(schedule)
    assert plan.num_sends == 0 and plan.num_rounds == 0
    assert plan.op_start.tolist() == [0] * (problem.p + 1)


@pytest.mark.parametrize(
    "override,error", [(None, KeyError), (512, ConfigurationError)]
)
def test_non_source_id_in_unvalidated_schedule_raises(override, error):
    """A msgset naming a non-source raises what it always raised.

    Whole-message transfers fail in ``problem.nbytes`` (``KeyError``)
    under both lowerings; a segment transfer fails the fast path's size
    probe in ``problem.size_of`` (``ConfigurationError``).
    """
    problem = BroadcastProblem(machine_from_spec("paragon:4x4"), (0, 5))
    schedule = Schedule(problem, algorithm="unvalidated")
    schedule.add_round([Transfer(0, 1, frozenset({0, 7}), override)])
    if override is None:
        with pytest.raises(error):
            schedule.lowered()
    with pytest.raises(error):
        lower_schedule(schedule)


@pytest.mark.parametrize("dst,error", [(16, IndexError), (-1, AlgorithmError)])
def test_endpoint_outside_machine_in_unvalidated_schedule_raises(dst, error):
    """A rank past the machine raises ``lowered()``'s ``IndexError``."""
    problem = BroadcastProblem(machine_from_spec("paragon:4x4"), (0, 5))
    schedule = Schedule(problem, algorithm="unvalidated")
    schedule.add_round([Transfer(0, dst, frozenset({0}))])
    with pytest.raises(error):
        lower_schedule(schedule)


@pytest.mark.parametrize("spec,algorithm", SIZE_REUSABLE_CASES)
def test_rebind_sizes_equals_fresh_lowering(spec, algorithm):
    """A size-independent plan rebound to other size tables lowers afresh."""
    plan = lower_schedule(_sized_schedule(spec, algorithm, SIZE_TABLES[0]))
    assert plan.size_reusable
    for sizes in SIZE_TABLES:
        schedule = _sized_schedule(spec, algorithm, sizes)
        _assert_lowerings_equal(schedule, plan.rebind_sizes(schedule.problem))


def test_lowered_send_metadata_matches_transfers():
    """Send (dst, msgset, nbytes) tuples carry the transfer's data."""
    schedule = _schedule("paragon:4x4", "PersAlltoAll", 4)
    plan = schedule.lowered()
    by_rank = {rank: [] for rank in range(schedule.problem.p)}
    for rnd_idx, rnd in enumerate(schedule.rounds):
        for t in rnd:
            by_rank[t.src].append(
                (rnd_idx, t.dst, t.msgset, t.nbytes(schedule.problem))
            )
    got = {
        rank: [
            (entry[0], dst, msgset, nbytes)
            for entry in plan[rank]
            for dst, msgset, nbytes in entry[4]
        ]
        for rank in by_rank
    }
    assert got == by_rank
