"""Batch replay of a lowered plan, bit-identical to the event engine.

The evaluator is the thin orchestration layer around the flat replay
kernel (:mod:`repro.fastpath.kernel`): it binds a structure-of-arrays
:class:`~repro.fastpath.lowering.FastPlan` to a run — seed-dependent
rank placement, link paths, wire durations — allocates the kernel's
working state in the containers the active kernel mode wants (plain
lists for the pure-Python mode, contiguous numpy arrays for the JIT),
invokes the kernel once, and combines the plan's counters with the
kernel's replay-dependent accumulators into a
:class:`~repro.metrics.report.MetricsReport`.

The kernel replicates the generator engine's observable behaviour
exactly — not merely equivalent results, the *same* results to the
last float bit — by mirroring three engine disciplines:

1. **Heap ordering.**  The engine breaks time ties by a global
   monotonic sequence number, allocated on every ``Timeout`` creation
   and every ``Event.succeed``.  The replay allocates its sequence
   numbers at the same logical points: process starts (one per rank at
   t=0), send-overhead timeouts, send completions, receive-match
   wake-ups, and receive overhead+copy timeouts.  (The engine also
   allocates one inert sequence number per finished process; those
   events carry no callbacks and shift later numbers uniformly, so
   skipping them preserves all relative order.)
2. **Float expressions.**  Every virtual-time computation reuses the
   engine's exact expression: completion events land at
   ``t + (finish - t)`` (how ``succeed(delay=finish - now)`` schedules,
   which may differ in the last bit from ``finish``), wormhole and
   store-and-forward reservations repeat the
   :class:`~repro.network.wirestate.WireState` arithmetic statement for
   statement, and the vectorized duration formula keeps the fabric's
   association order.
3. **Synchronous resumption order.**  A completion event first
   delivers its message (possibly waking a parked receiver — a new
   sequence number) and only then resumes a sender blocked on the
   request — matching the engine's callback registration order.

Receive matching is dynamic per-inbox FIFO — exactly the Store's
non-overtaking ``(source, tag)`` semantics — so the replay stays
faithful even when same-instant arrivals make static send→recv pairing
ambiguous.

Metric reduction follows :meth:`MetricsReport.from_collector` term by
term.  Counts and byte totals are fixed by the plan and computed once
per plan (:func:`plan_counters`); per-rank float accumulation happens
inside the kernel in global event order (identical between engines),
and the report-level float sums here are plain left-to-right Python
reductions in rank order — never pairwise numpy sums, which would
differ in the last bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.errors import DeadlockError
from repro.fastpath import kernel as _kernel_mod
from repro.fastpath.lowering import FastPlan
from repro.metrics.report import MetricsReport
from repro.network.wirestate import wire_utilization_from

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machines.machine import Machine

__all__ = [
    "FastRunResult",
    "PlanBinding",
    "PlanCounters",
    "bind_plan",
    "evaluate_plan",
    "plan_counters",
]


@dataclass(frozen=True)
class FastRunResult:
    """Outcome of one fast-path replay (mirrors the engine's RunResult).

    ``kernel`` records which execution mode produced the result
    (``"jit"`` or ``"python"``) — diagnostic only, both modes are
    bit-identical; it is surfaced in ``BroadcastResult.debug`` and
    never serialized.
    """

    elapsed_us: float
    metrics: MetricsReport
    link_utilization: float
    num_sends: int
    kernel: str = "python"


@dataclass
class PlanBinding:
    """A plan's seed-dependent link paths, resolved once per mapping.

    ``path_flat`` / ``path_start`` are plain lists (the pure-Python
    kernel's containers); :meth:`as_arrays` lazily builds and caches
    the int32 views the JIT kernel consumes.  Bindings are reusable
    across replays of the same (plan, rank mapping) — the plan cache
    keeps one per seed class.
    """

    path_flat: List[int]
    path_start: List[int]
    hops: Any  # float64[num_sends] wire-hop counts
    _arrays: Optional[Tuple[Any, Any]] = None

    def as_arrays(self) -> Tuple[Any, Any]:
        """``(path_flat, path_start)`` as cached int32 numpy arrays."""
        if self._arrays is None:
            import numpy as np

            self._arrays = (
                np.asarray(self.path_flat, dtype=np.int32),
                np.asarray(self.path_start, dtype=np.int32),
            )
        return self._arrays


def bind_plan(plan: FastPlan, machine: "Machine", seed: int) -> PlanBinding:
    """Resolve ``plan``'s link paths under ``machine``'s ``seed`` mapping.

    Each distinct (src node, dst node) pair of the plan is routed once;
    every send then shares its pair's memoized link-path tuple, so
    ``path_flat`` is one C-level concatenation of those tuples in send
    order.
    """
    import numpy as np

    topology = machine.topology
    n = topology.num_nodes
    node_of = machine.build_mapping(seed).node_of
    nodes = np.fromiter(
        (node_of(rank) for rank in range(plan.p)), dtype=np.int64, count=plan.p
    )
    keys = nodes[plan.send_src] * n + nodes[plan.send_dst]
    pair_keys, pair_of_send = np.unique(keys, return_inverse=True)
    paths = topology.route_links_for_keys(pair_keys.tolist())
    path_flat = list(
        itertools.chain.from_iterable(map(paths.__getitem__, pair_of_send.tolist()))
    )
    pair_len = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    send_len = pair_len[pair_of_send]
    path_start = np.zeros(len(send_len) + 1, dtype=np.int64)
    np.cumsum(send_len, out=path_start[1:])
    return PlanBinding(
        path_flat=path_flat,
        path_start=path_start.tolist(),
        hops=(send_len - 2).astype(np.float64),
    )


#: Plan arrays the kernel reads under their own names.
_PLAN_ARGS = (
    "op_code",
    "op_arg",
    "op_aux",
    "op_start",
    "send_src",
    "send_dst",
    "send_round",
    "send_ovh",
    "recv_total",
    "recv_copy",
    "inbox_base",
)


@dataclass(frozen=True)
class PlanCounters:
    """The report fields a plan fixes before any replay.

    Every send is issued and every receive completes in a run that does
    not deadlock, so send/receive counts, byte totals and per-round
    operation counts are exact integer bincounts over the plan's
    per-send arrays (:func:`_plan_bincounts`), and so is every report
    field built from them alone.  :func:`_report_from_state` adds the
    fields that depend on replay timing.
    """

    iterations: int
    congestion: int
    send_recv_ops: int
    av_msg_lgth: float
    av_act_proc: float
    total_messages: int
    total_bytes: int
    #: Rounds in which at least one rank communicates, ascending.
    active_rounds: Tuple[int, ...]


def _plan_bincounts(plan: FastPlan) -> Tuple[Any, Any, Any, Any, Any]:
    """What a replay that does not deadlock counts, from the plan alone.

    Returns per-rank sends, receives, bytes sent and bytes received
    (int64[p]), and send plus receive operations per rank and round
    (int64[p, num_rounds]).
    """
    import numpy as np

    p = plan.p
    num_rounds = plan.num_rounds
    src = plan.send_src.astype(np.int64)
    dst = plan.send_dst.astype(np.int64)
    rnd = plan.send_round.astype(np.int64)
    bytes_sent = np.zeros(p, dtype=np.int64)
    np.add.at(bytes_sent, src, plan.send_nbytes)
    bytes_recv = np.zeros(p, dtype=np.int64)
    np.add.at(bytes_recv, dst, plan.send_nbytes)
    cells = p * num_rounds
    iter_ops = (
        np.bincount(src * num_rounds + rnd, minlength=cells)
        + np.bincount(dst * num_rounds + rnd, minlength=cells)
    ).reshape(p, num_rounds)
    return (
        np.bincount(src, minlength=p),
        np.bincount(dst, minlength=p),
        bytes_sent,
        bytes_recv,
        iter_ops,
    )


def plan_counters(plan: FastPlan) -> PlanCounters:
    """``plan``'s :class:`PlanCounters`, cached on the plan.

    A plan-cache hit returns the same :class:`FastPlan` object (the
    lowered plan or a cached size rebind), so every replay of one
    size-bound plan reuses one computation.  Reproduces the integer part
    of :meth:`MetricsReport.from_collector`: integer reductions are
    exact in any order (numpy is fine), and each division sees the same
    integer operands the collector's dicts would have produced.
    """
    if plan._counters is not None:
        return plan._counters
    import numpy as np

    sends, recvs, bytes_sent, bytes_recv, iter_ops = _plan_bincounts(plan)
    active_mask = iter_ops > 0
    # Per-round count of active ranks (the active_by_iter sizes).
    iter_active = active_mask.sum(axis=0)
    iterations = int((iter_active > 0).sum())
    av_msg = 0.0
    for nbytes, active in zip(
        (bytes_sent + bytes_recv).tolist(), active_mask.sum(axis=1).tolist()
    ):
        if active:
            # sum(msg_lengths) == bytes_sent + bytes_received (ints, so
            # exact); the int/int division is the collector's.
            val = nbytes / active
            if val > av_msg:
                av_msg = val
    counters = PlanCounters(
        iterations=iterations,
        congestion=int(iter_ops.max(initial=0)),
        send_recv_ops=int((sends + recvs).max(initial=0)),
        av_msg_lgth=float(av_msg),
        av_act_proc=(
            int(iter_active.sum()) / iterations if iterations else 0.0
        ),
        total_messages=int(sends.sum()),
        total_bytes=int(bytes_sent.sum()),
        active_rounds=tuple(np.flatnonzero(iter_active).tolist()),
    )
    plan._counters = counters
    return counters


def evaluate_plan(
    plan: FastPlan,
    machine: "Machine",
    *,
    seed: int = 0,
    contention: bool = True,
    binding: Optional[PlanBinding] = None,
) -> FastRunResult:
    """Replay ``plan`` on ``machine``; returns timing plus metrics.

    ``binding`` may carry pre-resolved link paths for this (plan, rank
    mapping) — pass it when replaying one plan many times (the plan
    cache does).
    """
    if binding is None:
        binding = bind_plan(plan, machine, seed)
    now, mode, state = _replay(plan, machine, contention, binding)

    p = plan.p
    finished = state["finished"]
    blocked = [rank for rank in range(p) if not finished[rank]]
    if blocked:
        detail = ", ".join(f"rank{rank}" for rank in blocked[:16])
        more = "" if len(blocked) <= 16 else f" (+{len(blocked) - 16} more)"
        raise DeadlockError(
            f"simulation deadlocked at t={now:.3f}us with "
            f"{len(blocked)} blocked process(es): {detail}{more}"
        )

    return FastRunResult(
        elapsed_us=now,
        metrics=_report_from_state(plan_counters(plan), state),
        link_utilization=wire_utilization_from(
            state["busy_time"], 2 * machine.topology.num_nodes, now
        ),
        num_sends=plan.num_sends,
        kernel=mode,
    )


def _replay(
    plan: FastPlan, machine: "Machine", contention: bool, binding: PlanBinding
) -> Tuple[float, str, dict]:
    """Run the active kernel over ``plan``: ``(now, mode, state)``.

    ``state`` maps every kernel argument name to the value passed, so
    the mutated wire state and accumulators are readable afterwards.
    """
    import numpy as np

    params = machine.params
    p = plan.p
    num_rounds = plan.num_rounds
    num_sends = plan.num_sends
    nbytes_f = plan.send_nbytes.astype(np.float64)
    store_forward = params.switching == "store_and_forward"
    if store_forward:
        # Per-link occupancy of one hop; the fabric's per-hop formula
        # with a healthy (factor 1.0) link.
        durations_a = params.t_hop + nbytes_f * params.t_byte
    else:
        # Wormhole path-hold duration, association order as in Fabric.
        durations_a = (
            params.route_setup + binding.hops * params.t_hop
            + nbytes_f * params.t_byte
        )
    num_links = machine.topology.num_links
    inbox_cap = int(plan.inbox_base[p])

    kernel = _kernel_mod.get_kernel()
    mode = _kernel_mod.kernel_mode()
    if mode == "jit":
        i32 = np.int32
        state = {name: getattr(plan, name) for name in _PLAN_ARGS}
        path_flat, path_start = binding.as_arrays()
        state.update(
            durations=durations_a,
            path_flat=path_flat,
            path_start=path_start,
            free_at=np.zeros(num_links, dtype=np.float64),
            busy_time=np.zeros(num_links, dtype=np.float64),
            inbox_store=np.zeros(inbox_cap, dtype=i32),
            inbox_len=np.zeros(p, dtype=i32),
            op_ptr=plan.op_start[:p].copy(),
            finished=np.zeros(p, dtype=np.uint8),
            posted=np.zeros(p, dtype=np.float64),
            matched=np.full(p, -1, dtype=i32),
            pending_wait=np.zeros(p, dtype=np.float64),
            parked_src=np.full(p, -1, dtype=i32),
            parked_round=np.full(p, -1, dtype=i32),
            completed=np.zeros(num_sends, dtype=np.uint8),
            waiter=np.full(num_sends, -1, dtype=i32),
            m_recv_wait=np.zeros(p, dtype=np.float64),
            m_recv_wait_ct=np.zeros(p, dtype=np.int64),
            m_link_wait=np.zeros(p, dtype=np.float64),
            m_copy=np.zeros(p, dtype=np.float64),
            m_iter_last=np.full(num_rounds, -1.0, dtype=np.float64),
        )
    else:
        lists = plan.list_views()
        state = {name: lists[name] for name in _PLAN_ARGS}
        state.update(
            durations=durations_a.tolist(),
            path_flat=binding.path_flat,
            path_start=binding.path_start,
            free_at=[0.0] * num_links,
            busy_time=[0.0] * num_links,
            inbox_store=[0] * inbox_cap,
            inbox_len=[0] * p,
            op_ptr=lists["op_start"][:p],
            finished=[0] * p,
            posted=[0.0] * p,
            matched=[-1] * p,
            pending_wait=[0.0] * p,
            parked_src=[-1] * p,
            parked_round=[-1] * p,
            completed=[0] * num_sends,
            waiter=[-1] * num_sends,
            m_recv_wait=[0.0] * p,
            m_recv_wait_ct=[0] * p,
            m_link_wait=[0.0] * p,
            m_copy=[0.0] * p,
            m_iter_last=[-1.0] * num_rounds,
        )
    state.update(
        p=p,
        store_forward=store_forward,
        contention=contention,
        route_setup=params.route_setup,
    )
    now = kernel(*[state[name] for name in _kernel_mod.KERNEL_ARGS])
    return float(now), mode, state


def _report_from_state(counters: PlanCounters, state: dict) -> MetricsReport:
    """Combine the plan's counters with the replay's accumulators.

    Reproduces :meth:`MetricsReport.from_collector` bit-for-bit: the
    integer fields come from :func:`plan_counters`; the replay-dependent
    float sums are left-to-right Python sums in rank order — never
    pairwise numpy sums, which would differ in the last bits.
    """
    m_recv_wait = state["m_recv_wait"]
    m_link_wait = state["m_link_wait"]
    m_copy = state["m_copy"]
    total_recv_wait = 0.0
    total_link_wait = 0.0
    total_copy = 0.0
    p = state["p"]
    for r in range(p):
        total_recv_wait += m_recv_wait[r]
        total_link_wait += m_link_wait[r]
        total_copy += m_copy[r]

    m_iter_last = state["m_iter_last"]
    return MetricsReport(
        p=p,
        iterations=counters.iterations,
        congestion=counters.congestion,
        wait_count=int(max(state["m_recv_wait_ct"], default=0)),
        send_recv_ops=counters.send_recv_ops,
        av_msg_lgth=counters.av_msg_lgth,
        av_act_proc=counters.av_act_proc,
        total_messages=counters.total_messages,
        total_bytes=counters.total_bytes,
        total_recv_wait=float(total_recv_wait),
        total_link_wait=float(total_link_wait),
        total_copy_time=float(total_copy),
        iteration_times=tuple(
            (it, float(m_iter_last[it])) for it in counters.active_rounds
        ),
    )
