"""Batch replay of a lowered plan, bit-identical to the event engine.

The evaluator is the thin orchestration layer around the flat replay
kernel (:mod:`repro.fastpath.kernel`): it binds a structure-of-arrays
:class:`~repro.fastpath.lowering.FastPlan` to a run — seed-dependent
rank placement, link paths, wire durations — allocates the kernel's
working state in the containers the active kernel mode wants (plain
lists for the pure-Python mode, contiguous numpy arrays for the JIT),
invokes the kernel once, and reduces the flat metric accumulators into
a :class:`~repro.metrics.report.MetricsReport`.

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
term: per-rank float accumulation happens inside the kernel in global
event order (identical between engines), and the report-level float
sums here are plain left-to-right Python reductions in rank order —
never pairwise numpy sums, which would differ in the last bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError
from repro.fastpath import kernel as _kernel_mod
from repro.fastpath.lowering import FastPlan, lower_schedule
from repro.metrics.report import MetricsReport
from repro.network.wirestate import wire_utilization_from

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.schedule import Schedule
    from repro.machines.machine import Machine

__all__ = [
    "FastRunResult",
    "PlanBinding",
    "bind_plan",
    "evaluate_plan",
    "evaluate_plan_many",
    "evaluate_schedule",
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
    cache and :func:`evaluate_plan_many` do).
    """
    import numpy as np

    params = machine.params
    topology = machine.topology
    p = plan.p
    num_rounds = plan.num_rounds
    num_sends = plan.num_sends

    if binding is None:
        binding = bind_plan(plan, machine, seed)

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

    num_links = topology.num_links
    wire_offset = 2 * topology.num_nodes
    inbox_cap = int(plan.inbox_base[p])

    kernel = _kernel_mod.get_kernel()
    mode = _kernel_mod.kernel_mode()
    if mode == "jit":
        i32 = np.int32
        path_flat, path_start = binding.as_arrays()
        free_at = np.zeros(num_links, dtype=np.float64)
        busy_time = np.zeros(num_links, dtype=np.float64)
        state = dict(
            op_code=plan.op_code,
            op_arg=plan.op_arg,
            op_aux=plan.op_aux,
            op_start=plan.op_start,
            send_src=plan.send_src,
            send_dst=plan.send_dst,
            send_round=plan.send_round,
            send_nbytes=plan.send_nbytes,
            send_ovh=plan.send_ovh,
            recv_total=plan.recv_total,
            recv_copy=plan.recv_copy,
            durations=durations_a,
            path_flat=path_flat,
            path_start=path_start,
            free_at=free_at,
            busy_time=busy_time,
            inbox_store=np.zeros(inbox_cap, dtype=i32),
            inbox_base=plan.inbox_base,
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
            m_sends=np.zeros(p, dtype=np.int64),
            m_recvs=np.zeros(p, dtype=np.int64),
            m_bytes_sent=np.zeros(p, dtype=np.int64),
            m_bytes_recv=np.zeros(p, dtype=np.int64),
            m_recv_wait=np.zeros(p, dtype=np.float64),
            m_recv_wait_ct=np.zeros(p, dtype=np.int64),
            m_link_wait=np.zeros(p, dtype=np.float64),
            m_copy=np.zeros(p, dtype=np.float64),
            m_iter_ops=np.zeros(p * num_rounds, dtype=np.int64),
            m_iter_last=np.full(num_rounds, -1.0, dtype=np.float64),
        )
    else:
        lists = plan.list_views()
        free_at = [0.0] * num_links
        busy_time = [0.0] * num_links
        state = dict(
            op_code=lists["op_code"],
            op_arg=lists["op_arg"],
            op_aux=lists["op_aux"],
            op_start=lists["op_start"],
            send_src=lists["send_src"],
            send_dst=lists["send_dst"],
            send_round=lists["send_round"],
            send_nbytes=lists["send_nbytes"],
            send_ovh=lists["send_ovh"],
            recv_total=lists["recv_total"],
            recv_copy=lists["recv_copy"],
            durations=durations_a.tolist(),
            path_flat=binding.path_flat,
            path_start=binding.path_start,
            free_at=free_at,
            busy_time=busy_time,
            inbox_store=[0] * inbox_cap,
            inbox_base=lists["inbox_base"],
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
            m_sends=[0] * p,
            m_recvs=[0] * p,
            m_bytes_sent=[0] * p,
            m_bytes_recv=[0] * p,
            m_recv_wait=[0.0] * p,
            m_recv_wait_ct=[0] * p,
            m_link_wait=[0.0] * p,
            m_copy=[0.0] * p,
            m_iter_ops=[0] * (p * num_rounds),
            m_iter_last=[-1.0] * num_rounds,
        )

    now = kernel(
        p,
        num_rounds,
        state["op_code"],
        state["op_arg"],
        state["op_aux"],
        state["op_start"],
        state["send_src"],
        state["send_dst"],
        state["send_round"],
        state["send_nbytes"],
        state["send_ovh"],
        state["recv_total"],
        state["recv_copy"],
        state["durations"],
        state["path_flat"],
        state["path_start"],
        store_forward,
        contention,
        params.route_setup,
        state["free_at"],
        state["busy_time"],
        state["inbox_store"],
        state["inbox_base"],
        state["inbox_len"],
        state["op_ptr"],
        state["finished"],
        state["posted"],
        state["matched"],
        state["pending_wait"],
        state["parked_src"],
        state["parked_round"],
        state["completed"],
        state["waiter"],
        state["m_sends"],
        state["m_recvs"],
        state["m_bytes_sent"],
        state["m_bytes_recv"],
        state["m_recv_wait"],
        state["m_recv_wait_ct"],
        state["m_link_wait"],
        state["m_copy"],
        state["m_iter_ops"],
        state["m_iter_last"],
    )
    now = float(now)

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
        metrics=_report_from_state(p, num_rounds, state),
        link_utilization=wire_utilization_from(
            state["busy_time"], wire_offset, now
        ),
        num_sends=num_sends,
        kernel=mode,
    )


def _report_from_state(p: int, num_rounds: int, state: dict) -> MetricsReport:
    """Reduce the kernel's flat accumulators into a MetricsReport.

    Reproduces :meth:`MetricsReport.from_collector` bit-for-bit:
    integer reductions are exact in any order (numpy is fine); float
    reductions are left-to-right Python sums in rank order; divisions
    see the exact same integer operands the collector's dicts would
    have produced.
    """
    import numpy as np

    ops_mat = np.asarray(state["m_iter_ops"], dtype=np.int64)
    ops_mat = ops_mat.reshape(p, num_rounds) if num_rounds else ops_mat.reshape(p, 0)
    active_mask = ops_mat > 0
    #: Per-iteration count of active ranks (the active_by_iter sizes).
    iter_active = active_mask.sum(axis=0)
    iterations = int((iter_active > 0).sum())
    congestion = int(ops_mat.max()) if ops_mat.size else 0

    m_sends = state["m_sends"]
    m_recvs = state["m_recvs"]
    m_bytes_sent = state["m_bytes_sent"]
    m_bytes_recv = state["m_bytes_recv"]
    m_recv_wait_ct = state["m_recv_wait_ct"]
    rank_active = active_mask.sum(axis=1)

    wait_count = 0
    ops = 0
    av_msg = 0.0
    for r in range(p):
        wc = int(m_recv_wait_ct[r])
        if wc > wait_count:
            wait_count = wc
        total_ops = int(m_sends[r]) + int(m_recvs[r])
        if total_ops > ops:
            ops = total_ops
        active_iters = int(rank_active[r])
        if active_iters:
            # sum(msg_lengths) == bytes_sent + bytes_received (ints, so
            # exact); the int/int division is the collector's.
            val = (int(m_bytes_sent[r]) + int(m_bytes_recv[r])) / active_iters
            if val > av_msg:
                av_msg = val
    if iterations:
        av_act = int(iter_active.sum()) / iterations
    else:
        av_act = 0.0

    m_recv_wait = state["m_recv_wait"]
    m_link_wait = state["m_link_wait"]
    m_copy = state["m_copy"]
    total_recv_wait = 0.0
    total_link_wait = 0.0
    total_copy = 0.0
    for r in range(p):
        total_recv_wait += m_recv_wait[r]
        total_link_wait += m_link_wait[r]
        total_copy += m_copy[r]

    m_iter_last = state["m_iter_last"]
    iteration_times = tuple(
        (it, float(m_iter_last[it]))
        for it in range(num_rounds)
        if iter_active[it]
    )

    return MetricsReport(
        p=p,
        iterations=iterations,
        congestion=congestion,
        wait_count=wait_count,
        send_recv_ops=ops,
        av_msg_lgth=float(av_msg),
        av_act_proc=float(av_act),
        total_messages=int(sum(int(v) for v in m_sends)),
        total_bytes=int(sum(int(v) for v in m_bytes_sent)),
        total_recv_wait=float(total_recv_wait),
        total_link_wait=float(total_link_wait),
        total_copy_time=float(total_copy),
        iteration_times=iteration_times,
    )


def evaluate_plan_many(
    plan: FastPlan,
    machine: "Machine",
    runs: Iterable[Tuple[int, bool]],
) -> List[FastRunResult]:
    """Replay ``plan`` for many ``(seed, contention)`` runs.

    The batched entry: link-path bindings are resolved once per
    distinct rank mapping (a single binding covers every seed on
    machines with seed-independent placement) and every replay reuses
    the plan's list/array views — no re-lowering, no re-pickling.
    """
    bindings: dict = {}
    stable = machine.topology_stable_ranks
    out: List[FastRunResult] = []
    for seed, contention in runs:
        bkey = 0 if stable else seed
        binding = bindings.get(bkey)
        if binding is None:
            binding = bindings[bkey] = bind_plan(plan, machine, seed)
        out.append(
            evaluate_plan(
                plan, machine, seed=seed, contention=contention, binding=binding
            )
        )
    return out


def evaluate_schedule(
    schedule: "Schedule",
    *,
    seed: int = 0,
    contention: bool = True,
    plan: Optional[FastPlan] = None,
) -> FastRunResult:
    """Replay ``schedule`` on its machine; returns timing plus metrics.

    Convenience entry lowering on the fly; ``plan`` may carry the
    pre-lowered :class:`FastPlan` (the lowering is seed-independent, so
    sweeps over seeds can share it).  Cached, repeated evaluation goes
    through :mod:`repro.fastpath.plancache` instead.
    """
    if plan is None:
        plan = lower_schedule(schedule)
    return evaluate_plan(
        plan,
        schedule.problem.machine,
        seed=seed,
        contention=contention,
    )
