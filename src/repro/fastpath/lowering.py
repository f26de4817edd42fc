"""Lowering: a :class:`~repro.core.schedule.Schedule` as flat arrays.

The lowering reads ``schedule.rounds`` directly and builds a
**structure-of-arrays** :class:`FastPlan` in one vectorized numpy pass:

* parallel per-send int32/int64/float64 numpy arrays — source,
  destination, byte count, round — with every per-send cost the replay
  needs (sender overhead, receiver overhead + combining copy) resolved
  by **vectorized** numpy arithmetic over per-round parameter tables;
* one flat operation stream (``op_code`` / ``op_arg`` / ``op_aux``
  segmented by ``op_start``): ``(SEND, sid)``, ``(RECV, src, round)``
  and ``(WAIT, sid)`` entries in exactly the order the generator
  program issues them (all sends, then all receives, then the
  send-completion waits — per round);
* a CSR view of each send's message set (``msg_members`` /
  ``msg_start``), which is what makes a plan **size-rebindable**: the
  structural arrays are shared and only the byte-dependent arrays are
  recomputed for a new size table (see :meth:`FastPlan.rebind_sizes`).

The event engine's :class:`~repro.core.executor.ScheduleExecutor`
lowers the same schedule independently, through
:meth:`Schedule.lowered`.  ``tests/test_schedule_lowered.py`` pins the
two lowerings equal across the algorithm registry, so the event == fast
differential compares two independent lowerings rather than one shared
one.

Float discipline: every vectorized expression reproduces the scalar
engine's evaluation order term by term (``(nbytes * t_mem_byte) *
scale``, ``recv_overhead + copy``), and float64 elementwise ops are
IEEE-754 identical to Python floats, so lowered costs are bit-equal to
what :class:`~repro.mpsim.comm.Comm` would have computed one message at
a time.  Receive matching stays *dynamic* in the kernel (per-inbox
FIFO, mirroring the Store), so the lowering records match predicates —
``(source, round)`` — rather than presuming which send satisfies which
receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.errors import AlgorithmError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.problem import BroadcastProblem
    from repro.core.schedule import Schedule

__all__ = ["OP_SEND", "OP_RECV", "OP_WAIT", "FastPlan", "lower_schedule"]

#: Operation stream opcodes (values in the ``op_code`` array).
OP_SEND = 0
OP_RECV = 1
OP_WAIT = 2


@dataclass
class FastPlan:
    """A schedule lowered to contiguous arrays, ready for kernel replay.

    All per-send arrays are parallel (indexed by send id, in global
    issue-plan order).  The plan splits into a **structural** part —
    pure function of (machine parameters, algorithm, source placement)
    — and a **size-bound** part (byte counts and the costs derived from
    them).  When :attr:`size_reusable` is true the structural part is
    valid for *any* per-source size table and
    :meth:`rebind_sizes` produces the size-bound arrays for a new
    problem without re-lowering.  The plan is seed-independent — link
    paths depend on the run's rank mapping and are resolved by the
    evaluator at bind time.
    """

    p: int
    num_rounds: int
    num_sends: int
    # -- structural (size-independent) arrays ---------------------------
    #: int32[num_sends] sender / destination / round of each send.
    send_src: Any
    send_dst: Any
    send_round: Any
    #: Flat per-rank operation streams: int32 code/arg/aux arrays
    #: segmented by ``op_start`` (int32[p + 1]).
    op_code: Any
    op_arg: Any
    op_aux: Any
    op_start: Any
    #: int32[p + 1] inbox segment bases: rank ``r``'s inbox occupies
    #: ``[inbox_base[r], inbox_base[r + 1])`` of the evaluator's flat
    #: store (capacity = number of sends destined to ``r``).
    inbox_base: Any
    #: CSR message sets: send ``i`` carries source messages
    #: ``msg_members[msg_start[i]:msg_start[i + 1]]`` (int32).
    msg_members: Any
    msg_start: Any
    # -- per-round parameter tables (float64[num_rounds]) ---------------
    round_send_ovh: Any
    round_recv_ovh: Any
    round_mem_scale: Any
    #: The machine's per-byte memory-copy cost (the one scalar the
    #: size-cost expressions need beyond the round tables).
    t_mem_byte: float
    # -- size-bound arrays ----------------------------------------------
    #: int64[num_sends] byte count of each send.
    send_nbytes: Any
    #: float64[num_sends] sender software overhead before issue.
    send_ovh: Any
    #: float64[num_sends] receiver overhead + combining copy.
    recv_total: Any
    #: float64[num_sends] the copy component alone (metrics report it).
    recv_copy: Any
    #: Whether every send's byte count equals the sum of its message
    #: set's source sizes — i.e. the *structure* is size-independent and
    #: :meth:`rebind_sizes` is exact.  Pipelined schedules that move
    #: explicit segments (``nbytes_override``) lower with this false.
    size_reusable: bool = True
    #: Lazily built plain-list views of the arrays (the pure-Python
    #: kernel's containers); see :meth:`list_views`.
    _lists: Dict[str, list] = field(default_factory=dict, repr=False)
    #: Cache slot for :func:`repro.fastpath.evaluator.plan_counters`.
    _counters: Any = field(default=None, repr=False)

    def list_views(self) -> Dict[str, list]:
        """Plain-list views of every kernel-facing array, built once.

        The pure-Python kernel indexes these instead of numpy arrays:
        list indexing returns unboxed ``int`` / ``float`` and is several
        times faster in the interpreter, while ``ndarray.tolist()`` is
        an exact conversion — so both kernel modes see identical values.
        """
        if not self._lists:
            self._lists = {
                name: getattr(self, name).tolist()
                for name in (
                    "send_src",
                    "send_dst",
                    "send_round",
                    "send_ovh",
                    "recv_total",
                    "recv_copy",
                    "op_code",
                    "op_arg",
                    "op_aux",
                    "op_start",
                    "inbox_base",
                )
            }
        return self._lists

    def rank_ops(self, rank: int) -> List[Tuple[int, ...]]:
        """Rank ``rank``'s operation stream as ``(OP_*, ...)`` tuples.

        A debugging/testing view of the flat stream: ``(OP_SEND, sid)``,
        ``(OP_RECV, src, round)`` and ``(OP_WAIT, sid)`` in issue order.
        """
        out: List[Tuple[int, ...]] = []
        lo = int(self.op_start[rank])
        hi = int(self.op_start[rank + 1])
        for i in range(lo, hi):
            code = int(self.op_code[i])
            if code == OP_RECV:
                out.append((code, int(self.op_arg[i]), int(self.op_aux[i])))
            else:
                out.append((code, int(self.op_arg[i])))
        return out

    def rebind_sizes(self, problem: "BroadcastProblem") -> "FastPlan":
        """This plan's structure bound to ``problem``'s size table.

        Recomputes the size-bound arrays — byte counts via the CSR
        message sets, costs via the *same* vectorized expressions the
        lowering used — and shares every structural array.  The result
        is bit-identical to lowering ``problem``'s schedule from
        scratch; :attr:`size_reusable` must be true.
        """
        import numpy as np

        if not self.size_reusable:
            raise ValueError(
                "plan structure depends on message sizes; re-lower instead"
            )
        send_nbytes = _message_set_nbytes(
            np, self.msg_members, self.msg_start, problem
        )
        send_ovh, recv_total, recv_copy = _size_costs(
            np,
            send_nbytes,
            self.send_round,
            self.round_send_ovh,
            self.round_recv_ovh,
            self.round_mem_scale,
            self.t_mem_byte,
        )
        return FastPlan(
            p=self.p,
            num_rounds=self.num_rounds,
            num_sends=self.num_sends,
            send_src=self.send_src,
            send_dst=self.send_dst,
            send_round=self.send_round,
            op_code=self.op_code,
            op_arg=self.op_arg,
            op_aux=self.op_aux,
            op_start=self.op_start,
            inbox_base=self.inbox_base,
            msg_members=self.msg_members,
            msg_start=self.msg_start,
            round_send_ovh=self.round_send_ovh,
            round_recv_ovh=self.round_recv_ovh,
            round_mem_scale=self.round_mem_scale,
            t_mem_byte=self.t_mem_byte,
            send_nbytes=send_nbytes,
            send_ovh=send_ovh,
            recv_total=recv_total,
            recv_copy=recv_copy,
            size_reusable=True,
        )


def _message_set_nbytes(np, msg_members, msg_start, problem) -> Any:
    """int64 byte count per send: the sizes of its CSR message set, summed.

    One gather from a dense per-rank size table and one segmented
    ``np.add.reduceat``.  Integer sums are exact in any order, so this
    equals the scalar ``problem.nbytes(msgset)`` bit-for-bit.  A member
    that is not a source of ``problem`` raises the
    :class:`~repro.errors.ConfigurationError` of ``problem.size_of``.
    """
    p = problem.p
    if len(msg_start) == 1:
        return np.zeros(0, dtype=np.int64)
    table = np.zeros(p, dtype=np.int64)  # 0 marks a non-source rank
    table[list(problem.sources)] = list(map(problem.size_of, problem.sources))
    if msg_members.min() >= 0 and msg_members.max() < p:
        member_sizes = table[msg_members]
        if member_sizes.all():
            return np.add.reduceat(member_sizes, msg_start[:-1].astype(np.intp))
    for member in msg_members.tolist():
        problem.size_of(member)
    raise AssertionError("unreachable: some member is not a source")


def _size_costs(np, send_nbytes, send_round, round_send_ovh,
                round_recv_ovh, round_mem_scale, t_mem_byte):
    """The three per-send cost arrays from byte counts + round tables.

    One vectorized gather + elementwise pass; the expressions mirror
    ``Comm.recv`` / ``params.copy_cost`` term order exactly.
    """
    ridx = send_round.astype(np.intp)
    nbytes_f = send_nbytes.astype(np.float64)
    send_ovh = round_send_ovh[ridx]
    recv_copy = (nbytes_f * t_mem_byte) * round_mem_scale[ridx]
    recv_total = round_recv_ovh[ridx] + recv_copy
    return send_ovh, recv_total, recv_copy


def lower_schedule(schedule: "Schedule") -> FastPlan:
    """Lower ``schedule`` into a :class:`FastPlan` in one numpy pass.

    Send ids follow the reference lowering's issue order — rank-major,
    then round, then transfer order — and each rank's op stream holds,
    per round, its sends, then its receives, then its send waits.  An
    invalid (unvalidated) schedule raises what :meth:`Schedule.lowered`
    raises for it.
    """
    import numpy as np

    problem = schedule.problem
    params = problem.machine.params
    p = problem.p
    rounds = schedule.rounds
    num_rounds = len(rounds)
    i32 = np.int32
    i64 = np.int64

    # Gather: every transfer in round-major order; ``t`` indexes them.
    transfers = list(chain.from_iterable(r.transfers for r in rounds))
    n = len(transfers)
    src = np.fromiter(map(attrgetter("src"), transfers), dtype=i64, count=n)
    dst = np.fromiter(map(attrgetter("dst"), transfers), dtype=i64, count=n)
    t_round = np.repeat(
        np.arange(num_rounds, dtype=i64),
        np.fromiter(map(len, rounds), dtype=i64, count=num_rounds),
    )
    if n and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= p):
        schedule.lowered()  # raises IndexError for a rank >= p
        raise AlgorithmError(f"transfer endpoint outside [0, {p})")

    # Send ids: a stable sort on the sender keeps round-major transfer
    # order within each rank.
    order = np.argsort(src, kind="stable")
    sid_of = np.empty(n, dtype=i64)
    sid_of[order] = np.arange(n, dtype=i64)
    send_src = src[order].astype(i32)
    send_dst = dst[order].astype(i32)
    send_round = t_round[order].astype(i32)

    # Op streams: SEND at the sender, RECV at the receiver, WAIT at the
    # sender, sorted by (rank, round, kind, transfer); kind is the opcode.
    t_idx = np.arange(n, dtype=i64)
    op_rank = np.concatenate((src, dst, src))
    op_code = np.repeat(np.array((OP_SEND, OP_RECV, OP_WAIT), dtype=i64), n)
    perm = np.lexsort(
        (np.tile(t_idx, 3), op_code, np.tile(t_round, 3), op_rank)
    )
    op_arg = np.concatenate((sid_of, src, sid_of))[perm]
    op_aux = np.concatenate((np.zeros(n, i64), t_round, np.zeros(n, i64)))[perm]
    op_start = np.zeros(p + 1, dtype=i64)
    np.cumsum(np.bincount(op_rank, minlength=p), out=op_start[1:])
    inbox_base = np.zeros(p + 1, dtype=i64)
    np.cumsum(np.bincount(dst, minlength=p), out=inbox_base[1:])

    # Message-set CSR in send-id order, each segment sorted ascending:
    # one lexsort moves every member into its send's segment and orders it.
    msgsets = list(map(attrgetter("msgset"), transfers))
    seg_len = np.fromiter(map(len, msgsets), dtype=i64, count=n)
    members = np.fromiter(
        chain.from_iterable(msgsets), dtype=i64, count=int(seg_len.sum())
    )
    members = members[np.lexsort((members, np.repeat(sid_of, seg_len)))]
    msg_members = members.astype(i32)
    msg_start = np.zeros(n + 1, dtype=i64)
    np.cumsum(seg_len[order], out=msg_start[1:])
    msg_start = msg_start.astype(i32)

    # Byte counts: whole-message sums, then explicit segment sizes.
    try:
        csr_nbytes = _message_set_nbytes(np, msg_members, msg_start, problem)
    except ConfigurationError:
        schedule.lowered()  # a whole-message transfer raises KeyError first
        raise
    send_nbytes = csr_nbytes
    overrides = list(map(attrgetter("nbytes_override"), transfers))
    if overrides.count(None) < n:
        segmented = [t for t, o in enumerate(overrides) if o is not None]
        send_nbytes = csr_nbytes.copy()
        send_nbytes[sid_of[segmented]] = [overrides[t] for t in segmented]

    # Per-round parameter tables (one scalar resolution per round), then
    # one vectorized gather + elementwise pass over all sends.
    round_send_ovh = np.fromiter(
        (
            params.send_overhead(collective=r.collective, mpi=r.mpi)
            for r in rounds
        ),
        dtype=np.float64,
        count=num_rounds,
    )
    round_recv_ovh = np.fromiter(
        (
            params.recv_overhead(collective=r.collective, mpi=r.mpi)
            for r in rounds
        ),
        dtype=np.float64,
        count=num_rounds,
    )
    round_mem_scale = np.fromiter(
        (params.collective_mem_scale if r.collective else 1.0 for r in rounds),
        dtype=np.float64,
        count=num_rounds,
    )
    send_ovh, recv_total, recv_copy = _size_costs(
        np,
        send_nbytes,
        send_round,
        round_send_ovh,
        round_recv_ovh,
        round_mem_scale,
        params.t_mem_byte,
    )

    return FastPlan(
        p=p,
        num_rounds=num_rounds,
        num_sends=n,
        send_src=send_src,
        send_dst=send_dst,
        send_round=send_round,
        op_code=op_code[perm].astype(i32),
        op_arg=op_arg.astype(i32),
        op_aux=op_aux.astype(i32),
        op_start=op_start.astype(i32),
        inbox_base=inbox_base.astype(i32),
        msg_members=msg_members,
        msg_start=msg_start,
        round_send_ovh=round_send_ovh,
        round_recv_ovh=round_recv_ovh,
        round_mem_scale=round_mem_scale,
        t_mem_byte=params.t_mem_byte,
        send_nbytes=send_nbytes,
        send_ovh=send_ovh,
        recv_total=recv_total,
        recv_copy=recv_copy,
        # The structure transfers to other size tables exactly when
        # every send moves whole messages: its byte count is the sum of
        # its message set.  Segmented transfers (nbytes_override) fail.
        size_reusable=bool(np.array_equal(send_nbytes, csr_nbytes)),
    )
