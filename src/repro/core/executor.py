"""Runs a communication schedule on the simulated machine.

Each rank executes its slice of the schedule with **data-parallel
synchronisation** (§5: "we avoid global synchronization ... and use
data parallelism to synchronize between steps and iterations"): a rank
moves to round *k+1* as soon as its *own* round-*k* operations are
complete — its receives have arrived and been combined, and its sends
have drained.  Waiting, congestion, and straggler propagation therefore
emerge from message timing, not from artificial barriers.

Per round, a rank:

1. issues all its sends as non-blocking ``isend``\\ s (each charges the
   sender's per-message software overhead back-to-back, as a real CPU
   would),
2. blocks on each of its receives (in schedule order; arrival order
   does not matter because the inbox buffers out-of-order messages),
   paying the receive overhead and the per-byte combining copy,
3. waits for its sends' completion (blocking-send semantics: the paper's
   algorithms use blocking NX/MPI calls).

The payload carried in each envelope is the transfer's message set, so
the executor's return value — the set of original messages this rank
ended up holding — gives end-to-end delivery verification through the
actual simulated communication, independent of
:meth:`~repro.core.schedule.Schedule.validate`'s static check.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Set

from repro.core.schedule import RoundPlan, Schedule
from repro.errors import PeerFailedError
from repro.mpsim.comm import Comm

__all__ = ["ScheduleExecutor"]


class ScheduleExecutor:
    """Compiles a :class:`Schedule` into per-rank SPMD programs.

    The per-rank send/receive lists are precomputed once (the schedule
    is static), so program setup is O(transfers) overall rather than
    O(rounds x p).  Per-transfer byte counts and per-round mode flags
    are resolved here too, keeping the simulated hot loop free of
    schedule bookkeeping.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.problem = schedule.problem
        p = self.problem.p
        # One shared snapshot: initial_holdings() builds a p-tuple per
        # call, so indexing a cached copy per rank avoids O(p^2) setup.
        self._initial = self.problem.initial_holdings()
        #: Per-rank live holdings, updated in place as envelopes arrive.
        #: After a run this doubles as the partial-delivery record: ranks
        #: stalled by injected faults leave their entry at whatever
        #: subset they had actually combined when the run ended.
        self.holdings: List[Optional[Set[int]]] = [None] * p
        # The reference lowering; the fast path lowers the same rounds
        # independently and a test pins the two issue orders equal.
        self._plan: List[List[RoundPlan]] = schedule.lowered()

    def program(self, comm: Comm) -> Generator[Any, Any, frozenset]:
        """The SPMD program for ``comm.rank``; returns its final holdings."""
        rank = comm.rank
        holdings: Set[int] = set(self._initial[rank])
        self.holdings[rank] = holdings
        iteration_cell = comm._iteration_cell
        engine = comm.world.engine
        for round_idx, phase, collective, mpi, sends, recvs in self._plan[rank]:
            iteration_cell[0] = round_idx
            # Observability span around this rank's slice of the round;
            # with tracing off this is the shared NULL_SPAN no-op.
            with engine.span(phase, rank=rank, round=round_idx):
                mode = comm.with_mode(collective=collective, mpi=mpi)
                requests = []
                for dst, msgset, nbytes in sends:
                    try:
                        request = yield from mode.isend(
                            dst, msgset, nbytes=nbytes, tag=round_idx
                        )
                    except PeerFailedError:
                        # Degraded operation: a send into a dead node is
                        # abandoned, the rank carries on with the rest of
                        # its schedule, and the shortfall surfaces as a
                        # partial delivery fraction instead of a crashed
                        # run.
                        continue
                    requests.append(request)
                for src in recvs:
                    envelope = yield from mode.recv(source=src, tag=round_idx)
                    holdings.update(envelope.payload)
                for request in requests:
                    yield from request.wait()
        return frozenset(holdings)
