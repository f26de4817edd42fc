"""Structural (engine-free) analysis of schedules and halving patterns.

Two tools live here:

* :func:`analyze_schedule` — per-round actives / new-source counts /
  message-length profiles for a built schedule.  This is the
  distribution-dependent half of Figure 2, computed statically; tests
  cross-check it against the executor's measured metrics.
* :func:`estimate_halving_time` — a fast LogP-style finish-time
  estimator for the halving pattern given source *positions* on a
  line.  The ideal-distribution search (:mod:`repro.core.ideal`) ranks
  thousands of candidate placements with its batch form,
  :func:`estimate_halving_times`, which scores them all in one numpy
  pass; the event engine would be far too slow for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, List, Sequence, Set, Tuple

import numpy as np

from repro.core.algorithms.common import halving_pairs
from repro.core.schedule import Schedule

__all__ = [
    "RoundProfile",
    "ScheduleProfile",
    "analyze_schedule",
    "estimate_halving_time",
    "estimate_halving_times",
]


@dataclass(frozen=True)
class RoundProfile:
    """Static per-round statistics."""

    index: int
    label: str
    transfers: int
    active_ranks: int
    new_holders: int
    max_transfer_bytes: int
    total_bytes: int


@dataclass(frozen=True)
class ScheduleProfile:
    """Static whole-schedule statistics (Figure 2's distribution side)."""

    rounds: Tuple[RoundProfile, ...]
    av_act_proc: float
    max_ops_per_rank: int
    total_transfers: int

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def analyze_schedule(schedule: Schedule) -> ScheduleProfile:
    """Compute per-round profiles by replaying holdings statically."""
    problem = schedule.problem
    nbytes = problem.nbytes
    holdings: List[Set[int]] = [set(h) for h in problem.initial_holdings()]
    holders = {rank for rank, h in enumerate(holdings) if h}
    profiles: List[RoundProfile] = []
    for idx, rnd in enumerate(schedule.rounds):
        active = set()
        sizes = []
        for t in rnd:
            active.add(t.src)
            active.add(t.dst)
            sizes.append(nbytes(t.msgset))
        for t in rnd:
            holdings[t.dst] |= t.msgset
        new_holders = {
            rank for rank, h in enumerate(holdings) if h
        } - holders
        holders |= new_holders
        profiles.append(
            RoundProfile(
                index=idx,
                label=rnd.label,
                transfers=len(rnd),
                active_ranks=len(active),
                new_holders=len(new_holders),
                max_transfer_bytes=max(sizes, default=0),
                total_bytes=sum(sizes),
            )
        )
    av_act = (
        sum(p.active_ranks for p in profiles) / len(profiles)
        if profiles
        else 0.0
    )
    ops = schedule.ops_by_rank()
    return ScheduleProfile(
        rounds=tuple(profiles),
        av_act_proc=av_act,
        max_ops_per_rank=max(ops.values(), default=0),
        total_transfers=schedule.num_transfers,
    )


def estimate_halving_time(
    n: int,
    positions: Sequence[int],
    *,
    overhead: float = 70.0,
    per_byte: float = 0.017,
    message_size: int = 2048,
) -> float:
    """LogP-style completion-time estimate of the halving broadcast.

    ``positions`` are the source slots on a line of ``n`` positions;
    every source carries ``message_size`` bytes.  The estimate tracks a
    per-position ready time: an exchanging pair finishes at
    ``max(ready_a, ready_b) + overhead + bytes_moved * per_byte``.
    Default constants approximate the Paragon's overhead-to-bandwidth
    ratio; the *ranking* of placements (which is all the ideal search
    needs) is insensitive to their exact values.  A one-row call of
    :func:`estimate_halving_times`.
    """
    times = estimate_halving_times(
        n, [tuple(positions)], overhead=overhead, per_byte=per_byte,
        message_size=message_size,
    )
    return float(times[0])


#: Elements of one ``(n x rows)`` working array: candidate rows are
#: scored in chunks of this size, so a search's peak memory stays a few
#: MB however many placements it scores (larger chunks are no faster).
_CHUNK_ELEMENTS = 1 << 15


def estimate_halving_times(
    n: int,
    placements: Sequence[Sequence[int]],
    *,
    overhead: float = 70.0,
    per_byte: float = 0.017,
    message_size: int = 2048,
) -> np.ndarray:
    """:func:`estimate_halving_time` of every placement, in one numpy pass.

    Returns a float64 array with one estimate per row of
    ``placements``, bit-identical to scoring each row on its own.  Every
    update of a halving iteration is a ``max`` against the iteration's
    snapshot, so the pairs of an iteration apply in any order; the
    estimator vectorizes across them and across placements.
    """
    index = _halving_index(n)
    if len(placements) == 0:
        return np.empty(0, dtype=np.float64)
    positions = np.asarray(placements, dtype=np.intp).reshape(len(placements), -1)
    out = np.empty(len(positions), dtype=np.float64)
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, len(positions), step):
        chunk = positions[lo:lo + step]
        units = np.zeros((n, len(chunk)), dtype=np.int64)
        units[chunk, np.arange(len(chunk))[:, None]] = message_size
        ready = np.zeros((n, len(chunk)), dtype=np.float64)
        for a, b, one_way, num_regular in index:
            ua, ub = units[a], units[b]
            ra, rb = ready[a], ready[b]
            moved = np.where(one_way, ua, np.maximum(ua, ub))
            done = np.maximum(ra, rb) + overhead + moved * per_byte
            # Pairs with nothing to move are skipped; ready times are
            # >= 0.0, so a 0.0 "finish" leaves them unchanged.
            done[(ua == 0) & (ub == 0)] = 0.0
            gained_a = np.where(one_way, 0, ub)
            # The ``a`` positions are distinct and never a ``b``; a
            # one-way pair's ``b`` repeats a regular pair's ``b``, so
            # the one-way rows apply after the regular ones, against
            # the updated values.  (Unit gains are >= 0, so the first
            # writes need no max.)
            ready[a] = np.maximum(ra, done)
            units[a] = ua + gained_a
            reg = slice(0, num_regular)
            ready[b[reg]] = np.maximum(rb[reg], done[reg])
            units[b[reg]] = ub[reg] + ua[reg]
            ow = slice(num_regular, None)
            b_ow = b[ow]
            ready[b_ow] = np.maximum(ready[b_ow], done[ow])
            units[b_ow] = np.maximum(units[b_ow], ub[ow] + ua[ow])
        out[lo:lo + len(chunk)] = ready.max(axis=0)
    return out


@lru_cache(maxsize=256)
def _halving_index(n: int) -> Tuple[Tuple[Any, Any, Any, int], ...]:
    """:func:`halving_pairs` as per-iteration index arrays.

    Each iteration is ``(a, b, one_way, num_regular)``: the regular
    pairs come first, then the odd segments' one-way pairs.
    """
    out = []
    for pairs in halving_pairs(n):
        ordered = [p for p in pairs if not p[2]] + [p for p in pairs if p[2]]
        a = np.array([p[0] for p in ordered], dtype=np.intp)
        b = np.array([p[1] for p in ordered], dtype=np.intp)
        one_way = np.array([p[2] for p in ordered], dtype=bool)[:, None]
        out.append((a, b, one_way, int((~one_way).sum())))
    return tuple(out)
