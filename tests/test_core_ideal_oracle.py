"""The vectorized placement search equals the scalar one it replaced.

:func:`repro.core.structure.estimate_halving_times` scores many
placements in one numpy pass, and :func:`repro.core.ideal.best_line_positions`
ranks candidates with it.  The per-candidate scalar estimator and the
search built on it are kept here as the reference: scores must agree
bit for bit, and the search must pick the same placement on its
exhaustive, candidate and hill-climb paths.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from repro.core import structure
from repro.core.algorithms.common import halving_pairs
from repro.core.ideal import _candidate_placements, best_line_positions
from repro.core.structure import estimate_halving_time, estimate_halving_times


def _reference_time(n, positions, overhead=70.0, per_byte=0.017, message_size=2048):
    """The scalar halving estimator, one pair at a time."""
    source_set = set(positions)
    ready = [0.0] * n
    units = [message_size if i in source_set else 0 for i in range(n)]
    for pairs in halving_pairs(n):
        snapshot_units = list(units)
        snapshot_ready = list(ready)
        for a, b, one_way in pairs:
            ua, ub = snapshot_units[a], snapshot_units[b]
            if ua == 0 and ub == 0:
                continue
            moved = ua if one_way else max(ua, ub)
            done = (
                max(snapshot_ready[a], snapshot_ready[b])
                + overhead
                + moved * per_byte
            )
            ready[a] = max(ready[a], done)
            ready[b] = max(ready[b], done)
            gained_b = ua
            gained_a = 0 if one_way else ub
            units[a] = max(units[a], snapshot_units[a] + gained_a)
            units[b] = max(units[b], snapshot_units[b] + gained_b)
    return max(ready)


def _reference_search(n, k):
    """The per-candidate search: ``min`` by score, then a swap climb."""
    if k == n:
        return tuple(range(n))

    def score(positions):
        return _reference_time(n, positions)

    if math.comb(n, k) <= 20_000:
        return tuple(min(itertools.combinations(range(n), k), key=score))
    best = min(_candidate_placements(n, k), key=score)
    if n > 64:
        return tuple(sorted(best))
    current = set(best)
    best_score = score(tuple(sorted(current)))
    for _ in range(3):
        improved = False
        for src in sorted(current):
            for dst in range(n):
                if dst in current:
                    continue
                trial = tuple(sorted(current - {src} | {dst}))
                trial_score = score(trial)
                if trial_score < best_score - 1e-9:
                    current, best_score, improved = set(trial), trial_score, True
                    break
            if improved:
                break
        if not improved:
            break
    return tuple(sorted(current))


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n", range(1, 21))
def test_scores_bitwise_equal_every_k(n):
    rng = random.Random(n)
    for k in range(n + 1):
        if math.comb(n, k) <= 60:
            placements = list(itertools.combinations(range(n), k))
        else:
            placements = [tuple(sorted(rng.sample(range(n), k))) for _ in range(60)]
        got = estimate_halving_times(n, placements)
        want = [_reference_time(n, p) for p in placements]
        assert _bits(got) == _bits(want), (n, k)


@pytest.mark.parametrize("n", (33, 64, 100, 256))
def test_scores_bitwise_equal_random_sets(n):
    rng = random.Random(1000 + n)
    for k in sorted({1, 2, rng.randint(3, n - 1), n // 2, n - 1, n}):
        placements = [tuple(sorted(rng.sample(range(n), k))) for _ in range(12)]
        got = estimate_halving_times(n, placements)
        want = [_reference_time(n, p) for p in placements]
        assert _bits(got) == _bits(want), (n, k)


def test_scores_other_constants_and_chunking(monkeypatch):
    """Non-default constants, and rows spread over many numpy chunks."""
    monkeypatch.setattr(structure, "_CHUNK_ELEMENTS", 64)
    n = 20
    rng = random.Random(7)
    placements = [tuple(sorted(rng.sample(range(n), 5))) for _ in range(50)]
    kwargs = dict(overhead=12.5, per_byte=0.3, message_size=777)
    got = estimate_halving_times(n, placements, **kwargs)
    want = [_reference_time(n, p, **kwargs) for p in placements]
    assert _bits(got) == _bits(want)


def test_scalar_is_a_one_row_call():
    for n, positions in ((1, (0,)), (8, ()), (10, (0, 6)), (13, (2, 3, 12))):
        value = estimate_halving_time(n, positions)
        assert type(value) is float
        assert value == _reference_time(n, positions)
    assert len(estimate_halving_times(5, [])) == 0


#: Exhaustive (small C(n, k)), candidate + hill-climb (n <= 64) and
#: candidate-only (n > 64) searches.
SEARCH_GRID = (
    [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
    + [(13, 5), (15, 6), (24, 8), (40, 6), (33, 9), (64, 8), (100, 20), (256, 30)]
)


@pytest.mark.parametrize("n,k", SEARCH_GRID)
def test_search_matches_reference(n, k):
    assert best_line_positions.__wrapped__(n, k) == _reference_search(n, k)
