"""``bind_plan`` equals a per-send flattening of the memoized link paths.

:func:`repro.fastpath.evaluator.bind_plan` routes each distinct
(src node, dst node) pair of a plan once and builds the per-send CSR
streams with a numpy gather.  These tests pin its ``path_flat``,
``path_start`` and ``hops`` to the straightforward loop kept here as
the reference — one ``route_links`` call per send, in send order —
for every registered algorithm on a mesh, the T3D under several rank
mappings, and the hypercube.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.fastpath import bind_plan, lower_schedule
from repro.machines import machine_from_spec

#: (machine spec, rank-mapping seeds): the T3D's placement is seeded.
MACHINE_SEEDS = (
    ("paragon:4x4", (0,)),
    ("t3d:16", (0, 1, 2, 3, 4)),
    ("hypercube:16", (0,)),
)
SOURCES = (1, 4, 6, 11, 13)

CASES = [
    (spec, name, seed)
    for spec, seeds in MACHINE_SEEDS
    for name in sorted(alg.name for alg in ALGORITHMS.values())
    if get_algorithm(name).supports(machine_from_spec(spec))
    for seed in seeds
]


def _reference_binding(plan, machine, seed):
    """One ``route_links`` per send, flattened in send order."""
    mapping = machine.build_mapping(seed)
    route_links = machine.topology.route_links
    path_flat, path_start, hops = [], [0], []
    for src, dst in zip(plan.send_src.tolist(), plan.send_dst.tolist()):
        path = route_links(mapping.node_of(src), mapping.node_of(dst))
        path_flat.extend(path)
        path_start.append(len(path_flat))
        hops.append(len(path) - 2)
    return path_flat, path_start, np.asarray(hops, dtype=np.float64)


@pytest.mark.parametrize(
    "spec,algorithm,seed", CASES, ids=[f"{s}-{a}-seed{d}" for s, a, d in CASES]
)
def test_bind_plan_matches_per_send_flattening(spec, algorithm, seed):
    machine = machine_from_spec(spec)
    problem = BroadcastProblem(machine, SOURCES, message_size=1024)
    plan = lower_schedule(get_algorithm(algorithm).build_schedule(problem))
    binding = bind_plan(plan, machine, seed)
    path_flat, path_start, hops = _reference_binding(plan, machine, seed)
    assert binding.path_flat == path_flat
    assert binding.path_start == path_start
    assert all(type(x) is int for x in binding.path_flat[:8])
    assert binding.hops.dtype == np.float64
    assert binding.hops.tobytes() == hops.tobytes()
    flat32, start32 = binding.as_arrays()
    assert flat32.tolist() == path_flat and start32.tolist() == path_start


def test_bind_plan_without_sends():
    machine = machine_from_spec("paragon:4x4")
    plan = lower_schedule(Schedule(BroadcastProblem(machine, (3,))))
    binding = bind_plan(plan, machine, 0)
    assert binding.path_flat == [] and binding.path_start == [0]
    assert binding.hops.dtype == np.float64 and len(binding.hops) == 0
