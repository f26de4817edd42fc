"""Closed-form ``distance`` equals the routed hop count on every pair.

``Mesh2D`` and ``Torus3D`` compute ``distance`` from coordinates
instead of building the route; Auto_Predict's cost model calls it for
every transfer it predicts.  It must agree with the dimension-order
route it stands for.
"""

from __future__ import annotations

import pytest

from repro.network.mesh import Mesh2D
from repro.network.torus import Torus3D

TOPOLOGIES = [
    Mesh2D(1, 1),
    Mesh2D(1, 5),
    Mesh2D(3, 4),
    Mesh2D(4, 4),
    Mesh2D(5, 3),
    Torus3D(1, 1, 1),
    Torus3D(2, 3, 4),
    Torus3D(3, 3, 3),
    Torus3D(4, 2, 5),
    Torus3D(5, 1, 2),
    Torus3D(6, 4, 1),
]


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=repr)
def test_distance_is_route_length(topology):
    n = topology.num_nodes
    for src in range(n):
        for dst in range(n):
            expected = len(topology.route_nodes(src, dst)) - 1
            assert topology.distance(src, dst) == expected, (src, dst)
