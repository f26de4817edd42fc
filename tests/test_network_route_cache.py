"""Route-cache correctness: memoized paths vs. uncached construction.

``Topology.route_links`` memoizes link-id paths (all pairs precomputed
at finalize for small topologies, bounded FIFO memo for large ones).
These tests pin the cached path against ``_build_route`` — the seed
code's uncached construction, kept verbatim for exactly this purpose —
and check the cache never changes observable behavior: bounds errors,
immutability, and sharing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.network import topology as topology_mod
from repro.network.fabric import Fabric
from repro.network.hypercube import Hypercube
from repro.network.linear import LinearArray
from repro.network.mesh import Mesh2D
from repro.network.torus import Torus3D

TOPOLOGIES = [
    LinearArray(7),
    Mesh2D(4, 4),
    Mesh2D(3, 5),
    Hypercube(4),
    Torus3D(2, 3, 4),
]


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
def test_cached_routes_match_uncached_construction(topo):
    """Every cached pair equals the seed-code route, for all pairs."""
    n = topo.num_nodes
    for src in range(n):
        for dst in range(n):
            if src == dst:
                assert topo.route_links(src, dst) == ()
                assert topo.route(src, dst) == []
            else:
                cached = topo.route_links(src, dst)
                assert cached == topo._build_route(src, dst)
                assert topo.route(src, dst) == list(cached)


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
def test_route_links_returns_shared_immutable_tuple(topo):
    first = topo.route_links(0, topo.num_nodes - 1)
    second = topo.route_links(0, topo.num_nodes - 1)
    assert isinstance(first, tuple)
    assert first is second  # memoized, not rebuilt


def test_out_of_range_does_not_alias_cached_pair():
    """Flat src*n+dst keys must not let bad ids hit a valid entry.

    On a 3-node line, key(0, 5) == key(1, 2): without a bounds guard
    the precomputed cache would silently return node 1's route to
    node 2 for the invalid query (0, 5).
    """
    line = LinearArray(3)
    line.route_links(1, 2)  # ensure the aliasing target is cached
    with pytest.raises(TopologyError):
        line.route_links(0, 5)
    with pytest.raises(TopologyError):
        line.route(0, 5)
    with pytest.raises(TopologyError):
        line.route_links(-1, 2)


def test_large_topology_uses_bounded_cache(monkeypatch):
    """>32-node topologies memoize lazily and evict at the cap."""
    monkeypatch.setattr(topology_mod, "_ROUTE_CACHE_MAX", 8)
    mesh = Mesh2D(6, 6)  # 36 nodes > _PRECOMPUTE_MAX_NODES
    assert mesh._route_cache_bounded
    assert mesh._route_cache == {}
    for dst in range(1, 21):
        assert mesh.route_links(0, dst) == mesh._build_route(0, dst)
    assert len(mesh._route_cache) <= 8
    # Evicted entries are rebuilt correctly on re-query.
    assert mesh.route_links(0, 1) == mesh._build_route(0, 1)


@pytest.mark.parametrize("cap", [8, 1 << 16])
def test_route_links_for_keys_matches_route_links(monkeypatch, cap):
    """Batch lookup: memo hits, misses, self-pairs and evictions alike."""
    monkeypatch.setattr(topology_mod, "_ROUTE_CACHE_MAX", cap)
    mesh = Mesh2D(6, 6)
    n = mesh.num_nodes
    pairs = [(0, 5), (7, 7), (35, 0), (0, 5), (12, 30), (3, 3), (30, 12)]
    mesh.route_links(35, 0)  # one pair already memoized
    paths = mesh.route_links_for_keys([src * n + dst for src, dst in pairs])
    assert paths == [mesh._build_route(s, d) if s != d else () for s, d in pairs]
    assert paths[0] is mesh.route_links(0, 5)


def test_small_topology_precomputes_all_pairs():
    mesh = Mesh2D(4, 4)
    assert not mesh._route_cache_bounded
    n = mesh.num_nodes
    assert len(mesh._route_cache) == n * (n - 1)


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=repr)
def test_neighbors_served_from_adjacency_table(topo):
    for node in range(topo.num_nodes):
        expected = sorted(
            v for (u, v) in topo._wire_endpoints if u == node
        )
        assert topo.neighbors(node) == expected


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=1,
        max_size=30,
    ),
    nbytes=st.integers(0, 4096),
)
def test_fabric_transfers_never_mutate_cached_paths(pairs, nbytes):
    """The fabric shares the memo's tuples; reservations must not
    corrupt them, no matter the transfer order or repetition."""
    mesh = Mesh2D(4, 4)
    fabric = Fabric(mesh, t_byte=0.01, t_hop=0.1, route_setup=0.5)
    snapshots = {
        (src, dst): mesh.route_links(src, dst)
        for src, dst in pairs
        if src != dst
    }
    now = 0.0
    for src, dst in pairs:
        stats = fabric.transfer(src, dst, nbytes, now)
        now = stats.finish_time
    for (src, dst), path in snapshots.items():
        assert mesh.route_links(src, dst) is path
        assert path == mesh._build_route(src, dst)
