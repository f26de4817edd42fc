"""Machine spec strings with overrides: grammar, round trip, cache keys."""

from __future__ import annotations

import pytest

from repro.bench.runner import measure_batch, measure_curves, run_batch
from repro.core.problem import BroadcastProblem
from repro.core.runner import run_broadcast
from repro.errors import ConfigurationError
from repro.machines import Machine, hypercube, machine_from_spec, paragon, t3d
from repro.machines.paragon import PARAGON_PARAMS
from repro.machines.spec import OVERRIDABLE
from repro.machines.t3d import T3D_PARAMS
from repro.network.mesh import Mesh2D
from repro.sweep import SweepPoint

#: (factory, shape arguments, default params, base spec)
FAMILIES = [
    (paragon, (4, 5), PARAGON_PARAMS, "paragon:4x5"),
    (t3d, (16,), T3D_PARAMS, "t3d:16"),
    (hypercube, (16,), PARAGON_PARAMS, "hypercube:16"),
]


def _other_value(defaults, name):
    """A valid value of field ``name`` that differs from the default."""
    value = getattr(defaults, name)
    if name == "collective_style":
        return "monolithic" if value == "pipelined" else "pipelined"
    if name == "switching":
        return "store_and_forward"
    if isinstance(value, int) and not isinstance(value, bool):
        return value * 2
    return value + 0.25


def _assert_round_trip(machine: Machine) -> None:
    rebuilt = machine_from_spec(machine.spec)
    assert rebuilt.spec == machine.spec
    assert rebuilt.params == machine.params
    assert rebuilt.p == machine.p
    assert rebuilt.topology_stable_ranks == machine.topology_stable_ranks
    for seed in (0, 3):
        want = machine.build_mapping(seed)
        got = rebuilt.build_mapping(seed)
        assert [got.node_of(r) for r in range(machine.p)] == [
            want.node_of(r) for r in range(machine.p)
        ]


class TestOverrideSpecs:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[3])
    @pytest.mark.parametrize("field_name", OVERRIDABLE)
    def test_every_field_round_trips(self, family, field_name):
        factory, shape, defaults, base = family
        value = _other_value(defaults, field_name)
        machine = factory(
            *shape, params=defaults.with_overrides(**{field_name: value})
        )
        assert machine.spec.startswith(base + "+" + field_name + "=")
        _assert_round_trip(machine)

    def test_t3d_mapping_round_trips(self):
        identity = t3d(16, mapping="identity")
        assert identity.spec == "t3d:16+mapping=identity"
        assert identity.topology_stable_ranks
        _assert_round_trip(identity)
        _assert_round_trip(t3d(16, mapping="random"))

    def test_defaults_keep_their_plain_spec(self):
        for factory, shape, defaults, base in FAMILIES:
            assert factory(*shape).spec == base
            # An equal copy of the defaults is the default machine.
            assert factory(*shape, params=defaults.with_overrides()).spec == base
        assert t3d(64, mapping="random").spec == "t3d:64"
        assert machine_from_spec("t3d:64+mapping=random").spec == "t3d:64"

    def test_clauses_are_sorted_and_typed(self):
        params = T3D_PARAMS.with_overrides(
            t_mem_byte=0, collective_segment_bytes=8192, switching="store_and_forward"
        )
        machine = t3d(64, params=params, mapping="identity")
        assert machine.spec == (
            "t3d:64+collective_segment_bytes=8192+mapping=identity"
            "+switching=store_and_forward+t_mem_byte=0.0"
        )
        _assert_round_trip(machine)

    def test_ablation_specs(self):
        assert (
            t3d(128, params=T3D_PARAMS.with_overrides(t_mem_byte=0.0)).spec
            == "t3d:128+t_mem_byte=0.0"
        )
        assert (
            paragon(
                10, 10,
                params=PARAGON_PARAMS.with_overrides(switching="store_and_forward"),
            ).spec
            == "paragon:10x10+switching=store_and_forward"
        )
        assert t3d(64, mapping="identity").spec == "t3d:64+mapping=identity"

    def test_non_canonical_input_builds_the_canonical_machine(self):
        machine = machine_from_spec("t3d:16+t_mem_byte=0")
        assert machine.spec == "t3d:16+t_mem_byte=0.0"
        assert machine.params.t_mem_byte == 0.0

    def test_exponent_floats_survive_the_clause_split(self):
        machine = paragon(2, 2, params=PARAGON_PARAMS.with_overrides(t_hop=1e20))
        assert machine.spec == "paragon:2x2+t_hop=1e+20"
        _assert_round_trip(machine)

    @pytest.mark.parametrize(
        "spec",
        [
            "paragon:4x4+bogus=1",
            "paragon:4x4+name=custom",
            "t3d:16+t_byte=fast",
            "t3d:16+t_byte=nan",
            "t3d:16+t_byte=inf",
            "t3d:16+t_byte=-1.0",
            "t3d:16+t_byte=",
            "t3d:16+collective_segment_bytes=2.5",
            "t3d:16+collective_segment_bytes=0",
            "paragon:4x4+switching=optical",
            "paragon:4x4+collective_style=fancy",
            "t3d:16+mapping=scatter",
            "paragon:4x4+mapping=identity",
            "hypercube:16+mapping=random",
            "t3d:16+t_byte=1.0+t_byte=2.0",
            "cm5:64+t_byte=1.0",
        ],
    )
    def test_bad_clauses_raise(self, spec):
        with pytest.raises(ConfigurationError):
            machine_from_spec(spec)

    def test_renamed_params_have_no_spec(self):
        params = T3D_PARAMS.with_overrides(name="custom")
        assert t3d(16, params=params).spec is None


class TestCacheKeys:
    def test_default_machine_keys_are_pinned(self):
        # Literal keys of the pre-override format: a change here would
        # orphan every existing cache entry.
        problems = [
            (BroadcastProblem(paragon(10, 10), (0, 11, 22), message_size=4096),
             "Br_Lin", 0, True,
             "2e5158a92d784311fbdd00aa1a150022cb9c8798a1e20b37fe6741f734027dc8"),
            (BroadcastProblem(t3d(128), tuple(range(0, 128, 8)), message_size=4096),
             "MPI_Alltoall", 3, True,
             "b84ee1f65a41298f1566a328d9659f1d3be4353f38bd5c43d8536fd1e4838dd0"),
        ]
        for problem, algorithm, seed, contention, key in problems:
            point = SweepPoint.from_problem(
                problem, algorithm, seed=seed, contention=contention
            )
            assert point.key() == key
        hyper = SweepPoint.from_problem(
            BroadcastProblem(hypercube(64), (1, 2, 3, 4), message_size=512),
            "2-Step", contention=False, distribution="E",
        )
        assert hyper.key() == (
            "c2d26c6026c7b89509f4dc52f746333862e81a667a292f8e9b98456cd3c243d9"
        )
        faulty = SweepPoint.from_problem(
            BroadcastProblem(paragon(8, 8), (0, 9), message_size=1024),
            "Br_xy_source", faults="node:63@0us", recover=True,
        )
        assert faulty.key() == (
            "7ced2883a5a2bdfcfa75c39834412f76cac1c043ba05495c12c5c02fe9d51cfc"
        )

    def test_override_machines_become_points(self):
        machine = t3d(16, params=T3D_PARAMS.with_overrides(t_mem_byte=0.0))
        problem = BroadcastProblem(machine, (0, 5, 9), message_size=512)
        point = SweepPoint.from_problem(problem, "Br_Lin", seed=2)
        assert point.machine == "t3d:16+t_mem_byte=0.0"
        plain = SweepPoint.from_problem(
            BroadcastProblem(t3d(16), (0, 5, 9), message_size=512), "Br_Lin", seed=2
        )
        assert point.key() != plain.key()
        evaluated = run_batch([(problem, "Br_Lin")], seed=2)[0]
        direct = run_broadcast(problem, "Br_Lin", seed=2)
        assert evaluated.elapsed_us == direct.elapsed_us
        assert evaluated.metrics == direct.metrics


class TestMeasureItems:
    def test_adhoc_machine_is_rejected_naming_the_item(self):
        machine = Machine(Mesh2D(4, 4), PARAGON_PARAMS)
        problem = BroadcastProblem(machine, (0, 5), message_size=512)
        with pytest.raises(ConfigurationError, match="'Br_Lin'.*s=2, L=512"):
            measure_batch([(problem, "Br_Lin")])
        with pytest.raises(ConfigurationError, match="Br_Lin"):
            run_batch([(problem, "Br_Lin")])

    def test_per_item_contention_flags(self):
        machine = paragon(6, 6)
        problem = BroadcastProblem(machine, tuple(range(0, 36, 3)), message_size=8192)
        on, off = measure_batch(
            [(problem, "Naive_Independent")] * 2, contention=[True, False]
        )
        assert on == measure_batch([(problem, "Naive_Independent")])[0]
        assert off == measure_batch(
            [(problem, "Naive_Independent")], contention=False
        )[0]
        with pytest.raises(ConfigurationError, match="2 contention flags for 1"):
            measure_batch([(problem, "Br_Lin")], contention=[True, False])

    def test_measure_curves_groups_by_first_label(self):
        machine = paragon(4, 4)
        a = BroadcastProblem(machine, (0, 5), message_size=256)
        b = BroadcastProblem(machine, (0, 5, 10), message_size=256)
        curves = measure_curves(
            [("y", a, "Br_Lin"), ("x", a, "2-Step"), ("y", b, "Br_Lin")]
        )
        assert list(curves) == ["y", "x"]
        assert curves["y"] == measure_batch([(a, "Br_Lin"), (b, "Br_Lin")])
        assert len(curves["x"]) == 1
