"""Algorithm base class and registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Type

from repro.core.problem import BroadcastProblem
from repro.core.schedule import Schedule
from repro.errors import AlgorithmError
from repro.machines.machine import Machine

__all__ = [
    "BroadcastAlgorithm",
    "ALGORITHMS",
    "register",
    "get_algorithm",
    "list_algorithms",
]


class BroadcastAlgorithm(ABC):
    """An s-to-p broadcasting algorithm: a schedule compiler.

    Subclasses set :attr:`name` (the paper's spelling) and implement
    :meth:`build_schedule`; mesh-only algorithms override
    :meth:`supports` to reject machines without stable mesh
    coordinates (the T3D).
    """

    #: Registry name, using the paper's spelling (e.g. ``"Br_Lin"``).
    name: str = ""
    #: Whether the algorithm requires stable 2-D mesh coordinates.
    requires_mesh: bool = False

    def supports(self, machine: Machine) -> bool:
        """Whether this algorithm can run on ``machine``."""
        return machine.is_mesh if self.requires_mesh else True

    def schedule_depends_on_sizes(self, problem: BroadcastProblem) -> bool:
        """Whether the compiled schedule's *structure* depends on sizes.

        Most algorithms move whole source messages, so round structure
        and transfer message sets are a pure function of (machine,
        sources) and the fast path's plan cache may rebind one lowered
        structure across message-size tables.  Algorithms that shape
        the schedule itself by byte counts — segmenting, pipelining —
        must return ``True`` so their plans are cached per size table
        (the pipelined ``MPI_AllGather`` and ``Auto_Predict``, whose
        chosen member depends on sizes, override this).
        """
        return False

    def check_supported(self, problem: BroadcastProblem) -> None:
        """Raise :class:`~repro.errors.AlgorithmError` when unsupported."""
        if not self.supports(problem.machine):
            raise AlgorithmError(
                f"{self.name} requires stable mesh coordinates and cannot "
                f"run on {problem.machine!r} (the paper likewise excludes "
                "topology-sensitive algorithms on the T3D, §5.3)"
            )

    @abstractmethod
    def build_schedule(self, problem: BroadcastProblem) -> Schedule:
        """Compile the communication schedule for ``problem``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name})>"


#: Registry of algorithm instances by lower-cased name.
ALGORITHMS: Dict[str, BroadcastAlgorithm] = {}


def register(cls: Type[BroadcastAlgorithm]) -> Type[BroadcastAlgorithm]:
    """Class decorator adding an instance to the registry."""
    instance = cls()
    if not instance.name:
        raise AlgorithmError(f"{cls.__name__} has no registry name")
    key = instance.name.lower()
    if key in ALGORITHMS:
        raise AlgorithmError(f"duplicate algorithm name {instance.name!r}")
    ALGORITHMS[key] = instance
    return cls


def get_algorithm(name: str) -> BroadcastAlgorithm:
    """Algorithm instance by (case-insensitive) paper name."""
    try:
        return ALGORITHMS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(a.name for a in ALGORITHMS.values()))
        raise AlgorithmError(
            f"unknown algorithm {name!r}; known: {known}"
        ) from None


def list_algorithms() -> List[str]:
    """Registered algorithm names (paper spellings), sorted."""
    return sorted(a.name for a in ALGORITHMS.values())
