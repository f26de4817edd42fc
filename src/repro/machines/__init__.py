"""Machine models: topology + calibrated communication parameters.

Two machine families are provided, mirroring the paper's testbeds:

* :func:`~repro.machines.paragon.paragon` — Intel Paragon: 2-D mesh,
  NX message passing (with an MPI overhead variant), slow per-message
  software paths, memory copies on the i860 that are slow relative to
  the wires.
* :func:`~repro.machines.t3d.t3d` — Cray T3D: 3-D torus, MPI point to
  point with substantial software overhead but library collectives that
  ride the fast shmem path, high-bandwidth links, and a random
  virtual→physical mapping the application cannot control.

Absolute times are *not* calibrated to the original hardware — the
simulator reproduces relative behaviour (orderings, crossovers), per
DESIGN.md §2.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigurationError
from repro.machines.hypercube_machine import hypercube
from repro.machines.machine import Machine, RunResult
from repro.machines.params import MachineParams
from repro.machines.paragon import PARAGON_PARAMS, paragon
from repro.machines.spec import parse_spec
from repro.machines.t3d import T3D_PARAMS, t3d

__all__ = [
    "Machine",
    "MachineParams",
    "RunResult",
    "paragon",
    "t3d",
    "hypercube",
    "machine_from_spec",
]


@lru_cache(maxsize=64)
def machine_from_spec(spec: str) -> Machine:
    """Rebuild a factory machine from its canonical spec string.

    Accepts ``paragon:RxC``, ``t3d:P`` and ``hypercube:P``, each
    optionally followed by ``+key=value`` clauses that override a
    :class:`MachineParams` field or the T3D's rank ``mapping`` (grammar
    in :mod:`repro.machines.spec`) — exactly the strings stored in
    :attr:`Machine.spec`.  This is the inverse the sweep executor relies
    on to reconstruct problems inside worker processes and to key the
    on-disk result cache.  Unknown settings and badly typed values raise
    :class:`~repro.errors.ConfigurationError`.

    Memoized: a factory machine is an immutable configuration (frozen
    params, finalized topology; every :meth:`Machine.run` builds a fresh
    engine/fabric/world), so repeated sweep points within one process
    share a single instance — and with it the topology's warm route
    cache — instead of rebuilding the interconnect per point.
    """
    base, overrides, mapping = parse_spec(spec)
    kind, _, size = base.partition(":")
    if mapping is not None and kind != "t3d":
        raise ConfigurationError(
            f"machine spec {spec!r}: only the T3D has a mapping setting"
        )
    try:
        if kind == "paragon":
            rows, sep, cols = size.partition("x")
            if sep:
                return paragon(
                    int(rows), int(cols), PARAGON_PARAMS.with_overrides(**overrides)
                )
        elif kind == "t3d" and size:
            return t3d(
                int(size), T3D_PARAMS.with_overrides(**overrides), mapping or "random"
            )
        elif kind == "hypercube" and size:
            return hypercube(int(size), PARAGON_PARAMS.with_overrides(**overrides))
    except ValueError:
        pass
    raise ConfigurationError(
        f"unknown machine spec {spec!r}; use paragon:RxC, t3d:P or "
        "hypercube:P, optionally followed by +key=value overrides"
    )
