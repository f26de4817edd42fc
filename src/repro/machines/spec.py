"""Canonical machine spec strings: ``family:shape[+key=value...]``.

A factory machine's :attr:`~repro.machines.machine.Machine.spec` names
its family and shape (``paragon:10x10``, ``t3d:128``, ``hypercube:64``),
followed by one ``+key=value`` clause per setting that differs from the
family's calibrated default:

* any :class:`~repro.machines.params.MachineParams` field except
  ``name`` (``t_mem_byte=0.0``, ``switching=store_and_forward``);
* ``mapping`` — on the T3D, the rank→node mapping: ``identity`` instead
  of the default ``random`` (the Paragon and the hypercube are always
  identity-mapped).

Clauses are sorted by key and values are typed reprs (``repr(float)``
for float fields, decimal for int fields, the bare string otherwise), so
one machine has exactly one spec.  A machine with default settings has
no clauses at all: its spec — and every sweep-cache key derived from
it — is the plain ``family:shape`` string.

>>> from repro.machines import machine_from_spec, t3d
>>> from repro.machines.t3d import T3D_PARAMS
>>> t3d(128, params=T3D_PARAMS.with_overrides(t_mem_byte=0)).spec
't3d:128+t_mem_byte=0.0'
>>> machine_from_spec("t3d:64+mapping=identity").topology_stable_ranks
True
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machines.params import MachineParams
from repro.network.mapping import IdentityMapping, RandomMapping, RankMapping
from repro.network.topology import Topology

__all__ = [
    "OVERRIDABLE",
    "machine_spec",
    "mapping_factory",
    "parse_spec",
]

#: Rank-mapping factories by spec name.
_MAPPINGS: Dict[str, Callable[[Topology, int], RankMapping]] = {
    "identity": lambda topo, seed: IdentityMapping(topo),
    "random": lambda topo, seed: RandomMapping(topo, seed=seed),
}

#: ``MachineParams`` fields a spec clause may set, with their types.
_FIELD_TYPES: Dict[str, str] = {
    f.name: str(f.type) for f in fields(MachineParams) if f.name != "name"
}
#: Names of the overridable ``MachineParams`` fields.
OVERRIDABLE: Tuple[str, ...] = tuple(_FIELD_TYPES)

#: A ``+`` that starts a clause (a float repr such as ``1e+20`` keeps its ``+``).
_CLAUSE_SPLIT = re.compile(r"\+(?=[A-Za-z_]\w*=)")


def mapping_factory(name: str) -> Callable[[Topology, int], RankMapping]:
    """The mapping factory registered as ``name``."""
    try:
        return _MAPPINGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown rank mapping {name!r}; use one of {sorted(_MAPPINGS)}"
        ) from None


def _canonical(field_name: str, value: Any) -> str:
    kind = _FIELD_TYPES[field_name]
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    return str(value)


def machine_spec(
    base: str,
    params: MachineParams,
    defaults: MachineParams,
    mapping: Optional[str] = None,
) -> Optional[str]:
    """The canonical spec of a factory machine, or ``None``.

    ``mapping`` names a rank mapping other than the family's default.
    ``None`` when ``params`` is not a copy of ``defaults`` with
    overridden fields (another ``name``): such a machine cannot be
    rebuilt from a spec.
    """
    if params.name != defaults.name:
        return None
    clauses = {
        name: _canonical(name, getattr(params, name))
        for name in OVERRIDABLE
        if getattr(params, name) != getattr(defaults, name)
    }
    if mapping is not None:
        clauses["mapping"] = mapping
    return "+".join([base, *(f"{key}={clauses[key]}" for key in sorted(clauses))])


def _parse_value(spec: str, key: str, text: str) -> Any:
    kind = _FIELD_TYPES[key]
    try:
        if kind == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value
        if kind == "int":
            return int(text)
    except ValueError:
        raise ConfigurationError(
            f"machine spec {spec!r}: {key} needs a finite {kind}, got {text!r}"
        ) from None
    return text


def parse_spec(spec: str) -> Tuple[str, Dict[str, Any], Optional[str]]:
    """``(family:shape, MachineParams overrides, mapping or None)`` of a spec.

    Checks every clause; the caller checks the ``family:shape`` part.
    """
    base, *clauses = _CLAUSE_SPLIT.split(spec)
    overrides: Dict[str, Any] = {}
    mapping: Optional[str] = None
    seen = set()
    for clause in clauses:
        key, sep, text = clause.partition("=")
        if not sep or not text:
            raise ConfigurationError(
                f"machine spec {spec!r}: clause {clause!r} is not key=value"
            )
        if key in seen:
            raise ConfigurationError(f"machine spec {spec!r}: {key} given twice")
        seen.add(key)
        if key == "mapping":
            mapping_factory(text)
            mapping = text
        elif key in _FIELD_TYPES:
            overrides[key] = _parse_value(spec, key, text)
        else:
            raise ConfigurationError(
                f"machine spec {spec!r}: unknown setting {key!r}; use mapping "
                f"or one of {', '.join(OVERRIDABLE)}"
            )
    return base, overrides, mapping
