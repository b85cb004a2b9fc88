"""Scenario files: schema validation and loading into domain objects.

A scenario is a JSON document describing an experimental context (layers,
initial amplitudes, matrices, optional eraser flag), optionally a finite
object registry with an evolution rule, optional joint volumes and a
uniqueness-study request, plus run defaults.  Unknown fields are rejected.

Amplitudes may be written as plain numbers, [re, im] pairs, or the exact
tokens "n", "n/m", "n/sqrt2" which are resolved without rounding.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import jsonschema

from .context import ContextNetwork, Layer
from .evolution import EvolutionRule, Knowability
from .exactnum import parse_exact
from .statespace import AttributeDef, EpistemicState, ExactState, ObjectRegistry, all_exact_states


class ScenarioSchemaError(ValueError):
    """The document does not match the scenario schema."""


class ScenarioDomainError(ValueError):
    """The document is well-formed but semantically unusable."""


def _schema() -> dict:
    text = resources.files("epiq").joinpath("schema/scenario.schema.json").read_text()
    return json.loads(text)


def parse_amplitude(value):
    """Resolve one amplitude spec: number, [re, im] pair, or exact token."""
    if isinstance(value, str):
        return parse_exact(value)
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(float(value), 0.0)


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    network: ContextNetwork
    eraser: Optional[bool]
    registry: Optional[ObjectRegistry]
    rule: Optional[EvolutionRule]
    joint_volumes: Optional[tuple]
    simultaneous: bool
    uniqueness: Optional[dict]
    run: dict


def validate_document(doc: dict) -> None:
    """Schema-validate a raw document; raises with field-level messages."""
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for e in errors:
            where = "/".join(str(p) for p in e.absolute_path) or "<root>"
            lines.append(f"{where}: {e.message}")
        raise ScenarioSchemaError("; ".join(lines))


def _load_registry(section: dict) -> ObjectRegistry:
    attrs = [AttributeDef(id=a["id"], kind=a["kind"], values=tuple(a["values"]))
             for a in section["attributes"]]
    try:
        return ObjectRegistry.build(attrs, section["objects"])
    except ValueError as e:
        raise ScenarioDomainError(str(e)) from e


def _load_rule(section: dict, registry: ObjectRegistry) -> EvolutionRule:
    states = list(all_exact_states(registry))
    images = {}
    try:
        for key, targets in section["images"].items():
            src = states[int(key)]
            images[src] = frozenset(states[t] for t in targets)
    except IndexError:
        raise ScenarioDomainError("evolution image index outside the state space") from None
    if len(images) != len(states):
        raise ScenarioDomainError("evolution rule must cover every exact state")
    return EvolutionRule(images=images)


def load_scenario(doc: dict) -> Scenario:
    """Validate and convert a raw document into domain objects."""
    validate_document(doc)
    ctx = doc["context"]
    layers = tuple(
        Layer(property_id=l["property"], level=Knowability(l["level"]),
              labels=tuple(l["labels"]))
        for l in ctx["layers"])
    initial = tuple(parse_amplitude(a) for a in ctx["initial"])
    matrices = tuple(
        tuple(tuple(parse_amplitude(a) for a in row) for row in m)
        for m in ctx["matrices"])
    try:
        network = ContextNetwork(layers=layers, initial=initial, edges=matrices)
    except ValueError as e:
        raise ScenarioDomainError(str(e)) from e

    registry = _load_registry(doc["registry"]) if "registry" in doc else None
    rule = None
    if "evolution" in doc:
        if registry is None:
            raise ScenarioDomainError("an evolution rule needs a registry")
        rule = _load_rule(doc["evolution"], registry)

    jv = doc.get("jointVolumes")
    return Scenario(
        name=doc["name"],
        description=doc.get("description", ""),
        network=network,
        eraser=ctx.get("eraser"),
        registry=registry,
        rule=rule,
        joint_volumes=tuple(tuple(row) for row in jv) if jv else None,
        simultaneous=bool(doc.get("simultaneous", False)),
        uniqueness=doc.get("uniqueness"),
        run=dict(doc.get("run", {})),
    )


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ScenarioSchemaError(f"non-finite number {token} is not allowed")
    return value


def load_scenario_file(path) -> Scenario:
    with open(path, "r") as fh:
        try:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as e:
            raise ScenarioSchemaError(f"not valid JSON: {e}") from e
    return load_scenario(doc)


def bundled_scenario_path(name: str):
    """Path to a scenario shipped with the package."""
    return resources.files("epiq").joinpath(f"scenarios/{name}.json")
