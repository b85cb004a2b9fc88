"""Scenario files: schema validation and loading into domain objects.

A scenario is a JSON document describing an experimental context (layers,
initial amplitudes, matrices, optional eraser flag), optional joint volumes
and a uniqueness-study request, plus run defaults.  Unknown fields are
rejected.

The bundled ``schema/scenario.schema.json`` is the single source of truth for
a document's shape.  It is interpreted here, not by a JSON Schema library:
``_errors`` implements the keywords the schema uses, with the rules and the
message text of jsonschema's Draft 2020-12 validator.  The tests check that
the bundled schema uses no other keyword, so no check is skipped silently;
a run loads the schema without walking it again.

Amplitudes may be written as plain numbers, [re, im] pairs, or the exact
tokens "n", "n/m", "n/sqrt2" which are resolved without rounding.
"""
from __future__ import annotations

import json
import math
import os
import re
from functools import cache

from . import Knowability, Record, _set
from .context import ContextNetwork, Layer
from .exactnum import parse_exact


class ScenarioSchemaError(ValueError):
    """The document does not match the scenario schema."""


# JSON types as jsonschema's Draft 2020-12 checker sees them: a bool is not a
# number, and an integral float is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _resolve(root: dict, ref: str) -> dict:
    node = root
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def _errors(instance, schema: dict, root: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each check ``instance`` fails, in schema
    keyword order, with jsonschema's message text."""
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](instance):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            # True and 1 are different JSON values, though equal in Python
            if not any(v == instance and isinstance(v, bool) == isinstance(instance, bool)
                       for v in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "$ref":
            yield from _errors(instance, _resolve(root, value), root, path)
        elif key == "oneOf":
            valid = [sub for sub in value if next(_errors(instance, sub, root, path), None) is None]
            if not valid:
                yield path, f"{instance!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{instance!r} is valid under each of {reprs}"
        elif isinstance(instance, dict):
            if key == "required":
                yield from ((path, f"{name!r} is a required property")
                            for name in value if name not in instance)
            elif key == "properties":
                for name, sub in value.items():
                    if name in instance:
                        yield from _errors(instance[name], sub, root, path + (name,))
            elif key == "additionalProperties":
                extras = sorted((k for k in instance if k not in schema.get("properties", {})),
                                key=str)
                if extras:
                    yield path, (f"Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} "
                                 f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif isinstance(instance, list):
            if key == "items":
                for index, item in enumerate(instance):
                    yield from _errors(item, value, root, path + (index,))
            elif key == "minItems" and len(instance) < value:
                yield path, (f"{instance!r} "
                             f"{'should be non-empty' if value == 1 else 'is too short'}")
            elif key == "maxItems" and len(instance) > value:
                yield path, (f"{instance!r} "
                             f"{'is expected to be empty' if value == 0 else 'is too long'}")
        elif isinstance(instance, str):
            if key == "minLength" and len(instance) < value:
                yield path, (f"{instance!r} "
                             f"{'should be non-empty' if value == 1 else 'is too short'}")
            elif key == "pattern" and not re.search(value, instance):
                yield path, f"{instance!r} does not match {value!r}"
        elif _TYPES["number"](instance):
            if key == "minimum" and instance < value:
                yield path, f"{instance!r} is less than the minimum of {value!r}"
            elif key == "maximum" and instance > value:
                yield path, f"{instance!r} is greater than the maximum of {value!r}"
            elif key == "exclusiveMinimum" and instance <= value:
                yield path, f"{instance!r} is less than or equal to the minimum of {value!r}"


@cache
def _schema() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schema", "scenario.schema.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def parse_amplitude(value):
    """Resolve one amplitude spec: number, [re, im] pair, or exact token."""
    if isinstance(value, str):
        return parse_exact(value)
    if isinstance(value, (list, tuple)):
        real, imag = value
        return complex(float(real), float(imag))
    return complex(float(value), 0.0)


def _parsed_at(parse, value, *path):
    """`parse(value)` for the field at `path`; a value the schema admits but
    `parse` refuses ("1/0", too many digits, an int past the float range) is
    a schema error there."""
    try:
        return parse(value)
    except (ValueError, OverflowError) as e:
        raise ScenarioSchemaError(f"{'/'.join(map(str, path))}: {e}") from e


class Scenario(Record):
    __slots__ = ("name", "description", "network", "eraser", "joint_volumes",
                 "simultaneous", "uniqueness", "run")

    def __init__(self, name: str, description: str, network: ContextNetwork,
                 eraser: bool | None, joint_volumes: tuple | None,
                 simultaneous: bool, uniqueness: dict | None, run: dict):
        _set(self, "name", name)
        _set(self, "description", description)
        _set(self, "network", network)
        _set(self, "eraser", eraser)
        _set(self, "joint_volumes", joint_volumes)
        _set(self, "simultaneous", simultaneous)
        _set(self, "uniqueness", uniqueness)
        _set(self, "run", run)


def validate_document(doc: dict) -> None:
    """Schema-validate a raw document; raises with field-level messages.
    It holds JSON values only: a ``Fraction`` or ``Decimal`` where a number
    belongs is "not of type 'number'"."""
    schema = _schema()
    errors = sorted(_errors(doc, schema, schema), key=lambda e: list(e[0]))
    if errors:
        raise ScenarioSchemaError("; ".join(
            f"{'/'.join(map(str, path)) or '<root>'}: {message}" for path, message in errors))


def load_scenario(doc: dict) -> Scenario:
    """Validate and convert a raw document into domain objects."""
    validate_document(doc)
    ctx = doc["context"]
    layers = tuple(
        Layer(property_id=l["property"], level=Knowability(l["level"]),
              labels=tuple(_parsed_at(float, x, "context", "layers", i, "labels", j)
                           for j, x in enumerate(l["labels"])))
        for i, l in enumerate(ctx["layers"]))
    initial = tuple(_parsed_at(parse_amplitude, a, "context", "initial", j)
                    for j, a in enumerate(ctx["initial"]))
    matrices = tuple(
        tuple(tuple(_parsed_at(parse_amplitude, a, "context", "matrices", i, r, k)
                    for k, a in enumerate(row)) for r, row in enumerate(m))
        for i, m in enumerate(ctx["matrices"]))

    # an integral float passes the schema's "integer" type, as in JSON Schema
    uniqueness = doc.get("uniqueness")
    if uniqueness is not None:
        uniqueness = {k: [[int(m), int(mp)] for m, mp in v] if k == "shapes" else int(v)
                      for k, v in uniqueness.items()}
    run = {k: int(v) if k in ("n", "seed") else v for k, v in doc.get("run", {}).items()}
    jv = doc.get("jointVolumes")
    return Scenario(
        name=doc["name"],
        description=doc.get("description", ""),
        network=ContextNetwork(layers=layers, initial=initial, edges=matrices),
        eraser=ctx.get("eraser"),
        joint_volumes=tuple(tuple(row) for row in jv) if jv else None,
        simultaneous=bool(doc.get("simultaneous", False)),
        uniqueness=uniqueness,
        run=run,
    )


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ScenarioSchemaError(f"non-finite number {token} is not allowed")
    return value


def _integer(token: str) -> int:
    """An integer token as an exact int, if a float can hold it: every number
    in a document is one that labels, amplitudes and tolerances can take."""
    try:
        value = int(token)  # ValueError past int()'s digit limit
        float(value)  # OverflowError past the largest float
    except (ValueError, OverflowError):
        digits = len(token.lstrip("-"))
        raise ScenarioSchemaError(
            f"integer of {digits} digits is out of the float range") from None
    return value


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:  # JSON text is UTF-8, whatever the locale
        try:
            doc = json.load(fh, parse_float=_finite, parse_int=_integer,
                            parse_constant=_finite)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ScenarioSchemaError(f"not valid JSON: {e}") from e
    return load_scenario(doc)


def bundled_scenario_path(name: str):
    """Path to a scenario shipped with the package (``pathlib`` loads only here)."""
    from pathlib import Path
    return Path(__file__).with_name("scenarios") / f"{name}.json"
