"""JSON system definitions: schema, loading, validation.

A config file declares one system (coordinates, structure matrices, box)
plus optional tolerance overrides and a hodograph section with boundary
data and solve windows.  Every document is validated against
``CONFIG_SCHEMA`` before any expression is parsed, so malformed files fail
with a JSON path instead of a stack trace.  The schema uses only a few
keywords of JSON Schema (draft 2020-12), and `_schema_errors` walks it
directly; the test suite checks the walk against the ``jsonschema``
package.
"""

from __future__ import annotations

import json
import numbers
import re
import sys

from . import hodograph, verify
from .errors import ConfigError, ExprSyntaxError, UnknownSymbolError
from .system import Box, SystemDef

_EXPR = {"type": ["string", "number"]}
_ROW = {"type": "array", "items": _EXPR, "minItems": 1}
_MATRIX = {"type": "array", "items": _ROW, "minItems": 1}
_CUBE = {"type": "array", "items": _MATRIX, "minItems": 1}
_POINT = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_PAIR = {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "coords", "box"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "N": {"type": "integer", "minimum": 1},
        "coords": {"type": "array", "items": {"type": "string", "minLength": 1},
                   "minItems": 1},
        "params": {"type": "object",
                   "additionalProperties": {"type": "number"}},
        "g_upper": _MATRIX,
        "b": _CUBE,
        "V": _MATRIX,
        "v_diag": _ROW,
        "affinors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["sign", "matrix"],
                "additionalProperties": False,
                "properties": {"sign": {"enum": [1, -1]},
                               "matrix": _MATRIX},
            },
        },
        "h_ultra": _MATRIX,
        "gamma": _MATRIX,
        "box": {
            "type": "object",
            "required": ["min", "max"],
            "additionalProperties": False,
            "properties": {"min": _POINT, "max": _POINT},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol_zero": _POSITIVE,
                "tol_flat": _POSITIVE,
                "tol_goursat": _POSITIVE,
                "tol_jacobi": _POSITIVE,
                "gap_tol": _POSITIVE,
                "newton_tol": _POSITIVE,
            },
        },
        "hodograph": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "w": {"type": "array", "items": _EXPR, "minItems": 1},
                "boundary": {"type": "array", "items": _EXPR,
                             "minItems": 2, "maxItems": 2},
                "resolution": {"type": "integer", "minimum": 2},
                "basepoint": _POINT,
                "seed": _POINT,
                "x_window": _PAIR,
                "t_window": _PAIR,
                "nx": {"type": "integer", "minimum": 2},
                "nt": {"type": "integer", "minimum": 2},
            },
        },
    },
}

# the library's own defaults; only tol_jacobi, read by the CLI alone, is set here
DEFAULT_TOLERANCES = {
    "tol_zero": verify.TOL_ZERO,
    "tol_flat": verify.TOL_FLAT,
    "tol_goursat": hodograph.TOL_GOURSAT,
    "tol_jacobi": 1e-6,
    "gap_tol": hodograph.GAP_TOL,
    "newton_tol": hodograph.NEWTON_TOL,
}


class LoadedConfig:
    """A validated config: the built system plus the extra sections."""

    def __init__(self, system: SystemDef, tolerances: dict, hodograph: dict,
                 raw: dict):
        self.system = system
        self.tolerances = tolerances
        self.hodograph = hodograph
        self.raw = raw


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path):
    out = "$"
    for key in path:
        if isinstance(key, int):
            out += f"[{key}]"
        elif _PLAIN_KEY.match(key):
            out += "." + key
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _schema_errors(value, schema, path=()):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Covers the keywords ``CONFIG_SCHEMA`` uses, with JSON Schema's meaning:
    bool is neither number nor integer, and 2.0 is an integer.
    """
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_TYPES[k](value) for k in kinds):
        yield path, f"{value!r} is not of type {', '.join(map(repr, kinds))}"
    if "enum" in schema and (isinstance(value, bool) or value not in schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        yield path, f"{value!r} {_too_short(schema['minLength'])}"
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, (f"{value!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} {_too_short(schema['minItems'])}"
        if len(value) > schema.get("maxItems", len(value)):
            yield path, f"{value!r} is too long"
        for i, item in enumerate(value):
            yield from _schema_errors(item, schema.get("items", {}), path + (i,))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        unexpected = [key for key in value if key not in props]
        if extra is False and unexpected:
            verb = "was" if len(unexpected) == 1 else "were"
            yield path, ("Additional properties are not allowed "
                         f"({', '.join(map(repr, unexpected))} {verb} unexpected)")
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is not False:
                yield from _schema_errors(item, sub, path + (key,))


def _too_short(limit):
    return "should be non-empty" if limit == 1 else "is too short"


def validate(doc):
    """Raise `ConfigError` naming the JSON path of a schema violation.

    Of several violations, the shallowest is reported, the way
    ``jsonschema.validate`` picks its best match.
    """
    found = list(_schema_errors(doc, CONFIG_SCHEMA))
    if found:
        path, message = max(found, key=lambda e: (-len(e[0]), e[0]))
        raise ConfigError(f"config invalid at {_json_path(path)}: {message}")


def _non_finite(value, path=()):
    """Yield ``(path, value)`` for each number in ``value`` that is not a
    finite float: `json` reads ``NaN``, ``Infinity``, ``1e999`` and integers
    of any length, and the schema allows them."""
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        yield path, value
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _non_finite(item, path + (key,))


def parse_document(doc: dict) -> LoadedConfig:
    """Validate a decoded JSON document, all its numbers finite, and build
    its system."""
    validate(doc)
    bad = next(_non_finite(doc), None)
    if bad is not None:
        raise ConfigError(f"config invalid at {_json_path(bad[0])}: {bad[1]!r} "
                          "is not a finite float")

    if "N" in doc and doc["N"] != len(doc["coords"]):
        raise ConfigError(
            f"config invalid at $.N: declared {doc['N']} but {len(doc['coords'])} "
            "coordinates are listed")
    box = doc["box"]
    for side in ("min", "max"):
        if len(box[side]) != len(doc["coords"]):
            raise ConfigError(
                f"config invalid at $.box.{side}: expected {len(doc['coords'])} "
                "entries")

    affinors = None
    if "affinors" in doc:
        affinors = [(a["sign"], a["matrix"]) for a in doc["affinors"]]
    try:
        system = SystemDef(
            doc["coords"],
            g_upper=doc.get("g_upper"),
            b=doc.get("b"),
            V=doc.get("V"),
            v_diag=doc.get("v_diag"),
            affinors=affinors,
            h_ultra=doc.get("h_ultra"),
            gamma=doc.get("gamma"),
            params=doc.get("params"),
            box=Box(tuple(box["min"]), tuple(box["max"])),
            name=doc["name"])
    except (ExprSyntaxError, UnknownSymbolError) as err:
        # the error's own text names the position
        raise ConfigError(f"expression error: {err}") from err
    except ValueError as err:
        raise ConfigError(f"config invalid: {err}") from err

    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(doc.get("tolerances", {}))
    return LoadedConfig(system, tolerances, dict(doc.get("hodograph", {})), doc)


def load_config(path) -> LoadedConfig:
    """Load, validate and build a system from a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: JSON syntax error at line {err.lineno} column {err.colno}: "
            f"{err.msg}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    try:
        return parse_document(doc)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err
