"""The config schema walk against the ``jsonschema`` package.

`config.validate` walks ``CONFIG_SCHEMA`` itself, so loading a config does
not import ``jsonschema``.  Here ``jsonschema.validate`` is the oracle:
documents generated from the schema, and the same documents after one
mutation, must get the same accept/reject verdict and the same JSON path
from both.
"""

import copy
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets import config, library
from hydrobrackets.errors import ConfigError

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
JUNK = [None, True, False, 0, -1, 1, 2.0, 0.5, -0.0, math.nan, math.inf, "",
        "x", [], [1.0], ["x"], {}, {"k": 1}]


def instances(schema):
    """Documents that satisfy ``schema``, over the keywords the config uses."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if isinstance(kind, list):
        return st.one_of([instances(dict(schema, type=k)) for k in kind])
    if kind == "object":
        props = schema.get("properties", {})
        if not props:
            return st.dictionaries(st.text(max_size=4),
                                   instances(schema["additionalProperties"]),
                                   max_size=3)
        required = set(schema.get("required", ()))
        return st.fixed_dictionaries(
            {k: instances(s) for k, s in props.items() if k in required},
            optional={k: instances(s) for k, s in props.items() if k not in required})
    if kind == "array":
        low = schema.get("minItems", 0)
        return st.lists(instances(schema["items"]), min_size=low,
                        max_size=min(schema.get("maxItems", low + 2), low + 2))
    if kind == "string":
        return st.text(min_size=schema.get("minLength", 0), max_size=4)
    if kind == "integer":
        low = schema.get("minimum", -10)
        return st.integers(low, low + 10).flatmap(
            lambda v: st.sampled_from([v, float(v)]))
    assert kind == "number", schema
    if "exclusiveMinimum" in schema:
        bound = schema["exclusiveMinimum"]
        return st.one_of(st.floats(min_value=bound, exclude_min=True),
                         st.integers(bound + 1, 10**6), st.just(math.nan))
    return st.one_of(st.integers(-10**6, 10**6), st.floats())


def paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from paths(item, path + (i,))


@st.composite
def mutants(draw):
    """A valid document with one node replaced, dropped, or given an extra."""
    doc = copy.deepcopy(draw(instances(config.CONFIG_SCHEMA)))
    path = draw(st.sampled_from(list(paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    moves = ["replace"] if path else []
    if isinstance(node, dict):
        moves += ["add"] + (["drop"] if node else [])
    if isinstance(node, list):
        moves += ["append"] + (["drop", "clear"] if node else [])
    move = draw(st.sampled_from(moves))
    junk = draw(st.sampled_from(JUNK))
    if move == "replace":
        parent[path[-1]] = copy.deepcopy(junk)
    elif move == "add":
        node[draw(st.sampled_from(["extra", "N", "name", "a b", "min"]))] = junk
    elif move == "append":
        node.append(copy.deepcopy(junk))
    elif move == "clear":
        node.clear()
    else:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        del node[draw(st.sampled_from(keys))]
    return doc


# what `jsonschema.validate` does after checking the schema, which
# `test_schema_is_valid_json_schema` does once
ORACLE = jsonschema.Draft202012Validator(config.CONFIG_SCHEMA)


def oracle(doc):
    """``(json path, message)`` of jsonschema's best match, or ``None``."""
    err = jsonschema.exceptions.best_match(ORACLE.iter_errors(doc))
    return None if err is None else (err.json_path, err.message)


def walked(doc):
    try:
        config.validate(doc)
    except ConfigError as err:
        return str(err)
    return None


def assert_same_verdict(doc):
    want, got = oracle(doc), walked(doc)
    if want is None:
        assert got is None
        return
    assert got is not None, want
    assert got.startswith(f"config invalid at {want[0]}: "), (got, want)
    errors = list(ORACLE.iter_errors(doc))
    if len(errors) == 1 and not errors[0].message.startswith("Additional"):
        assert got == f"config invalid at {want[0]}: {want[1]}"


def test_schema_is_valid_json_schema():
    jsonschema.Draft202012Validator.check_schema(config.CONFIG_SCHEMA)


@SETTINGS
@given(instances(config.CONFIG_SCHEMA))
def test_generated_documents_are_accepted_by_both(doc):
    assert oracle(doc) is None
    assert walked(doc) is None


@SETTINGS
@given(mutants())
def test_mutated_documents_get_the_oracle_verdict_and_path(doc):
    assert_same_verdict(doc)


@pytest.mark.parametrize("name", library.names())
def test_builtin_configs_pass_both(name):
    doc = library.load(name).raw
    assert oracle(doc) is None and walked(doc) is None


@pytest.mark.parametrize("doc", [
    [],                                                     # not an object
    {"name": "x", "coords": ["u"]},                         # box missing
    {"name": "x", "coords": ["u"], "box": {"min": [0], "max": [1]}, "N": True},
    {"name": "x", "coords": ["u"], "box": {"min": [0], "max": [1]}, "N": 2.0},
    {"name": "x", "coords": ["u"], "box": {"min": [0], "max": [1]}, "N": 0.5},
    {"name": "x", "coords": ["u"], "box": {"min": [0], "max": [1]},
     "affinors": [{"sign": 1.0, "matrix": [["1"]]}, {"sign": True, "matrix": [["1"]]}]},
    {"name": "x", "coords": ["u"], "box": {"min": [0], "max": [True]},
     "tolerances": {"tol_zero": 0}},
    {"name": "", "coords": [""], "box": {"min": [], "max": [1, 2, 3]},
     "params": {"a b": "1", "k": 1}, "q": 1, "r": 2},
    {"name": "x", "coords": ["u"], "box": {"min": [0], "max": [1]},
     "hodograph": {"x_window": [0, 1, 2], "boundary": ["u"], "nt": 1.0}},
])
def test_edge_documents_get_the_oracle_verdict_and_path(doc):
    assert_same_verdict(doc)


@pytest.mark.parametrize("entry, message", [
    ("log(U1 - 1e999)", "number '1e999' is not a finite float (at position 9)"),
    ("1 + q", "unknown symbol 'q' (at position 4)"),
    ("exp(-2*U1^", "expected a number, name or '(', found end of input "
                   "(at position 10)"),
])
def test_expression_errors_name_their_position_once(entry, message):
    doc = {"name": "x", "coords": ["U1"], "g_upper": [[entry]],
           "box": {"min": [1.0], "max": [2.0]}}
    with pytest.raises(ConfigError) as err:
        config.parse_document(doc)
    assert str(err.value) == f"expression error: {message}"
