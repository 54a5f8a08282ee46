"""Property tests of the expression language.

Two oracles that share no code with `expr`: hypothesis builds the trees,
and sympy differentiates the same source text.  Printing must reparse to
the tree it printed, for every tree `parse` can produce, and the exact
derivative must agree with sympy's at sample points.
"""

import dataclasses
import math
import sys

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor, parse_expr, standard_transformations,
)

from hydrobrackets.errors import DomainError
from hydrobrackets.expr import (
    FUNCTIONS, Add, Call, Div, Expr, Mul, Name, Neg, Number, Pow, Sub,
    differentiate, evaluate, parse, to_source,
)

NAMES = ("a", "b", "U1", "x")
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# `parse` reads only nonnegative literals (a minus sign is a `Neg`), so the
# edge cases are the extremes of the finite nonnegative floats
EDGE_LITERALS = (0.0, 5e-324, sys.float_info.min, 1e-300, 0.1, 1e15, 1e16,
                 2.0 ** 53 + 2.0, 1e300, sys.float_info.max)
literals = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_LITERALS))


def _binary(children):
    return st.one_of(*(st.builds(node, children, children)
                       for node in (Add, Sub, Mul, Div, Pow)))


parsed_trees = st.recursive(
    st.one_of(literals.map(Number), st.sampled_from(NAMES).map(Name)),
    lambda children: st.one_of(
        children.map(Neg),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        _binary(children)),
    max_leaves=25)


@SETTINGS
@given(parsed_trees)
def test_printed_source_reparses_to_the_same_tree(tree):
    assert parse(to_source(tree), NAMES) == tree


@SETTINGS
@given(literals)
def test_every_finite_literal_survives_the_round_trip(value):
    assert parse(to_source(Number(value)), NAMES) == Number(value)


# --- derivatives against sympy -----------------------------------------------

VARS = ("x", "y")
SYMBOLS = {name: sympy.Symbol(name, real=True) for name in VARS}
TRANSFORMS = standard_transformations + (convert_xor,)
SMOOTH = ("sin", "cos", "exp")


def _positive(tree):
    return Add(Mul(tree, tree), Number(0.5))


smooth_trees = st.recursive(
    st.one_of(st.floats(min_value=0.0, max_value=3.0).map(Number),
              st.sampled_from(VARS).map(Name)),
    lambda children: st.one_of(
        children.map(Neg),
        st.builds(Call, st.sampled_from(SMOOTH), children),
        st.builds(Call, st.sampled_from(("log", "sqrt", "abs")),
                  children.map(_positive)),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(lambda a, b: Div(a, _positive(b)), children, children),
        st.builds(lambda a, b: Pow(_positive(a), b), children, children),
        st.builds(Pow, children, st.integers(0, 4).map(float).map(Number))),
    max_leaves=10)
points = st.tuples(st.floats(min_value=-1.5, max_value=1.5),
                   st.floats(min_value=-1.5, max_value=1.5))


def _nodes(tree):
    yield tree
    for field in dataclasses.fields(tree):
        child = getattr(tree, field.name)
        if isinstance(child, Expr):
            yield from _nodes(child)


@SETTINGS
@given(smooth_trees, st.sampled_from(VARS), points)
def test_derivative_matches_sympy(tree, var, point):
    env = dict(zip(VARS, point))
    derivative = differentiate(tree, var)
    # every intermediate of the tree and its derivative finite and below
    # 1e6, so double roundoff stays far below the tolerance
    try:
        values = [evaluate(node, env)
                  for node in (*_nodes(tree), *_nodes(derivative))]
    except DomainError:
        assume(False)
    assume(all(math.isfinite(v) and abs(v) < 1e6 for v in values))

    oracle = sympy.diff(parse_expr(to_source(tree), local_dict=dict(SYMBOLS),
                                   transformations=TRANSFORMS), SYMBOLS[var])
    exact = float(oracle.evalf(30, subs={SYMBOLS[n]: env[n] for n in VARS}))
    assert abs(evaluate(derivative, env) - exact) <= 1e-8 * (1.0 + abs(exact))
