"""Property tests of the expression language.

Two oracles that share no code with `expr`: hypothesis builds the trees,
and sympy differentiates the same source text.  Printing must reparse to
the tree it printed, for every tree `parse` can produce, and the exact
derivative must agree with sympy's at sample points.  The jets that
`tensor` evaluates take `differentiate` as their oracle, over the same
trees.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor, parse_expr, standard_transformations,
)

from hydrobrackets import expr
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


# --- jets against the symbolic derivatives -------------------------------------

JET_COORDS = ("U1", "x")    # "a" and "b" stay parameters
JET_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])


def _symbolic_jet(tree, env, order):
    """The value, gradient and (order 2) Hessian by `evaluate` of
    `differentiate`, or ``None`` where one of them raises `DomainError`.

    Hessian entry ``[r][q]`` differentiates in the later coordinate first,
    as the jets report it; both orders of each mixed partial must evaluate.
    """
    try:
        with np.errstate(all="ignore"):
            out = [evaluate(tree, env)]
            first = [differentiate(tree, c) for c in JET_COORDS]
            out.append([evaluate(d, env) for d in first])
            if order == 2:
                second = [[evaluate(differentiate(d, c), env) for d in first]
                          for c in JET_COORDS]
                n = len(JET_COORDS)
                out.append([[second[min(r, q)][max(r, q)] for q in range(n)]
                            for r in range(n)])
    except DomainError:
        return None
    return out


def _agree(jet, symbolic):
    """Equal to 1e-12 relative, or one of them is not finite."""
    if not (math.isfinite(jet) and math.isfinite(symbolic)):
        return True
    return abs(jet - symbolic) <= 1e-12 * max(abs(jet), abs(symbolic))


def check_jets(tree, coords, params):
    """Jets of order 1 and 2 against `differentiate` applied once and twice:
    the value part bitwise, the derivatives to 1e-12 relative where both are
    finite, and `DomainError` at the same points."""
    params = dict(zip(("a", "b"), params))
    env = dict(zip(JET_COORDS, coords)) | params
    table = np.array([tree], dtype=object)
    for order in (1, 2):
        want = _symbolic_jet(tree, env, order)
        try:
            got = expr.jet_table(table, JET_COORDS, params, np.array([coords]), order)
        except DomainError:
            got = None
        assert (got is None) == (want is None), order
        if want is None:
            continue
        assert got[0][0, 0].tobytes() == np.float64(want[0]).tobytes()
        for r in range(len(JET_COORDS)):
            assert _agree(got[1][0, r, 0], want[1][r]), (order, r)
            if order == 2:
                for q in range(len(JET_COORDS)):
                    assert _agree(got[2][0, r, q, 0], want[2][r][q]), (r, q)


@SETTINGS
@given(parsed_trees, st.tuples(JET_VALUES, JET_VALUES),
       st.tuples(JET_VALUES, JET_VALUES))
def test_jets_match_the_symbolic_derivatives(tree, coords, params):
    check_jets(tree, coords, params)


@pytest.mark.parametrize("coords", [(2.0, 0.5), (-1.0, 1.5), (0.5, 2.0),
                                    (2.0, 0.0), (2.0, -1.0), (0.5, -1.0)])
def test_jets_of_a_power_whose_exponent_is_a_coordinate(coords):
    """In x^U1 `differentiate` takes the power rule in x and the general
    rule in U1; the rows of a jet take the general rule together.  The two
    still agree to rounding and raise at the same points (at x = 0 and
    x < 0 the general rule's log raises, in both forms)."""
    check_jets(parse("x^U1", ["U1", "x"]), coords, (1.0, 1.0))
