import itertools

import numpy as np
import pytest

from hydrobrackets import expr as ex
from hydrobrackets.errors import DomainError, ExprSyntaxError, UnknownSymbolError
from hydrobrackets.expr import (
    Add, Call, Div, Mul, Name, Neg, Number, Pow, Sub,
    differentiate, evaluate, parse, to_source,
)

SYMS = ["a", "b", "c", "U1", "U2", "R1", "R2", "x"]


# --- independent derivative oracle (frozen before any implementation use) ---

def numeric_derivative(e, var, env, h=1e-4):
    """Richardson-extrapolated central difference, O(h^6)."""
    def f(t):
        shifted = dict(env)
        shifted[var] = t
        return evaluate(e, shifted)

    t0 = env[var]
    d1 = (f(t0 + h) - f(t0 - h)) / (2 * h)
    d2 = (f(t0 + h / 2) - f(t0 - h / 2)) / h
    d3 = (f(t0 + h / 4) - f(t0 - h / 4)) / (h / 2)
    # two Richardson steps on the O(h^2) stencil
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15


def random_tree(rng, names, depth):
    """Seeded random expression tree, arity-weighted, depth-bounded."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            # the lexer only produces nonnegative literals; negatives arrive as Neg
            leaf = Number(round(float(rng.uniform(0, 3)), 3))
            return Neg(leaf) if rng.random() < 0.3 else leaf
        return Name(str(rng.choice(names)))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "call"])
    if kind == "neg":
        return Neg(random_tree(rng, names, depth - 1))
    if kind == "call":
        fn = str(rng.choice(["sin", "cos", "exp"]))
        return Call(fn, random_tree(rng, names, depth - 1))
    left = random_tree(rng, names, depth - 1)
    right = random_tree(rng, names, depth - 1)
    if kind == "add":
        return Add(left, right)
    if kind == "sub":
        return Sub(left, right)
    if kind == "mul":
        return Mul(left, right)
    if kind == "div":
        # keep denominators bounded away from zero
        return Div(left, Add(Mul(right, right), Number(1.5)))
    return Pow(Add(Mul(left, left), Number(1.0)), Number(float(rng.integers(1, 4))))


# --- parsing ----------------------------------------------------------------

def test_parse_structure_simple():
    tree = parse("a + b*c^2", SYMS)
    assert tree == Add(Name("a"), Mul(Name("b"), Pow(Name("c"), Number(2.0))))


def test_parse_structure_divide_parens():
    tree = parse("(3*R1 + R2)/4", SYMS)
    assert tree == Div(Add(Mul(Number(3.0), Name("R1")), Name("R2")), Number(4.0))


def test_parse_function_call():
    assert parse("sin(x)", SYMS) == Call("sin", Name("x"))
    assert parse("neg(x)", SYMS) == Neg(Name("x"))


def test_parse_precedence_unary_vs_power():
    # ^ binds tighter than unary minus
    assert parse("-x^2", SYMS) == Neg(Pow(Name("x"), Number(2.0)))
    assert parse("x^-2", SYMS) == Pow(Name("x"), Neg(Number(2.0)))


def test_parse_left_associativity():
    assert parse("a - b - c", SYMS) == Sub(Sub(Name("a"), Name("b")), Name("c"))
    assert parse("a/b/c", SYMS) == Div(Div(Name("a"), Name("b")), Name("c"))


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse("a + zz", SYMS)
    with pytest.raises(UnknownSymbolError):
        parse("sinh(a)", SYMS)


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("a + * b", SYMS)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse("a + (b", SYMS)
    with pytest.raises(ExprSyntaxError):
        parse("a b", SYMS)
    with pytest.raises(ExprSyntaxError):
        parse("", SYMS)


def test_parse_scientific_notation():
    assert parse("1e-3", SYMS) == Number(1e-3)
    assert parse("2.5E+2", SYMS) == Number(250.0)


def test_overflowing_literal_is_a_syntax_error():
    # the same rule as config numbers: a literal must be a finite float
    with pytest.raises(ExprSyntaxError,
                       match="'1e999' is not a finite float") as err:
        parse("log(a - 1e999)", SYMS)
    assert err.value.position == 8
    assert parse("1e-999", SYMS) == Number(0.0)      # underflow stays finite


def test_non_finite_numbers_print():
    # folding can still make them: 1e300*1e300 folds to inf
    assert to_source(Number(1e300) * Number(1e300)) == "inf"
    assert to_source(Number(-float("inf"))) == "-inf"
    assert to_source(Number(float("nan"))) == "nan"


# --- printing round trip -----------------------------------------------------

def test_roundtrip_manual_corners():
    for src in ["-x^2", "x^-2", "a*-b", "-(a*b)", "(a^b)^c", "a^b^c",
                "a - (b - c)", "a/(b/c)", "1/x^2", "-1/x^3", "neg(a) + abs(b)"]:
        first = parse(src, SYMS)
        assert parse(to_source(first), SYMS) == first


def test_negative_constant_base_prints_wrapped():
    # -2^x parses as -(2^x); the printed base must keep its sign inside
    x = Name("x")
    for tree, env in ((Number(-2.0) ** x, {"x": 2.0}),
                      (Pow(Number(-2.0), Number(2.0)), {})):
        printed = to_source(tree)
        assert printed.startswith("(-2)^"), printed
        assert evaluate(parse(printed, SYMS), env) == evaluate(tree, env) == 4.0
    assert to_source(Number(-0.0) ** x) == "0^x"


def test_roundtrip_random_trees():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        tree = random_tree(rng, SYMS[:4], depth=5)
        printed = to_source(tree)
        assert parse(printed, SYMS) == tree, printed


# --- differentiation ---------------------------------------------------------

def test_diff_product_and_chain():
    tree = parse("U1*U2 + sin(U1)", SYMS)
    d = differentiate(tree, "U1")
    rng = np.random.default_rng(7)
    for _ in range(10):
        env = {"U1": float(rng.uniform(-2, 2)), "U2": float(rng.uniform(-2, 2))}
        expected = env["U2"] + np.cos(env["U1"])
        assert abs(evaluate(d, env) - expected) < 1e-12


def test_diff_constant_is_zero_node():
    assert differentiate(parse("7", SYMS), "U2") == Number(0.0)


def test_diff_affine_velocity():
    d = differentiate(parse("(3*R1 + R2)/4", SYMS), "R1")
    env = {"R1": 0.7, "R2": -1.2}
    assert abs(evaluate(d, env) - 0.75) < 1e-15


def test_diff_against_numeric_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 100:
        tree = random_tree(rng, ["a", "b"], depth=4)
        env = {"a": float(rng.uniform(0.3, 2.0)), "b": float(rng.uniform(0.3, 2.0))}
        try:
            sym = evaluate(differentiate(tree, "a"), env)
            ref = numeric_derivative(tree, "a", env)
        except DomainError:
            continue
        if not (np.isfinite(sym) and np.isfinite(ref)) or abs(ref) > 1e3:
            continue
        assert abs(sym - ref) < 1e-6 * (1.0 + abs(ref)), to_source(tree)
        checked += 1


def test_diff_linearity():
    rng = np.random.default_rng(42)
    for _ in range(25):
        e1 = random_tree(rng, ["a", "b"], depth=3)
        e2 = random_tree(rng, ["a", "b"], depth=3)
        alpha = float(rng.uniform(-2, 2))
        combo = ex.Add(ex.Mul(Number(alpha), e1), e2)
        env = {"a": float(rng.uniform(0.5, 1.5)), "b": float(rng.uniform(0.5, 1.5))}
        try:
            lhs = evaluate(differentiate(combo, "b"), env)
            rhs = alpha * evaluate(differentiate(e1, "b"), env) \
                + evaluate(differentiate(e2, "b"), env)
        except DomainError:
            continue
        if np.isfinite(lhs) and np.isfinite(rhs):
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))


def test_diff_power_rules():
    # integer exponent: power rule without log
    d = differentiate(parse("x^3", SYMS), "x")
    assert abs(evaluate(d, {"x": -1.5}) - 3 * 1.5**2) < 1e-12
    # exponent constant in the variable: the power rule, as for a number
    d2 = differentiate(parse("a^b", SYMS), "a")
    env = {"a": 1.7, "b": 2.3}
    assert abs(evaluate(d2, env) - 2.3 * 1.7**1.3) < 1e-12
    with pytest.raises(DomainError):
        evaluate(d2, {"a": -1.0, "b": 0.5})
    # exponent varying with the variable: general rule, positive base only
    d3 = differentiate(parse("a^b", SYMS), "b")
    assert abs(evaluate(d3, env) - 1.7**2.3 * np.log(1.7)) < 1e-12
    with pytest.raises(DomainError):
        evaluate(d3, {"a": -1.0, "b": 2.0})


def test_power_rule_for_a_symbolic_exponent_is_smooth_at_zero():
    """u^a with a = 2 is smooth at u = 0: its derivative is a*u^(a - 1),
    with no division by u, on the symbolic path and on the jets."""
    tree = parse("x^a", SYMS)
    d = differentiate(tree, "x")
    assert d == parse("a*x^(a - 1)", SYMS)
    env = {"x": 0.0, "a": 2.0}
    assert evaluate(d, env) == 0.0
    assert evaluate(differentiate(d, "x"), env) == 2.0
    table = np.array([tree], dtype=object)
    for order in (1, 2):
        got = ex.jet_table(table, ["x"], {"a": 2.0}, np.array([[0.0]]), order)
        assert [float(t.ravel()[0]) for t in got] == [0.0, 0.0, 2.0][:order + 1]
    # a = 0 still meets 0^-1, in both forms
    with pytest.raises(DomainError):
        evaluate(d, {"x": 0.0, "a": 0.0})
    with pytest.raises(DomainError, match="derivative: power outside domain"):
        ex.jet_table(table, ["x"], {"a": 0.0}, np.array([[0.0]]), 1)


def test_diff_abs():
    d = differentiate(parse("abs(x)", SYMS), "x")
    assert evaluate(d, {"x": 2.0}) == 1.0
    assert evaluate(d, {"x": -2.0}) == -1.0
    with pytest.raises(DomainError):
        evaluate(d, {"x": 0.0})


def test_constant_folding_keeps_repeated_derivatives_small():
    tree = parse("x^5 + sin(x)*x", SYMS)
    d = tree
    for _ in range(5):
        d = differentiate(d, "x")

    def count(node):
        if isinstance(node, (Number, Name)):
            return 1
        if isinstance(node, (Neg, Call)):
            return 1 + count(node.operand)
        if isinstance(node, Pow):
            return 1 + count(node.base) + count(node.exponent)
        return 1 + count(node.left) + count(node.right)

    assert count(d) < 400
    env = {"x": 0.9}
    expected = 0.9 * np.cos(0.9) + 5 * np.sin(0.9)  # d^5/dx^5 of x sin x by Leibniz
    assert abs(evaluate(d, env) - (120 + expected)) < 1e-10


_FOLDS = (ex._fold_add, ex._fold_sub, ex._fold_mul, ex._fold_div, ex._fold_pow)


def _outcome(result, args, value, r):
    """A fold's result in row ``r``: its kind ("const", "operand" or
    "node") and the bits of its value, or "DomainError"."""
    if isinstance(result, Number) or type(result) in (float, ex._Rows):
        kind = "const"
    elif any(result is a for a in args):
        kind = "operand"
    else:
        kind = "node"
    try:
        v = value(result)
    except DomainError:
        return kind, "DomainError"
    return kind, np.float64(v[r] if np.ndim(v) else v).tobytes()


def test_fold_identities():
    x = Name("x")
    assert Number(0.0) * x == Number(0.0)
    assert x + Number(0.0) == x
    assert Number(1.0) * x == x
    assert x - 0.0 == x
    assert -(-x) == x
    # an int-valued constant folds exactly as its float twin, and -0.0 as 0
    for twin, others in ((0.0, (Number(0), Number(-0.0))), (1.0, (Number(1),))):
        for c in others:
            for other in (x, Number(2.5), Number(0.0), Number(1.0)):
                for fold in _FOLDS:
                    for args in ((c, other), (other, c)):
                        want = fold(ex._SYMBOLIC, *[Number(twin) if a is c else a
                                                    for a in args])
                        got = fold(ex._SYMBOLIC, *args)
                        assert got == want and to_source(got) == to_source(want)
            assert ex._fold_neg(ex._SYMBOLIC, c) == Number(-twin)
    assert x - Number(-0.0) == x and Number(-0.0) - x == Neg(x)
    assert x ** Number(-0.0) == Number(1.0) and Number(-0.0) / x == Number(0.0)
    # numpy refuses integers to negative integer powers; the folds read floats
    assert Number(2) ** Number(-1) == Number(0.5)
    # the jet representations: constants (float), a stack of row constants
    # (neither zero nor one in any row) and node values; the tree twin of a
    # stack is row r's Number, of a node value a Name bound to it
    rows = np.array([2.0, -3.0])
    env = {"x": 0.75, "y": 1.5}
    consts = (0.0, -0.0, 1.0, 2.5, -2.0, ex._Rows(rows))

    def jet_value(v):
        if type(v) is ex._Pending:
            raise DomainError(v.message)
        c = ex._JETS.const(v)
        return v if c is None else c

    for fold in _FOLDS + (ex._fold_neg,):
        arity = 1 if fold is ex._fold_neg else 2
        for pick in itertools.product(consts + ("node",), repeat=arity):
            jargs = tuple(np.float64(env["xy"[k]]) if isinstance(a, str) else a
                          for k, a in enumerate(pick))
            jet = fold(ex._JETS, *jargs)
            if type(jet) is ex._Rows:
                # zero in every row is the float zero, which later folds see
                assert np.any(jet.rows), (fold.__name__, pick)
            wants, gots = [], []
            for r in range(len(rows)):
                targs = tuple(Name("xy"[k]) if isinstance(a, str)
                              else Number(float(a.rows[r])) if type(a) is ex._Rows
                              else Number(a) for k, a in enumerate(pick))
                tree = fold(ex._SYMBOLIC, *targs)
                wants.append(_outcome(tree, targs, lambda t: evaluate(t, env), r))
                gots.append(_outcome(jet, jargs, jet_value, r))
            where = (fold.__name__, pick)
            if gots == wants:
                continue
            # a stack's rows take one branch together: as a divisor or in a
            # power it is a node, outside its domain if any row is
            stacked = jargs[-1:] if fold is ex._fold_div else jargs
            assert fold in (ex._fold_div, ex._fold_pow), where
            assert any(type(a) is ex._Rows for a in stacked), where
            assert all(g[0] == "node" for g in gots), where
            if gots[0][1] == "DomainError":
                assert ("node", "DomainError") in wants, where
            else:
                assert [g[1] for g in gots] == [w[1] for w in wants], where


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constant_power_that_is_not_a_finite_float_stays_unfolded():
    # the power rule builds 0 * 0^-1, which once folded 0^-1 to inf and warned
    assert differentiate(parse("0^0", SYMS), "x") == Number(0.0)
    for base, expo in ((0.0, -1.0), (-0.0, -3.0), (2.0, 2000.0)):
        assert Number(base) ** Number(expo) == Pow(Number(base), Number(expo))
    with pytest.raises(DomainError, match="power outside domain"):
        evaluate(Number(0.0) ** -1, {})
    assert Number(-2.0) ** 3 == Number(-8.0)
    assert Number(4.0) ** -0.5 == Number(0.5)


# --- evaluation ---------------------------------------------------------------

def test_evaluate_scalar():
    tree = parse("a + b*c^2", SYMS)
    assert evaluate(tree, {"a": 1.0, "b": 2.0, "c": 0.5}) == 1.5
    assert evaluate(parse("exp(0)", SYMS), {}) == 1.0


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(a)", SYMS), {"a": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("log(a)", SYMS), {"a": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("1/a", SYMS), {"a": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("a^0.5", SYMS), {"a": -2.0})
    with pytest.raises(DomainError):
        evaluate(parse("a^-1", SYMS), {"a": 0.0})


def test_evaluate_negative_base_integer_exponent():
    assert evaluate(parse("a^2", SYMS), {"a": -3.0}) == 9.0
    assert evaluate(parse("a^3", SYMS), {"a": -2.0}) == -8.0


def test_evaluate_domain_error_carries_subexpression():
    tree = parse("1 + sqrt(a - 2)", SYMS)
    with pytest.raises(DomainError) as err:
        evaluate(tree, {"a": 0.0})
    assert isinstance(err.value.expr, Call)
    assert err.value.expr.func == "sqrt"


def test_evaluate_array_matches_scalar_loop():
    rng = np.random.default_rng(5)
    tree = parse("sin(a)*b + a/(b^2 + 1) - exp(a/4)", SYMS)
    a = rng.uniform(-2, 2, size=17)
    b = rng.uniform(-2, 2, size=17)
    vec = evaluate(tree, {"a": a, "b": b})
    for i in range(17):
        ref = evaluate(tree, {"a": float(a[i]), "b": float(b[i])})
        assert abs(vec[i] - ref) < 1e-15


def test_evaluate_array_domain_error():
    tree = parse("sqrt(a)", SYMS)
    with pytest.raises(DomainError):
        evaluate(tree, {"a": np.array([1.0, -0.5, 2.0])})


def test_free_names():
    tree = parse("sin(a)*b + c^2", SYMS)
    assert ex.free_names(tree) == frozenset({"a", "b", "c"})
