"""Small symbolic expression language over named real symbols.

Expressions are immutable trees built from numbers, names, the binary
operators ``+ - * / ^``, unary negation, and the functions ``sin``, ``cos``,
``tan``, ``exp``, ``log``, ``sqrt``, ``abs``, ``neg``.  They support exact
symbolic differentiation and IEEE double evaluation (scalar or elementwise
over NumPy arrays).  Operator precedence is ``^``, then unary minus, then
``* /``, then ``+ -``; binary operators of equal precedence associate left,
``^`` associates right.

Arithmetic operators on nodes (``a + b``, ``-a``, ``a ** b``) build new trees
through light constant folding (``0*x -> 0``, ``x+0 -> x``, ``1*x -> x`` and
friends), which keeps repeated differentiation from blowing up the tree.
``parse`` itself never folds: the tree mirrors the source.
`evaluate_table` evaluates an object array of expressions over a point
batch; it is the one path by which the other modules evaluate expressions.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownSymbolError

__all__ = [
    "Expr", "Number", "Name", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "FUNCTIONS", "parse", "as_expr", "differentiate", "evaluate",
    "evaluate_table", "to_source", "free_names",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


class Expr:
    """Base class for expression nodes; arithmetic on nodes folds constants."""

    __slots__ = ()

    def __add__(self, other):
        return _fold_add(self, _coerce(other))

    def __radd__(self, other):
        return _fold_add(_coerce(other), self)

    def __sub__(self, other):
        return _fold_sub(self, _coerce(other))

    def __rsub__(self, other):
        return _fold_sub(_coerce(other), self)

    def __mul__(self, other):
        return _fold_mul(self, _coerce(other))

    def __rmul__(self, other):
        return _fold_mul(_coerce(other), self)

    def __truediv__(self, other):
        return _fold_div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _fold_div(_coerce(other), self)

    def __pow__(self, other):
        return _fold_pow(self, _coerce(other))

    def __neg__(self):
        return _fold_neg(self)

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True, eq=True)
class Number(Expr):
    value: float


@dataclass(frozen=True, eq=True)
class Name(Expr):
    name: str


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, eq=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, eq=True)
class Call(Expr):
    func: str
    operand: Expr


def _coerce(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, numbers.Real):
        return Number(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


def _is_const(e, v=None):
    return isinstance(e, Number) and (v is None or e.value == v)


def _fold_add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Number(a.value + b.value)
    return Add(a, b)


def _fold_sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Number(a.value - b.value)
    if _is_const(a, 0.0):
        return _fold_neg(b)
    return Sub(a, b)


def _fold_mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Number(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Number(a.value * b.value)
    return Mul(a, b)


def _fold_div(a, b):
    if _is_const(a, 0.0):
        return Number(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Number(a.value / b.value)
    return Div(a, b)


def _fold_pow(base, expo):
    if _is_const(expo, 1.0):
        return base
    if _is_const(expo, 0.0):
        return Number(1.0)
    if _is_const(base, 1.0):
        return Number(1.0)
    if _is_const(base) and _is_const(expo):
        e = expo.value
        if base.value > 0.0 or e == int(e):
            return Number(float(np.power(base.value, e)))
    return Pow(base, expo)


def _fold_neg(a):
    if isinstance(a, Neg):
        return a.operand
    if _is_const(a):
        return Number(-a.value)
    return Neg(a)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            rest = source[pos:].lstrip()
            if not rest:
                break
            at = len(source) - len(rest)
            raise ExprSyntaxError(f"unexpected character {rest[0]!r}", at)
        if m.group("number") is not None:
            text, at = m.group("number"), m.start("number")
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is not a finite float", at)
            tokens.append(("number", value, at))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.symbols = frozenset(symbols)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops):
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.advance()
            return value
        return None

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            found = repr(value) if kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected '{op}', found {found}", pos)
        self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return node
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)

    def parse_term(self):
        node = self.parse_unary()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return node
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)

    def parse_unary(self):
        if self.accept_op("-"):
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.accept_op("^"):
            # exponent re-enters at unary level: x^-2 and x^y^z work,
            # and ^ ends up binding tighter than unary minus
            return Pow(base, self.parse_unary())
        return base

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "number":
            self.advance()
            return Number(value)
        if kind == "name":
            self.advance()
            if self.accept_op("("):
                if value == "neg":
                    inner = self.parse_expr()
                    self.expect_op(")")
                    return Neg(inner)
                if value not in FUNCTIONS:
                    raise UnknownSymbolError(value, pos)
                inner = self.parse_expr()
                self.expect_op(")")
                return Call(value, inner)
            if value not in self.symbols:
                raise UnknownSymbolError(value, pos)
            return Name(value)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        found = repr(value) if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a number, name or '(', found {found}", pos)


def parse(source: str, symbols) -> Expr:
    """Parse ``source`` into an expression tree.

    Parameters
    ----------
    source : str
        Expression text, e.g. ``"a + b*c^2"``.
    symbols : sequence of str
        Names allowed to appear as free symbols (coordinates and parameters).

    Returns
    -------
    Expr
        Tree mirroring the source; no simplification is applied.

    Raises
    ------
    ExprSyntaxError
        On malformed input, with the failing character position.
    UnknownSymbolError
        If a name is neither declared in ``symbols`` nor a known function.
    """
    parser = _Parser(_tokenize(source), symbols)
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
    return node


def as_expr(entry, symbols, what) -> Expr:
    """The expression an entry declares: an `Expr`, source text or a number.

    A real number ``x`` is parsed as ``repr(float(x))``, so ``1.5`` and
    ``"1.5"`` give the same tree.  An `Expr` naming anything outside
    ``symbols`` raises ``ValueError`` naming ``what``.
    """
    if isinstance(entry, str):
        return parse(entry, symbols)
    if isinstance(entry, numbers.Real):
        return parse(repr(float(entry)), symbols)
    if not isinstance(entry, Expr):
        raise TypeError(f"cannot use {entry!r} as {what}")
    bad = free_names(entry) - frozenset(symbols)
    if bad:
        raise ValueError(f"{what} references undeclared names {sorted(bad)}")
    return entry


# --- differentiation -------------------------------------------------------

@functools.singledispatch
def _diff(e, var):
    raise TypeError(f"cannot differentiate {type(e).__name__}")


@_diff.register
def _(e: Number, var):
    return Number(0.0)


@_diff.register
def _(e: Name, var):
    return Number(1.0 if e.name == var else 0.0)


@_diff.register
def _(e: Neg, var):
    return -_diff(e.operand, var)


@_diff.register
def _(e: Add, var):
    return _diff(e.left, var) + _diff(e.right, var)


@_diff.register
def _(e: Sub, var):
    return _diff(e.left, var) - _diff(e.right, var)


@_diff.register
def _(e: Mul, var):
    return _diff(e.left, var) * e.right + e.left * _diff(e.right, var)


@_diff.register
def _(e: Div, var):
    du, dv = _diff(e.left, var), _diff(e.right, var)
    return (du * e.right - e.left * dv) / (e.right * e.right)


@_diff.register
def _(e: Pow, var):
    db = _diff(e.base, var)
    if isinstance(e.exponent, Number):
        n = e.exponent.value
        return _coerce(n) * _fold_pow(e.base, Number(n - 1.0)) * db
    de = _diff(e.exponent, var)
    # general rule d(u^v) = u^v (v' log u + v u'/u), defined for u > 0
    return e * (de * Call("log", e.base) + e.exponent * db / e.base)


@_diff.register
def _(e: Call, var):
    u, du = e.operand, _diff(e.operand, var)
    if e.func == "sin":
        return Call("cos", u) * du
    if e.func == "cos":
        return -(Call("sin", u) * du)
    if e.func == "tan":
        return du / (Call("cos", u) * Call("cos", u))
    if e.func == "exp":
        return Call("exp", u) * du
    if e.func == "log":
        return du / u
    if e.func == "sqrt":
        return du / (_coerce(2.0) * Call("sqrt", u))
    if e.func == "abs":
        # derivative of |u| away from u = 0; evaluation at 0 raises DomainError
        return (u / Call("abs", u)) * du
    raise TypeError(f"no derivative rule for '{e.func}'")


def differentiate(e: Expr, var: str) -> Expr:
    """Exact derivative of ``e`` with respect to the symbol ``var``.

    The result is a new tree over the same symbol set; other symbols are
    treated as constants.  Constant subtrees fold so that repeated
    differentiation stays bounded.
    """
    return _diff(e, var)


# --- evaluation ------------------------------------------------------------

@functools.singledispatch
def _eval(e, env):
    raise TypeError(f"cannot evaluate {type(e).__name__}")


@_eval.register
def _(e: Number, env):
    return e.value


@_eval.register
def _(e: Name, env):
    try:
        return env[e.name]
    except KeyError:
        raise UnknownSymbolError(e.name) from None


@_eval.register
def _(e: Neg, env):
    return -_eval(e.operand, env)


@_eval.register
def _(e: Add, env):
    return _eval(e.left, env) + _eval(e.right, env)


@_eval.register
def _(e: Sub, env):
    return _eval(e.left, env) - _eval(e.right, env)


@_eval.register
def _(e: Mul, env):
    return _eval(e.left, env) * _eval(e.right, env)


@_eval.register
def _(e: Div, env):
    num, den = _eval(e.left, env), _eval(e.right, env)
    if np.any(np.asarray(den) == 0.0):
        raise DomainError("division by zero", e)
    return num / den


@_eval.register
def _(e: Pow, env):
    base, expo = _eval(e.base, env), _eval(e.exponent, env)
    b, x = np.asarray(base, dtype=float), np.asarray(expo, dtype=float)
    integral = x == np.floor(x)
    if np.any(~integral & (b <= 0.0)) or np.any(integral & (x < 0.0) & (b == 0.0)):
        raise DomainError("power outside domain", e)
    return np.power(base, expo)


@_eval.register
def _(e: Call, env):
    v = _eval(e.operand, env)
    if e.func == "log":
        if np.any(np.asarray(v) <= 0.0):
            raise DomainError("log of non-positive value", e)
        return np.log(v)
    if e.func == "sqrt":
        if np.any(np.asarray(v) < 0.0):
            raise DomainError("sqrt of negative value", e)
        return np.sqrt(v)
    if e.func == "abs":
        return np.abs(v)
    return _NUMPY_FUNCS[e.func](v)


_NUMPY_FUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp}


def evaluate(e: Expr, env) -> float | np.ndarray:
    """Evaluate ``e`` in IEEE double precision.

    Parameters
    ----------
    e : Expr
    env : mapping of str to float or ndarray
        Values for every free symbol; arrays broadcast elementwise.

    Raises
    ------
    DomainError
        On division by zero, ``log``/``sqrt`` outside their domain, or a
        power with non-integer exponent and non-positive base.  The error
        carries the offending subexpression.
    """
    return _eval(e, env)


def evaluate_table(exprs, names, params, pts) -> np.ndarray:
    """Values of the object array ``exprs`` over a batch of points.

    ``pts[..., i]`` is the value of ``names[i]`` and ``params`` maps the
    other free symbols; the result has shape ``pts.shape[:-1] + exprs.shape``.
    An expression object held by several entries is evaluated once, constant
    entries are broadcast over the batch, and `DomainError` propagates as
    from `evaluate`.  Overflow and invalid operations give inf and nan
    without numpy warnings: the checks that read the values report them as
    non-finite residuals with a witness.
    """
    pts = np.asarray(pts, dtype=float)
    env = dict(params)
    env.update((c, pts[..., i]) for i, c in enumerate(names))
    batch = pts.shape[:-1]
    out = np.empty(batch + (exprs.size,))
    first = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, e in enumerate(exprs.flat):
            seen = first.setdefault(id(e), k)
            out[..., k] = out[..., seen] if seen != k else evaluate(e, env)
    return out.reshape(batch + exprs.shape)


# --- printing --------------------------------------------------------------

_PREC = {Add: 10, Sub: 10, Mul: 20, Div: 20, Neg: 30, Pow: 40}


def _prec(e):
    return _PREC.get(type(e), 100)


def _wrap(e, minimum):
    s = to_source(e)
    return f"({s})" if _prec(e) < minimum else s


def _format_number(v):
    # folding can still make inf and nan, which print as their repr
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expr) -> str:
    """Render a tree to text that reparses to a structurally identical tree."""
    if isinstance(e, Number):
        return _format_number(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, 30)
    if isinstance(e, Add):
        return f"{_wrap(e.left, 10)} + {_wrap(e.right, 11)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 10)} - {_wrap(e.right, 11)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 20)}*{_wrap(e.right, 21)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 20)}/{_wrap(e.right, 21)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 41)}^{_wrap(e.exponent, 30)}"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.operand)})"
    raise TypeError(f"cannot print {type(e).__name__}")


def free_names(e: Expr) -> frozenset[str]:
    """Set of symbol names appearing in ``e``."""
    if isinstance(e, Name):
        return frozenset((e.name,))
    if isinstance(e, (Number,)):
        return frozenset()
    if isinstance(e, Neg):
        return free_names(e.operand)
    if isinstance(e, Call):
        return free_names(e.operand)
    if isinstance(e, Pow):
        return free_names(e.base) | free_names(e.exponent)
    return free_names(e.left) | free_names(e.right)
