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
`compile_table` value-numbers a table once, so that `evaluate_table`
evaluates each subexpression its entries share once per batch; `tensor`
compiles the tables a system owns.

Derivatives come two ways from one set of rules (`_rule`) and one set of
constant folds (`_fold_add` ... `_fold_neg`), each written once over an
arithmetic that reads a constant, makes one and makes a node: expression
trees (`_SYMBOLIC`) or jet values (`_Jets`).  At run time every derivative
is a number from the jets: `jet_table` evaluates a table in the executor
`evaluate_table` uses, carrying each value with its derivatives in every
coordinate through one pass.  `tensor`, `hodograph` and `fieldbracket` take
their derivatives from it.  `differentiate` builds the derivative tree; it
is public API and the oracle of the tests, and no other module calls it.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownSymbolError

__all__ = [
    "Expr", "Number", "Name", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "FUNCTIONS", "parse", "as_expr", "differentiate", "evaluate",
    "evaluate_table", "jet_table", "compile_table", "to_source", "free_names",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


class Expr:
    """Base class for expression nodes; arithmetic on nodes folds constants."""

    __slots__ = ()

    def __add__(self, other):
        return _fold_add(_SYMBOLIC, self, _coerce(other))

    def __radd__(self, other):
        return _fold_add(_SYMBOLIC, _coerce(other), self)

    def __sub__(self, other):
        return _fold_sub(_SYMBOLIC, self, _coerce(other))

    def __rsub__(self, other):
        return _fold_sub(_SYMBOLIC, _coerce(other), self)

    def __mul__(self, other):
        return _fold_mul(_SYMBOLIC, self, _coerce(other))

    def __rmul__(self, other):
        return _fold_mul(_SYMBOLIC, _coerce(other), self)

    def __truediv__(self, other):
        return _fold_div(_SYMBOLIC, self, _coerce(other))

    def __rtruediv__(self, other):
        return _fold_div(_SYMBOLIC, _coerce(other), self)

    def __pow__(self, other):
        return _fold_pow(_SYMBOLIC, self, _coerce(other))

    def __neg__(self):
        return _fold_neg(_SYMBOLIC, self)

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


# The folds, written once for two arithmetics: expression trees
# (`_SYMBOLIC`) and jet values (`_Jets`).  ``o.const`` reads a constant
# (``None`` for anything else), ``o.num`` makes one and ``o.node`` makes the
# node of an operator.  Only a Python float is ever zero or one: a stack of
# row constants is neither, and a parameter is an `np.float64` node.

def _fold_add(o, a, b):
    ca, cb = o.const(a), o.const(b)
    if type(ca) is float and ca == 0.0:
        return b
    if type(cb) is float and cb == 0.0:
        return a
    if ca is not None and cb is not None:
        return o.num(ca + cb)
    return o.node(Add, a, b)


def _fold_sub(o, a, b):
    ca, cb = o.const(a), o.const(b)
    if type(cb) is float and cb == 0.0:
        return a
    if ca is not None and cb is not None:
        return o.num(ca - cb)
    if type(ca) is float and ca == 0.0:
        return _fold_neg(o, b)
    return o.node(Sub, a, b)


def _fold_mul(o, a, b):
    ca, cb = o.const(a), o.const(b)
    if type(ca) is float and ca == 0.0 or type(cb) is float and cb == 0.0:
        return o.num(0.0)
    if type(ca) is float and ca == 1.0:
        return b
    if type(cb) is float and cb == 1.0:
        return a
    if ca is not None and cb is not None:
        return o.num(ca * cb)
    return o.node(Mul, a, b)


def _fold_div(o, a, b):
    ca, cb = o.const(a), o.const(b)
    if type(ca) is float and ca == 0.0:
        return o.num(0.0)
    if type(cb) is float and cb == 1.0:
        return a
    if ca is not None and type(cb) is float and cb != 0.0:
        return o.num(ca / cb)
    return o.node(Div, a, b)


def _fold_pow(o, base, expo):
    cb, ce = o.const(base), o.const(expo)
    if type(ce) is float and ce == 1.0:
        return base
    if type(ce) is float and ce == 0.0 or type(cb) is float and cb == 1.0:
        return o.num(1.0)
    if type(cb) is float and type(ce) is float and (cb > 0.0 or ce.is_integer()):
        # a power that is not a finite float (0^-1, 2^2000) stays a Pow,
        # so evaluation reports it as it does any other
        with np.errstate(all="ignore"):
            value = float(np.power(cb, ce))
        if math.isfinite(value):
            return o.num(value)
    return o.node(Pow, base, expo)


def _fold_neg(o, a):
    if isinstance(a, Neg):          # a tree only: a jet value is never a Neg
        return a.operand
    c = o.const(a)
    if c is not None:
        return o.num(-c)
    return o.node(Neg, a)


def _build(op, *args):
    """The node of ``op``, a node class or a function name, over ``args``."""
    return Call(op, *args) if isinstance(op, str) else op(*args)


_SYMBOLIC = SimpleNamespace(
    const=lambda e: float(e.value) if isinstance(e, Number) else None,
    num=Number, node=_build)


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

def _op(e):
    """The operator of a non-leaf node: its class, or a call's function name."""
    return e.func if isinstance(e, Call) else type(e)


def _children(e):
    if isinstance(e, (Neg, Call)):
        return (e.operand,)
    if isinstance(e, Pow):
        return (e.base, e.exponent)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    return ()


def _rule(o, op, args, dargs, value):
    """Derivative of a node with operator ``op``, in the arithmetic ``o``.

    ``args`` are the operands, ``dargs`` their derivatives and ``value``
    the node itself.  `differentiate` runs the rule over expression trees
    (`_SYMBOLIC` builds nodes); jets run it over values (`_Jets` evaluates
    them; ``value`` is the node's value).  Both fold through the same
    `_fold_*` functions, so both take the same branches.
    """
    if op is Neg:
        return _fold_neg(o, dargs[0])
    if op is Add:
        return _fold_add(o, *dargs)
    if op is Sub:
        return _fold_sub(o, *dargs)
    if op in (Mul, Div, Pow):
        (a, b), (da, db) = args, dargs
        if op is Mul:
            return _fold_add(o, _fold_mul(o, da, b), _fold_mul(o, a, db))
        if op is Div:
            return _fold_div(o, _fold_sub(o, _fold_mul(o, da, b), _fold_mul(o, a, db)),
                             _fold_mul(o, b, b))
        cdb = o.const(db)
        if type(cdb) is float and cdb == 0.0:
            # power rule: the exponent is constant in the variable
            power = _fold_pow(o, a, _fold_sub(o, b, o.num(1.0)))
            return _fold_mul(o, _fold_mul(o, b, power), da)
        # general rule d(u^v) = u^v (v' log u + v u'/u), defined for u > 0
        return _fold_mul(o, value, _fold_add(o, _fold_mul(o, db, o.node("log", a)),
                                             _fold_div(o, _fold_mul(o, b, da), a)))
    (u,), (du,) = args, dargs
    if op == "sin":
        return _fold_mul(o, o.node("cos", u), du)
    if op == "cos":
        return _fold_neg(o, _fold_mul(o, o.node("sin", u), du))
    if op == "tan":
        c = o.node("cos", u)
        return _fold_div(o, du, _fold_mul(o, c, c))
    if op == "exp":
        return _fold_mul(o, value, du)
    if op == "log":
        return _fold_div(o, du, u)
    if op == "sqrt":
        return _fold_div(o, du, _fold_mul(o, o.num(2.0), value))
    if op == "abs":
        # derivative of |u| away from u = 0; evaluation at 0 raises DomainError
        return _fold_mul(o, _fold_div(o, u, value), du)
    raise TypeError(f"no derivative rule for '{op}'")


def _diff(e, var):
    if isinstance(e, Number):
        return Number(0.0)
    if isinstance(e, Name):
        return Number(1.0 if e.name == var else 0.0)
    kids = _children(e)
    if not kids:
        raise TypeError(f"cannot differentiate {type(e).__name__}")
    return _rule(_SYMBOLIC, _op(e), kids, [_diff(k, var) for k in kids], e)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact derivative of ``e`` with respect to the symbol ``var``.

    The result is a new tree over the same symbol set; other symbols are
    treated as constants.  Constant subtrees fold so that repeated
    differentiation stays bounded.
    """
    return _diff(e, var)


# --- evaluation ------------------------------------------------------------

def _divide(num, den):
    if not np.all(den):
        raise DomainError("division by zero")
    return num / den


def _power(base, expo):
    b, x = np.asarray(base, dtype=float), np.asarray(expo, dtype=float)
    if x.ndim == 0:
        # one exponent: a nonnegative integer one has no domain to check
        x = float(x)
        if x != float(np.floor(x)):
            bad = np.any(b <= 0.0)
        else:
            bad = x < 0.0 and np.any(b == 0.0)
    else:
        integral = x == np.floor(x)
        bad = np.any(~integral & (b <= 0.0)) or np.any(integral & (x < 0.0) & (b == 0.0))
    if bad:
        raise DomainError("power outside domain")
    return np.power(base, expo)


def _log(v):
    if np.any(np.asarray(v) <= 0.0):
        raise DomainError("log of non-positive value")
    return np.log(v)


def _sqrt(v):
    if np.any(np.asarray(v) < 0.0):
        raise DomainError("sqrt of negative value")
    return np.sqrt(v)


# the arithmetic of every operator, for `evaluate` and for jets alike; each
# raises a DomainError without a subexpression outside its domain
_PRIMITIVES = {
    Neg: operator.neg, Add: operator.add, Sub: operator.sub, Mul: operator.mul,
    Div: _divide, Pow: _power, "log": _log, "sqrt": _sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
}


def _eval(e, env):
    kind = type(e)
    if kind is Number:
        return e.value
    if kind is Name:
        try:
            return env[e.name]
        except KeyError:
            raise UnknownSymbolError(e.name) from None
    if kind is Call:
        op, args = e.func, (_eval(e.operand, env),)
    elif kind is Neg:
        op, args = Neg, (_eval(e.operand, env),)
    elif kind is Pow:
        op, args = Pow, (_eval(e.base, env), _eval(e.exponent, env))
    elif kind in (Add, Sub, Mul, Div):
        op, args = kind, (_eval(e.left, env), _eval(e.right, env))
    else:
        raise TypeError(f"cannot evaluate {kind.__name__}")
    try:
        return _PRIMITIVES[op](*args)
    except DomainError as err:
        raise DomainError(str(err), e) from None


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


# --- jets ------------------------------------------------------------------
#
# A jet of order k is a value and its derivatives in every coordinate up to
# order k (Griewank & Walther, "Evaluating Derivatives", 2008, ch. 13),
# nested: ``_Jet(v, d)`` holds a jet of order k - 1 of the value and one of
# the derivative stack, whose rows are the coordinates.  At order K the
# level-0 arrays have shape (1,)*K + (P,), and level j stacks its rows on
# axis j - 1, so the products of the rules broadcast into outer products.
# Each level applies `_rule` with `_Jets`, so it folds through the same
# `_fold_*` functions as `differentiate`: a Python float is a `Number`,
# `_Rows` a stack of `Number`s (a coordinate's derivative is one-hot), and
# every other value is a node, evaluated as it is made (`_node`).  A stack
# is never zero or one, and a division by it or a power over it is a node.
# A derivative that leaves its domain becomes a `_Pending` error, raised
# only if it survives the folds, as evaluating the folded symbolic
# derivative would raise it.  The rows of a stack take one branch of each
# rule together, where `differentiate` chooses per coordinate; only the
# power rule's branch depends on the coordinate.  So where an exponent
# varies with some coordinates and not others, the jets take the general
# rule in every row.  The two agree there to rounding and raise at the same
# points, except where a power underflows to a subnormal or to zero.


class _Jet:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d


class _Rows:
    """Constants, one per row of a derivative stack; never all zero."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


class _Pending:
    """A derivative outside its domain: the message, and the node whose rule
    met it."""

    __slots__ = ("message", "expr")

    def __init__(self, message, expr):
        self.message, self.expr = message, expr


def _unwrap(x):
    return x.rows if type(x) is _Rows else x


def _node(o, op, *args):
    """A node of ``op`` over ``args``, evaluated with its derivatives, in
    the jet arithmetic ``o``."""
    kinds = [type(a) for a in args]
    if _Pending in kinds:
        return args[kinds.index(_Pending)]
    if _Jet not in kinds:
        try:
            value = _PRIMITIVES[op](*[a.rows if k is _Rows else a
                                      for a, k in zip(args, kinds)])
        except DomainError as err:
            return _Pending(str(err), o.expr)
        # a node's value is never a Number, so it is never folded
        return np.float64(value) if type(value) is float else value
    values = [a.v if k is _Jet else a for a, k in zip(args, kinds)]
    v = _node(o, op, *values)
    if type(v) is _Pending:
        return v
    dargs = [a.d if k is _Jet else 0.0 for a, k in zip(args, kinds)]
    return _Jet(v, _rule(o, op, values, dargs, v))


def _jet_const(x):
    t = type(x)
    return x if t is float else x.rows if t is _Rows else None


def _jet_num(c):
    if type(c) is float:
        return c
    return _Rows(c) if np.count_nonzero(c) else 0.0


class _Jets:
    """The jet arithmetic within the rule of the node ``expr``: the
    `_Pending` errors its nodes make name ``expr``.  `_jet` makes one per
    node; `_JETS` names none."""

    __slots__ = ("expr",)
    const, num = staticmethod(_jet_const), staticmethod(_jet_num)

    def __init__(self, expr):
        self.expr = expr

    def node(self, op, *args):
        return _node(self, op, *args)


_JETS = _Jets(None)


def _jet(e, env):
    """The jet of ``e``; a value outside its domain raises as in `evaluate`."""
    if isinstance(e, Number):
        return float(e.value)
    if isinstance(e, Name):
        try:
            return env[e.name]
        except KeyError:
            raise UnknownSymbolError(e.name) from None
    out = _node(_Jets(e), _op(e), *[_jet(k, env) for k in _children(e)])
    if type(out) is _Pending:
        raise DomainError(out.message, e)
    return out


def _seed(x, r, n, order):
    """Coordinate ``r`` of ``n`` with values ``x`` (shape (P,)) as a jet."""
    jet = x.reshape((1,) * order + x.shape)
    for level in range(order):
        hot = np.zeros((1,) * level + (n,) + (1,) * (order - level))
        hot[(0,) * level + (r,)] = 1.0
        jet = _Jet(jet, _Rows(hot))
    return jet


def _parts(x, order):
    """The value and derivative arrays of a jet of ``order``, innermost
    first; raises the `_Pending` errors that survived."""
    if type(x) is _Pending:
        raise DomainError(f"derivative: {x.message}", x.expr)
    if order == 0:
        return [_unwrap(x)]
    v, d = (x.v, x.d) if type(x) is _Jet else (x, 0.0)
    return _parts(v, order - 1) + _parts(d, order - 1)[order - 1:]


# --- tables ----------------------------------------------------------------

def evaluate_table(exprs, names, params, pts) -> np.ndarray:
    """Values of the object array ``exprs`` over a batch of points.

    ``pts[..., i]`` is the value of ``names[i]`` and ``params`` maps the
    other free symbols; the result has shape ``pts.shape[:-1] + exprs.shape``.
    ``exprs`` may also be its `compile_table` form, which evaluates each
    shared subexpression once and frees it after its last use; an object
    array is evaluated entry by entry, an expression object held by several
    entries once.  Both take every value from the same `evaluate`
    arithmetic, so they agree bitwise.  Constant entries are broadcast over
    the batch.  `DomainError` propagates as from `evaluate`: a compiled
    table that raises is evaluated again entry by entry, so the error names
    the subexpression the entry-wise walk meets first.  Overflow and
    invalid operations give inf and nan without numpy warnings: the checks
    that read the values report them as non-finite residuals with a
    witness.
    """
    return jet_table(exprs, names, params, pts, 0)[0]


def jet_table(exprs, names, params, pts, order):
    """`evaluate_table` with the coordinate derivatives up to ``order``.

    Returns ``[values, d1, ...]``, where ``d_j`` has shape
    ``pts.shape[:-1] + (len(names),) * j + exprs.shape``.  ``d2`` is
    symmetric: its ``[r, q]`` and ``[q, r]`` entries, ``r <= q``, both hold
    the derivative in ``names[q]``, then in ``names[r]``.  One jet pass over
    the table: the values agree bitwise with `evaluate_table`, the
    derivatives with evaluating `differentiate` of each entry (applied in
    either order for a mixed partial), and a derivative raises
    `DomainError` (``derivative: ...``, naming the node whose rule met it)
    where that evaluation would; see the jets section for the exception.
    """
    pts = np.asarray(pts, dtype=float)
    batch, n = pts.shape[:-1], len(names)
    cols = pts.reshape(math.prod(batch), n).T
    env = dict(params)
    if order:
        # a parameter is a node, not a Number: no fold may drop it
        env = {k: np.float64(v) if type(v) is float else v for k, v in env.items()}
        env.update((c, _seed(np.ascontiguousarray(cols[i]), i, n, order))
                   for i, c in enumerate(names))
    else:
        env.update((c, cols[i]) for i, c in enumerate(names))
    count, tables = cols.shape[1], None
    if isinstance(exprs, _Compiled):
        try:
            tables = _run(exprs.steps, exprs.exprs.size, dict(env), count, order, n)
        except DomainError:
            pass
        exprs = exprs.exprs
    if tables is None:
        tables = _run(_entry_steps(exprs), exprs.size, env, count, order, n)
    if order > 1:
        # one value for both mixed partials, the one of the symbolic table
        r, q = np.triu_indices(n, 1)
        tables[2][:, q, r] = tables[2][:, r, q]
    return [t.reshape(batch + (n,) * j + exprs.shape) for j, t in enumerate(tables)]


def _entry_steps(exprs):
    """Steps of an uncompiled table: one per distinct entry object."""
    steps, first = [], {}
    for k, e in enumerate(exprs.flat):
        at = first.setdefault(id(e), len(steps))
        if at == len(steps):
            steps.append((e, None, [k], ()))
        else:
            steps[at][2].append(k)
    return steps


def _run(steps, size, env, count, order, n):
    """The one executor: each step ``(expr, temporary, columns, dead)``
    evaluates ``expr`` (its jet, if ``order`` > 0), binds it to
    ``temporary`` (if any), writes it to the flat entry ``columns`` of each
    table and drops the ``dead`` temporaries.  Table ``j`` has shape
    ``(count,) + (n,) * j + (1,) * (order - j) + (size,)``: the layout of
    the jet's part ``j`` with the points first and the entries last."""
    outs = [np.zeros((count,) + (n,) * j + (1,) * (order - j) + (size,))
            for j in range(order + 1)]
    # each part's layout: the derivative axes, the points, the entries
    views = [out.transpose(tuple(range(1, out.ndim - 1)) + (0, out.ndim - 1))
             for out in outs]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for e, temporary, columns, dead in steps:
            value = _jet(e, env) if order else evaluate(e, env)
            if temporary is not None:
                env[temporary] = value
            if columns:
                parts = _parts(value, order) if order else [value]
                for view, part in zip(views, parts):
                    if type(part) is float and part == 0.0 and math.copysign(1.0, part) > 0:
                        continue        # the tables start at +0.0
                    for k in columns:
                        view[..., k] = part
            for name in dead:
                del env[name]
    return outs


@dataclass(frozen=True, eq=False)
class _Compiled:
    """An object array of expressions and the steps `compile_table` made."""

    exprs: np.ndarray
    steps: list


def _label(e):
    if isinstance(e, Number):
        # the bit pattern, so 0.0 and -0.0 (or two NaNs) are never merged
        v = e.value
        return type(v), struct.pack("<d", v) if isinstance(v, float) else v
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Call):
        return e.func
    return None


def _number(e, seen, keys, nodes):
    """Value number of ``e``; ``nodes[vn]`` is ``(node, child numbers)``."""
    vn = seen.get(id(e))
    if vn is None:
        child = tuple(_number(c, seen, keys, nodes) for c in _children(e))
        vn = seen[id(e)] = keys.setdefault((type(e), _label(e)) + child, len(nodes))
        if vn == len(nodes):
            nodes.append((e, child))
    return vn


def compile_table(exprs):
    """Hoist the subexpressions the entries of ``exprs`` share (value numbering).

    Nodes are numbered bottom-up, two nodes sharing a number when they have
    the same type, function or name and the same child numbers; a `Number`
    is keyed by its bit pattern.  Every non-leaf subexpression used more
    than once becomes a temporary named ``#k``, which no parsed symbol can
    be, and the entries are rewritten over the temporaries.  The steps run
    in post-order, so each temporary is computed just before its first use.
    Returns the form `evaluate_table` takes in place of ``exprs``.
    """
    seen, keys, nodes, columns = {}, {}, [], {}
    for k, e in enumerate(exprs.flat):
        columns.setdefault(_number(e, seen, keys, nodes), []).append(k)
    uses = [0] * len(nodes)
    for _, child in nodes:
        for c in child:
            uses[c] += 1
    for vn in columns:
        uses[vn] += 1
    # forms[vn]: the node over the temporaries; reads[vn]: the ones it reads
    temps, forms, reads, steps, last = {}, [], [], [], {}
    for vn, (e, child) in enumerate(nodes):
        read = []
        if child:
            for c in child:
                read += [temps[c]] if c in temps else reads[c]
            e = _build(_op(e), *[Name(temps[c]) if c in temps else forms[c]
                                 for c in child])
        forms.append(e)
        reads.append(read)
        name = f"#{len(temps)}" if child and uses[vn] > 1 else None
        if name is not None:
            temps[vn] = name
        if name is not None or vn in columns:
            for r in read + [name]:
                last[r] = len(steps)
            steps.append((e, name, columns.get(vn, ()), []))
    last.pop(None, None)
    for name, at in last.items():
        steps[at][3].append(name)
    return _Compiled(exprs, steps)


# --- printing --------------------------------------------------------------

_PREC = {Add: 10, Sub: 10, Mul: 20, Div: 20, Neg: 30, Pow: 40}


def _prec(e):
    if type(e) is Number and e.value < 0:
        # a negative constant prints with its sign: a base wraps it, (-2)^x
        return _PREC[Neg]
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
    """Render a tree to text that reparses to a tree of the same values.

    The reparsed tree is structurally identical, except that a negative
    constant comes back as the negation of its magnitude: ``Number(-2.0)``
    prints as ``-2`` and reparses as ``Neg(Number(2.0))``.
    """
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
    return frozenset().union(*map(free_names, _children(e)))
