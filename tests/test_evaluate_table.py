"""`expr.evaluate_table`, the one evaluation path, against the loops it replaced.

The references below are the earlier hand-written evaluation loops, kept
as oracles: the per-entry `np.ndindex` table loop of `tensor`, the
per-gradient `evaluate` loop of `Functional`, and the scalar closed-form
`CommutingFlow.w_at` / `dw_at`.  The new path must agree with them
bitwise, not just to rounding, because it performs the same `evaluate`
arithmetic on the same values; a compiled table (`expr.compile_table`,
which `tensor.table_at` uses for a system's tables) only evaluates each
shared subexpression once.  The derivative tables of a system come from
jets over the same compiled table; their oracle is the per-entry loop over
`differentiate`d tables, to 1e-12 relative.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    epsilon_system, hopf_system, shallow_water_riemann_system, sphere_system,
)
from hydrobrackets import cli, expr, library, verify
from hydrobrackets import fieldbracket as fb
from hydrobrackets import hodograph as hg
from hydrobrackets import tensor as tz
from hydrobrackets.errors import DomainError
from hydrobrackets.expr import (
    FUNCTIONS, Add, Call, Div, Mul, Name, Neg, Number, Pow, Sub,
    compile_table, differentiate, evaluate, evaluate_table, parse,
)
from hydrobrackets.system import Box, SystemDef, sample_box

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hydrobrackets"


# --- reference: the earlier loops (frozen) ---------------------------------------

def ref_table_at(sys, exprs, pts):
    env = {c: pts[:, i] for i, c in enumerate(sys.coords)}
    env.update(sys.params)
    out = np.empty((len(pts),) + exprs.shape)
    first = {}
    for idx in np.ndindex(*exprs.shape):
        e = exprs[idx]
        seen = first.setdefault(id(e), idx)
        if seen != idx:
            out[(slice(None),) + idx] = out[(slice(None),) + seen]
        else:
            out[(slice(None),) + idx] = np.asarray(evaluate(e, env), dtype=float)
    return out


def ref_env(functional, values):
    env = {}
    for k, c in enumerate(functional.coords):
        env[c] = values[..., k, :]
    return env


def ref_variational(functional, values):
    env = ref_env(functional, values)
    out = np.empty(values.shape)
    for k, c in enumerate(functional.coords):
        out[..., k, :] = evaluate(differentiate(functional.density, c), env)
    return out


def ref_value(functional, U):
    dens = np.broadcast_to(evaluate(functional.density, ref_env(functional, U.values)),
                           (U.n_points,))
    return float(np.sum(dens) * U.dx)


def ref_flow_env(flow, point):
    env = dict(flow.params)
    for k, c in enumerate(flow.coords):
        env[c] = float(point[k])
    return env


def ref_w_at(flow, point):
    env = ref_flow_env(flow, point)
    return np.array([float(evaluate(e, env)) for e in flow.exprs])


def ref_dw_at(flow, point):
    env = ref_flow_env(flow, point)
    return np.array([[float(evaluate(differentiate(e, c), env)) for c in flow.coords]
                     for e in flow.exprs])


def assert_bitwise(new, old):
    assert new.shape == old.shape
    assert new.dtype == old.dtype == np.float64
    assert new.tobytes() == old.tobytes()


# --- systems ---------------------------------------------------------------------

def generated_metric(n, seed):
    """Seeded diagonal metric of constant curvature through ``y_i = phi_i(u_i)``."""
    rng = np.random.default_rng(seed)
    coords = [f"u{i + 1}" for i in range(n)]
    phis = []
    for i, u in enumerate(coords):
        a = round(float(rng.uniform(0.5, 1.5)), 3)
        phis.append((f"({u} + {a!r}*{u}^3)", f"(1 + {3 * a!r}*{u}^2)") if i % 2 == 0
                    else (f"(exp({a!r}*{u})/{a!r})", f"exp({a!r}*{u})"))
    factor = "(1 + c/4*(" + " + ".join(f"{p}^2" for p, _ in phis) + "))^2"
    g = [["0"] * n for _ in range(n)]
    for i, (_, dphi) in enumerate(phis):
        g[i][i] = f"{factor}/{dphi}^2"
    c = float(rng.choice([0.5, 1.0, -0.1]))
    return SystemDef(coords, g_upper=g, params={"c": c},
                     box=Box((0.1,) * n, (0.6,) * n), name=f"generated-{n}-s{seed}")


def declared_tables(sys):
    """Every expression table a system declares, by label."""
    tables = [(label, getattr(sys, label))
              for label in ("g_upper", "b", "V", "v_diag", "h_ultra", "gamma")]
    tables.append(("operator", sys.operator_matrix()))
    tables += [(f"affinor{k}", w) for k, (_, w) in enumerate(sys.affinors or ())]
    return [(label, t) for label, t in tables if t is not None]


BUILTINS = [pytest.param(library.load(name).system, id=name)
            for name in library.names()]
GENERATED = [pytest.param(generated_metric(n, seed), id=f"generated-{n}-s{seed}")
             for n in (2, 3, 4) for seed in (0, 1)]


# --- tables ----------------------------------------------------------------------

def symbolic_d1(sys, table):
    """``[r, ...] = d table / dU^r`` by `differentiate`."""
    out = np.empty((sys.N,) + table.shape, dtype=object)
    for r, c in enumerate(sys.coords):
        for idx in np.ndindex(*table.shape):
            out[(r,) + idx] = differentiate(table[idx], c)
    return out


def symbolic_d2(sys, table):
    """``[r, q, ...] = d_r d_q table`` by `differentiate`, the later
    coordinate first, one expression for both mixed partials."""
    d1 = symbolic_d1(sys, table)
    out = np.empty((sys.N,) + d1.shape, dtype=object)
    for r, c in enumerate(sys.coords):
        for q in range(r, sys.N):
            for idx in np.ndindex(*table.shape):
                out[(r, q) + idx] = out[(q, r) + idx] = differentiate(d1[(q,) + idx], c)
    return out


def assert_agree(jet, symbolic):
    """Finite wherever the symbolic table is, and equal there to 1e-12
    relative."""
    assert jet.shape == symbolic.shape
    finite = np.isfinite(jet) & np.isfinite(symbolic)
    assert np.array_equal(finite, np.isfinite(symbolic))
    gap = np.abs(jet - symbolic)[finite]
    assert np.all(gap <= 1e-12 * np.maximum(np.abs(jet), np.abs(symbolic))[finite])


@pytest.mark.parametrize("count", [1, 64, 2048])
@pytest.mark.parametrize("sys", BUILTINS + GENERATED)
def test_tables_match_the_ndindex_loop(sys, count):
    pts = sample_box(sys.box, count)
    tables = declared_tables(sys)
    assert tables
    for _, table in tables:
        values = tz.table_at(sys, table, pts)
        assert_bitwise(values, ref_table_at(sys, table, pts))
        d1 = tz.table_jets_at(sys, table, pts, 1)[1]
        assert_agree(d1, ref_table_at(sys, symbolic_d1(sys, table), pts))
        jets = tz._jets(sys, table, pts, 2)
        assert_bitwise(jets[0], values)
        assert_bitwise(jets[1], d1)
        assert_agree(jets[2], ref_table_at(sys, symbolic_d2(sys, table), pts))


def test_batch_axes_and_single_points():
    sys = sphere_system(with_b=True)
    grid = sample_box(sys.box, 12).reshape(3, 4, 2)
    flat = tz.table_at(sys, sys.b, grid.reshape(-1, 2))
    got = evaluate_table(sys.b, sys.coords, sys.params, grid)
    assert got.shape == (3, 4) + sys.b.shape
    assert_bitwise(got.reshape(flat.shape), flat)
    single = evaluate_table(sys.b, sys.coords, sys.params, grid[1, 2])
    assert single.shape == sys.b.shape
    assert_bitwise(single, flat[6])


def test_constant_entries_broadcast_over_the_batch():
    table = np.array([parse("2", ["x"]), parse("x", ["x"])], dtype=object)
    pts = np.array([[1.0], [3.0], [5.0]])
    got = evaluate_table(table, ["x"], {}, pts)
    assert got.tolist() == [[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]]


def counting_operator_nodes(monkeypatch):
    """Every non-leaf node `expr._eval` evaluates from now on."""
    seen = []
    original = expr._eval

    def counted(e, env):
        if not isinstance(e, (Number, Name)):
            seen.append(e)
        return original(e, env)
    monkeypatch.setattr(expr, "_eval", counted)
    return seen


def structure(e, keys):
    """Structural key of ``e``, numbers by their bits; collects in ``keys``
    the key of every non-leaf subtree."""
    if isinstance(e, Number):
        return "n", np.float64(e.value).tobytes()
    if isinstance(e, Name):
        return "s", e.name
    key = (type(e).__name__,) + tuple(
        structure(v, keys) if isinstance(v, expr.Expr) else v
        for v in (getattr(e, f) for f in e.__dataclass_fields__))
    keys.add(key)
    return key


@pytest.mark.parametrize("sys", [sphere_system(), generated_metric(3, 0),
                                 generated_metric(4, 1)], ids=lambda s: s.name)
def test_curvature_pass_evaluates_each_value_number_once(sys, monkeypatch):
    """The curvature takes g, dg and d2g from one jet pass over the compiled
    g_upper table, which walks each of its value numbers once."""
    keys = set()
    for e in {id(e): e for e in sys.g_upper.flat}.values():
        structure(e, keys)
    pts = sample_box(sys.box, 16)
    tz.riemann_raised_at(sys, pts)
    jets = counting_jet_nodes(monkeypatch)
    values = counting_operator_nodes(monkeypatch)
    tz.riemann_raised_at(sys, pts)
    assert len(jets) == len(keys)
    assert values == []


def counting_jet_nodes(monkeypatch):
    """Every non-leaf node `expr._jet` evaluates from now on."""
    seen = []
    original = expr._jet

    def counted(e, env):
        if not isinstance(e, (Number, Name)):
            seen.append(e)
        return original(e, env)
    monkeypatch.setattr(expr, "_jet", counted)
    return seen


def counting_compiles(monkeypatch):
    tables = []
    original = tz.compile_table

    def counted(exprs):
        tables.append(exprs)
        return original(exprs)
    monkeypatch.setattr(tz, "compile_table", counted)
    return tables


def test_a_system_table_is_compiled_once(monkeypatch):
    tables = counting_compiles(monkeypatch)
    sys = generated_metric(3, 0)
    verify.classify(sys)
    # g_upper alone: its derivatives are jets over the same compiled table
    assert len(tables) == 1
    verify.classify(sys, samples=256)
    tz.riemann_raised_at(sys, sample_box(sys.box, 5))
    assert len(tables) == 1


def test_per_call_tables_are_never_compiled(monkeypatch):
    """Tables built per call (functionals, flows, hodograph's one-off
    arrays) keep the entry-wise walk, so a repeated call compiles nothing."""
    sys = library.load("polar_plane").system
    F, G, H = (fb.random_polynomial_functional(sys.coords, seed=k) for k in range(3))
    U = fb.GridField(np.stack([1.5 + 0.3 * np.sin(np.linspace(0, 6.2, 16)),
                               0.2 * np.cos(np.linspace(0, 6.2, 16))]))
    diag = epsilon_system()
    riemann = shallow_water_riemann_system()
    calls = [
        lambda: fb.jacobi_residual(sys, F, G, H, U),
        lambda: hg.semi_hamiltonian_check(diag),
        lambda: hg.integrate_commuting_flow(riemann, "R1^2", "R2^2 + R1",
                                            resolution=8, basepoint=(1.5, 3.5)),
    ]
    for call in calls:
        call()
    tables = counting_compiles(monkeypatch)
    for call in calls:
        call()
    assert tables == []


# --- compiled tables against the entry-wise walk -----------------------------------

LEAVES = st.one_of(
    st.sampled_from([Name("x"), Name("y")]),
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 3.0, math.nan, -math.nan,
                     math.inf, -math.inf]).map(Number))


def _grow(kids):
    binary = st.sampled_from([Add, Sub, Mul, Div, Pow])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binary, kids, kids),
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids))


TREES = st.recursive(LEAVES, _grow, max_leaves=6)


@st.composite
def shared_tables(draw):
    """Object arrays whose entries share subtrees, as objects and as copies."""
    pool = draw(st.lists(TREES, min_size=1, max_size=4))
    part = st.sampled_from(pool)
    entry = st.one_of(
        part, TREES,
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Mul, Div, Pow]),
                  part, part),
        st.builds(Call, st.sampled_from(FUNCTIONS), part))
    entries = draw(st.lists(entry, min_size=1, max_size=8))
    table = np.empty(len(entries), dtype=object)
    table[:] = entries
    if len(entries) % 2 == 0 and draw(st.booleans()):
        table = table.reshape(2, -1)
    return table


POINTS = st.lists(st.tuples(*[st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])] * 2),
                  min_size=1, max_size=4)


def entrywise(table, pts):
    """Per-entry `evaluate` loop: the values, or the first `DomainError`."""
    env = {"x": pts[:, 0], "y": pts[:, 1]}
    out = np.empty((len(pts), table.size))
    try:
        with np.errstate(all="ignore"):
            for k, e in enumerate(table.flat):
                out[:, k] = evaluate(e, env)
    except DomainError as err:
        return err
    return out.reshape((len(pts),) + table.shape)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shared_tables(), POINTS)
def test_compiled_tables_match_the_entrywise_walk(table, points):
    pts = np.array(points)
    want = entrywise(table, pts)
    compiled = compile_table(table)
    for form in (compiled, table):
        if isinstance(want, DomainError):
            with pytest.raises(DomainError) as err:
                evaluate_table(form, ["x", "y"], {}, pts)
            assert str(err.value) == str(want)
            assert err.value.expr == want.expr
        else:
            assert_bitwise(evaluate_table(form, ["x", "y"], {}, pts), want)


def test_domain_error_names_the_declared_subexpression():
    # x - 1 is shared, so the compiled table reads it as a temporary
    table = np.array([parse(s, ["x"]) for s in ("1/(x - 1)", "log(x - 1)")],
                     dtype=object)
    pts = np.array([[2.0], [0.5]])
    with pytest.raises(DomainError) as err:
        evaluate_table(compile_table(table), ["x"], {}, pts)
    assert str(err.value) == "log of non-positive value in 'log(x - 1)'"
    assert err.value.expr == table[1]


def test_signed_zeros_and_nans_are_never_merged():
    table = np.array([Neg(Number(0.0)), Neg(Number(-0.0)), Neg(Number(math.nan)),
                      Neg(Number(-math.nan)), Add(Neg(Number(0.0)), Name("x"))],
                     dtype=object)
    pts = np.array([[-0.0, 0.0], [1.0, 0.0]])
    got = evaluate_table(compile_table(table), ["x", "y"], {}, pts)
    assert_bitwise(got, entrywise(table, pts))
    assert np.signbit(got[0]).tolist() == [True, False, True, False, True]


# --- functionals -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_functionals_match_the_gradient_loop(n):
    coords = [f"U{k + 1}" for k in range(n)]
    rng = np.random.default_rng(n)
    for seed in range(4):
        F = fb.random_polynomial_functional(coords, degree=3, seed=seed)
        stack = rng.uniform(0.2, 1.5, size=(5, n, 32))
        assert_bitwise(F._variational(stack), ref_variational(F, stack))
        U = fb.GridField(stack[0])
        assert_bitwise(F.variational(U), ref_variational(F, stack[0]))
        assert F.value(U) == ref_value(F, U)


def test_functional_with_a_constant_gradient():
    F = fb.Functional("1.7*U1 + U2^2/1.7", ["U1", "U2"])
    stack = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 2, 16))
    got = F._variational(stack)
    assert_bitwise(got, ref_variational(F, stack))
    assert np.all(got[:, 0] == 1.7)
    U = fb.GridField(stack[1])
    assert F.value(U) == ref_value(F, U)


# --- closed-form flows -----------------------------------------------------------

def closed_form_cases():
    yield hopf_system(), ["u^2"]
    yield hopf_system(), ["exp(u)/u"]
    yield shallow_water_riemann_system(), ["(3*R1 + R2)/4", "(3*R2 + R1)/4"]
    yield shallow_water_riemann_system(), ["R1^2 + R1*R2", "R2^2 + R1*R2"]
    yield epsilon_system(), ["R2 + R3", "R1 + R3", "R1 + R2"]


def test_closed_form_flows_match_the_scalar_loop():
    for sys, exprs in closed_form_cases():
        flow = hg.CommutingFlow(sys.coords, exprs=tuple(
            parse(e, sys.coords) for e in exprs), params=sys.params)
        for point in sample_box(sys.box, 9):
            assert_bitwise(flow.w_at(point), ref_w_at(flow, point))
            assert_bitwise(flow.dw_at(point), ref_dw_at(flow, point))
        point = tuple(float(v) for v in sys.box.center)
        assert_bitwise(flow.w_at(point), ref_w_at(flow, point))


def test_integrated_flow_boundary_data_match_direct_evaluation():
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2", "R2^2 + R1", resolution=16,
                                       basepoint=(1.5, 3.5))
    r1, r2 = flow.axes
    i0, j0 = 8, 8
    line1 = evaluate(parse("R1^2", sys.coords), {"R1": r1, "R2": np.full(17, r2[j0])})
    line2 = evaluate(parse("R2^2 + R1", sys.coords), {"R1": np.full(17, r1[i0]), "R2": r2})
    assert_bitwise(flow.values[0, :, j0], line1)
    assert_bitwise(flow.values[1, i0, :], line2)


# --- seam ------------------------------------------------------------------------

def expr_callers(function):
    """Modules of the package, other than ``expr``, that call ``function``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == function:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_expr_calls_evaluate():
    assert len(list(SRC.glob("*.py"))) > 5
    assert expr_callers("evaluate") == []


def test_only_expr_calls_differentiate():
    """Derivatives are numbers from `expr.jet_table`; no module builds trees."""
    assert expr_callers("differentiate") == []


def test_no_derivative_tree_is_built_at_run_time(monkeypatch, tmp_path, capsys):
    """Every built-in command and a classify of generated metrics run with
    the tree differentiation rule (`expr._diff`) raising."""
    def tree(*args):
        raise AssertionError("a derivative tree was built")

    monkeypatch.setattr(expr, "_diff", tree)
    with pytest.raises(AssertionError):
        differentiate(parse("x^2", ["x"]), "x")
    variants = [["check", "--class", c] for c in ("dn", "mf", "fer", "liouville", "auto")]
    variants += [["flat-coords"], ["flat-coords", "--grid", "16"], ["jacobi"],
                 ["jacobi", "--seed", "7"], ["jacobi", "--grid", "32"],
                 ["hodograph"], ["hodograph", "--grid", "16"]]
    out = str(tmp_path / "out")
    for name in library.names():
        for argv in variants:
            cli.main([argv[0], name] + argv[1:] + ["--out", out])
    capsys.readouterr()
    for case in GENERATED:
        verify.classify(case.values[0])


def test_only_expr_calls_parse():
    """Entries reach expressions through `expr.as_expr` alone."""
    assert expr_callers("parse") == []
