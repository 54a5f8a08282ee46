"""`expr.evaluate_table`, the one evaluation path, against the loops it replaced.

The references below are the earlier hand-written evaluation loops, kept
as oracles: the per-entry `np.ndindex` table loop of `tensor`, the
per-gradient `evaluate` loop of `Functional`, and the scalar closed-form
`CommutingFlow.w_at` / `dw_at`.  The new path must agree with them
bitwise, not just to rounding, because it performs the same `evaluate`
calls on the same values.
"""

import ast
import pathlib

import numpy as np
import pytest

from conftest import (
    epsilon_system, hopf_system, shallow_water_riemann_system, sphere_system,
)
from hydrobrackets import expr, library
from hydrobrackets import fieldbracket as fb
from hydrobrackets import hodograph as hg
from hydrobrackets import tensor as tz
from hydrobrackets.expr import differentiate, evaluate, evaluate_table, parse
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
    for k, g in enumerate(functional.gradient):
        out[..., k, :] = evaluate(g, env)
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

@pytest.mark.parametrize("count", [1, 64, 2048])
@pytest.mark.parametrize("sys", BUILTINS + GENERATED)
def test_tables_match_the_ndindex_loop(sys, count):
    pts = sample_box(sys.box, count)
    tables = declared_tables(sys)
    assert tables
    for _, table in tables:
        assert_bitwise(tz.table_at(sys, table, pts), ref_table_at(sys, table, pts))
        d1 = tz._d1_table(sys, table)
        assert_bitwise(tz.table_d1_at(sys, table, pts), ref_table_at(sys, d1, pts))
        d2 = tz._d2_table(sys, table)
        assert_bitwise(tz.table_at(sys, d2, pts), ref_table_at(sys, d2, pts))


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


def counting_evaluate(monkeypatch):
    calls = []
    original = expr.evaluate

    def counted(e, env):
        calls.append(e)
        return original(e, env)
    monkeypatch.setattr(expr, "evaluate", counted)
    return calls


@pytest.mark.parametrize("sys", [sphere_system(), generated_metric(3, 0),
                                 generated_metric(4, 1)], ids=lambda s: s.name)
def test_second_derivative_table_costs_one_call_per_distinct_entry(sys, monkeypatch):
    d2 = tz._d2_table(sys, sys.g_upper)
    distinct = {id(e) for e in d2.flat}
    pts = sample_box(sys.box, 16)
    calls = counting_evaluate(monkeypatch)
    tz.table_at(sys, d2, pts)
    assert len(calls) == len(distinct)
    assert {id(e) for e in calls} == distinct
    # mixed partials share one expression object
    n = sys.N
    assert len(distinct) <= d2.size - (n * (n - 1) // 2) * sys.g_upper.size


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


def test_only_expr_calls_parse():
    """Entries reach expressions through `expr.as_expr` alone."""
    assert expr_callers("parse") == []
