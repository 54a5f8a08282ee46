"""The batched hodograph solve and the anti-diagonal Goursat march.

The oracles are the earlier scalar implementations, frozen here: one damped
Newton per spacetime point in raster order (row 0 from the seed at every
point first), and the cell-by-cell double loop of the march over the
coupling evaluated from `differentiate`d trees.  The batched code keeps
every point's arithmetic, so the comparisons are bitwise.
"""

import json
import pathlib

import numpy as np
import pytest

from conftest import (
    epsilon_system, hopf_system, shallow_water_riemann_system, symbolic_coupling,
)
from hydrobrackets import cli
from hydrobrackets import hodograph as hg
from hydrobrackets.errors import DomainError, NonConvergenceError
from hydrobrackets.expr import evaluate_table, parse
from hydrobrackets.system import Box, SystemDef, sample_box

BUILTIN = pathlib.Path(cli.__file__).resolve().parent / "builtin"

# a closed-form commuting flow of the shallow-water Riemann system:
# d_2 w^1 = (w^2 - w^1) / (2 (R2 - R1)) holds for (5, 2, 1) coefficients
QUADRATIC_FLOW = ["5*R1^2 + 2*R1*R2 + R2^2", "R1^2 + 2*R1*R2 + 5*R2^2"]


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


# --- frozen oracles -------------------------------------------------------------

def oracle_contains(box, point, pad):
    return all(l - pad <= p <= h + pad for p, l, h in zip(point, box.lo, box.hi))


def oracle_newton_point(x, t, start, flow, v_at, dv_at, box, tol):
    # a start outside the expressions' domain stays put with residual NaN,
    # a trial outside it is rejected, a Jacobian outside it stops the point
    r = np.array(start, dtype=float)
    try:
        f = flow.w_at(r) - t * v_at(r) - x
    except DomainError:
        return r, np.nan, False
    fnorm = float(np.max(np.abs(f)))
    for _ in range(hg.NEWTON_MAX_ITER):
        if fnorm < tol:
            break
        try:
            jac = flow.dw_at(r) - t * dv_at(r)
        except DomainError:
            break
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        scale, accepted = 1.0, False
        for _ in range(21):
            rn = r - scale * step
            try:
                fn = flow.w_at(rn) - t * v_at(rn) - x
            except DomainError:
                scale *= 0.5
                continue
            fn_norm = float(np.max(np.abs(fn)))
            if fn_norm < fnorm or fn_norm < tol:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        r, f, fnorm = rn, fn, fn_norm
    ok = fnorm < tol and oracle_contains(box, r, 1e-9)
    return r, fnorm, ok


def oracle_solve(sys, flow, *, x_window, t_window, nx, nt, seed,
                 newton_tol=hg.NEWTON_TOL):
    box = flow.box if flow.kind == "sampled" else sys.box

    def v_at(r):
        return hg.speeds_at(sys, r[None, :])[0]

    def dv_at(r):
        return hg.speeds_d1_at(sys, r[None, :])[0].T

    xs = np.linspace(x_window[0], x_window[1], nx)
    ts = np.linspace(t_window[0], t_window[1], nt)
    rr = np.empty((nt, nx, sys.N))
    res = np.empty((nt, nx))
    conv = np.zeros((nt, nx), dtype=bool)
    seed = np.array(seed, dtype=float)
    row0 = [oracle_newton_point(x, ts[0], seed, flow, v_at, dv_at, box,
                                newton_tol) for x in xs]
    last_good = seed
    for k, t in enumerate(ts):
        for i, x in enumerate(xs):
            if k == 0 and (row0[i][2] or last_good is seed):
                # row 0 starts every point from the seed, and marches in x
                # only where that failed and a converged point precedes it
                r, fnorm, ok = row0[i]
            else:
                if k > 0 and conv[k - 1, i]:
                    start = rr[k - 1, i]
                elif i > 0 and conv[k, i - 1]:
                    start = rr[k, i - 1]
                else:
                    start = last_good
                r, fnorm, ok = oracle_newton_point(x, t, start, flow, v_at,
                                                   dv_at, box, newton_tol)
            rr[k, i] = r
            res[k, i] = fnorm
            conv[k, i] = ok
            if ok:
                last_good = r
    return hg.HodographSolution(sys.name, xs, ts, rr, res, conv, newton_tol)


def symbolic_couplings(sys, pts):
    """a12 and a21 at ``pts``, shape (P, 2), evaluated from their trees."""
    table = np.array([symbolic_coupling(sys, 0, 1), symbolic_coupling(sys, 1, 0)],
                     dtype=object)
    return evaluate_table(table, sys.coords, sys.params, pts)


def oracle_march(sys, w1, w2, *, resolution, basepoint=None):
    """Values and residual of the cell-by-cell march."""
    box = sys.box
    r1 = np.linspace(box.lo[0], box.hi[0], resolution + 1)
    r2 = np.linspace(box.lo[1], box.hi[1], resolution + 1)
    if basepoint is None:
        basepoint = (float(r1[0]), float(r2[0]))
    i0 = int(np.argmin(np.abs(r1 - basepoint[0])))
    j0 = int(np.argmin(np.abs(r2 - basepoint[1])))
    grid = np.stack(np.meshgrid(r1, r2, indexing="ij"), axis=-1)
    flat = grid.reshape(-1, 2)
    n1, n2 = len(r1), len(r2)
    a12, a21 = symbolic_couplings(sys, flat).T.reshape(2, n1, n2)
    w = np.full((2, n1, n2), np.nan)
    w[0, :, j0] = evaluate_table(np.array(parse(w1, sys.coords), dtype=object),
                                 sys.coords, sys.params, grid[:, j0])
    w[1, i0, :] = evaluate_table(np.array(parse(w2, sys.coords), dtype=object),
                                 sys.coords, sys.params, grid[i0, :])
    for direction in (1, -1):
        hg._march_boundary(w[1, :, j0], w[0, :, j0], a21[:, j0], r1, i0, direction)
        hg._march_boundary(w[0, i0, :], w[1, i0, :], a12[i0, :], r2, j0, direction)
    for sx in (1, -1):
        for sy in (1, -1):
            irange = range(i0 + sx, n1 if sx > 0 else -1, sx)
            jrange = range(j0 + sy, n2 if sy > 0 else -1, sy)
            for j in jrange:
                pj = j - sy
                h2 = r2[j] - r2[pj]
                for i in irange:
                    pi = i - sx
                    h1 = r1[i] - r1[pi]
                    beta = 0.5 * h2 * a12[i, j]
                    gamma = 0.5 * h1 * a21[i, j]
                    rhs0 = (w[0, i, pj] + 0.5 * h2 * a12[i, pj]
                            * (w[1, i, pj] - w[0, i, pj]))
                    rhs1 = (w[1, pi, j] + 0.5 * h1 * a21[pi, j]
                            * (w[0, pi, j] - w[1, pi, j]))
                    det = 1.0 + beta + gamma
                    if abs(det) < 1e-12:
                        raise NonConvergenceError(
                            f"singular cell solve at grid index ({i}, {j})")
                    w[0, i, j] = ((1.0 + gamma) * rhs0 + beta * rhs1) / det
                    w[1, i, j] = (gamma * rhs0 + (1.0 + beta) * rhs1) / det
    d2w0 = (w[0, :, 2:] - w[0, :, :-2]) / (r2[2:] - r2[:-2])[None, :]
    res0 = d2w0 - a12[:, 1:-1] * (w[1, :, 1:-1] - w[0, :, 1:-1])
    d1w1 = (w[1, 2:, :] - w[1, :-2, :]) / (r1[2:] - r1[:-2])[:, None]
    res1 = d1w1 - a21[1:-1, :] * (w[0, 1:-1, :] - w[1, 1:-1, :])
    return w, float(max(np.max(np.abs(res0)), np.max(np.abs(res1))))


# --- batched solve against the per-point oracle ----------------------------------

def assert_same_solution(sol, ref):
    assert_bitwise(sol.x, ref.x)
    assert_bitwise(sol.t, ref.t)
    assert_bitwise(sol.R, ref.R)
    assert_bitwise(sol.residual, ref.residual)
    assert_bitwise(sol.converged, ref.converged)


def solve_both(sys, flow, **kw):
    return hg.hodograph_solve(sys, flow, **kw), oracle_solve(sys, flow, **kw)


def windowed(sys, flow, seed, widen=1.0):
    (x0, x1), (t0, t1) = hg.spacetime_window(sys, flow, seed)
    xc, xh = 0.5 * (x0 + x1), 0.5 * (x1 - x0) * widen
    tc, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0) * widen
    return dict(x_window=(xc - xh, xc + xh), t_window=(tc - th, tc + th),
                seed=seed)


def test_hopf_closed_form_matches_oracle():
    sys = hopf_system()
    sol, ref = solve_both(sys, hg.closed_form_flow(sys, ["u^2"]),
                          x_window=(0.5, 1.5), t_window=(0.0, 0.2),
                          nx=64, nt=9, seed=(1.0,))
    assert sol.n_converged == sol.converged.size
    assert_same_solution(sol, ref)


def test_hopf_transcendental_flow_matches_oracle():
    sys = hopf_system()
    sol, ref = solve_both(sys, hg.closed_form_flow(sys, ["u^3 + sin(u)"]),
                          x_window=(1.0, 6.0), t_window=(0.0, 0.3),
                          nx=48, nt=7, seed=(1.0,))
    assert sol.n_converged > 0
    assert_same_solution(sol, ref)


def test_sampled_flow_matches_oracle():
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5", resolution=64)
    sol, ref = solve_both(sys, flow, nx=32, nt=9,
                          **windowed(sys, flow, (1.5, 3.5)))
    assert sol.n_converged == sol.converged.size
    assert_same_solution(sol, ref)


def test_two_component_closed_form_matches_oracle():
    sys = shallow_water_riemann_system()
    flow = hg.closed_form_flow(sys, QUADRATIC_FLOW)
    assert flow.residual < 1e-12
    sol, ref = solve_both(sys, flow, nx=32, nt=9,
                          **windowed(sys, flow, (1.5, 3.5)))
    assert sol.n_converged == sol.converged.size
    assert_same_solution(sol, ref)


def test_window_past_the_box_edge_matches_oracle():
    # sqrt(x) leaves the box [0.2, 2] at both ends of the t = 0 row, so
    # rows restart from last_good and from their x-neighbour
    sys = hopf_system()
    sol, ref = solve_both(sys, hg.closed_form_flow(sys, ["u^2"]),
                          x_window=(0.01, 6.0), t_window=(0.0, 0.5),
                          nx=48, nt=7, seed=(1.0,))
    assert 0 < sol.n_converged < sol.converged.size
    assert not sol.converged[0, 0] and not sol.converged[0, -1]
    assert_same_solution(sol, ref)


def test_sampled_window_past_the_box_edge_matches_oracle():
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5", resolution=64)
    sol, ref = solve_both(sys, flow, nx=24, nt=7,
                          **windowed(sys, flow, (1.5, 3.5), widen=4.0))
    assert 0 < sol.n_converged < sol.converged.size
    assert_same_solution(sol, ref)


def count_batches(monkeypatch):
    """Record ``(t, points, converged)`` of every `_newton_batch` call."""
    calls = []
    newton = hg._newton_batch

    def counting(x, t, *args):
        out = newton(x, t, *args)
        calls.append((float(t), len(x), int(np.sum(out[2]))))
        return out

    monkeypatch.setattr(hg, "_newton_batch", counting)
    return calls


def test_hopf_solves_each_row_in_one_batch(monkeypatch):
    calls = count_batches(monkeypatch)
    assert cli.main(["hodograph", "hopf"]) == 0
    assert len(calls) == 33
    assert calls[0] == (0.0, 256, 256)
    assert all(points == converged == 256 for _, points, converged in calls)


def test_row_zero_fallback_matches_oracle_where_the_seed_start_fails(monkeypatch):
    # log u = x at t = 0 puts u = e^x outside [0.2, 2] at both ends of the
    # row: the points before the first converged one are not solved again,
    # those after it march in x from the last converged point
    sys = hopf_system()
    kw = dict(x_window=(-3, 3), t_window=(0, 0.2), nx=64, nt=5, seed=(1.0,))
    calls = count_batches(monkeypatch)
    sol, ref = solve_both(sys, hg.closed_form_flow(sys, ["log(u)"]), **kw)
    row0 = [c for c in calls if c[0] == 0.0]
    assert row0[0] == (0.0, 64, 24)
    assert 0 < len(row0) - 1 < 64 - 24
    assert sol.converged[0].sum() == 24
    assert_same_solution(sol, ref)


def test_row_zero_fallback_rescues_points_the_seed_start_misses(monkeypatch):
    # from the seed the Newton step overshoots by e^20 and no halving
    # helps; from the left neighbour it converges
    sys = hopf_system()
    kw = dict(x_window=(np.exp(-18), np.exp(2)), t_window=(0, 0.01), nx=32,
              nt=5, seed=(1.5,))
    calls = count_batches(monkeypatch)
    sol, ref = solve_both(sys, hg.closed_form_flow(sys, ["exp(12 - 20*u)"]), **kw)
    row0 = [c for c in calls if c[0] == 0.0]
    assert row0[0] == (0.0, 32, 2)
    assert row0[1:] == [(0.0, 1, 1)] * 30
    assert sol.n_converged == sol.converged.size
    assert_same_solution(sol, ref)


def test_batched_solve_evaluates_the_same_points(monkeypatch):
    # a tolerance below the rounding floor makes every point exhaust its
    # line search, so a changed halving count or acceptance test shows
    sys = hopf_system()
    flow = hg.closed_form_flow(sys, ["u^2"])
    counts = {}

    def counting(name):
        method = getattr(hg.CommutingFlow, name)

        def wrapper(self, point):
            rows = int(np.prod(np.shape(point)[:-1]))
            counts[name] = counts.get(name, 0) + rows
            return method(self, point)
        return wrapper

    for name in ("w_at", "dw_at"):
        monkeypatch.setattr(hg.CommutingFlow, name, counting(name))
    for tol in (hg.NEWTON_TOL, 1e-18):
        kw = dict(x_window=(0.01, 6.0), t_window=(0.0, 0.5), nx=24, nt=5,
                  seed=(1.0,), newton_tol=tol)
        counts.clear()
        sol = hg.hodograph_solve(sys, flow, **kw)
        ours = dict(counts)
        counts.clear()
        ref = oracle_solve(sys, flow, **kw)
        assert ours == counts
        assert_same_solution(sol, ref)


# --- domain errors are flagged, not fatal ----------------------------------------

def test_domain_error_in_the_line_search_is_flagged():
    sys = hopf_system()
    sol = hg.hodograph_solve(sys, hg.closed_form_flow(sys, ["log(u)"]),
                             x_window=(-3, 3), t_window=(0, 0.2), nx=64, nt=5,
                             seed=(1.0,))
    c = sol.converged
    assert 0 < sol.n_converged < c.size
    tt, xx = np.meshgrid(sol.t, sol.x, indexing="ij")
    u = sol.R[..., 0]
    assert np.max(np.abs(np.log(u[c]) - tt[c] * u[c] - xx[c])) < sol.newton_tol
    # log u = x at t = 0 puts u = e^x outside [0.2, 2] for x < log 0.2
    outside = (np.exp(xx) < 0.2) | (np.exp(xx) > 2.0)
    assert not c[0][outside[0]].any()
    assert c[0][~outside[0]].all()


def test_a_start_outside_the_domain_does_not_poison_its_batch():
    sys = hopf_system()
    flow = hg.closed_form_flow(sys, ["log(u)"])
    x = np.array([0.1, 0.2, 0.3])
    starts = np.array([[1.0], [-1.0], [1.5]])
    r, res, ok = hg._newton_batch(x, 0.1, starts, sys, flow, sys.box,
                                  hg.NEWTON_TOL)
    assert ok.tolist() == [True, False, True]
    assert np.isnan(res[1]) and r[1, 0] == -1.0
    for p in (0, 2):
        one = hg._newton_batch(x[p:p + 1], 0.1, starts[p:p + 1], sys, flow,
                               sys.box, hg.NEWTON_TOL)
        assert_bitwise(r[p], one[0][0])
        assert_bitwise(res[p], one[1][0])


def test_a_singular_jacobian_stops_only_its_point():
    # d/du (u^3 - t u) vanishes at u = 0.5 for t = 0.75
    sys = hopf_system()
    flow = hg.closed_form_flow(sys, ["u^3"])
    x = np.array([0.1, 0.2, 0.3])
    starts = np.array([[1.0], [0.5], [1.5]])
    r, res, ok = hg._newton_batch(x, 0.75, starts, sys, flow, sys.box,
                                  hg.NEWTON_TOL)

    def v_at(q):
        return hg.speeds_at(sys, q[None, :])[0]

    def dv_at(q):
        return hg.speeds_d1_at(sys, q[None, :])[0].T

    for p in range(3):
        ref = oracle_newton_point(x[p], 0.75, starts[p], flow, v_at, dv_at,
                                  sys.box, hg.NEWTON_TOL)
        assert_bitwise(r[p], ref[0])
        assert_bitwise(res[p], np.float64(ref[1]))
        assert ok[p] == ref[2]
    assert r[1, 0] == 0.5 and not ok[1] and ok[0] and ok[2]


# --- batched flow evaluation -----------------------------------------------------

@pytest.mark.parametrize("kind", ["closed-form", "sampled"])
def test_batched_flow_matches_point_calls(kind):
    sys = shallow_water_riemann_system()
    if kind == "closed-form":
        flow = hg.closed_form_flow(sys, QUADRATIC_FLOW)
    else:
        flow = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5",
                                           resolution=32)
    pts = sample_box(sys.box, 17)
    w, dw = flow.w_at(pts), flow.dw_at(pts)
    assert w.shape == (17, 2) and dw.shape == (17, 2, 2)
    for p, point in enumerate(pts):
        assert_bitwise(w[p], flow.w_at(point))
        assert_bitwise(dw[p], flow.dw_at(point))
    point = tuple(float(v) for v in sys.box.center)
    assert flow.w_at(point).shape == (2,) and flow.dw_at(point).shape == (2, 2)


def test_sampled_point_calls_match_batch_calls_at_nodes_edges_and_outside():
    # nodes, cell edges and clamped points outside the box take the edge
    # branches of the cell search; a single point goes through the batch path
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5", resolution=32)
    (x, y), (lo, hi) = flow.axes, (np.array(flow.box.lo), np.array(flow.box.hi))
    pts = np.concatenate([
        np.stack([x[[0, 1, 16, 31, 32]], y[[0, 2, 15, 31, 32]]], axis=1),
        lo + (hi - lo) * np.array([[-0.5, 0.5], [1.5, 0.5], [0.5, -2.0],
                                   [2.0, 2.0], [0.25, 1.0]]),
        sample_box(sys.box, 9)])
    w, dw = flow.w_at(pts), flow.dw_at(pts)
    for p, point in enumerate(pts):
        assert_bitwise(flow.w_at(point), w[p])
        assert_bitwise(flow.dw_at(point), dw[p])
        assert_bitwise(flow.w_at(tuple(point)), w[p])
        assert_bitwise(flow.w_at(pts[p:p + 1]), w[p:p + 1])


def test_box_contains_takes_a_batch():
    box = Box((0.0, 1.0), (1.0, 2.0))
    pts = np.array([[0.5, 1.5], [1.0, 2.0], [1.1, 1.5], [0.5, np.nan]])
    assert box.contains(pts).tolist() == [True, True, False, False]
    assert box.contains(pts, pad=0.2).tolist() == [True, True, True, False]
    assert box.contains((0.5, 1.5)) and not box.contains((0.5, 2.5))


# --- anti-diagonal march against the cell loop -----------------------------------

@pytest.mark.parametrize("basepoint", [None, (1.5, 3.5), (2.0, 4.0), (1.25, 3.0)])
def test_march_matches_cell_loop(basepoint):
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5",
                                       resolution=64, basepoint=basepoint)
    values, residual = oracle_march(sys, "R1^2/2", "R2^2/2 - 5", resolution=64,
                                    basepoint=basepoint)
    assert_bitwise(flow.values, values)
    assert_bitwise(flow.residual, residual)


def test_march_matches_cell_loop_on_a_nonlinear_system():
    sys = SystemDef(("a", "b"), v_diag=["a*b + a^2", "exp(b/3)"],
                    box=Box((0.1, 2.0), (0.6, 3.0)), name="nonlinear-pair")
    flow = hg.integrate_commuting_flow(sys, "sin(a)", "b^2", resolution=48,
                                       basepoint=(0.35, 2.5))
    values, residual = oracle_march(sys, "sin(a)", "b^2", resolution=48,
                                    basepoint=(0.35, 2.5))
    assert_bitwise(flow.values, values)
    assert_bitwise(flow.residual, residual)


def test_singular_cell_names_the_cell_of_the_old_loop_order(monkeypatch):
    sys = shallow_water_riemann_system()
    res = 32
    r2 = np.linspace(sys.box.lo[1], sys.box.hi[1], res + 1)
    i0 = j0 = 16
    # cells (i, j): the diagonal sweep meets the first one before the
    # others, the column order of the cell loop meets the second first
    # (the third shares its column); the last sits in a later quadrant
    planted = [(i0 + 1, j0 + 5), (i0 + 10, j0 + 2), (i0 + 12, j0 + 2),
               (i0 - 3, j0 + 1)]

    def planting(couplings):
        # a12, a21 over the grid, shape (P, 2), with the cells planted
        def patched(*args):
            out = couplings(*args)
            for i, j in planted:
                h2 = r2[j] - r2[j - 1]
                out[i * (res + 1) + j] = (-2.0 / h2, 0.0)
            return out
        return patched

    monkeypatch.setattr(hg, "_coupling", planting(hg._coupling))
    monkeypatch.setitem(globals(), "symbolic_couplings", planting(symbolic_couplings))
    with pytest.raises(NonConvergenceError) as ours:
        hg.integrate_commuting_flow(sys, "R1", "R2", resolution=res,
                                    basepoint=(1.5, 3.5))
    with pytest.raises(NonConvergenceError) as old:
        oracle_march(sys, "R1", "R2", resolution=res, basepoint=(1.5, 3.5))
    assert str(ours.value) == str(old.value)
    assert str(ours.value) == f"singular cell solve at grid index ({i0 + 10}, {j0 + 2})"


# --- the solve window -------------------------------------------------------------

def swr_velocity_config(tmp_path):
    doc = json.loads((BUILTIN / "shallow_water_riemann.json").read_text(encoding="utf-8"))
    del doc["hodograph"]["boundary"]
    doc["hodograph"]["w"] = doc["v_diag"]
    path = tmp_path / "swr-velocity-flow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


SINGULAR_WINDOW_MESSAGE = (
    "cannot size a solve window at seed (1.5, 3.5): the Jacobian dw - t*dv is "
    "singular there (t* = 1); give x_window/t_window in the hodograph section")


def test_window_with_singular_jacobian_raises_value_error():
    sys = shallow_water_riemann_system()
    flow = hg.closed_form_flow(sys, ["(3*R1 + R2)/4", "(3*R2 + R1)/4"])
    with pytest.raises(ValueError) as err:
        hg.spacetime_window(sys, flow, (1.5, 3.5))
    assert str(err.value) == SINGULAR_WINDOW_MESSAGE


def test_window_with_equal_velocities_raises_value_error():
    sys = SystemDef(("R1", "R2"), v_diag=["R1", "R2"],
                    box=Box((0.0, 0.0), (1.0, 1.0)), name="diagonal-collision")
    flow = hg.CommutingFlow(sys.coords, exprs=(parse("R1", sys.coords),
                                               parse("R2^2", sys.coords)))
    with pytest.raises(ValueError) as err:
        hg.spacetime_window(sys, flow, (0.5, 0.5))
    assert str(err.value) == (
        "cannot place a solve window at seed (0.5, 0.5): v1 = v2 there; give "
        "x_window/t_window in the hodograph section")


def test_cli_singular_window_exits_1(tmp_path, capsys):
    assert cli.main(["hodograph", str(swr_velocity_config(tmp_path))]) == 1
    assert capsys.readouterr().err == f"error: {SINGULAR_WINDOW_MESSAGE}\n"


# a true commuting flow of epsilon3; the seed solves equations 1 and 2 at
# (x*, t*) = (-6.25, 2.5) but not equation 3, so it lies on no solution
EPSILON_FLOW = ["R2*R3", "R1*R3", "R1*R2"]
MISSED_WINDOW_MESSAGE = (
    "cannot place a solve window at seed (0.5, 1.5, 2.5): equation 3 misses by "
    "2.000e+00 at the (x*, t*) = (-6.25, 2.5) of equations 1 and 2; give "
    "x_window/t_window in the hodograph section")


def test_window_checks_every_equation(tmp_path, capsys):
    sys = epsilon_system()
    flow = hg.closed_form_flow(sys, EPSILON_FLOW)
    assert flow.residual < hg.TOL_GOURSAT
    with pytest.raises(ValueError) as err:
        hg.spacetime_window(sys, flow, (0.5, 1.5, 2.5))
    assert str(err.value) == MISSED_WINDOW_MESSAGE
    doc = json.loads((BUILTIN / "epsilon3.json").read_text(encoding="utf-8"))
    doc["hodograph"] = {"w": EPSILON_FLOW, "seed": [0.5, 1.5, 2.5]}
    path = tmp_path / "epsilon3-flow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["hodograph", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {MISSED_WINDOW_MESSAGE}\n"


# --- CLI contract -----------------------------------------------------------------

HOPF_STDOUT = """\
semi-hamiltonian [pass]: residual 0.000e+00 (tol 1.0e-09) over 0 triples (vacuous: no index triples)
flow [closed-form]: defining residual 0.000e+00 (user-supplied)
solved 8448/8448 spacetime points on x=0.5..1.5 t=0..0.2
pde residual: max 3.973e-10 mean 6.222e-11 over 7308 points
"""

SWR_STDOUT = """\
semi-hamiltonian [pass]: residual 0.000e+00 (tol 1.0e-09) over 0 triples (vacuous: no index triples)
flow [sampled]: defining residual 5.306e-05 (integrated)
solved 1088/1088 spacetime points on x=0.501008..0.82174 t=0.0898812..0.250247
pde residual: max 1.984e-06 mean 2.476e-07 over 780 points
"""


def test_cli_hodograph_outputs_match_the_point_oracle(tmp_path, capsys):
    # the CLI's --out file, byte for byte, is the CSV of the per-point solve
    hopf = hopf_system()
    swr = shallow_water_riemann_system()
    swr_flow = hg.integrate_commuting_flow(swr, "R1^2/2", "R2^2/2 - 5")
    cases = [
        ("hopf", HOPF_STDOUT, oracle_solve(
            hopf, hg.closed_form_flow(hopf, ["u^2"]), x_window=(0.5, 1.5),
            t_window=(0.0, 0.2), nx=256, nt=33, seed=(1.0,))),
        ("shallow_water_riemann", SWR_STDOUT, oracle_solve(
            swr, swr_flow, nx=64, nt=17, seed=swr.box.center,
            **dict(zip(("x_window", "t_window"),
                       hg.spacetime_window(swr, swr_flow, swr.box.center))))),
    ]
    for name, stdout, ref in cases:
        out = tmp_path / f"{name}.csv"
        assert cli.main(["hodograph", name, "--out", str(out)]) == 0
        assert capsys.readouterr().out == stdout
        expected = tmp_path / f"{name}-oracle.csv"
        hg.save_solution_csv(expected, ref)
        assert out.read_bytes() == expected.read_bytes()
