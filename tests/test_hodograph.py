"""Diagonal-system integrability and the generalized hodograph pipeline.

Anchors: the Riemann-invariant form of shallow water (linear velocities,
where the flow marching is exact), a three-component symmetric-coupling
system whose compatibility residual vanishes identically, and the scalar
conservation law with a quadratic flow, whose hodograph solution has a
closed form to compare against.  Compatibility residuals are cross-checked
with a nested finite-difference oracle, and residual and witness with the
symbolic path the check took before it used the jets (`differentiate`d
coupling trees).
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    epsilon_system, hopf_system, shallow_water_riemann_system, symbolic_coupling,
)
from hydrobrackets import hermite
from hydrobrackets import hodograph as hg
from hydrobrackets.errors import (
    HyperbolicityViolationError, NonConvergenceError, RegionTooSmallError,
    SeedOutOfBoxError,
)
from hydrobrackets.expr import differentiate, evaluate, evaluate_table
from hydrobrackets.system import Box, SystemDef, sample_box
from hydrobrackets.verify import SAMPLES, fold_worst


def coupled_bad_system():
    # the R2*R3 term breaks the compatibility conditions but keeps the
    # velocities separated on this box
    return SystemDef(
        ("R1", "R2", "R3"),
        v_diag=["R2 + R3 + R2*R3", "R1 + R3", "R1 + R2"],
        box=Box((0.1, 1.1, 2.1), (0.9, 1.9, 2.9)),
        name="coupled-bad")


def integrated_shallow_water_flow(resolution=256):
    # quadratic boundary data; the constant shift keeps the hodograph
    # times of interest near zero where the w-map is injective
    return hg.integrate_commuting_flow(
        shallow_water_riemann_system(), "R1^2/2", "R2^2/2 - 5",
        resolution=resolution)


# --- finite-difference oracle (frozen) -----------------------------------------

def fd_compatibility_residual(sys, point):
    """Worst compatibility violation at one point by nested central differences."""
    n = len(point)

    def v(q):
        return hg.speeds_at(sys, np.asarray(q, float)[None, :])[0]

    def a(q, nu, mu, h=1e-6):
        qp = np.array(q, float)
        qm = np.array(q, float)
        qp[mu] += h
        qm[mu] -= h
        dv = (v(qp)[nu] - v(qm)[nu]) / (2 * h)
        vv = v(q)
        return dv / (vv[mu] - vv[nu])

    worst = 0.0
    for nu in range(n):
        for mu in range(n):
            for lam in range(mu + 1, n):
                if len({nu, mu, lam}) < 3:
                    continue
                h = 1e-4
                pp = np.array(point, float)
                pm = np.array(point, float)
                pp[lam] += h
                pm[lam] -= h
                d_lam = (a(pp, nu, mu) - a(pm, nu, mu)) / (2 * h)
                pp = np.array(point, float)
                pm = np.array(point, float)
                pp[mu] += h
                pm[mu] -= h
                d_mu = (a(pp, nu, lam) - a(pm, nu, lam)) / (2 * h)
                worst = max(worst, abs(d_lam - d_mu))
    return worst


# --- compatibility check --------------------------------------------------------

def test_two_component_systems_pass_vacuously():
    rep = hg.semi_hamiltonian_check(shallow_water_riemann_system())
    assert rep.passed
    assert rep.n_triples == 0
    assert rep.residual == 0.0
    assert rep.witness is None
    assert "vacuous" in str(rep)


def test_decoupled_three_component_system_passes():
    sys = SystemDef(("R1", "R2", "R3"), v_diag=["R1", "R2", "R3"],
                    box=Box((0.0, 1.0, 2.0), (0.5, 1.5, 2.5)), name="decoupled")
    rep = hg.semi_hamiltonian_check(sys)
    assert rep.passed
    assert rep.residual == 0.0
    assert rep.n_triples == 3


def test_symmetric_coupling_system_passes():
    rep = hg.semi_hamiltonian_check(epsilon_system())
    assert rep.passed
    assert rep.residual < 1e-10
    assert rep.hyperbolicity_gap > 0.1


def test_coupled_system_fails_with_witness_in_box():
    sys = coupled_bad_system()
    rep = hg.semi_hamiltonian_check(sys)
    assert not rep.passed
    assert rep.residual > 1e-3
    assert sys.box.contains(rep.witness)


def test_residual_matches_finite_difference_oracle():
    rep = hg.semi_hamiltonian_check(coupled_bad_system())
    fd = fd_compatibility_residual(coupled_bad_system(), rep.witness)
    # the report residual is the max over triples at the witness point
    assert abs(fd - rep.residual) < 1e-6 * max(1.0, rep.residual)


def symbolic_compatibility(sys):
    """Residual and witness of the compatibility conditions over the sample
    sweep, evaluated from `differentiate`d coupling trees, triple by triple
    in the order the check takes them."""
    pts = sample_box(sys.box, SAMPLES)
    diffs = [differentiate(symbolic_coupling(sys, nu, mu), sys.coords[lam])
             - differentiate(symbolic_coupling(sys, nu, lam), sys.coords[mu])
             for nu, mu, lam in itertools.permutations(range(sys.N), 3) if mu < lam]
    vals = evaluate_table(np.array(diffs, dtype=object), sys.coords, sys.params, pts)
    return fold_worst(np.moveaxis(vals, 1, 0), pts, (0.0, None))


@pytest.mark.parametrize("v_diag", [
    ["R2 + R3 + R2*R3", "R1 + R3", "R1 + R2"],
    ["R2*R3^2", "R1 + R3", "R1*R2"],
    ["exp(R2)*R3", "R1 + sin(R3)", "R1*R2 - 2"],
])
def test_residual_and_witness_match_the_symbolic_oracle(v_diag):
    sys = SystemDef(("R1", "R2", "R3"), v_diag=v_diag,
                    box=Box((0.1, 1.1, 2.1), (0.9, 1.9, 2.9)), name="failing")
    rep = hg.semi_hamiltonian_check(sys)
    residual, witness = symbolic_compatibility(sys)
    assert not rep.passed
    assert rep.witness == witness
    assert abs(rep.residual - residual) <= 1e-12 * residual


def test_verdict_survives_coordinate_relabeling():
    def permuted(src, perm):
        names = [src.coords[p] for p in perm]
        vs = [str(src.v_diag[p]) for p in perm]
        lo = tuple(src.box.lo[p] for p in perm)
        hi = tuple(src.box.hi[p] for p in perm)
        return SystemDef(tuple(names), v_diag=vs, box=Box(lo, hi),
                         name=src.name + "-perm")

    for src, expect in ((epsilon_system(), True), (coupled_bad_system(), False)):
        for perm in ((1, 2, 0), (2, 0, 1)):
            assert hg.semi_hamiltonian_check(permuted(src, perm)).passed is expect


def test_velocity_collision_raises_with_point():
    sys = SystemDef(("R1", "R2"), v_diag=["R1", "R1 + 1e-12"],
                    box=Box((0.0, 0.0), (1.0, 1.0)), name="colliding")
    with pytest.raises(HyperbolicityViolationError) as err:
        hg.semi_hamiltonian_check(sys)
    assert sys.box.contains(err.value.point)


def overflowing_system():
    # exp(800*a) overflows to inf for a > 0.887, so the compatibility
    # residual is NaN at those samples while the velocity gap stays finite
    return SystemDef(("a", "b", "c"),
                     v_diag=["exp(800*a)", "b + 2*a*c", "c^2 + 3"],
                     box=Box((0.0, 0.1, 0.1), (1.0, 1.0, 1.0)), name="overflow")


def test_non_finite_residual_fails_with_witness():
    sys = overflowing_system()
    with np.errstate(over="ignore", invalid="ignore"):
        rep = hg.semi_hamiltonian_check(sys)
        flow = hg.closed_form_flow(sys, ["exp(800*a)", "b", "c"])
    assert not rep.passed
    assert np.isnan(rep.residual)
    assert rep.witness is not None and rep.witness[0] > 0.887
    assert sys.box.contains(rep.witness)
    assert "FAIL" in str(rep)
    assert np.isnan(flow.residual)


def test_non_finite_residual_raises_no_numpy_warnings():
    # overflow reaches the verdict as a nan residual with a witness only
    sys = overflowing_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = hg.semi_hamiltonian_check(sys)
        flow = hg.closed_form_flow(sys, ["exp(800*a)", "b", "c"])
    assert not rep.passed
    assert np.isnan(rep.residual)
    assert rep.witness is not None and rep.witness[0] > 0.887
    assert sys.box.contains(rep.witness)
    assert np.isnan(flow.residual)


def test_non_finite_velocity_gap_raises_with_point():
    sys = SystemDef(("a", "b"), v_diag=["exp(800*a) - exp(800*b)", "b"],
                    box=Box((0.0, 0.9), (1.0, 1.0)), name="nan-speed")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(HyperbolicityViolationError) as err:
            hg.semi_hamiltonian_check(sys)
    assert err.value.point[0] > 0.887


def test_check_requires_diagonal_velocities():
    sys = SystemDef(("u",), g_upper=[["1"]], box=Box((0.0,), (1.0,)))
    with pytest.raises(ValueError):
        hg.semi_hamiltonian_check(sys)


def test_report_json_deterministic():
    a = hg.semi_hamiltonian_check(epsilon_system()).to_json()
    b = hg.semi_hamiltonian_check(epsilon_system()).to_json()
    assert a == b
    assert a.endswith("\n")


# --- closed-form flows ----------------------------------------------------------

def test_velocities_are_a_commuting_flow():
    sys = shallow_water_riemann_system()
    fl = hg.closed_form_flow(sys, ["(3*R1 + R2)/4", "(3*R2 + R1)/4"])
    assert fl.kind == "closed-form"
    assert fl.residual < 1e-12


def test_shifted_velocities_are_a_commuting_flow():
    sys = shallow_water_riemann_system()
    fl = hg.closed_form_flow(sys, ["(3*R1 + R2)/4 + 2", "(3*R2 + R1)/4 + 2"])
    assert fl.residual < 1e-12


def test_generic_expressions_are_not_a_commuting_flow():
    fl = hg.closed_form_flow(shallow_water_riemann_system(), ["R1^2", "R2^2"])
    assert fl.residual > 0.1


def test_closed_form_flow_validation():
    sys = shallow_water_riemann_system()
    with pytest.raises(ValueError):
        hg.closed_form_flow(sys, ["R1"])
    with pytest.raises(Exception):
        hg.closed_form_flow(sys, ["R1 + q", "R2"])


def test_numeric_flow_entries_equal_their_source_text():
    sys = shallow_water_riemann_system()
    hopf = hopf_system()
    num, text = hg.closed_form_flow(hopf, [1.5]), hg.closed_form_flow(hopf, ["1.5"])
    assert num.exprs == text.exprs
    assert num.residual == text.residual
    num = hg.integrate_commuting_flow(sys, 0.5, "R2^2/2 - 5", resolution=32)
    text = hg.integrate_commuting_flow(sys, "0.5", "R2^2/2 - 5", resolution=32)
    assert num.values.tobytes() == text.values.tobytes()
    assert num.residual == text.residual


def test_closed_form_evaluation_and_jacobian():
    sys = shallow_water_riemann_system()
    fl = hg.closed_form_flow(sys, ["R1^2", "R1*R2"])
    p = (1.3, 3.7)
    assert np.allclose(fl.w_at(p), [1.69, 4.81])
    assert np.allclose(fl.dw_at(p), [[2.6, 0.0], [3.7, 1.3]])


# --- flow integration -----------------------------------------------------------

def test_marching_reproduces_linear_flow_exactly():
    # for linear data the trapezoidal integrand is constant, so the grid
    # values should agree with the closed form to roundoff
    sys = shallow_water_riemann_system()
    fl = hg.integrate_commuting_flow(sys, "(3*R1 + R2)/4", "(3*R2 + R1)/4",
                                     resolution=32)
    r1, r2 = fl.axes
    g1, g2 = np.meshgrid(r1, r2, indexing="ij")
    exact = np.stack([(3 * g1 + g2) / 4, (3 * g2 + g1) / 4])
    assert np.max(np.abs(fl.values - exact)) < 1e-12
    assert fl.residual < 1e-12
    assert fl.provenance == "integrated"


def test_marching_from_interior_basepoint():
    sys = shallow_water_riemann_system()
    fl = hg.integrate_commuting_flow(sys, "(3*R1 + R2)/4", "(3*R2 + R1)/4",
                                     resolution=32, basepoint=(1.5, 3.5))
    r1, r2 = fl.axes
    g1, g2 = np.meshgrid(r1, r2, indexing="ij")
    exact = np.stack([(3 * g1 + g2) / 4, (3 * g2 + g1) / 4])
    assert np.max(np.abs(fl.values - exact)) < 1e-12


def test_marching_preserves_constant_flow():
    fl = hg.integrate_commuting_flow(shallow_water_riemann_system(), "1", "1",
                                     resolution=16)
    assert np.max(np.abs(fl.values - 1.0)) < 1e-13


def test_sampled_flow_interpolates_grid_values():
    sys = shallow_water_riemann_system()
    fl = hg.integrate_commuting_flow(sys, "(3*R1 + R2)/4", "(3*R2 + R1)/4",
                                     resolution=32)
    p = (1.37, 3.61)
    assert np.allclose(fl.w_at(p), [(3 * 1.37 + 3.61) / 4, (3 * 3.61 + 1.37) / 4],
                       atol=1e-12)
    assert np.allclose(fl.dw_at(p), [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)
    assert fl.box.contains(p)


def test_quadratic_data_residual_scale():
    # the audit constant scales with the data; this data sits near 5e-5
    # at resolution 256, shrinking at second order (see the order test)
    fl = integrated_shallow_water_flow(256)
    assert fl.residual < 1e-4
    assert fl.tol == 1e-5


def test_marching_is_second_order():
    vals = {}
    for res in (64, 128, 256):
        vals[res] = hg.integrate_commuting_flow(
            shallow_water_riemann_system(), "R1^2/2", "R2^2/2 - 5",
            resolution=res).values
    d_coarse = np.max(np.abs(vals[64] - vals[128][:, ::2, ::2]))
    d_fine = np.max(np.abs(vals[128] - vals[256][:, ::2, ::2]))
    assert np.log2(d_coarse / d_fine) > 1.8


def test_mixed_derivative_consistency():
    # d1(d2 w^0) computed two ways: differencing the marched grid twice,
    # and differencing the coupling term of the defining relation once
    sys = shallow_water_riemann_system()
    a01 = symbolic_coupling(sys, 0, 1)

    def mixed_gap(res):
        fl = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5",
                                         resolution=res)
        r1, r2 = fl.axes
        w = fl.values
        g1, g2 = np.meshgrid(r1, r2, indexing="ij")
        coef = np.asarray(
            evaluate(a01, {"R1": g1.ravel(), "R2": g2.ravel()}),
            dtype=float).reshape(g1.shape)

        def d1(f):
            return (f[2:, :] - f[:-2, :]) / (r1[2] - r1[0])

        def d2(f):
            return (f[:, 2:] - f[:, :-2]) / (r2[2] - r2[0])

        return np.max(np.abs(d2(d1(w[0])) - d1(coef * (w[1] - w[0]))[:, 1:-1]))

    gap_128, gap_256 = mixed_gap(128), mixed_gap(256)
    assert gap_256 < 1e-3
    assert gap_128 / gap_256 > 3.0


def test_marching_rejects_bad_setup():
    sys = shallow_water_riemann_system()
    with pytest.raises(ValueError):
        hg.integrate_commuting_flow(sys, "R1", "R2", basepoint=(1.31, 3.0),
                                    resolution=16)
    with pytest.raises(ValueError):
        hg.integrate_commuting_flow(epsilon_system(), "R1", "R2")
    with pytest.raises(ValueError, match="resolution must be at least 2, got 1"):
        hg.integrate_commuting_flow(sys, "R1", "R2", resolution=1)


def test_singular_cell_solve_raises():
    # constants tuned so 1 + (h/2)(a_12 + a_21) hits zero exactly at the
    # first marched cell while all velocity gaps stay above 0.2
    sys = SystemDef(("R1", "R2"), v_diag=["9*R2 - 1", "R1"],
                    box=Box((0.0, 0.0), (1.0, 1.0)), name="singular-cell")
    with pytest.raises(NonConvergenceError):
        hg.integrate_commuting_flow(sys, "R1", "R2", resolution=4)


def test_integration_peak_memory_stays_near_the_flow_it_keeps():
    """The velocity jets are taken per block of grid rows and the couplings
    are released before the interpolation table is built, which keeps w
    itself and its three derivative slots: 64 bytes a node (4.0 MiB at
    resolution 256).  The traced peak is that flow and little more: it
    reads 1.05 times the flow, and read 1.38 times (5.56 MiB) with the
    jets taken over the whole grid at once."""
    sys = shallow_water_riemann_system()
    hg.integrate_commuting_flow(sys, "R1", "R2", resolution=16)    # warm up
    tracemalloc.start()
    try:
        flow = hg.integrate_commuting_flow(sys, "R1", "R2", resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = flow._hermite
    assert table.values is flow.values
    kept = flow.values.nbytes + table.slopes.nbytes
    assert kept == 64 * flow.values[0].size
    assert peak < 1.15 * kept


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_row_blocks_do_not_change_the_flow(monkeypatch):
    """The couplings, the slopes and the residual are taken in row blocks
    of at most ``GRID_BLOCK_ENTRIES`` values; a point's value does not
    depend on its block, so every block size gives the same flow, bit for
    bit.  The default spans 31 of the 257 grid rows."""
    sys = shallow_water_riemann_system()
    # inside the box, on its edges and outside it, where queries clamp
    pts = np.concatenate([sample_box(sys.box, SAMPLES),
                          [[1.0, 3.0], [2.0, 4.0], [0.5, 3.5], [1.5, 4.5]]])
    runs = []
    for entries in (1, 257, 1000, hermite.GRID_BLOCK_ENTRIES):
        monkeypatch.setattr(hermite, "GRID_BLOCK_ENTRIES", entries)
        flow = integrated_shallow_water_flow(256)
        runs.append((flow.values, flow.residual, flow.w_at(pts),
                     flow.dw_at(pts), flow.w_at(pts[0]), flow.dw_at(pts[0])))
    for run in runs[:-1]:
        assert all(same_bits(a, b) for a, b in zip(run, runs[-1]))


@pytest.mark.parametrize("v_diag, gap_tol", [
    # gaps up to gap_tol in rows 6 to 16, the smallest at (0.875, 0.5)
    (["R1", "R1 + (R1 - 0.875)^2 + (R2 - 0.5)^2"], 0.25),
    # the derivative of the sqrt divides by zero in row 4, and the speeds
    # collide at (0.875, 0.5) only
    (["sqrt((R1 - 0.25)^2)",
      "sqrt((R1 - 0.25)^2) + (R1 - 0.875)^2 + (R2 - 0.5)^2"], hg.GAP_TOL),
])
def test_a_collision_across_row_blocks_is_the_whole_grids(monkeypatch, v_diag,
                                                          gap_tol):
    """A row block that fails raises the error of the whole grid: its worst
    gap, and a collision before a derivative's domain error."""
    sys = SystemDef(("R1", "R2"), v_diag=v_diag,
                    box=Box((0.0, 0.0), (1.0, 1.0)), name="colliding")
    r = np.linspace(0.0, 1.0, 17)
    grid = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    with pytest.raises(HyperbolicityViolationError) as whole:
        hg._hyperbolic_jets(sys, grid, 1, gap_tol)
    assert whole.value.point == (0.875, 0.5)
    for entries in (17, 3 * 17, hermite.GRID_BLOCK_ENTRIES):
        monkeypatch.setattr(hermite, "GRID_BLOCK_ENTRIES", entries)
        with pytest.raises(HyperbolicityViolationError) as err:
            hg.integrate_commuting_flow(sys, "R1", "R2", resolution=16,
                                        gap_tol=gap_tol)
        assert str(err.value) == str(whole.value)
        assert err.value.point == whole.value.point


# --- hodograph solve ------------------------------------------------------------

def quadratic_scalar_flow():
    return hg.closed_form_flow(hopf_system(), ["u^2"])


def test_scalar_hodograph_matches_closed_form():
    sol = hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                             x_window=(0.5, 1.5), t_window=(0.0, 0.2),
                             nx=256, nt=33, seed=(1.0,))
    assert sol.n_converged == sol.converged.size
    xx, tt = np.meshgrid(sol.x, sol.t)
    exact = (tt + np.sqrt(tt ** 2 + 4 * xx)) / 2
    assert np.max(np.abs(sol.R[..., 0] - exact)) < 1e-10
    # the t=0 row is the initial profile
    assert np.max(np.abs(sol.R[0, :, 0] - np.sqrt(sol.x))) < 1e-12


def test_scalar_solution_satisfies_pde():
    sol = hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                             x_window=(0.5, 1.5), t_window=(0.0, 0.2),
                             nx=256, nt=33, seed=(1.0,))
    res = hg.verify_solution(sol, hopf_system())
    assert res.max_residual < 1e-7
    assert res.n_points > 5000
    assert np.isnan(res.field[0, 0])


def test_scalar_solution_chain_rule():
    # differentiating the implicit relation in x gives (w' - t v') R_x = 1
    sol = hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                             x_window=(0.5, 1.5), t_window=(0.0, 0.2),
                             nx=256, nt=9, seed=(1.0,))
    hx = sol.x[1] - sol.x[0]
    r = sol.R[..., 0]
    r_x = (-r[:, 4:] + 8 * r[:, 3:-1] - 8 * r[:, 1:-3] + r[:, :-4]) / (12 * hx)
    lhs = (2 * r[:, 2:-2] - sol.t[:, None]) * r_x
    assert np.max(np.abs(lhs - 1.0)) < 1e-5


def test_seed_outside_coordinate_box_rejected():
    with pytest.raises(SeedOutOfBoxError):
        hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                           x_window=(0.5, 1.5), t_window=(0.0, 0.2),
                           nx=8, nt=5, seed=(5.0,))


@pytest.mark.parametrize("x_window, t_window, name", [
    ((0.5, 0.5), (0.0, 0.2), "x_window"), ((0.5, 1.5), (0.1, 0.1), "t_window")])
def test_window_with_equal_ends_rejected(x_window, t_window, name):
    with pytest.raises(ValueError, match=f"{name} .* has equal ends"):
        hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                           x_window=x_window, t_window=t_window,
                           nx=8, nt=5, seed=(1.0,))


def test_reversed_window_solves_the_same_points():
    kwargs = dict(nx=16, nt=5, seed=(1.0,))
    fwd = hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                             x_window=(0.5, 1.5), t_window=(0.0, 0.2), **kwargs)
    rev = hg.hodograph_solve(hopf_system(), quadratic_scalar_flow(),
                             x_window=(1.5, 0.5), t_window=(0.0, 0.2), **kwargs)
    assert rev.n_converged == rev.converged.size
    assert np.max(np.abs(rev.R[:, ::-1] - fwd.R)) < 1e-10


def solve_shallow_water(flow, nx=64, nt=17):
    """Window the spacetime grid so R stays inside the sampled box."""
    sys = shallow_water_riemann_system()
    rstar = np.array([1.5, 3.5])
    x_window, t_window = hg.spacetime_window(sys, flow, rstar)
    return hg.hodograph_solve(sys, flow, x_window=x_window, t_window=t_window,
                              nx=nx, nt=nt, seed=rstar)


def test_two_component_hodograph_solution_satisfies_pde():
    sol = solve_shallow_water(integrated_shallow_water_flow(256))
    assert sol.n_converged == sol.converged.size
    res = hg.verify_solution(sol, shallow_water_riemann_system())
    assert res.max_residual < 1e-5
    assert res.n_points > 500


def test_flow_and_system_sizes_must_agree():
    with pytest.raises(ValueError):
        hg.hodograph_solve(shallow_water_riemann_system(),
                           quadratic_scalar_flow(), x_window=(0.0, 1.0),
                           t_window=(0.0, 0.1), nx=8, nt=5, seed=(1.5, 3.5))


# --- solution audit -------------------------------------------------------------

def constant_solution(value=(1.25,), nx=16, nt=8):
    r = np.broadcast_to(np.array(value), (nt, nx, len(value))).copy()
    return hg.HodographSolution(
        system="constant", x=np.linspace(0.0, 1.0, nx),
        t=np.linspace(0.0, 0.5, nt), R=r,
        residual=np.zeros((nt, nx)), converged=np.ones((nt, nx), dtype=bool),
        newton_tol=1e-12)


def test_constant_solution_has_zero_residual():
    res = hg.verify_solution(constant_solution(), hopf_system())
    assert res.max_residual == 0.0
    assert res.mean_residual == 0.0


def test_corrupted_solution_is_flagged():
    sol = constant_solution(nx=64, nt=16)
    rng = np.random.default_rng(3)
    sol.R[...] += 0.01 * rng.standard_normal(sol.R.shape)
    res = hg.verify_solution(sol, hopf_system())
    assert res.max_residual > 1e-2


def test_audit_requires_enough_grid():
    with pytest.raises(RegionTooSmallError):
        hg.verify_solution(constant_solution(nx=16, nt=4), hopf_system())
    sol = constant_solution()
    sol.converged[:] = False
    with pytest.raises(RegionTooSmallError):
        hg.verify_solution(sol, hopf_system())


def test_audit_masks_unconverged_stencils():
    sol = constant_solution(nx=16, nt=8)
    sol.converged[:, 8] = False
    res = hg.verify_solution(sol, hopf_system())
    # columns 6..10 lose their x-stencil, the rest of the interior survives
    assert np.all(np.isnan(res.field[:, 6:11]))
    assert res.n_points == 4 * 7


def test_solution_csv_layout(tmp_path):
    sol = constant_solution(nx=8, nt=5)
    path = tmp_path / "solution.csv"
    hg.save_solution_csv(path, sol)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,t,R1,residual,converged"
    assert len(lines) == 1 + 5 * 8
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == sol.x[0]
    assert first[1] == sol.t[0]
    assert first[2] == 1.25
    assert first[4] == 1.0
