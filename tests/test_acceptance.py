"""End-to-end acceptance checks, one test per headline capability.

Every test exercises the shipped library systems through the public API,
prints a single pass/fail line with the measured figures, and folds a
wall-clock budget into its verdict.  Run with ``pytest -s`` to see the
lines for passing tests too.
"""

import copy
import math
import time

import numpy as np
import pytest

from test_verify import charpoly_pencil_roots, constant_metric_system
from hydrobrackets import config as cfgmod
from hydrobrackets import fieldbracket as fb
from hydrobrackets import hodograph as hg
from hydrobrackets import library
from hydrobrackets import tensor
from hydrobrackets import verify
from hydrobrackets.errors import NotFlatError, SingularMetricError
from hydrobrackets.system import SystemDef, sample_box


def report(num, label, ok, detail):
    line = f"criterion {num:02d} [{'pass' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def harmonic_field(sys_, m, seed):
    """Band-limited in-box field and its exact x-derivative."""
    rng = np.random.default_rng(seed)
    x = np.arange(m) * (2.0 * math.pi / m)
    vals = np.empty((sys_.N, m))
    derivs = np.empty((sys_.N, m))
    for i in range(sys_.N):
        lo, hi = sys_.box.lo[i], sys_.box.hi[i]
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        u = np.full(m, center)
        du = np.zeros(m)
        for j in range(1, 5):
            a, b = rng.uniform(-1.0, 1.0, 2)
            amp = 0.1 * half / j
            u += amp * (a * np.cos(j * x) + b * np.sin(j * x))
            du += amp * j * (b * np.cos(j * x) - a * np.sin(j * x))
        vals[i], derivs[i] = u, du
    return fb.GridField(vals), derivs


def max_jacobi_over_triples(sys_, field, n_triples=20, m_seed=0):
    worst = 0.0
    for k in range(n_triples):
        F, G, H = (fb.random_polynomial_functional(
            sys_.coords, degree=3, seed=m_seed + 3 * k + j) for j in range(3))
        worst = max(worst, fb.jacobi_residual(sys_, F, G, H, field))
    return worst


def windowed_solve(sys_, flow, seed_point, nx=64, nt=17):
    """Center the spacetime window where the hodograph map is invertible."""
    rstar = np.asarray(seed_point, dtype=float)
    x_window, t_window = hg.spacetime_window(sys_, flow, rstar)
    return hg.hodograph_solve(sys_, flow, x_window=x_window, t_window=t_window,
                              nx=nx, nt=nt, seed=rstar)


def test_criterion_01_flat_metrics_satisfy_jacobi():
    t0 = time.perf_counter()
    flat_names = []
    worst_flat, n_flat_triples = 0.0, 0
    for name in library.names():
        sys_ = library.load(name).system
        try:
            rep = verify.check_dn(sys_)
        except (ValueError, SingularMetricError):
            continue
        if not rep.passed:
            continue
        flat_names.append(name)
        if sys_.N > 2:
            continue
        field, _ = harmonic_field(sys_, 64, 0)
        worst_flat = max(worst_flat, max_jacobi_over_triples(sys_, field))
        n_flat_triples += 20

    sphere = library.load("sphere").system
    srep = verify.check_dn(sphere)
    flatness = next(c for c in srep.checks if c.name == "flatness")
    sfield, _ = harmonic_field(sphere, 64, 0)
    sphere_jacobi = max_jacobi_over_triples(sphere, sfield)

    elapsed = time.perf_counter() - t0
    ok = ({"canonical", "polar_plane"} <= set(flat_names)
          and worst_flat < 1e-6
          and not srep.passed
          and flatness.witness is not None
          and abs(flatness.residual - 1.0) < 1e-6
          and sphere_jacobi > 1e-3
          and elapsed < 60.0)
    report(1, "flat checks pass Jacobi, curvature breaks it", ok,
           f"flat max {worst_flat:.3e} over {n_flat_triples} triples on "
           f"{sorted(flat_names)}, sphere curvature {flatness.residual:.6f} "
           f"with jacobi {sphere_jacobi:.3e} ({elapsed:.1f}s < 60s)")


def test_criterion_02_sphere_has_unit_curvature_constant():
    t0 = time.perf_counter()
    sphere = library.load("sphere").system
    rep = verify.check_mf(sphere)
    pattern = next(c for c in rep.checks
                   if c.name == "constant-curvature-pattern")
    elapsed = time.perf_counter() - t0
    ok = (rep.passed
          and rep.curvature_constant is not None
          and abs(rep.curvature_constant - 1.0) <= 1e-6
          and pattern.residual < 1e-8
          and elapsed < 5.0)
    report(2, "sphere fits the constant-curvature pattern", ok,
           f"c = {rep.curvature_constant:.9f}, pattern residual "
           f"{pattern.residual:.3e} at 64 samples ({elapsed:.1f}s < 5s)")


def test_criterion_03_affinor_family_conditions():
    t0 = time.perf_counter()
    fam = library.load("sphere_affinor").system
    rep = verify.check_ferapontov(fam)
    by_name = {c.name: c for c in rep.checks}
    families = ("metric-affinor-symmetry", "covariant-derivative-symmetry",
                "curvature-representation", "affinor-commutativity")
    worst = max(by_name[n].residual for n in families)

    doc = copy.deepcopy(library.load("sphere_affinor").raw)
    doc["name"] = "sheared-affinor"
    doc["affinors"][0]["matrix"] = [["1", "0.1"], ["0", "1"]]
    mutant = cfgmod.parse_document(doc).system
    mrep = verify.check_ferapontov(mutant)
    msym = next(c for c in mrep.checks if c.name == "metric-affinor-symmetry")

    elapsed = time.perf_counter() - t0
    ok = (rep.passed
          and all(n in by_name for n in families)
          and worst < 1e-9
          and not mrep.passed
          and not msym.passed
          and msym.witness is not None
          and elapsed < 5.0)
    report(3, "affinor conditions hold, sheared mutant rejected", ok,
           f"all four families max {worst:.3e}, mutant symmetry residual "
           f"{msym.residual:.3e} with witness ({elapsed:.1f}s < 5s)")


def test_criterion_04_flat_chart_development():
    t0 = time.perf_counter()
    polar = library.load("polar_plane").system
    chart = verify.develop_flat_coords(polar, resolution=64)
    sphere = library.load("sphere").system
    with pytest.raises(NotFlatError):
        verify.develop_flat_coords(sphere, resolution=16)
    elapsed = time.perf_counter() - t0
    ok = (chart.passed
          and chart.pushed_metric_residual < 1e-7
          and chart.path_agreement < 1e-8
          and elapsed < 10.0)
    report(4, "flat chart pushes the metric constant", ok,
           f"pushed residual {chart.pushed_metric_residual:.3e}, two-path "
           f"gap {chart.path_agreement:.3e} on a 64x64 grid, sphere refused "
           f"({elapsed:.1f}s < 10s)")


@pytest.mark.filterwarnings(
    "ignore::hydrobrackets.errors.DegenerateHyperbolicityWarning")
def test_criterion_05_torsion_obstruction_separates_operators():
    t0 = time.perf_counter()
    sw = library.load("shallow_water").system
    h_sw = np.max(np.abs(tensor.hantjes_at(sw, sample_box(sw.box, 64))))

    rng = np.random.default_rng(7)

    def entry():
        c = rng.uniform(-1.0, 1.0, 4)
        return (f"{c[0]:.6f} + {c[1]:.6f}*U1 + {c[2]:.6f}*U2"
                f" + {c[3]:.6f}*U3")

    generic = SystemDef(
        ["U1", "U2", "U3"],
        V=[[entry() for _ in range(3)] for _ in range(3)],
        box=((-1.0,) * 3, (1.0,) * 3), name="generic-operator")
    h_gen = np.max(np.abs(tensor.hantjes_at(generic,
                                            sample_box(generic.box, 64))))

    elapsed = time.perf_counter() - t0
    ok = h_sw < 1e-10 and h_gen > 1e-3 and elapsed < 5.0
    report(5, "Haantjes tensor vanishes only for the physical flux", ok,
           f"shallow water max {h_sw:.3e}, seeded generic operator "
           f"{h_gen:.3e} at 64 samples ({elapsed:.1f}s < 5s)")


def test_criterion_06_diagonal_compatibility_check():
    t0 = time.perf_counter()
    eps = library.load("epsilon3").system
    good = hg.semi_hamiltonian_check(eps)

    rng = np.random.default_rng(11)
    c = rng.uniform(0.5, 1.5)
    coupled = SystemDef(
        ["R1", "R2", "R3"],
        v_diag=[f"R2 + R3 + {c!r}*R2*R3", "R1 + R3", "R1 + R2"],
        box=((0.1, 1.1, 2.1), (0.9, 1.9, 2.9)), name="random-coupling")
    bad = hg.semi_hamiltonian_check(coupled)

    elapsed = time.perf_counter() - t0
    ok = (good.passed and good.residual < 1e-10
          and not bad.passed and bad.residual > 1e-3
          and bad.witness is not None
          and elapsed < 5.0)
    report(6, "compatibility residual separates diagonal systems", ok,
           f"symmetric coupling {good.residual:.3e}, random coupling "
           f"{bad.residual:.3e} ({elapsed:.1f}s < 5s)")


def test_criterion_07_scalar_hodograph_matches_closed_form():
    t0 = time.perf_counter()
    hopf = library.load("hopf").system
    flow = hg.closed_form_flow(hopf, ["u^2"])
    sol = hg.hodograph_solve(hopf, flow, x_window=(0.5, 1.5),
                             t_window=(0.0, 0.2), nx=256, nt=33, seed=(1.0,))
    X, T = np.meshgrid(sol.x, sol.t)
    exact = 0.5 * (T + np.sqrt(T * T + 4.0 * X))
    err = float(np.max(np.abs(sol.R[..., 0] - exact)[sol.converged]))
    res = hg.verify_solution(sol, hopf)
    elapsed = time.perf_counter() - t0
    ok = (sol.n_converged == sol.converged.size
          and err < 1e-10
          and res.max_residual < 1e-7
          and elapsed < 5.0)
    report(7, "scalar hodograph reproduces the closed form", ok,
           f"|R - exact| {err:.3e} on a 256-point slice, pde residual "
           f"{res.max_residual:.3e} ({elapsed:.1f}s < 5s)")


def test_criterion_08_shallow_water_goursat_and_solution():
    t0 = time.perf_counter()
    sw = library.load("shallow_water_riemann").system
    flows = {r: hg.integrate_commuting_flow(sw, "R1^2/2", "R2^2/2 - 5",
                                            resolution=r)
             for r in (64, 128, 256)}
    ref = flows[256].values
    e64 = float(np.max(np.abs(flows[64].values - ref[:, ::4, ::4])))
    e128 = float(np.max(np.abs(flows[128].values - ref[:, ::2, ::2])))
    order = math.log2(e64 / e128)

    sol = windowed_solve(sw, flows[256], (1.5, 3.5))
    res = hg.verify_solution(sol, sw)
    elapsed = time.perf_counter() - t0
    ok = (res.max_residual < 1e-5
          and sol.n_converged == sol.converged.size
          and order >= 1.8
          and elapsed < 120.0)
    report(8, "shallow water Goursat march converges at second order", ok,
           f"pde residual {res.max_residual:.3e} on the converged region, "
           f"marching order {order:.2f} over two doublings "
           f"({elapsed:.1f}s < 120s)")


def test_criterion_09_momentum_flow_and_annihilators():
    t0 = time.perf_counter()
    can = library.load("canonical").system
    field, deriv = harmonic_field(can, 64, 5)
    momentum = fb.Functional("(U1^2 + U2^2)/2", can.coords)
    flow = fb.hamiltonian_flow(can, momentum, field)
    flow_err = float(np.max(np.abs(flow.values - deriv)))

    worst = 0.0
    for cname in can.coords:
        casimir = fb.Functional(cname, can.coords)
        for k in range(10):
            G = fb.random_polynomial_functional(can.coords, degree=3,
                                                seed=100 + k)
            worst = max(worst, abs(fb.bracket(can, casimir, G, field)))

    elapsed = time.perf_counter() - t0
    ok = flow_err < 1e-10 and worst < 1e-12 and elapsed < 5.0
    report(9, "momentum generates translation, casimirs annihilate", ok,
           f"|flow - U_x| {flow_err:.3e}, casimir bracket max {worst:.3e} "
           f"over 10 functionals ({elapsed:.1f}s < 5s)")


def test_criterion_10_pencil_roots_match_charpoly_oracle():
    t0 = time.perf_counter()
    worst, all_regular = 0.0, True
    s1 = None
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        g1 = a @ a.T + np.eye(4)
        g2 = b @ b.T + np.eye(4)
        s1 = constant_metric_system(g1, f"pencil-a{seed}")
        s2 = constant_metric_system(g2, f"pencil-b{seed}")
        rep = verify.pencil_regularity(s1, s2)
        oracle = charpoly_pencil_roots(g1, g2)
        worst = max(worst, float(np.max(np.abs(rep.roots - oracle[None, :]))))
        all_regular = all_regular and rep.regular
    degenerate = verify.pencil_regularity(s1, s1)
    elapsed = time.perf_counter() - t0
    ok = (worst < 1e-8 and all_regular and not degenerate.regular
          and elapsed < 5.0)
    report(10, "pencil roots agree with the charpoly oracle", ok,
           f"max gap {worst:.3e} over 20 seeded 4x4 pairs, identical pair "
           f"flagged degenerate ({elapsed:.1f}s < 5s)")
