"""Functional bracket engine on periodic grids.

Ground truth comes from closed-form operators (spectral derivatives of
single harmonics, the rotation-algebra cross product) and from geometry:
systems passing the flat-bracket conditions must produce a vanishing Jacobi
cyclic sum, while systems failing them must not.
"""

import itertools
import math
import random

import numpy as np
import pytest

from conftest import (
    canonical_system, epsilon_system, polar_pair_system,
    hopf_system, shallow_water_riemann_system, shallow_water_system,
    so3_system, sphere_system,
)
from hydrobrackets import fieldbracket as fb
from hydrobrackets import library
from hydrobrackets import tensor as tz
from hydrobrackets.config import DEFAULT_TOLERANCES
from hydrobrackets.errors import ShapeMismatchError
from hydrobrackets.system import Box, SystemDef


TOL_JACOBI = DEFAULT_TOLERANCES["tol_jacobi"]


def antisymmetry_residual(sys, F, G, U):
    """|{F, G} + {G, F}| at the field ``U``."""
    return abs(fb.bracket(sys, F, G, U) + fb.bracket(sys, G, F, U))


def smooth_field(base, m, seed=0, amplitude=0.1, band=4):
    """Band-limited field with components oscillating around ``base``."""
    rng = np.random.default_rng(seed)
    x = np.arange(m) * (2.0 * math.pi / m)
    rows = []
    for b in base:
        row = np.full(m, float(b))
        for j in range(1, band + 1):
            row += amplitude / j * (rng.normal() * np.cos(j * x)
                                    + rng.normal() * np.sin(j * x))
        rows.append(row)
    return fb.GridField(np.array(rows))


def cubic_triple(coords, seeds=(0, 1, 2), degree=3):
    return tuple(fb.random_polynomial_functional(coords, degree=degree, seed=s)
                 for s in seeds)


def central_jacobi(sys, funcs, U, h=1e-5):
    """Oracle: the cyclic sum with each term {{Fa,Fb},Fc} taken as the
    central difference ({Fa,Fb}[U + h v] - {Fa,Fb}[U - h v]) / 2h along the
    flow v = A(delta Fc), from public `bracket` and `hamiltonian_flow` calls.
    Its roundoff floor is about eps/h, near 1e-11 for a Poisson bracket."""
    F, G, H = funcs
    total = 0.0
    for fa, fb_, fc in ((F, G, H), (G, H, F), (H, F, G)):
        v = fb.hamiltonian_flow(sys, fc, U).values
        up = fb.bracket(sys, fa, fb_, fb.GridField(U.values + h * v))
        down = fb.bracket(sys, fa, fb_, fb.GridField(U.values - h * v))
        total += (up - down) / (2.0 * h)
    return abs(total)


def perturbed_polar_system():
    """The polar-plane bracket with one b entry shifted: not Poisson."""
    b = [[["0", "0"], ["0", "-1/r + 0.1"]],
         [["0", "1/r"], ["-1/r^3", "0"]]]
    return SystemDef(["r", "th"], g_upper=[["1", "0"], ["0", "1/r^2"]], b=b,
                     box=Box((0.5, -1.0), (2.5, 1.5)))


# --- grid and derivative basics -------------------------------------------------

def test_grid_field_validation():
    with pytest.raises(ValueError):
        fb.GridField(np.zeros((2, 48)))
    # on 2 points the spectral derivative is identically zero
    with pytest.raises(ValueError, match="grid size 2 is not a power of two of "
                                         "at least 4"):
        fb.GridField(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        fb.GridField(np.array([[np.nan] * 16]))
    with pytest.raises(ShapeMismatchError):
        fb.GridField(np.zeros(16))
    f = fb.GridField(np.zeros((3, 32)))
    assert f.n_points == 32
    assert abs(f.dx - 2 * math.pi / 32) < 1e-15


def test_spectral_derivative_on_harmonics():
    m = 64
    x = np.arange(m) * (2 * math.pi / m)
    d = fb.spectral_dx(np.sin(3 * x))
    assert np.max(np.abs(d - 3 * np.cos(3 * x))) < 1e-12
    assert np.max(np.abs(fb.spectral_dx(np.full(m, 2.5)))) < 1e-13


def test_operator_kills_constant_covector_for_constant_metric():
    sys = canonical_system()
    U = smooth_field((0.2, -0.1), 64)
    xi = np.array([[0.7] * 64, [-0.3] * 64])
    out = fb.apply_bracket_operator(sys, U, xi)
    assert np.max(np.abs(out.values)) < 1e-13


def test_operator_identity_metric_differentiates_covector():
    sys = canonical_system()
    m = 64
    x = np.arange(m) * (2 * math.pi / m)
    U = smooth_field((0.0, 0.0), m)
    xi = np.array([np.sin(x), np.sin(x)])
    out = fb.apply_bracket_operator(sys, U, xi)
    for row in out.values:
        assert np.max(np.abs(row - np.cos(x))) < 1e-12


def test_operator_ultralocal_rotation_algebra_is_cross_product():
    sys = so3_system()
    U = smooth_field((0.4, -0.2, 0.8), 32, seed=5)
    xi_vec = np.array([0.3, -0.2, 0.5])
    xi = np.tile(xi_vec[:, None], (1, 32))
    out = fb.apply_bracket_operator(sys, U, xi)
    expect = np.cross(np.broadcast_to(xi_vec, (32, 3)), U.values.T).T
    assert np.max(np.abs(out.values - expect)) < 1e-13


def test_operator_shape_checks():
    sys = canonical_system()
    U = smooth_field((0.0, 0.0), 32)
    with pytest.raises(ShapeMismatchError):
        fb.apply_bracket_operator(sys, U, np.zeros((2, 64)))
    with pytest.raises(ShapeMismatchError):
        fb.apply_bracket_operator(sys, smooth_field((0.0,), 32), np.zeros((1, 32)))


def test_functional_coordinates_must_be_the_system_coordinates():
    # read by position, the first two gave a silently wrong bracket and the
    # third numpy's reshape error
    sys = polar_pair_system()
    U = smooth_field((1.5, 0.2), 64, seed=2)
    F = fb.Functional("r^2*th", sys.coords)
    for coords, density in [(("th", "r"), "th^2*r"), (("a", "b"), "a*b"),
                            (("r", "th", "z"), "r*th*z")]:
        other = fb.Functional(density, coords)
        message = (f"functional coordinates {coords} are not the system "
                   f"coordinates ('r', 'th')")
        for call in (lambda: fb.bracket(sys, F, other, U),
                     lambda: fb.bracket(sys, other, F, U),
                     lambda: fb.hamiltonian_flow(sys, other, U),
                     lambda: fb.jacobi_residual(sys, F, F, other, U)):
            with pytest.raises(ShapeMismatchError) as err:
                call()
            assert str(err.value) == message


def test_functional_needs_one_field_component_per_coordinate():
    F = fb.Functional("r*th*z", ("r", "th", "z"))
    U = smooth_field((1.5, 0.2), 16)
    message = "functional has 3 coordinates, field has 2 components"
    with pytest.raises(ShapeMismatchError, match=message):
        F.variational(U)
    with pytest.raises(ShapeMismatchError, match=message):
        F.value(U)


@pytest.mark.parametrize("sys", [
    shallow_water_system(), epsilon_system(), shallow_water_riemann_system()],
    ids=lambda s: s.name)
def test_system_without_a_bracket_is_rejected(sys):
    U = smooth_field(sys.box.center, 16)
    F, G, H = cubic_triple(sys.coords)
    with pytest.raises(ValueError,
                       match=r"declares no bracket \(needs g_upper or h_ultra\)"):
        fb.bracket(sys, F, G, U)
    with pytest.raises(ValueError, match="declares no bracket"):
        fb.jacobi_residual(sys, F, G, H, U)


def test_ultralocal_only_system_applies_its_h_term():
    sys = SystemDef(["a", "b"], h_ultra=[["0", "a"], ["-a", "0"]])
    U = smooth_field((0.4, -0.2), 16)
    out = fb.apply_bracket_operator(sys, U, np.ones((2, 16))).values
    assert np.array_equal(out, np.array([U.values[0], -U.values[0]]))


# --- functionals -----------------------------------------------------------------

def test_functional_value_and_variational():
    U = smooth_field((1.0, 2.0), 64, seed=3)
    mass = fb.Functional("U1", ("U1", "U2"))
    assert abs(mass.value(U) - np.sum(U.values[0]) * U.dx) < 1e-12
    var = mass.variational(U)
    assert np.allclose(var[0], 1.0) and np.allclose(var[1], 0.0)
    quad = fb.Functional("0.5*(U1^2 + U2^2)", ("U1", "U2"))
    assert np.allclose(quad.variational(U), U.values, atol=1e-14)


def test_functional_rejects_unknown_names():
    from hydrobrackets.errors import UnknownSymbolError
    from hydrobrackets.expr import parse

    with pytest.raises(UnknownSymbolError):
        fb.Functional("U1 + q", ("U1", "U2"))
    with pytest.raises(ValueError):
        fb.Functional(parse("U1 + q", {"U1", "U2", "q"}), ("U1", "U2"))


def test_random_functional_needs_degree_one():
    with pytest.raises(ValueError, match="degree must be at least 1, got 0"):
        fb.random_polynomial_functional(("u",), degree=0)


@pytest.mark.parametrize("seed", [-1, -60])
def test_random_functional_needs_a_non_negative_seed(seed):
    # random.Random(-s) would replay the stream of s
    with pytest.raises(ValueError,
                       match=f"seed must be a non-negative integer, got {seed}"):
        fb.random_polynomial_functional(("u",), seed=seed)


def test_random_functional_draws_from_the_standard_library():
    # a normal draw of random.Random(seed), whatever the numpy version
    U = smooth_field((0.5, 0.5), 16)
    for seed in (0, 7, 180):
        f = fb.random_polynomial_functional(("a", "b"), degree=1, seed=seed)
        rng = random.Random(seed)
        coef = [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
        assert np.array_equal(f.variational(U),
                              np.repeat(np.array(coef)[:, None], 16, axis=1))


def test_random_functional_is_deterministic():
    f1 = fb.random_polynomial_functional(("a", "b"), degree=3, seed=11)
    f2 = fb.random_polynomial_functional(("a", "b"), degree=3, seed=11)
    U = smooth_field((0.5, 0.5), 32)
    assert f1.value(U) == f2.value(U)
    assert np.array_equal(f1.variational(U), f2.variational(U))


# --- bracket anchors ---------------------------------------------------------------

def test_coordinate_integrals_are_annihilators_of_constant_bracket():
    sys = canonical_system()
    U = smooth_field((0.3, -0.4), 64, seed=2)
    for k, name in enumerate(("U1", "U2")):
        ann = fb.Functional(name, ("U1", "U2"))
        g = fb.random_polynomial_functional(("U1", "U2"), seed=k + 7)
        assert abs(fb.bracket(sys, ann, g, U)) < 1e-12
        assert abs(fb.bracket(sys, g, ann, U)) < 1e-12
        assert np.max(np.abs(fb.hamiltonian_flow(sys, ann, U).values)) < 1e-13


def test_momentum_generates_translation():
    sys = canonical_system()
    U = smooth_field((0.3, -0.4), 64, seed=2)
    momentum = fb.Functional("0.5*(U1^2 + U2^2)", ("U1", "U2"))
    flow = fb.hamiltonian_flow(sys, momentum, U)
    assert np.max(np.abs(flow.values - fb.spectral_dx(U.values))) < 1e-12
    g = fb.random_polynomial_functional(("U1", "U2"), seed=4)
    expect = float(np.sum(g.variational(U) * fb.spectral_dx(U.values)) * U.dx)
    assert abs(fb.bracket(sys, g, momentum, U) - expect) < 1e-12


def test_hopf_flow_from_cubic_hamiltonian():
    sys = SystemDef(["u"], g_upper=[["1"]], b=[[["0"]]], box=Box((0.2,), (2.0,)))
    U = smooth_field((1.0,), 128, seed=1, amplitude=0.1, band=4)
    h = fb.Functional("u^3/6", ("u",))
    flow = fb.hamiltonian_flow(sys, h, U).values[0]
    expect = U.values[0] * fb.spectral_dx(U.values[0])
    assert np.max(np.abs(flow - expect)) < 1e-10


# --- bracket axioms ---------------------------------------------------------------

def library_cases(m=64):
    return [
        (canonical_system(), smooth_field((0.3, -0.2), m, seed=1)),
        (polar_pair_system(), smooth_field((1.5, 0.2), m, seed=2)),
        (sphere_system(with_b=True), smooth_field((1.2, 1.5), m, seed=3)),
    ]


def test_antisymmetry_across_library():
    for sys, U in library_cases():
        f = fb.random_polynomial_functional(sys.coords, seed=20)
        g = fb.random_polynomial_functional(sys.coords, seed=21)
        assert antisymmetry_residual(sys, f, g, U) < 1e-10
        assert abs(fb.bracket(sys, f, f, U)) < 1e-10


def test_leibniz_rule_matches_flow_derivative():
    # d/dt K[U] along the flow of F equals {K, F}; the density product rule
    # inside variational derivatives must reproduce it
    for sys, U in library_cases():
        f = fb.random_polynomial_functional(sys.coords, seed=30)
        g = fb.random_polynomial_functional(sys.coords, degree=2, seed=31)
        h = fb.random_polynomial_functional(sys.coords, degree=2, seed=32)
        comp = fb.Functional(g.density * h.density, sys.coords)
        flow = fb.hamiltonian_flow(sys, f, U).values
        s = 1e-6
        up = fb.GridField(U.values + s * flow)
        down = fb.GridField(U.values - s * flow)
        direct = (comp.value(up) - comp.value(down)) / (2 * s)
        assert abs(fb.bracket(sys, comp, f, U) - direct) < 1e-7


def test_jacobi_constant_bracket_cubic_densities():
    sys = canonical_system()
    U = smooth_field((0.3, -0.2), 64, seed=1)
    assert fb.jacobi_residual(sys, *cubic_triple(sys.coords), U) < 1e-8


def test_jacobi_flat_curvilinear_bracket():
    sys = polar_pair_system()
    U = smooth_field((1.5, 0.2), 64, seed=2)
    for seeds in ((0, 1, 2), (3, 4, 5)):
        funcs = cubic_triple(sys.coords, seeds=seeds, degree=2)
        assert fb.jacobi_residual(sys, *funcs, U) < 1e-6


def test_jacobi_detects_perturbed_b():
    sys = perturbed_polar_system()
    U = smooth_field((1.5, 0.2), 32, seed=2)
    found = False
    for seed in range(20):
        funcs = cubic_triple(sys.coords, seeds=(seed, seed + 100, seed + 200),
                             degree=2)
        if fb.jacobi_residual(sys, *funcs, U) > 1e-3:
            found = True
            break
    assert found


def test_jacobi_detects_curved_metric():
    sys = sphere_system(with_b=True)
    U = smooth_field((1.2, 1.5), 32, seed=3, amplitude=0.2)
    found = False
    for seed in range(20):
        funcs = cubic_triple(sys.coords, seeds=(seed, seed + 50, seed + 90),
                             degree=2)
        if fb.jacobi_residual(sys, *funcs, U) > 1e-3:
            found = True
            break
    assert found


def test_jacobi_ultralocal_rotation_algebra():
    sys = so3_system()
    U = smooth_field((0.4, -0.2, 0.8), 32, seed=5)
    funcs = cubic_triple(sys.coords, degree=2)
    assert fb.jacobi_residual(sys, *funcs, U) < 1e-8


def gradient_cases():
    return library_cases() + [
        (so3_system(), smooth_field((0.4, -0.2, 0.8), 32, seed=5))]


@pytest.mark.parametrize("m", [32, 64, 128])
def test_jacobi_residual_takes_each_table_jets_once(monkeypatch, m):
    sys = polar_pair_system()
    U = smooth_field((1.5, 0.2), m, seed=2)
    calls = []
    jets = tz.table_jets_at

    def counted(sys_, exprs, pts, order):
        calls.append((id(exprs), len(pts), order))
        return jets(sys_, exprs, pts, order)

    monkeypatch.setattr(tz, "table_jets_at", counted)
    # a plain float, so the CLI's `pass` comparison stays a JSON bool
    funcs = cubic_triple(sys.coords, degree=2)
    assert type(fb.jacobi_residual(sys, *funcs, U)) is float
    # g and b, to first order at the M field points, shared by the flows
    # and by dA along them
    assert calls == [(id(sys.g_upper), m, 1), (id(sys.b), m, 1)]


def test_jacobi_sweep_takes_each_table_jets_once(monkeypatch):
    sys = polar_pair_system()
    U = smooth_field((1.5, 0.2), 32, seed=2)
    calls = []
    jets = tz.table_jets_at

    def counted(sys_, exprs, pts, order):
        calls.append((id(exprs), len(pts), order))
        return jets(sys_, exprs, pts, order)

    monkeypatch.setattr(tz, "table_jets_at", counted)
    # no triple: no residual and no jets, as a loop of jacobi_residual
    assert fb.jacobi_residuals(sys, [], U) == []
    assert calls == []
    triples = (cubic_triple(sys.coords, seeds=(3 * k, 3 * k + 1, 3 * k + 2),
                            degree=2) for k in range(4))
    assert len(fb.jacobi_residuals(sys, triples, U)) == 4
    # g and b once for the sweep, not once per triple
    assert calls == [(id(sys.g_upper), 32, 1), (id(sys.b), 32, 1)]


def bracket_builtins():
    systems = [library.load(name).system for name in library.names()]
    return [s for s in systems if s.g_upper is not None or s.h_ultra is not None]


@pytest.mark.parametrize("m", [32, 64])
def test_jacobi_residuals_equal_a_loop_of_jacobi_residual(m):
    systems = bracket_builtins()
    assert [s.name for s in systems] == [
        "canonical", "hopf", "polar-plane", "so3", "unit-sphere",
        "unit-sphere-affinor"]
    for sys in systems:
        U = smooth_field(sys.box.center, m, seed=4)
        for base in (0, 60, 120, 180):
            triples = [cubic_triple(sys.coords, seeds=(base + 3 * k, base + 3 * k + 1,
                                                       base + 3 * k + 2))
                       for k in range(4)]
            expect = [fb.jacobi_residual(sys, *t, U) for t in triples]
            got = fb.jacobi_residuals(sys, (t for t in triples), U)
            assert all(type(r) is float for r in got)
            assert got == expect, (sys.name, base)


def test_jacobi_residuals_raise_the_errors_of_a_loop_in_order():
    polar, water = polar_pair_system(), shallow_water_system()
    field = smooth_field((1.5, 0.2), 16)
    other = fb.Functional("a*b", ("a", "b"))
    good = cubic_triple(polar.coords)
    no_bracket = "system declares no bracket (needs g_upper or h_ultra)"
    coords = ("functional coordinates ('a', 'b') are not the system "
              "coordinates {}")
    cases = [
        # the field's components, then the functionals, then the bracket
        (water, smooth_field((0.4, -0.2, 0.8), 16), [(other,) * 3],
         "system has 2 components, field has 3"),
        (water, field, [(other,) * 3], coords.format(water.coords)),
        (water, field, [cubic_triple(water.coords), (other,) * 3], no_bracket),
        # a later triple's functionals are checked as well
        (polar, field, [good, (good[0], good[1], other)],
         coords.format(polar.coords)),
    ]
    for sys, U, triples, message in cases:
        with pytest.raises((ShapeMismatchError, ValueError)) as loop:
            for t in triples:
                fb.jacobi_residual(sys, *t, U)
        with pytest.raises((ShapeMismatchError, ValueError)) as sweep:
            fb.jacobi_residuals(sys, iter(triples), U)
        assert type(sweep.value) is type(loop.value)
        assert str(sweep.value) == str(loop.value) == message


def skew_cases(m):
    return [(sphere_system(with_b=True),
             smooth_field((1.2, 1.5), m, seed=3, amplitude=0.2)),
            (polar_pair_system(), smooth_field((1.5, 0.2), m, seed=3))]


def non_poisson_cases(m):
    return [skew_cases(m)[0],
            (perturbed_polar_system(), smooth_field((1.5, 0.2), m, seed=3))]


def triple_skewness(sys, funcs, U):
    """max |{F_j,F_k} + {F_k,F_j}| over the pairs of a triple."""
    return max(antisymmetry_residual(sys, f, g, U)
               for f, g in itertools.combinations_with_replacement(funcs, 2))


def poisson_cases(m):
    return [(canonical_system(), smooth_field((0.3, -0.2), m, seed=1)),
            (polar_pair_system(), smooth_field((1.5, 0.2), m, seed=1)),
            (so3_system(), smooth_field((0.4, -0.2, 0.8), m, seed=1)),
            (hopf_system(), smooth_field((1.0,), m, seed=1))]


@pytest.mark.parametrize("m", [32, 64])
def test_exact_jacobi_matches_central_difference_oracle(m):
    # the oracle differentiates the whole bracket, density Hessian terms
    # included; on a skew operator they cancel in the cyclic sum, so the
    # tri-vector agrees with it.  Where the grid leaves the discrete
    # operator skew only to S (the sphere at M = 32 reads S of 2e-4 to
    # 8e-4), the Hessian terms cancel only to a few S.  max(oracle, 1)
    # covers the oracle's roundoff floor on the Poisson polar plane.
    for sys, U in skew_cases(m):
        for seed in range(5):
            funcs = cubic_triple(sys.coords, seeds=(seed, seed + 50, seed + 90))
            exact = fb.jacobi_residual(sys, *funcs, U)
            oracle = central_jacobi(sys, funcs, U)
            bound = 1e-6 * max(oracle, 1.0) + 10 * triple_skewness(sys, funcs, U)
            assert abs(exact - oracle) <= bound, (sys.name, seed)
    # a system that is not skew: the Hessian terms do not cancel, and the
    # residual fails it as the oracle does, with the skewness showing too
    sys = perturbed_polar_system()
    U = smooth_field((1.5, 0.2), m, seed=3)
    for seed in range(5):
        funcs = cubic_triple(sys.coords, seeds=(seed, seed + 50, seed + 90))
        assert central_jacobi(sys, funcs, U) > TOL_JACOBI, seed
        assert fb.jacobi_residual(sys, *funcs, U) > TOL_JACOBI, seed
        assert triple_skewness(sys, funcs, U) > TOL_JACOBI, seed


def test_exact_jacobi_of_poisson_brackets_is_below_the_old_floor():
    for sys, U in poisson_cases(64):
        for seed in range(0, 15, 3):
            funcs = cubic_triple(sys.coords, seeds=(seed, seed + 1, seed + 2))
            assert fb.jacobi_residual(sys, *funcs, U) < 1e-13, (sys.name, seed)


def test_operator_derivative_matches_central_difference():
    # one core call per direction, each at its own perturbed field
    h = 1e-5
    for sys, U in non_poisson_cases(64) + poisson_cases(64):
        f, g, k = cubic_triple(sys.coords)
        xi = f._variational(U.values)[None]
        coefs = fb._coefficients(sys, U.values, 1)
        scale = np.max(np.abs(fb._operator(coefs, U.values, xi)))
        for flow in (g, k):
            v = fb.hamiltonian_flow(sys, flow, U).values
            exact = fb._operator(coefs, U.values, xi, along=v[None])
            up, down = U.values + h * v, U.values - h * v
            central = (fb._operator(fb._coefficients(sys, up, 0), up, xi)
                       - fb._operator(fb._coefficients(sys, down, 0), down, xi)
                       ) / (2.0 * h)
            assert np.max(np.abs(exact - central)) <= 1e-7 * scale, sys.name


def test_stacked_covectors_match_the_operator_per_covector():
    for sys, U in gradient_cases():
        f = fb.random_polynomial_functional(sys.coords, seed=60)
        rng = np.random.default_rng(61)
        xi = f._variational(U.values) + 0.01 * rng.normal(size=(5,) + U.values.shape)
        ops = fb._operator(fb._coefficients(sys, U.values, 0), U.values, xi)
        for k, row in enumerate(xi):
            assert np.array_equal(ops[k], fb.apply_bracket_operator(sys, U, row).values)


def test_antisymmetry_improves_with_grid_refinement():
    residuals = []
    for m in (32, 64):
        sys = polar_pair_system()
        U = smooth_field((1.5, 0.2), m, seed=2, amplitude=0.3, band=8)
        f = fb.random_polynomial_functional(sys.coords, seed=40)
        g = fb.random_polynomial_functional(sys.coords, seed=41)
        residuals.append(antisymmetry_residual(sys, f, g, U))
    assert residuals[1] < residuals[0] or residuals[0] < 1e-12


def test_jacobi_stable_under_grid_refinement():
    sys = polar_pair_system()
    funcs = cubic_triple(sys.coords, degree=2)
    res = [fb.jacobi_residual(sys, *funcs, smooth_field((1.5, 0.2), m, seed=2))
           for m in (32, 64)]
    assert res[1] <= 3 * res[0] + 1e-9
    assert max(res) < 1e-6
