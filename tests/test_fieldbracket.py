"""Functional bracket engine on periodic grids.

Ground truth comes from closed-form operators (spectral derivatives of
single harmonics, the rotation-algebra cross product) and from geometry:
systems passing the flat-bracket conditions must produce a vanishing Jacobi
cyclic sum, while systems failing them must not.
"""

import math

import numpy as np
import pytest

from conftest import (
    canonical_system, epsilon_system, polar_pair_system,
    hopf_system, shallow_water_riemann_system, shallow_water_system,
    so3_system, sphere_system,
)
from hydrobrackets import fieldbracket as fb
from hydrobrackets.errors import ShapeMismatchError
from hydrobrackets.system import Box, SystemDef


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
        assert fb.antisymmetry_residual(sys, f, g, U) < 1e-10
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
def test_jacobi_residual_makes_three_stacked_core_calls(monkeypatch, m):
    sys = polar_pair_system()
    U = smooth_field((1.5, 0.2), m, seed=2)
    calls = []
    core = fb._operator

    def counted(sys_, values, xi, along=None):
        calls.append((len(values), along is not None))
        return core(sys_, values, xi, along)

    monkeypatch.setattr(fb, "_operator", counted)
    # a plain float, so the CLI's `pass` comparison stays a JSON bool
    funcs = cubic_triple(sys.coords, degree=2)
    assert type(fb.jacobi_residual(sys, *funcs, U)) is float
    # the flows, dA along them, and A of the Hessian products
    assert calls == [(3, False), (3, True), (3, False)]


def non_poisson_cases(m):
    return [(sphere_system(with_b=True),
             smooth_field((1.2, 1.5), m, seed=3, amplitude=0.2)),
            (perturbed_polar_system(), smooth_field((1.5, 0.2), m, seed=3))]


def poisson_cases(m):
    return [(canonical_system(), smooth_field((0.3, -0.2), m, seed=1)),
            (polar_pair_system(), smooth_field((1.5, 0.2), m, seed=1)),
            (so3_system(), smooth_field((0.4, -0.2, 0.8), m, seed=1)),
            (hopf_system(), smooth_field((1.0,), m, seed=1))]


@pytest.mark.parametrize("m", [32, 64])
def test_exact_jacobi_matches_central_difference_oracle(m):
    for sys, U in non_poisson_cases(m):
        for seed in range(5):
            funcs = cubic_triple(sys.coords, seeds=(seed, seed + 50, seed + 90))
            exact = fb.jacobi_residual(sys, *funcs, U)
            oracle = central_jacobi(sys, funcs, U)
            assert oracle > 1e-3, sys.name
            assert abs(exact - oracle) <= 1e-6 * oracle, (sys.name, seed)


def test_exact_jacobi_of_poisson_brackets_is_below_the_old_floor():
    for sys, U in poisson_cases(64):
        for seed in range(0, 15, 3):
            funcs = cubic_triple(sys.coords, seeds=(seed, seed + 1, seed + 2))
            assert fb.jacobi_residual(sys, *funcs, U) < 1e-13, (sys.name, seed)


def test_operator_derivative_matches_central_difference():
    # two different directions stacked, so each batch entry reads its own
    h = 1e-5
    for sys, U in non_poisson_cases(64) + poisson_cases(64):
        f, g, k = cubic_triple(sys.coords)
        values = np.stack([U.values, U.values])
        xi = f._variational(values)
        v = np.stack([fb.hamiltonian_flow(sys, g, U).values,
                      fb.hamiltonian_flow(sys, k, U).values])
        exact = fb._operator(sys, values, xi, along=v)
        central = (fb._operator(sys, values + h * v, xi)
                   - fb._operator(sys, values - h * v, xi)) / (2.0 * h)
        scale = np.max(np.abs(fb._operator(sys, values, xi)))
        assert np.max(np.abs(exact - central)) <= 1e-7 * scale, sys.name


def test_stacked_operator_and_variational_match_per_field():
    for sys, U in gradient_cases():
        f = fb.random_polynomial_functional(sys.coords, seed=60)
        rng = np.random.default_rng(61)
        stack = U.values + 0.01 * rng.normal(size=(5,) + U.values.shape)
        xi = f._variational(stack)
        ops = fb._operator(sys, stack, xi)
        for k, row in enumerate(stack):
            field = fb.GridField(row)
            assert np.array_equal(xi[k], f.variational(field))
            assert np.array_equal(ops[k], fb.apply_bracket_operator(
                sys, field, xi[k]).values)


def test_antisymmetry_improves_with_grid_refinement():
    residuals = []
    for m in (32, 64):
        sys = polar_pair_system()
        U = smooth_field((1.5, 0.2), m, seed=2, amplitude=0.3, band=8)
        f = fb.random_polynomial_functional(sys.coords, seed=40)
        g = fb.random_polynomial_functional(sys.coords, seed=41)
        residuals.append(fb.antisymmetry_residual(sys, f, g, U))
    assert residuals[1] < residuals[0] or residuals[0] < 1e-12


def test_jacobi_stable_under_grid_refinement():
    sys = polar_pair_system()
    funcs = cubic_triple(sys.coords, degree=2)
    res = [fb.jacobi_residual(sys, *funcs, smooth_field((1.5, 0.2), m, seed=2))
           for m in (32, 64)]
    assert res[1] <= 3 * res[0] + 1e-9
    assert max(res) < 1e-6
