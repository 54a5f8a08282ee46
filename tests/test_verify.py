"""Bracket-class verification, metric pencils and flat-chart development.

Closed-form geometry (the flat plane in curvilinear coordinates, the unit
sphere) pins the verdicts.  Pencil roots are cross-checked against a
characteristic-polynomial oracle that never touches the generalized
eigenvalue solver.
"""

import numpy as np
import pytest

from conftest import canonical_system, polar_pair_system, so3_system, sphere_system
from hydrobrackets import verify
from hydrobrackets.errors import (
    MissingAffinorsError, MissingGammaError, NotFlatError, SingularMetricError,
)
from hydrobrackets.system import Box, SystemDef


# --- oracles (frozen) ---------------------------------------------------------

def charpoly_pencil_roots(g1, g2):
    """Roots of det(g1 - lam*g2) by polynomial interpolation.

    Evaluates the determinant at n+1 nodes, fits the exact degree-n
    polynomial, and solves it with the companion-matrix root finder.
    """
    n = len(g1)
    nodes = np.linspace(-2.0, 2.0, n + 1)
    vals = [np.linalg.det(g1 - lam * g2) for lam in nodes]
    roots = np.roots(np.polyfit(nodes, vals, n))
    return roots[np.lexsort((roots.imag, roots.real))]


def constant_matrix_strings(m):
    return [[repr(float(v)) for v in row] for row in m]


def constant_metric_system(m, name):
    return SystemDef(["x1", "x2", "x3", "x4"][: len(m)],
                     g_upper=constant_matrix_strings(m), name=name)


# --- helpers ------------------------------------------------------------------

def by_name(report, name):
    found = [c for c in report.checks if c.name == name]
    assert len(found) == 1, f"expected one {name!r} check, got {len(found)}"
    return found[0]


def gaussian_warp_system():
    # lower metric diag(1, exp(2 r^2)): curvature -(2 + 4 r^2), not constant
    return SystemDef(["r", "s"], g_upper=[["1", "0"], ["0", "exp(-2*r^2)"]],
                     box=Box((0.2, -1.0), (1.2, 1.0)), name="gaussian-warp")


# --- check_dn -----------------------------------------------------------------

def test_check_dn_constant_metric_passes():
    rep = verify.check_dn(canonical_system())
    assert rep.verdict == "DN_FLAT"
    assert rep.passed
    for c in rep.checks:
        assert c.residual < 1e-12


def test_check_dn_polar_pair_passes():
    rep = verify.check_dn(polar_pair_system(with_b=True))
    assert rep.verdict == "DN_FLAT"
    names = [c.name for c in rep.checks]
    assert names == ["metric-symmetry", "connection-torsion",
                     "connection-compatibility", "flatness"]
    assert all(c.passed for c in rep.checks)


def test_check_dn_sphere_curvature_residual_is_one():
    sys = sphere_system(with_b=True)
    rep = verify.check_dn(sys)
    assert rep.verdict == "NOT_A_BRACKET"
    flat = by_name(rep, "flatness")
    assert not flat.passed
    assert abs(flat.residual - 1.0) < 1e-9
    assert flat.witness is not None
    assert sys.box.contains(flat.witness)


def test_check_dn_flags_metric_asymmetry():
    sys = SystemDef(["a", "b"], g_upper=[["1", "0.5"], ["0", "1"]])
    rep = verify.check_dn(sys)
    assert not by_name(rep, "metric-symmetry").passed
    assert abs(by_name(rep, "metric-symmetry").residual - 0.5) < 1e-12
    assert rep.verdict == "NOT_A_BRACKET"


def test_check_dn_flags_wrong_b():
    b = [[["0", "0"], ["0", "-1/r + 0.001"]],
         [["0", "1/r"], ["-1/r^3", "0"]]]
    sys = SystemDef(["r", "th"], g_upper=[["1", "0"], ["0", "1/r^2"]], b=b,
                    box=Box((0.5, -1.0), (2.5, 1.5)))
    rep = verify.check_dn(sys)
    bad = by_name(rep, "connection-compatibility")
    assert not bad.passed
    assert bad.residual > 1e-4
    assert bad.witness is not None


def test_check_dn_degenerate_metric_raises():
    with pytest.raises(SingularMetricError):
        verify.check_dn(so3_system())


def test_non_finite_metric_value_names_its_point():
    # exp(1000 x) overflows to inf for x > 0.71, and inf * 0 is NaN
    sys = SystemDef(["x", "y"], g_upper=[["1", "0"], ["0", "exp(1000*x)*0 + 1"]],
                    box=Box((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(SingularMetricError, match="metric value not finite at"
                       ) as err:
        verify.classify(sys)
    assert err.value.point[0] > 0.7


# --- check_mf -----------------------------------------------------------------

def test_check_mf_unit_sphere_constant_is_one():
    rep = verify.check_mf(sphere_system())
    assert rep.verdict == "MF_CONST_CURV"
    assert abs(rep.curvature_constant - 1.0) < 1e-8
    assert by_name(rep, "constant-curvature-pattern").residual < 1e-8
    assert rep.cross_flag is None


def test_check_mf_flat_metric_cross_flags_dn():
    for sys in (canonical_system(), polar_pair_system()):
        rep = verify.check_mf(sys)
        assert rep.verdict == "MF_CONST_CURV"
        assert abs(rep.curvature_constant) < 1e-9
        assert rep.cross_flag == "DN_FLAT"


def test_check_mf_nonconstant_curvature_fails():
    rep = verify.check_mf(gaussian_warp_system())
    assert rep.verdict == "NOT_A_BRACKET"
    bad = by_name(rep, "constant-curvature-pattern")
    assert not bad.passed
    assert bad.witness is not None


# --- check_ferapontov -----------------------------------------------------------

def test_check_ferapontov_sphere_identity_affinor_passes():
    rep = verify.check_ferapontov(sphere_system(with_identity_affinor=True))
    assert rep.verdict == "FERAPONTOV"
    for c in rep.checks:
        assert c.residual < 1e-9
    names = [c.name for c in rep.checks]
    assert "metric-affinor-symmetry" in names
    assert "covariant-derivative-symmetry" in names
    assert "curvature-representation" in names
    # vacuous for a one-member family, but reported
    assert "affinor-commutativity" in names


def test_check_ferapontov_requires_declared_family():
    with pytest.raises(MissingAffinorsError):
        verify.check_ferapontov(sphere_system())


def test_check_ferapontov_empty_family_matches_dn():
    flat = SystemDef(["r", "th"], g_upper=[["1", "0"], ["0", "1/r^2"]],
                     b=[[["0", "0"], ["0", "-1/r"]],
                        [["0", "1/r"], ["-1/r^3", "0"]]],
                     affinors=[], box=Box((0.5, -1.0), (2.5, 1.5)))
    curved = SystemDef(["th", "ph"], g_upper=[["1", "0"], ["0", "1/sin(th)^2"]],
                       affinors=[], box=Box((0.4, 0.0), (2.7, 3.0)))
    for sys, passes in ((flat, True), (curved, False)):
        dn = verify.check_dn(sys)
        fer = verify.check_ferapontov(sys)
        assert fer.passed == passes == dn.passed
        assert len(fer.checks) == len(dn.checks)
        for a, b in zip(dn.checks, fer.checks):
            assert abs(a.residual - b.residual) <= 1e-12


def test_check_ferapontov_flags_asymmetric_contraction():
    sys = sphere_system()
    sys = SystemDef(["th", "ph"], g_upper=[["1", "0"], ["0", "1/sin(th)^2"]],
                    affinors=[(1.0, [["1", "0.1"], ["0", "1"]])],
                    box=sys.box)
    rep = verify.check_ferapontov(sys)
    bad = by_name(rep, "metric-affinor-symmetry")
    assert not bad.passed
    assert bad.residual > 0.05
    assert rep.verdict == "NOT_A_BRACKET"


def test_check_ferapontov_commutativity_tolerance_is_absolute():
    # the pair fails only commutativity, and stays failing even when the
    # zero tolerance is loosened far beyond the commutator size
    sys = SystemDef(["U1", "U2"], g_upper=[["1", "0"], ["0", "1"]],
                    affinors=[(1.0, [["0", "0.5"], ["0", "0"]]),
                              (1.0, [["0", "0"], ["0.5", "0"]])])
    rep = verify.check_ferapontov(sys, tol_zero=1.0)
    com = by_name(rep, "affinor-commutativity")
    assert not com.passed
    assert abs(com.residual - 0.25) < 1e-12
    assert com.tol == 1e-9
    assert by_name(rep, "metric-affinor-symmetry").passed
    assert rep.verdict == "NOT_A_BRACKET"


def test_check_ferapontov_later_affinor_nan_fails_with_witness():
    # the zero affinor comes first; the overflowing one must not be dropped
    # by the merge over the family
    sys = SystemDef(["U1", "U2"], g_upper=[["1", "0"], ["0", "1"]],
                    affinors=[(1.0, [["0", "0"], ["0", "0"]]),
                              (1.0, [["exp(800*U1)", "0"], ["0", "exp(800*U1)"]])])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify.check_ferapontov(sys)
    assert rep.verdict == "NOT_A_BRACKET"
    for name in ("metric-affinor-symmetry", "covariant-derivative-symmetry",
                 "affinor-commutativity"):
        check = by_name(rep, name)
        assert np.isnan(check.residual), name
        assert not check.passed, name
        # exp(800*U1) overflows only where U1 > log(max float)/800 ~ 0.887
        assert check.witness is not None and check.witness[0] > 0.88, name
    assert by_name(rep, "metric-symmetry").passed


# --- check_liouville ------------------------------------------------------------

def test_check_liouville_constant_potential():
    sys = SystemDef(["U1", "U2"], g_upper=[["1", "0"], ["0", "1"]],
                    b=[[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
                    gamma=[["0.5", "0"], ["0", "0.5"]])
    rep = verify.check_liouville(sys)
    assert rep.verdict == "LIOUVILLE"
    assert rep.passed


def quadratic_liouville_system(perturb=False):
    gamma = [["U1^2 + 2*U1*U2", "U2^2"], ["U1*U2", "U1^2 + 3*U2^2"]]
    g = [["2*(U1^2 + 2*U1*U2)", "U2^2 + U1*U2"],
         ["U1*U2 + U2^2", "2*(U1^2 + 3*U2^2)"]]
    b = [[["2*U1 + 2*U2", "2*U1"], ["0", "2*U2"]],
         [["U2", "U1"], ["2*U1", "6*U2"]]]
    if perturb:
        b[1][0][0] = "U2 + 0.001"
    return SystemDef(["U1", "U2"], g_upper=g, b=b, gamma=gamma,
                     box=Box((0.5, 0.5), (1.5, 1.5)))


def test_check_liouville_quadratic_round_trip():
    rep = verify.check_liouville(quadratic_liouville_system())
    assert rep.verdict == "LIOUVILLE"
    for c in rep.checks:
        assert c.residual < 1e-12


def test_check_liouville_perturbed_b_fails():
    rep = verify.check_liouville(quadratic_liouville_system(perturb=True))
    bad = by_name(rep, "gamma-gradient")
    assert not bad.passed
    assert abs(bad.residual - 0.001) < 1e-12
    assert bad.witness is not None


def test_check_liouville_requires_gamma():
    with pytest.raises(MissingGammaError):
        verify.check_liouville(canonical_system())


# --- pencil regularity -----------------------------------------------------------

def test_pencil_diagonal_pair():
    s1 = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]])
    s2 = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "1"]])
    rep = verify.pencil_regularity(s1, s2)
    assert rep.regular
    assert abs(rep.min_gap - 1.0) < 1e-12
    for roots in rep.roots:
        assert np.allclose(roots, [1.0, 2.0], atol=1e-12)


def test_pencil_coincident_pair_is_singular():
    s = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]])
    rep = verify.pencil_regularity(s, s)
    assert not rep.regular
    assert rep.min_gap <= 1e-12
    assert np.allclose(rep.roots, 1.0, atol=1e-12)


def test_pencil_roots_match_charpoly_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) * 0.5
        b = rng.normal(size=(4, 4)) * 0.5
        g1 = a @ a.T + np.eye(4)
        g2 = b @ b.T + np.eye(4)
        rep = verify.pencil_regularity(constant_metric_system(g1, "p1"),
                                       constant_metric_system(g2, "p2"))
        expect = charpoly_pencil_roots(g1, g2)
        for roots in rep.roots:
            assert np.max(np.abs(roots - expect)) < 1e-8


def test_pencil_with_singular_g2_has_an_infinite_root():
    # det(diag(1, 2) - lam diag(1, 0)) = 2 (1 - lam): one root is infinite,
    # which counts as a collision at the first sample
    s1 = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]])
    s2 = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "0"]])
    rep = verify.pencil_regularity(s1, s2)
    assert not rep.regular
    assert rep.min_gap == 0.0
    assert rep.witness[0] == 0.0 and abs(rep.witness[1] + 1 / 3) < 1e-12
    assert np.all(rep.roots[:, 0] == 1.0) and np.all(rep.roots[:, 1] == np.inf)


def test_pencil_with_singular_g1_takes_roots_point_by_point():
    # det([[1, 1], [1, 1]] - lam diag(1, 2)) = 2 lam^2 - 3 lam: roots 0, 3/2
    s1 = SystemDef(["x1", "x2"], g_upper=[["1", "1"], ["1", "1"]])
    s2 = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]])
    rep = verify.pencil_regularity(s1, s2)
    assert rep.regular
    assert np.allclose(rep.roots, [0.0, 1.5], atol=1e-12)


def test_pencil_flags_points_where_both_metrics_are_singular():
    # g1 is singular at x1 = 0 only, where g2 = g1 is too: NaN roots there
    box = Box((-1.0, -1.0), (1.0, 1.0))
    s1 = SystemDef(["x1", "x2"], g_upper=[["x1", "0"], ["0", "1"]], box=box)
    s2 = SystemDef(["x1", "x2"], g_upper=[["x1", "0"], ["0", "2"]], box=box)
    rep = verify.pencil_regularity(s1, s2)
    assert not rep.regular and rep.min_gap == 0.0
    assert rep.witness[0] == 0.0
    flagged = np.isnan(rep.roots).all(axis=1)
    assert flagged.sum() == 1 and flagged[0]


def test_pencil_dimension_mismatch():
    s1 = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]])
    s2 = SystemDef(["x1"], g_upper=[["1"]])
    with pytest.raises(ValueError):
        verify.pencil_regularity(s1, s2)


# --- flat coordinates ------------------------------------------------------------

def test_flat_chart_constant_metric_is_linear():
    sys = canonical_system()
    chart = verify.develop_flat_coords(sys, resolution=16)
    assert chart.signature == (1, 1)
    assert np.allclose(chart.frame, np.eye(2), atol=1e-14)
    xs, ys = np.meshgrid(chart.axes[0], chart.axes[1], indexing="ij")
    assert np.max(np.abs(chart.values[..., 0] - xs)) < 1e-12
    assert np.max(np.abs(chart.values[..., 1] - ys)) < 1e-12
    assert chart.pushed_metric_residual < 1e-12
    assert chart.path_agreement < 1e-13
    # exact signature form at the basepoint gridpoint
    mid = chart.values.shape[0] // 2
    assert np.allclose(chart.jacobians[mid, mid], np.eye(2), atol=1e-14)


def test_flat_chart_general_constant_metric():
    lower = np.array([[2.0, 1.0], [1.0, 3.0]])
    sys = SystemDef(["U1", "U2"],
                    g_upper=constant_matrix_strings(np.linalg.inv(lower)))
    chart = verify.develop_flat_coords(sys, resolution=8)
    assert chart.signature == (1, 1)
    vals, vecs = np.linalg.eigh(lower)
    for a in range(2):
        if vecs[np.flatnonzero(np.abs(vecs[:, a]) > 1e-12)[0], a] < 0:
            vecs[:, a] = -vecs[:, a]
    frame = np.sqrt(vals)[:, None] * vecs.T
    assert np.allclose(chart.frame, frame, atol=1e-12)
    xs, ys = np.meshgrid(chart.axes[0], chart.axes[1], indexing="ij")
    expect = np.einsum("an,...n->...a", frame, np.stack([xs, ys], axis=-1))
    assert np.max(np.abs(chart.values - expect)) < 1e-12
    assert chart.pushed_metric_residual < 1e-12


def test_flat_chart_lorentzian_signature():
    sys = SystemDef(["a", "b"], g_upper=[["1", "0"], ["0", "-1"]])
    chart = verify.develop_flat_coords(sys, resolution=8)
    assert chart.signature == (-1, 1)
    assert np.allclose(chart.frame, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert chart.pushed_metric_residual < 1e-12


def test_flat_chart_polar_matches_cartesian_embedding():
    sys = polar_pair_system(with_b=True)
    chart = verify.develop_flat_coords(sys, resolution=32, basepoint=(1.0, 0.0))
    rr, tt = np.meshgrid(chart.axes[0], chart.axes[1], indexing="ij")
    expect = np.stack([rr * np.cos(tt) - 1.0, rr * np.sin(tt)], axis=-1)
    assert np.max(np.abs(chart.values - expect)) < 1e-7
    assert chart.path_agreement < 1e-8
    assert chart.pushed_metric_residual < 1e-7
    assert chart.passed


def test_flat_chart_sphere_raises_not_flat():
    with pytest.raises(NotFlatError) as info:
        verify.develop_flat_coords(sphere_system(), resolution=16)
    assert info.value.residual > 1e-6


def test_flat_chart_rejects_outside_basepoint():
    with pytest.raises(ValueError):
        verify.develop_flat_coords(canonical_system(), basepoint=(5.0, 5.0))


# --- classify and reports ---------------------------------------------------------

def test_classify_prefers_most_restrictive_class():
    assert verify.classify(canonical_system()).verdict == "DN_FLAT"
    sphere = verify.classify(sphere_system())
    assert sphere.verdict == "MF_CONST_CURV"
    assert abs(sphere.curvature_constant - 1.0) < 1e-8
    # constant curvature wins before the affinor class is even tried
    assert verify.classify(
        sphere_system(with_identity_affinor=True)).verdict == "MF_CONST_CURV"


def test_classify_indeterminate_without_affinors():
    rep = verify.classify(gaussian_warp_system())
    assert rep.verdict == "INDETERMINATE"
    assert rep.curvature_constant is not None


def test_classify_rejects_declared_empty_family_on_curved_metric():
    sys = SystemDef(["r", "s"], g_upper=[["1", "0"], ["0", "exp(-2*r^2)"]],
                    affinors=[], box=Box((0.2, -1.0), (1.2, 1.0)))
    assert verify.classify(sys).verdict == "NOT_A_BRACKET"


def test_reports_are_deterministic():
    a = verify.check_dn(polar_pair_system()).to_json()
    b = verify.check_dn(polar_pair_system()).to_json()
    assert a == b
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    pair = (constant_metric_system(m @ m.T + np.eye(4), "p1"),
            constant_metric_system(np.eye(4), "p2"))
    p1 = verify.pencil_regularity(*pair).to_json()
    p2 = verify.pencil_regularity(*pair).to_json()
    assert p1 == p2


def test_report_text_shows_constant_and_failures():
    text = str(verify.check_mf(sphere_system()))
    assert "MF_CONST_CURV(c=" in text
    failing = str(verify.check_dn(sphere_system(with_b=True)))
    assert "FAIL" in failing and "flatness" in failing


def test_write_csv_bytes_match_savetxt(tmp_path):
    # distinct values are formatted once, told apart by bit pattern: signed
    # zeros, NaN payloads and subnormals keep the text savetxt gives them
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                     0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    special = np.concatenate([nans, [0.0, -0.0, np.inf, -np.inf, 5e-324,
                                     -5e-324, 2.2250738585072014e-308 / 3,
                                     1.0, 1.0, -0.0, 1 / 3, 1 / 3]])
    rng = np.random.default_rng(3)
    repeated = rng.choice(special, size=special.size)
    cols = [special, repeated, rng.normal(size=special.size),
            (rng.random(special.size) < 0.5).astype(float)]
    for header in ("a,b,c,d", ""):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        verify.write_csv(ours, header, cols)
        np.savetxt(ref, np.column_stack(cols), delimiter=",", header=header,
                   comments="", fmt="%.17e")
        assert ours.read_bytes() == ref.read_bytes()
