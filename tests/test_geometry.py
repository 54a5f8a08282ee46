"""The one-pass geometry layer against the formulas it replaced.

The reference below is the earlier tensor code kept as an oracle: every
quantity from separate `metric_lower_at` / table calls, contracted with
multi-operand einsums in the order the formulas are written.  The pass
under test shares one table evaluation and guard per batch and contracts
pairwise, so the two agree to rounding.
"""

import numpy as np
import pytest

from hydrobrackets import library, tensor as tz, verify
from hydrobrackets.errors import SingularMetricError
from hydrobrackets.expr import differentiate
from hydrobrackets.system import Box, SystemDef, sample_box

from conftest import canonical_system, polar_pair_system, sphere_system

REL = 1e-12


# --- reference: the earlier formulas (frozen) ---------------------------------

def ref_upper_d1(sys, pts):
    return tz.table_d1_at(sys, sys.g_upper, pts)


def ref_upper_d2(sys, pts):
    table = np.empty((sys.N, sys.N) + sys.g_upper.shape, dtype=object)
    for r, cr in enumerate(sys.coords):
        for q, cq in enumerate(sys.coords):
            for idx in np.ndindex(*sys.g_upper.shape):
                table[(r, q) + idx] = differentiate(
                    differentiate(sys.g_upper[idx], cq), cr)
    return tz.table_at(sys, table, pts)


def ref_lower_d1(lower, upper_d1):
    return -np.einsum("pij,prjk,pkl->pril", lower, upper_d1, lower)


def ref_lower_d2(lower, upper_d1, upper_d2):
    a = np.einsum("pij,prsjk,pkl->prsil", lower, upper_d2, lower)
    b = np.einsum("pij,prjk,pkl,pslm,pmn->prsin",
                  lower, upper_d1, lower, upper_d1, lower)
    return -a + b + np.swapaxes(b, 1, 2)


def ref_levi_civita(sys, pts):
    lower = tz.metric_lower_at(sys, pts)
    upper = tz.metric_upper_at(sys, pts)
    l1 = ref_lower_d1(lower, ref_upper_d1(sys, pts))
    s = (np.transpose(l1, (0, 2, 1, 3)) + np.transpose(l1, (0, 2, 3, 1)) - l1)
    return 0.5 * np.einsum("pns,psml->pnml", upper, s)


def ref_christoffel(sys, pts):
    if sys.b is None:
        return ref_levi_civita(sys, pts)
    lower = tz.metric_lower_at(sys, pts)
    return -np.einsum("pms,psnl->pnml", lower, tz.b_at(sys, pts))


def ref_christoffel_d1(sys, pts):
    lower = tz.metric_lower_at(sys, pts)
    upper_d1 = ref_upper_d1(sys, pts)
    l1 = ref_lower_d1(lower, upper_d1)
    if sys.b is not None:
        b = tz.b_at(sys, pts)
        b1 = tz.table_d1_at(sys, sys.b, pts)
        return (-np.einsum("prms,psnl->prnml", l1, b)
                - np.einsum("pms,prsnl->prnml", lower, b1))
    upper = tz.metric_upper_at(sys, pts)
    l2 = ref_lower_d2(lower, upper_d1, ref_upper_d2(sys, pts))
    s = (np.transpose(l1, (0, 2, 1, 3)) + np.transpose(l1, (0, 2, 3, 1)) - l1)
    s1 = (np.transpose(l2, (0, 1, 3, 2, 4)) + np.transpose(l2, (0, 1, 3, 4, 2)) - l2)
    return 0.5 * (np.einsum("prns,psml->prnml", upper_d1, s)
                  + np.einsum("pns,prsml->prnml", upper, s1))


def ref_riemann(sys, pts):
    gam = ref_christoffel(sys, pts)
    gam1 = ref_christoffel_d1(sys, pts)
    quad = np.einsum("pnsm,pstl->pntml", gam, gam)
    return (np.transpose(gam1, (0, 2, 3, 1, 4))
            - np.transpose(gam1, (0, 2, 3, 4, 1))
            + quad - np.transpose(quad, (0, 1, 2, 4, 3)))


def ref_riemann_raised(sys, pts):
    upper = tz.metric_upper_at(sys, pts)
    return np.einsum("pts,pnsml->pntml", upper, ref_riemann(sys, pts))


def ref_hantjes(sys, pts):
    v = tz.operator_at(sys, pts)
    nt = tz.nijenhuis_at(sys, pts)
    t1 = np.einsum("pns,pst,ptml->pnml", v, v, nt)
    t2 = np.einsum("pns,pstl,ptm->pnml", v, nt, v)
    t3 = np.einsum("pns,psmt,ptl->pnml", v, nt, v)
    t4 = np.einsum("pnst,psm,ptl->pnml", nt, v, v)
    return t1 - t2 - t3 + t4


# --- systems ---------------------------------------------------------------------

def conformal_metric(n, c):
    """Diagonal metric of constant curvature ``c`` through ``y_i = phi_i(u_i)``."""
    coords = [f"u{i + 1}" for i in range(n)]
    phis = [("(u{0} + 0.7*u{0}^3)", "(1 + 2.1*u{0}^2)"),
            ("(exp(1.3*u{0})/1.3)", "exp(1.3*u{0})"),
            ("u{0}", "1")]
    terms = [phis[i % 3] for i in range(n)]
    factor = "(1 + c/4*(" + " + ".join(
        f"{p.format(i + 1)}^2" for i, (p, _) in enumerate(terms)) + "))^2"
    g = [["0"] * n for _ in range(n)]
    for i, (_, dphi) in enumerate(terms):
        g[i][i] = f"{factor}/{dphi.format(i + 1)}^2"
    return SystemDef(coords, g_upper=g, params={"c": c},
                     box=Box((0.1,) * n, (0.6,) * n), name=f"conformal-{n}")


def coupled_metric(n):
    """Non-diagonal, non-flat metric with every coordinate in every entry."""
    coords = [f"u{i + 1}" for i in range(n)]
    g = [[f"{2 + i}*exp({0.3 * (i + 1)}*u{i + 1}) + u1*u{n}" if i == j
          else f"0.2*sin(u{i + 1} + u{j + 1})"
          for j in range(n)] for i in range(n)]
    return SystemDef(coords, g_upper=g, box=Box((0.1,) * n, (0.6,) * n),
                     name=f"coupled-{n}")


def builtin(declares):
    out = []
    for name in library.names():
        sys = library.load(name).system
        if declares(sys):
            out.append(pytest.param(sys, id=name))
    return out


METRIC_SYSTEMS = (
    builtin(lambda s: s.g_upper is not None)
    + [pytest.param(s, id=s.name) for s in (
        canonical_system(3), polar_pair_system(with_b=False),
        sphere_system(with_b=True))]
    + [pytest.param(conformal_metric(n, c), id=f"conformal-{n}-c{c}")
       for n in (2, 3, 4) for c in (0.0, 1.0, -0.1)]
    + [pytest.param(coupled_metric(n), id=f"coupled-{n}") for n in (2, 3, 4)])

OPERATOR_SYSTEMS = builtin(lambda s: s.operator_matrix() is not None) + [
    pytest.param(SystemDef(["a", "b", "c"],
                           V=[["a", "b*c", "0"], ["c^2", "b", "a*b"], ["1", "0", "c"]],
                           box=Box((0.1,) * 3, (0.9,) * 3)), id="generic-3"),
    pytest.param(SystemDef([f"R{i}" for i in range(4)],
                           V=[[f"R{i}*R{j}^2 + {i == j:d} + 0.{i + 1}*R{(j + 1) % 4}"
                               for j in range(4)] for i in range(4)],
                           box=Box((0.1,) * 4, (0.9,) * 4)), id="quadratic-4"),
]


def assert_close(new, old):
    scale = max(1.0, float(np.max(np.abs(old))))
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= REL * scale


# --- agreement -------------------------------------------------------------------

@pytest.mark.parametrize("sys", METRIC_SYSTEMS)
def test_geometry_matches_reference(sys):
    pts = sample_box(sys.box, 48)
    try:
        expected = ref_riemann_raised(sys, pts)
    except SingularMetricError as err:
        with pytest.raises(SingularMetricError) as caught:
            tz.riemann_raised_at(sys, pts)
        assert str(caught.value) == str(err)
        assert caught.value.point == err.point
        return
    assert_close(tz.christoffel_at(sys, pts), ref_christoffel(sys, pts))
    assert_close(tz.levi_civita_at(sys, pts), ref_levi_civita(sys, pts))
    assert_close(tz.christoffel_d1_at(sys, pts), ref_christoffel_d1(sys, pts))
    assert_close(tz.riemann_at(sys, pts), ref_riemann(sys, pts))
    assert_close(tz.riemann_raised_at(sys, pts), expected)


@pytest.mark.filterwarnings(
    "ignore::hydrobrackets.errors.DegenerateHyperbolicityWarning")
@pytest.mark.parametrize("sys", OPERATOR_SYSTEMS)
def test_hantjes_matches_reference(sys):
    pts = sample_box(sys.box, 48)
    assert_close(tz.hantjes_at(sys, pts), ref_hantjes(sys, pts))


@pytest.mark.filterwarnings(
    "ignore::hydrobrackets.errors.DegenerateHyperbolicityWarning")
def test_references_are_not_vacuous():
    """The agreement above is not vacuous: these tensors are order one."""
    for sys in (conformal_metric(4, 1.0), coupled_metric(3)):
        pts = sample_box(sys.box, 16)
        assert np.max(np.abs(tz.riemann_raised_at(sys, pts))) > 1e-2
    for param in OPERATOR_SYSTEMS[-2:]:
        sys = param.values[0]
        pts = sample_box(sys.box, 16)
        assert np.max(np.abs(tz.hantjes_at(sys, pts))) > 1e-2


def test_one_point_is_a_batch_of_one():
    """Every ``*_at`` view takes a 1-D point as the batch holding it."""
    base = coupled_metric(3)
    sys = SystemDef(
        base.coords, g_upper=base.g_upper,
        b=[[[f"0.1*u{s + 1}*u{n + 1} + {l}" for l in range(3)]
            for n in range(3)] for s in range(3)],
        V=[["u1 + 1", "0.1*u2", "0"], ["0", "u2 + 3", "0.2*u1"],
           ["0.3", "0", "u3^2 + 5"]],
        h_ultra=[[f"sin(u{i + 1}) + {j}" for j in range(3)] for i in range(3)],
        box=base.box)
    pts = sample_box(sys.box, 4)
    views = sorted(name for name in vars(tz)
                   if name.endswith("_at") and name != "point_at")
    assert len(views) == 15
    for name in views:
        fn = getattr(tz, name)
        args = (sys, sys.g_upper) if name.startswith("table") else (sys,)
        one = fn(*args, pts[2])
        assert one.shape[0] == 1, name
        assert np.array_equal(one, fn(*args, pts[2:3])), name


# --- one curvature per classify --------------------------------------------------

def affinor_family_on_curved_metric():
    """Fails the flat and constant-curvature classes, then the affinor one."""
    return SystemDef(["x", "y"], g_upper=[["1 + x^2", "0"], ["0", "1 + y^2 + x"]],
                     affinors=[(1.0, [["x", "0"], ["0", "x"]])],
                     box=Box((0.1, 0.1), (0.9, 0.9)), name="curved-affinor")


@pytest.mark.parametrize("sys, verdict", [
    (sphere_system(), verify.VERDICT_MF),
    (coupled_metric(3), verify.VERDICT_UNKNOWN),
    (affinor_family_on_curved_metric(), verify.VERDICT_FAIL),
    (canonical_system(2), verify.VERDICT_DN),
], ids=["mf", "indeterminate", "affinor", "flat"])
def test_classify_computes_curvature_once(sys, verdict, monkeypatch):
    calls = []
    original = tz.riemann_raised_at

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tz, "riemann_raised_at", counted)
    report = verify.classify(sys)
    assert report.verdict == verdict
    assert len(calls) == 1


def test_classify_reports_equal_the_separate_checks():
    sys = affinor_family_on_curved_metric()
    assert verify.classify(sys).to_json() == verify.check_ferapontov(sys).to_json()
    sphere = sphere_system()
    assert verify.classify(sphere).to_json() == verify.check_mf(sphere).to_json()
