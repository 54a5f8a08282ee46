"""Witness formatting, the shared pairwise-gap helper and the solve window.

The gap references are the earlier per-pair loops of `hodograph`, `tensor`
and `verify.pencil_regularity`, kept as oracles for the one vectorised
`tensor.pairwise_gaps` that replaced them.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from conftest import (
    hopf_system, shallow_water_riemann_system, sphere_system,
)
from hydrobrackets import cli, verify
from hydrobrackets import hodograph as hg
from hydrobrackets import tensor as tz
from hydrobrackets.errors import (
    DegenerateHyperbolicityWarning, DomainError, HyperbolicityViolationError,
    SingularMetricError,
)
from hydrobrackets.expr import jet_table
from hydrobrackets.system import Box, SystemDef, sample_box

BUILTIN = pathlib.Path(cli.__file__).resolve().parent / "builtin"


# --- witness points --------------------------------------------------------------

RANK_ONE = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]


def test_cli_singular_metric_witness_prints_plain_floats(tmp_path, capsys):
    # so3's box with a metric of rank one: singular at every sample, so the
    # witness is the first one
    doc = json.loads((BUILTIN / "so3.json").read_text())
    doc["g_upper"] = RANK_ONE
    path = tmp_path / "rank_one.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: metric determinant below 1e-300 at "
                   "(0.0, -0.33333333333333337, -0.6)\n")


def test_singular_metric_error_point_is_plain_floats():
    sys = SystemDef(["U1", "U2", "U3"], g_upper=RANK_ONE)
    with pytest.raises(SingularMetricError) as info:
        tz.metric_lower_at(sys, np.array([[0.25, 0.5, -1.0]]))
    assert info.value.point == (0.25, 0.5, -1.0)
    assert all(type(v) is float for v in info.value.point)


def test_zero_residual_witness_depends_on_where_the_fold_starts():
    # a per-affinor check starts from its first tensor's pair, so a zero
    # residual still names the first sample; the commutativity of a
    # one-member family starts from (0, None) and names no point
    sys = sphere_system(with_identity_affinor=True)
    checks = {c.name: c for c in verify.check_ferapontov(sys).checks}
    first = tuple(sample_box(sys.box, 64)[0])
    for name in ("metric-affinor-symmetry", "covariant-derivative-symmetry"):
        assert (checks[name].residual, checks[name].witness) == (0.0, first)
    commute = checks["affinor-commutativity"]
    assert (commute.residual, commute.witness) == (0.0, None)
    assert json.loads(verify.json_text(commute.to_dict()))["witness"] is None


def test_eigenvalue_collision_warning_names_plain_floats():
    sys = SystemDef(["a", "b"], V=[["a", "0"], ["0", "a"]])
    with pytest.warns(DegenerateHyperbolicityWarning) as record:
        tz.hantjes_at(sys, np.array([[0.5, 0.25]]))
    assert str(record[0].message) == (
        "coefficient operator has coinciding eigenvalues near (0.5, 0.25)")


# --- pairwise gaps ---------------------------------------------------------------

def ref_min_gap(values):
    n = values.shape[1]
    gaps = np.full(len(values), math.inf)
    for i in range(n):
        for j in range(i + 1, n):
            gaps = np.minimum(gaps, np.abs(values[:, i] - values[:, j]))
    return gaps


def ref_pencil_gap(roots, pts):
    min_gap, witness = math.inf, None
    for p in range(len(roots)):
        for i in range(roots.shape[1]):
            for j in range(i + 1, roots.shape[1]):
                gap = abs(roots[p, i] - roots[p, j])
                if not np.isfinite(gap):
                    gap = 0.0
                if gap < min_gap:
                    min_gap, witness = gap, tuple(float(v) for v in pts[p])
    return float(min_gap), witness


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pairwise_gaps_match_the_loop(n):
    rng = np.random.default_rng(n)
    real = rng.normal(size=(40, n))
    real[3, 0] = np.nan
    cplx = real + 1j * rng.normal(size=(40, n))
    for values in (real, cplx):
        gaps = tz.pairwise_gaps(values)
        assert gaps.shape == (40, n * (n - 1) // 2)
        got = np.min(gaps, axis=1, initial=math.inf)
        np.testing.assert_array_equal(got, ref_min_gap(values))
    assert np.isnan(got[3]) == (n > 1)


def test_pairwise_gap_order_is_row_major():
    gaps = tz.pairwise_gaps(np.array([[0.0, 1.0, 3.0, 7.0]]))
    assert gaps.tolist() == [[1.0, 3.0, 7.0, 2.0, 6.0, 4.0]]


def constant_metric(g, name):
    n = len(g)
    return SystemDef([f"x{i + 1}" for i in range(n)],
                     g_upper=[[repr(float(v)) for v in row] for row in g], name=name)


def pencil_pairs():
    yield (SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]]),
           SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "1"]]))
    s = SystemDef(["x1", "x2"], g_upper=[["1", "0"], ["0", "2"]])
    yield s, s
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4)) * 0.5
        yield (constant_metric(a @ a.T + np.eye(4), "p1"),
               constant_metric(b @ b.T + np.eye(4), "p2"))
    # varying roots: the minimum is attained at one witness
    yield (SystemDef(["x", "y"], g_upper=[["1 + x^2", "0"], ["0", "2 + y"]]),
           SystemDef(["x", "y"], g_upper=[["1", "0"], ["0", "1"]]))


def test_pencil_gap_and_witness_match_the_loop():
    for s1, s2 in pencil_pairs():
        rep = verify.pencil_regularity(s1, s2)
        pts = sample_box(s1.box, verify.SAMPLES)
        assert (rep.min_gap, rep.witness) == ref_pencil_gap(rep.roots, pts)


def test_single_component_pencil_has_no_gap():
    s1 = SystemDef(["x"], g_upper=[["2 + x"]])
    s2 = SystemDef(["x"], g_upper=[["1"]])
    rep = verify.pencil_regularity(s1, s2)
    assert rep.min_gap == math.inf and rep.witness is None
    assert rep.regular


def test_hyperbolicity_gap_propagates_nan():
    sys = SystemDef(["a", "b"], v_diag=["a", "exp(800*b)*0"],
                    box=Box((0.1, 0.9), (0.2, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(HyperbolicityViolationError, match="gap nan"):
            hg.semi_hamiltonian_check(sys)


def test_velocity_collision_is_reported_before_a_derivative_domain_error():
    # v1 = R1 + sqrt(0) equals v2 at every point, while the derivative of the
    # sqrt divides by its zero value: the gap check reads the jets' values,
    # and where the jets raise, the values alone are checked first
    sys = SystemDef(["R1", "R2"], v_diag=["R1 + sqrt(R1*R2 - R2*R1)", "R1"],
                    box=Box((0.5, 0.5), (1.5, 1.5)))
    samples = sample_box(sys.box, verify.SAMPLES)
    with pytest.raises(DomainError, match="derivative: division by zero"):
        jet_table(sys.v_diag, sys.coords, sys.params, samples, 1)
    first_sample = tz.point_at(samples, 0)
    for call, witness in [
            (lambda: hg.semi_hamiltonian_check(sys), first_sample),
            (lambda: hg.closed_form_flow(sys, ["R1", "R2"]), first_sample),
            (lambda: hg.integrate_commuting_flow(sys, "R1", "R2", resolution=8),
             sys.box.lo)]:
        with pytest.raises(HyperbolicityViolationError, match="gap 0.000e") as err:
            call()
        assert err.value.point == witness


# --- spacetime window ------------------------------------------------------------

def test_spacetime_window_centers_on_the_seed_image():
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2", "R2^2", resolution=32)
    seed = np.array([1.5, 3.5])
    (x0, x1), (t0, t1) = hg.spacetime_window(sys, flow, seed)
    xstar, tstar = 0.5 * (x0 + x1), 0.5 * (t0 + t1)
    resid = flow.w_at(seed) - tstar * hg.speeds_at(sys, seed[None, :])[0] - xstar
    assert np.max(np.abs(resid)) < 1e-12
    assert x1 > x0 and t1 > t0


WINDOW_MESSAGE = ("hodograph section needs explicit x_window/t_window for "
                  "single-component systems")


def test_spacetime_window_needs_two_components():
    sys = hopf_system()
    flow = hg.closed_form_flow(sys, ["u^2"])
    with pytest.raises(ValueError) as err:
        hg.spacetime_window(sys, flow, (1.0,))
    assert str(err.value) == WINDOW_MESSAGE


def test_cli_single_component_without_window_exits_1(tmp_path, capsys):
    doc = json.loads((BUILTIN / "hopf.json").read_text(encoding="utf-8"))
    del doc["hodograph"]["x_window"], doc["hodograph"]["t_window"]
    path = tmp_path / "hopf-no-window.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["hodograph", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {WINDOW_MESSAGE}\n"
