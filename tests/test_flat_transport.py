"""Flat-coordinate transport on batched connection lookups.

`verify.develop_flat_coords` evaluates the connection ahead of the
Runge-Kutta march, over every stage coordinate of an axis sweep at once.
The stage-by-stage loop it replaced is kept here as a frozen oracle: with
it patched in for `verify._march_axis`, every chart field must come out
bit for bit the same, and every failure must be the same error with the
same message and witness.
"""

import math

import numpy as np
import pytest

from conftest import canonical_system, polar_pair_system
from hydrobrackets import tensor as tz
from hydrobrackets import verify
from hydrobrackets.errors import DomainError, SingularMetricError
from hydrobrackets.system import Box, SystemDef


# --- oracle (frozen): one connection evaluation per Runge-Kutta stage ----------

def oracle_transport_rhs(sys, pos, axis, p):
    gam = tz.christoffel_at(sys, pos)
    dp = np.einsum("Psl,Pas->Pal", gam[:, :, axis, :], p)
    dn = p[:, :, axis].copy()
    return dp, dn


def oracle_rk4_advance(sys, pos, axis, p, n, start, stop, h_max):
    length = stop - start
    nsteps = max(1, int(math.ceil(abs(length) / h_max)))
    h = length / nsteps
    c = start
    for _ in range(nsteps):
        pos[:, axis] = c
        k1p, k1n = oracle_transport_rhs(sys, pos, axis, p)
        pos[:, axis] = c + 0.5 * h
        k2p, k2n = oracle_transport_rhs(sys, pos, axis, p + 0.5 * h * k1p)
        k3p, k3n = oracle_transport_rhs(sys, pos, axis, p + 0.5 * h * k2p)
        pos[:, axis] = c + h
        k4p, k4n = oracle_transport_rhs(sys, pos, axis, p + h * k3p)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        n = n + (h / 6.0) * (k1n + 2 * k2n + 2 * k3n + k4n)
        c += h
    pos[:, axis] = stop
    return p, n


def oracle_march_axis(sys, pos, p, n, axis, start_value, targets, h_max):
    count, nn = p.shape[0], p.shape[1]
    out_p = np.empty((count, len(targets), nn, nn))
    out_n = np.empty((count, len(targets), nn))
    order = np.argsort(targets)
    above = [i for i in order if targets[i] >= start_value]
    below = [i for i in order[::-1] if targets[i] < start_value]
    for direction in (above, below):
        cur_p, cur_n = p.copy(), n.copy()
        cur = start_value
        work_pos = pos.copy()
        for idx in direction:
            cur_p, cur_n = oracle_rk4_advance(sys, work_pos, axis, cur_p, cur_n,
                                              cur, targets[idx], h_max)
            cur = targets[idx]
            out_p[:, idx] = cur_p
            out_n[:, idx] = cur_n
    return out_p, out_n


# --- helpers ------------------------------------------------------------------

def oracle_chart(monkeypatch, sys, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(verify, "_march_axis", oracle_march_axis)
        return verify.develop_flat_coords(sys, **kwargs)


def assert_same_chart(got, want):
    assert got.basepoint == want.basepoint
    assert got.signature == want.signature
    assert got.frame.tobytes() == want.frame.tobytes()
    for a, b in zip(got.axes, want.axes):
        assert a.tobytes() == b.tobytes()
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.jacobians.shape == want.jacobians.shape
    assert got.jacobians.tobytes() == want.jacobians.tobytes()
    assert repr(got.pushed_metric_residual) == repr(want.pushed_metric_residual)
    assert repr(got.path_agreement) == repr(want.path_agreement)


def cylindrical_system():
    # flat R^3 in cylindrical coordinates: g^{-1} = diag(1, 1/r^2, 1)
    return SystemDef(["r", "th", "z"],
                     g_upper=[["1", "0", "0"], ["0", "1/r^2", "0"], ["0", "0", "1"]],
                     box=Box((0.5, -1.0, -0.5), (1.5, 1.0, 0.5)), name="cylindrical")


def lorentzian_system():
    return SystemDef(["a", "b"], g_upper=[["1", "0"], ["0", "-1"]], name="lorentzian")


def general_constant_system():
    upper = np.linalg.inv(np.array([[2.0, 1.0], [1.0, 3.0]]))
    return SystemDef(["U1", "U2"],
                     g_upper=[[repr(float(v)) for v in row] for row in upper],
                     name="general-constant")


SYSTEMS = {
    "polar_plane": polar_pair_system,
    "canonical": canonical_system,
    "lorentzian": lorentzian_system,
    "general_constant": general_constant_system,
}


# --- bitwise agreement with the stage-by-stage loop ----------------------------

@pytest.mark.parametrize("resolution", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_chart_matches_stage_loop(monkeypatch, name, resolution):
    sys = SYSTEMS[name]()
    assert_same_chart(verify.develop_flat_coords(sys, resolution=resolution),
                      oracle_chart(monkeypatch, sys, resolution=resolution))


def test_cylindrical_chart_matches_stage_loop(monkeypatch):
    sys = cylindrical_system()
    got = verify.develop_flat_coords(sys, resolution=7)
    assert_same_chart(got, oracle_chart(monkeypatch, sys, resolution=7))
    assert got.passed


@pytest.mark.parametrize("basepoint", [
    (1.0, 0.0),         # off-centre
    (0.5, -1.0),        # lower corner: nothing below on either axis
    (2.5, 0.25),        # upper edge of r: the only target above is the edge
])
@pytest.mark.parametrize("resolution", [1, 7])
def test_off_centre_and_edge_basepoints_match_stage_loop(monkeypatch, basepoint,
                                                         resolution):
    sys = polar_pair_system()
    kwargs = dict(resolution=resolution, basepoint=basepoint)
    assert_same_chart(verify.develop_flat_coords(sys, **kwargs),
                      oracle_chart(monkeypatch, sys, **kwargs))


def test_cylindrical_off_centre_basepoint_matches_stage_loop(monkeypatch):
    sys = cylindrical_system()
    kwargs = dict(resolution=7, basepoint=(0.5, 0.3, 0.5))
    assert_same_chart(verify.develop_flat_coords(sys, **kwargs),
                      oracle_chart(monkeypatch, sys, **kwargs))


# --- the same failure as the loop ----------------------------------------------

def failing_system(on_axis, g_entries):
    # the failure develops along ``on_axis``; the other coordinate only
    # shifts where, so the witness state matters once there are many states
    coords = ["x", "y"] if on_axis == 0 else ["y", "x"]
    g = [[g_entries[0], "0"], ["0", g_entries[1]]]
    box = Box((0.0, 0.0), (5.0, 1.0)) if on_axis == 0 else Box((0.0, 0.0), (1.0, 5.0))
    return SystemDef(coords, g_upper=g, box=box, name="failing")


FAILURES = {
    # the condition number passes 1e12 near x = 0.09, the determinant
    # drops below 1e-300 past x = 2.3: one batch sees the determinant first
    "cond-before-det": (SingularMetricError,
                        ("1", "exp(-300*x*(1 + y))")),
    # singular long before the log leaves its domain at x = 4.5: one batch
    # meets the log while evaluating its tables, before any inverse
    "singular-before-log": (SingularMetricError,
                            ("1 + 1e-300*log(4.5 - x)", "exp(-300*x*(1 + y))")),
    # sqrt leaves its domain at x = 3, the log (an earlier table entry) at
    # x = 4: one batch meets the log first
    "sqrt-before-log": (DomainError,
                        ("1 + 1e-300*log(4 - x)", "1 + 1e-300*sqrt(3 - x + y)")),
}


@pytest.mark.parametrize("on_axis", [0, 1])
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_matches_stage_loop(monkeypatch, case, on_axis):
    error, entries = FAILURES[case]
    sys = failing_system(on_axis, entries)
    kwargs = dict(resolution=8, basepoint=(0.0, 0.0))
    with pytest.raises(error) as want:
        oracle_chart(monkeypatch, sys, **kwargs)
    with pytest.raises(error) as got:
        verify.develop_flat_coords(sys, **kwargs)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "point", None) == getattr(want.value, "point", None)


def test_failure_cases_differ_between_batch_and_loop():
    # without the stage replay the batch would report another failure
    for case, (error, entries) in FAILURES.items():
        sys = failing_system(0, entries)
        stages = np.zeros((4097, 2))
        stages[:, 0] = np.linspace(0.0, 5.0, 4097)
        with pytest.raises((SingularMetricError, DomainError)) as batch:
            tz.christoffel_at(sys, stages)
        first = verify._first_stage_error(sys, stages[:, None, :])
        assert type(first) is error, case
        assert str(batch.value) != str(first), case


# --- geometry calls -------------------------------------------------------------

def count_geometry_calls(monkeypatch, sys, **kwargs):
    sizes = []
    original = tz.christoffel_at

    def counted(s, pts):
        sizes.append(len(pts))
        return original(s, pts)

    with monkeypatch.context() as m:
        m.setattr(tz, "christoffel_at", counted)
        verify.develop_flat_coords(sys, **kwargs)
    return sizes


def test_polar_plane_geometry_calls_stay_few_and_within_budget(monkeypatch):
    sizes = count_geometry_calls(monkeypatch, polar_pair_system(), resolution=64)
    assert len(sizes) <= 40
    assert max(sizes) <= verify.TRANSPORT_BATCH_POINTS


def test_cylindrical_geometry_calls_stay_within_budget(monkeypatch):
    sizes = count_geometry_calls(monkeypatch, cylindrical_system(), resolution=16)
    assert max(sizes) <= verify.TRANSPORT_BATCH_POINTS


def test_segment_stages_share_the_step_ends():
    h, coords = verify._segment_stages(0.5, 1.0, 0.1)
    assert h == 0.5 / 5 and len(coords) == 11
    c = 0.5
    for step in range(5):
        assert coords[2 * step] == c
        assert coords[2 * step + 1] == c + 0.5 * h
        c += h
        assert coords[2 * step + 2] == c
    # a zero-length segment is one step of length zero
    assert verify._segment_stages(0.25, 0.25, 0.1) == (0.0, [0.25, 0.25, 0.25])
