import numpy as np
import pytest

from conftest import (
    canonical_system, epsilon_system, polar_pair_system, shallow_water_system,
    sphere_system,
)
from hydrobrackets import tensor as tz
from hydrobrackets.errors import DegenerateHyperbolicityWarning, SingularMetricError
from hydrobrackets.system import Box, SystemDef, halton_points, sample_box


# --- independent finite-difference oracles (frozen) --------------------------

def fd_jacobian(fn, pt, h=1e-6):
    """Central-difference derivative of a matrix-valued function of a point.

    Returns d[r] = d(fn)/d(pt[r]) as an array with leading axis r.
    """
    pt = np.asarray(pt, dtype=float)
    out = []
    for r in range(len(pt)):
        step = np.zeros_like(pt)
        step[r] = h
        out.append((fn(pt + step) - fn(pt - step)) / (2 * h))
    return np.array(out)


def levi_civita_oracle(g_lower_fn, pt):
    """Connection coefficients from finite differences of the lower metric."""
    g = g_lower_fn(np.asarray(pt, float))
    ginv = np.linalg.inv(g)
    dg = fd_jacobian(g_lower_fn, pt)
    n = len(g)
    gamma = np.zeros((n, n, n))
    for a in range(n):
        for m in range(n):
            for l in range(n):
                total = 0.0
                for s in range(n):
                    total += ginv[a, s] * (dg[m][s, l] + dg[l][s, m] - dg[s][m, l])
                gamma[a, m, l] = 0.5 * total
    return gamma


def nijenhuis_oracle(v_fn, pt, h=1e-6):
    """Operator torsion from finite differences of the operator entries."""
    v = v_fn(np.asarray(pt, float))
    dv = fd_jacobian(v_fn, pt, h)
    n = len(v)
    out = np.zeros((n, n, n))
    for a in range(n):
        for m in range(n):
            for l in range(n):
                total = 0.0
                for s in range(n):
                    total += v[s, m] * dv[s][a, l] - v[s, l] * dv[s][a, m]
                    total += v[a, s] * (dv[l][s, m] - dv[m][s, l])
                out[a, m, l] = total
    return out


def hantjes_from_torsion(v, nt):
    n = len(v)
    out = np.zeros((n, n, n))
    for a in range(n):
        for m in range(n):
            for l in range(n):
                total = 0.0
                for s in range(n):
                    for t in range(n):
                        total += v[a, s] * v[s, t] * nt[t, m, l]
                        total -= v[a, s] * nt[s, t, l] * v[t, m]
                        total -= v[a, s] * nt[s, m, t] * v[t, l]
                        total += nt[a, s, t] * v[s, m] * v[t, l]
                out[a, m, l] = total
    return out


def polar_g_lower(pt):
    return np.diag([1.0, pt[0] ** 2])


def sphere_g_lower(pt):
    return np.diag([1.0, np.sin(pt[0]) ** 2])


# --- sampling ----------------------------------------------------------------

def test_sample_box_deterministic_and_inside():
    box = Box((0.5, -1.0), (2.5, 1.5))
    first = sample_box(box, 64)
    second = sample_box(box, 64)
    assert first.shape == (64, 2)
    assert np.array_equal(first, second)
    assert all(box.contains(p) for p in first)


@pytest.mark.parametrize("lo, hi", [
    ((0.0, np.nan), (1.0, 1.0)),
    ((0.0, -np.inf), (1.0, 1.0)),
    ((0.0, 0.0), (np.inf, 1.0)),
    ((0, 0), (10 ** 400, 1)),
    ((0.0, 0.0), (1.0, 0.0)),
    ((0.0,), (1.0, 1.0)),
])
def test_box_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError):
        Box(lo, hi)


def radical_inverse(index, base):
    """Scalar radical inverse, the digit-by-digit definition (frozen)."""
    inv, denom = 0.0, 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        inv += digit / denom
    return inv


def test_halton_points_bit_identical_to_scalar_definition():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    pts = halton_points(4096, len(primes))
    oracle = np.array([[radical_inverse(i + 1, b) for b in primes]
                       for i in range(4096)])
    assert np.array_equal(pts, oracle)
    for count in (0, 1, 2, 7, 64, 65):
        for dim in range(1, len(primes) + 1):
            assert np.array_equal(halton_points(count, dim), oracle[:count, :dim])
    with pytest.raises(ValueError):
        halton_points(4, len(primes) + 1)


def test_table_views():
    sys = SystemDef(["x", "y"], g_upper=[["x*y", "2"], ["k", "y^2"]],
                    params={"k": 3.0})
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    values = tz.table_at(sys, sys.g_upper, pts)
    assert values.shape == (2, 2, 2)
    assert np.array_equal(values[:, 0, 1], [2.0, 2.0])
    assert np.array_equal(values[:, 1, 0], [3.0, 3.0])
    assert np.array_equal(values[:, 0, 0], [2.0, -0.5])
    d1 = tz.table_d1_at(sys, sys.g_upper, pts)
    assert d1.shape == (2, 2, 2, 2)
    assert np.array_equal(d1[:, 0, 0, 0], pts[:, 1])      # d(xy)/dx
    assert np.array_equal(d1[:, 1, 1, 1], 2 * pts[:, 1])  # d(y^2)/dy
    assert np.array_equal(d1[:, :, 0, 1], np.zeros((2, 2)))
    # single points are accepted as well
    assert np.array_equal(tz.table_at(sys, sys.g_upper, pts[1]), values[1:])


# --- metric ------------------------------------------------------------------

def test_metric_lower_identity_and_diagonal():
    sys = canonical_system(2)
    low = tz.metric_lower_at(sys, [(0.3, -0.2)])[0]
    assert np.allclose(low, np.eye(2))

    polar = polar_pair_system(with_b=False)
    low = tz.metric_lower_at(polar, [(2.0, 0.1)])[0]
    assert np.allclose(low, np.diag([1.0, 4.0]), atol=1e-14)


def test_metric_lower_singular():
    sys = SystemDef(["a", "b"], g_upper=[["1", "1"], ["1", "1"]])
    with pytest.raises(SingularMetricError):
        tz.metric_lower_at(sys, [(0.0, 0.0)])
    nearly = SystemDef(["a", "b"], g_upper=[["1", "0"], ["0", "1e-13"]])
    with pytest.raises(SingularMetricError):
        tz.metric_lower_at(nearly, [(0.0, 0.0)])


# --- connection ---------------------------------------------------------------

def test_christoffel_constant_metric_vanishes():
    sys = canonical_system(2)
    gam = tz.christoffel_at(sys, [(0.1, 0.2)])[0]
    assert np.allclose(gam, 0.0)


def test_christoffel_polar_closed_form():
    sys = polar_pair_system(with_b=False)
    r = 1.7
    gam = tz.christoffel_at(sys, [(r, 0.3)])[0]
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -r          # upper r, lower th th
    expected[1, 0, 1] = 1.0 / r     # upper th, lower r th
    expected[1, 1, 0] = 1.0 / r
    assert np.allclose(gam, expected, atol=1e-13)


def test_christoffel_matches_fd_oracle():
    sys = polar_pair_system(with_b=False)
    sphere = sphere_system()
    for system, g_fn, pt in [(sys, polar_g_lower, (1.3, 0.4)),
                             (sphere, sphere_g_lower, (1.1, 0.8))]:
        gam = tz.christoffel_at(system, [pt])[0]
        oracle = levi_civita_oracle(g_fn, pt)
        assert np.max(np.abs(gam - oracle)) < 1e-7


def test_christoffel_from_b_matches_levi_civita():
    """The two code paths agree when b encodes the metric connection."""
    with_b = polar_pair_system(with_b=True)
    metric_only = polar_pair_system(with_b=False)
    pts = sample_box(with_b.box, 16)
    assert np.max(np.abs(tz.christoffel_at(with_b, pts)
                         - tz.christoffel_at(metric_only, pts))) < 1e-12


def test_christoffel_symmetric_lower_pair():
    sys = sphere_system()
    pts = sample_box(sys.box, 16)
    gam = tz.christoffel_at(sys, pts)
    assert np.max(np.abs(gam - np.swapaxes(gam, 2, 3))) < 1e-13


# --- curvature -----------------------------------------------------------------

def test_riemann_flat_cases():
    for sys in (canonical_system(2), polar_pair_system(with_b=False),
                polar_pair_system(with_b=True)):
        pts = sample_box(sys.box, 32)
        assert np.max(np.abs(tz.riemann_at(sys, pts))) < 1e-10, sys.name


def test_riemann_sphere_closed_form():
    sys = sphere_system()
    th = 1.2
    lowered = tz.riemann_at(sys, [(th, 0.5)])[0]
    raised = tz.riemann_raised_at(sys, [(th, 0.5)])[0]
    # classic sectional value for the unit sphere
    assert abs(lowered[0, 1, 0, 1] - np.sin(th) ** 2) < 1e-12
    n = 2
    eye = np.eye(n)
    pattern = (np.einsum("nm,tl->ntml", eye, eye)
               - np.einsum("tm,nl->ntml", eye, eye))
    assert np.max(np.abs(raised - pattern)) < 1e-12


def test_riemann_first_bianchi():
    for sys in (sphere_system(), polar_pair_system(with_b=False)):
        pts = sample_box(sys.box, 16)
        r = tz.riemann_at(sys, pts)
        cyc = (r + np.transpose(r, (0, 1, 3, 4, 2))
               + np.transpose(r, (0, 1, 4, 2, 3)))
        assert np.max(np.abs(cyc)) < 1e-11


def test_riemann_fd_cross_check_on_sphere():
    """Lowered curvature against a second-difference oracle of the connection."""
    sys = sphere_system()
    pt = np.array([0.9, 1.0])

    def gamma_fn(q):
        return tz.christoffel_at(sys, q[None, :])[0]

    dgam = fd_jacobian(gamma_fn, pt, h=1e-5)
    gam = gamma_fn(pt)
    n = 2
    oracle = np.zeros((n, n, n, n))
    for a in range(n):
        for t in range(n):
            for m in range(n):
                for l in range(n):
                    val = dgam[m][a, t, l] - dgam[l][a, t, m]
                    for s in range(n):
                        val += gam[a, s, m] * gam[s, t, l] - gam[a, s, l] * gam[s, t, m]
                    oracle[a, t, m, l] = val
    ours = tz.riemann_at(sys, pt[None, :])[0]
    assert np.max(np.abs(ours - oracle)) < 1e-6


# --- operator tensors -------------------------------------------------------------

def test_nijenhuis_identity_and_diagonal_vanish():
    ident = SystemDef(["a", "b"], V=[["1", "0"], ["0", "1"]])
    assert np.allclose(tz.nijenhuis_at(ident, [(0.4, 2.0)])[0], 0.0)
    diag = SystemDef(["R1", "R2", "R3"], v_diag=["R1", "R2", "R3"])
    assert np.allclose(tz.nijenhuis_at(diag, [(0.1, 0.5, 0.9)])[0], 0.0,
                       atol=1e-14)


def test_nijenhuis_matches_fd_oracle():
    sys = SystemDef(["a", "b"], V=[["a + 2*b", "a*b"], ["b^2", "a - b"]])

    def v_fn(pt):
        a, b = pt
        return np.array([[a + 2 * b, a * b], [b * b, a - b]])

    for pt in [(0.3, 0.7), (-1.1, 0.4), (2.0, -0.5)]:
        ours = tz.nijenhuis_at(sys, [pt])[0]
        oracle = nijenhuis_oracle(v_fn, pt)
        assert np.max(np.abs(ours - oracle)) < 1e-6


def test_hantjes_two_component_systems_vanish():
    sys = shallow_water_system()
    pts = sample_box(sys.box, 64)
    assert np.max(np.abs(tz.hantjes_at(sys, pts))) < 1e-10

    generic2 = SystemDef(["a", "b"], V=[["a + b^2", "sin(a)"], ["exp(b)", "a*b"]])
    pts = sample_box(generic2.box, 64)
    assert np.max(np.abs(tz.hantjes_at(generic2, pts))) < 1e-10


def test_hantjes_matches_fd_oracle():
    sys = SystemDef(["a", "b", "c"],
                    V=[["a", "b*c", "0"], ["c^2", "b", "a*b"], ["1", "0", "c"]])

    def v_fn(pt):
        a, b, c = pt
        return np.array([[a, b * c, 0.0], [c * c, b, a * b], [1.0, 0.0, c]])

    pt = (0.4, 0.8, 1.3)
    nt = nijenhuis_oracle(v_fn, pt)
    oracle = hantjes_from_torsion(v_fn(np.asarray(pt)), nt)
    ours = tz.hantjes_at(sys, [pt])[0]
    assert np.max(np.abs(ours - oracle)) < 1e-5


@pytest.mark.filterwarnings(
    "ignore::hydrobrackets.errors.DegenerateHyperbolicityWarning")
def test_hantjes_generic_three_component_nonzero():
    rng = np.random.default_rng(20240501)
    coeffs = rng.uniform(-1.0, 1.0, size=(3, 3))
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            c = coeffs[i, j]
            names = ["a", "b", "c"]
            row.append(f"{c:.3f}*{names[i]}*{names[j]} + {'1' if i == j else '0'}"
                       f" + {0.5 * c:.3f}*{names[(j + 1) % 3]}^2")
        rows.append(row)
    sys = SystemDef(["a", "b", "c"], V=rows, box=Box((-1,) * 3, (1,) * 3))
    pts = sample_box(sys.box, 64)
    assert np.max(np.abs(tz.hantjes_at(sys, pts))) > 1e-3


def test_degenerate_eigenvalues_warn_but_evaluate():
    sys = SystemDef(["a", "b"], V=[["a", "0"], ["0", "a"]])
    with pytest.warns(DegenerateHyperbolicityWarning):
        value = tz.hantjes_at(sys, [(0.5, 0.2)])[0]
    assert value.shape == (2, 2, 2)


# --- tensoriality under a change of chart --------------------------------------

def test_operator_torsion_tensors_transform_as_tensors():
    """Push H and the torsion through the chart map (a, b) -> (a, b + a^2)."""
    sys_a = SystemDef(["a", "b"], V=[["a", "b"], ["b", "a"]])
    sys_b = SystemDef(["A", "B"], V=[
        ["A - 2*A*(B - A^2)", "B - A^2"],
        ["(B - A^2)*(1 - 4*A^2)", "2*A*(B - A^2) + A"],
    ])
    rng = np.random.default_rng(11)
    for _ in range(8):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        jac = np.array([[1.0, 0.0], [2 * a, 1.0]])
        jinv = np.linalg.inv(jac)
        pt_b = (a, b + a * a)
        for fn in (tz.nijenhuis_at, tz.hantjes_at):
            t_a = fn(sys_a, [(a, b)])[0]
            t_b = fn(sys_b, [pt_b])[0]
            pushed = np.einsum("xn,nml,my,lz->xyz", jac, t_a, jinv, jinv)
            assert np.max(np.abs(t_b - pushed)) < 1e-8, fn.__name__


def test_operator_matrix_from_v_diag():
    sys = epsilon_system()
    mat = tz.operator_at(sys, (0.5, 1.5, 2.5))
    assert np.allclose(np.diag(mat[0]), [4.0, 3.0, 2.0])
    assert np.allclose(mat[0] - np.diag(np.diag(mat[0])), 0.0)


# --- the singularity guard -----------------------------------------------------

def svd_guarded_inverse(upper, pts):
    """The guard with an SVD at every point (frozen)."""
    bad = np.abs(np.linalg.det(upper)) < tz.DET_FLOOR
    if np.any(bad):
        where = tz.point_at(pts, np.argmax(bad))
        raise SingularMetricError(
            f"metric determinant below {tz.DET_FLOOR:g} at {where}", where)
    bad = ~(np.linalg.cond(upper) < tz.COND_CEILING)
    if np.any(bad):
        where = tz.point_at(pts, np.argmax(bad))
        raise SingularMetricError(
            f"metric condition number above {tz.COND_CEILING:g} at {where}", where)
    return np.linalg.inv(upper)


def guard_outcome(fn, *args):
    try:
        return "inverse", fn(*args).tobytes()
    except (SingularMetricError, np.linalg.LinAlgError) as err:
        return type(err), str(err), getattr(err, "point", None)


def rotated_metrics(small):
    """2x2 metrics Q diag(1, s) Q^T at 8 points, with s = 0.5 except where
    ``small`` maps a point index to s, and their points."""
    sys = SystemDef(["x", "y"], g_upper=[["1", "0"], ["0", "1"]],
                    box=Box((0.0, 0.0), (1.0, 1.0)))
    pts = sample_box(sys.box, 8)
    upper = np.empty((8, 2, 2))
    for p, angle in enumerate(np.linspace(0.1, 1.3, 8)):
        c, s = np.cos(angle), np.sin(angle)
        q = np.array([[c, -s], [s, c]])
        upper[p] = q @ np.diag([1.0, small.get(p, 0.5)]) @ q.T
    return sys, upper, pts


@pytest.mark.parametrize("small, outcome", [
    ({5: 1.01e-12}, "inverse"),
    ({2: 0.99e-12, 6: 1e-13}, SingularMetricError),
    ({4: 1e-13, 1: 1.01e-12}, SingularMetricError),
])
def test_guard_matches_the_svd_at_every_point(small, outcome):
    sys, upper, pts = rotated_metrics(small)
    conds = np.linalg.cond(upper)
    for p, s in small.items():
        # s = 1e-12 puts the condition number at the ceiling
        assert (conds[p] < tz.COND_CEILING) == (s > 1e-12)
        if s > 1e-13:
            assert abs(conds[p] / tz.COND_CEILING - 1) < 0.02
    got = guard_outcome(tz._guarded_inverse, sys, upper, pts)
    assert got == guard_outcome(svd_guarded_inverse, upper, pts)
    assert got[0] == outcome
    if outcome is SingularMetricError:
        first = min(p for p, s in small.items() if s < 1e-12)
        assert got[2] == tz.point_at(pts, first)


def test_guard_with_a_nan_entry_matches_the_svd_at_every_point():
    # a non-finite entry is rejected at its point before det and the SVD,
    # ahead of the later point whose condition number is above the ceiling
    sys, upper, pts = rotated_metrics({6: 1e-13})
    upper[3, 0, 1] = np.nan
    got = guard_outcome(tz._guarded_inverse, sys, upper, pts)
    where = tz.point_at(pts, 3)
    assert got == (SingularMetricError, f"metric value not finite at {where}",
                   where)



def test_guard_runs_the_svd_only_near_the_ceiling(monkeypatch):
    cond = np.linalg.cond
    seen = []

    def counting(a, *args, **kwargs):
        seen.append(len(a))
        return cond(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    sys, upper, pts = rotated_metrics({1: 1e-9, 5: 1.01e-12})
    assert tz._guarded_inverse(sys, upper, pts).tobytes() == np.linalg.inv(upper).tobytes()
    # the bound clears s = 0.5 and s = 1e-9 (condition numbers 2 and 1e9)
    assert seen == [1]
    seen.clear()
    polar = polar_pair_system()
    tz.metric_lower_at(polar, sample_box(polar.box, 64))
    assert seen == []
