"""Structural verification of bracket candidates.

The checks here decide, by exact pointwise residuals over a deterministic
sample of the declared box, whether declared data satisfy the geometric
conditions of the bracket class being claimed: flat-metric first-order
brackets, the constant-curvature extension, the affinor (nonlocal)
extension, and the physical (Liouville) form.  `develop_flat_coords`
constructs canonical flat coordinates by integrating the frame transport
equations, and `pencil_regularity` tests a metric pair for distinct
pencil roots.

Every report is deterministic: same system, box, tolerances and sample
count give byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import tensor as tz
from .errors import (
    MissingAffinorsError, MissingGammaError, NotFlatError, SingularMetricError,
)
from .expr import differentiate
from .system import Box, SystemDef, sample_box

TOL_ZERO = 1e-9
TOL_FLAT = 1e-7
# commutativity of affinor pairs is always judged at this absolute scale,
# independent of the user-supplied zero tolerance
TOL_COMMUTE = 1e-9

VERDICT_DN = "DN_FLAT"
VERDICT_MF = "MF_CONST_CURV"
VERDICT_FER = "FERAPONTOV"
VERDICT_LIOUVILLE = "LIOUVILLE"
VERDICT_FAIL = "NOT_A_BRACKET"
VERDICT_UNKNOWN = "INDETERMINATE"


@dataclass
class CheckResult:
    """Outcome of a single residual sweep."""

    name: str
    residual: float
    tol: float
    passed: bool
    witness: tuple | None = None

    def to_dict(self):
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
        }


@dataclass
class VerifyReport:
    """Collected check results and the resulting verdict."""

    system: str
    verdict: str
    checks: list = field(default_factory=list)
    curvature_constant: float | None = None
    cross_flag: str | None = None

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        out = {
            "system": self.system,
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.curvature_constant is not None:
            out["curvature_constant"] = float(self.curvature_constant)
        if self.cross_flag is not None:
            out["cross_flag"] = self.cross_flag
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def __str__(self):
        head = self.verdict
        if self.verdict == VERDICT_MF and self.curvature_constant is not None:
            head = f"{self.verdict}(c={self.curvature_constant:.12g})"
        if self.cross_flag is not None:
            head = f"{head} [also {self.cross_flag}]"
        lines = [f"verdict: {head}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: residual {c.residual:.3e}"
                         f" (tol {c.tol:.1e})")
        return "\n".join(lines)


def _argmax_abs(values, pts):
    """Max absolute entry of a batched tensor and the point attaining it."""
    flat = np.abs(values.reshape(len(values), -1))
    per_point = flat.max(axis=1) if flat.shape[1] else np.zeros(len(values))
    idx = int(np.argmax(per_point))
    return float(per_point[idx]), tuple(float(v) for v in pts[idx])


def _check(name, values, pts, tol):
    residual, witness = _argmax_abs(values, pts)
    return CheckResult(name, residual, tol, residual < tol, witness)


def _symmetry_check(sys, pts, tol):
    g = tz.metric_upper_at(sys, pts)
    return _check("metric-symmetry", g - np.swapaxes(g, 1, 2), pts, tol)


def _connection_checks(sys, pts, tol):
    """Consistency of declared b with the metric connection, when b is given."""
    if sys.b is None:
        return []
    gam = tz.christoffel_at(sys, pts)
    out = [_check("connection-torsion",
                  gam - np.swapaxes(gam, 2, 3), pts, tol)]
    out.append(_check("connection-compatibility",
                      gam - tz.levi_civita_at(sys, pts), pts, tol))
    return out


def check_dn(sys: SystemDef, *, box: Box | None = None, samples: int = 64,
             extra_points=(), tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the flat-metric (local first-order) bracket conditions.

    Checks metric symmetry, consistency of ``b`` with the metric connection
    (when ``b`` is declared), and vanishing of the curvature, over the
    low-discrepancy sample of the box plus any ``extra_points``.
    """
    pts = sample_box(box or sys.box, samples, extra_points)
    checks = [_symmetry_check(sys, pts, tol_zero)]
    checks.extend(_connection_checks(sys, pts, tol_zero))
    curv = tz.riemann_raised_at(sys, pts)
    checks.append(_check("flatness", curv, pts, tol_zero))
    verdict = VERDICT_DN if all(c.passed for c in checks) else VERDICT_FAIL
    return VerifyReport(sys.name, verdict, checks)


def _curvature_pattern(n):
    eye = np.eye(n)
    return (np.einsum("nm,tl->ntml", eye, eye)
            - np.einsum("tm,nl->ntml", eye, eye))


def check_mf(sys: SystemDef, *, box: Box | None = None, samples: int = 64,
             extra_points=(), tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the constant-curvature bracket conditions.

    The curvature constant is fitted by least squares over all samples and
    reported; the check passes when the remaining pattern residual is below
    tolerance.  A fitted constant of zero means the bracket degenerates to
    the flat case.
    """
    pts = sample_box(box or sys.box, samples, extra_points)
    checks = [_symmetry_check(sys, pts, tol_zero)]
    checks.extend(_connection_checks(sys, pts, tol_zero))
    curv = tz.riemann_raised_at(sys, pts)
    pattern = _curvature_pattern(sys.N)
    denom = float(np.sum(pattern * pattern)) * len(pts)
    c_fit = float(np.sum(curv * pattern) / denom) if denom else 0.0
    checks.append(_check("constant-curvature-pattern",
                         curv - c_fit * pattern, pts, tol_zero))
    ok = all(c.passed for c in checks)
    cross = VERDICT_DN if ok and abs(c_fit) < tol_zero else None
    return VerifyReport(sys.name, VERDICT_MF if ok else VERDICT_FAIL, checks,
                        curvature_constant=c_fit, cross_flag=cross)


def _affinor_values(sys, pts):
    out = []
    for sign, w in sys.affinors:
        values = tz._eval_table(w, tz._env(sys, pts), len(pts))
        deriv = tz._eval_table(tz._d1_table(sys, ("affinor", id(w)), w),
                               tz._env(sys, pts), len(pts))
        out.append((sign, values, deriv))
    return out


def check_ferapontov(sys: SystemDef, *, box: Box | None = None,
                     samples: int = 64, extra_points=(),
                     tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the affinor (nonlocal) bracket conditions.

    For each declared affinor: symmetry of its metric contraction and
    symmetry of its covariant derivative; jointly: the curvature
    representation through the signed affinor family and pairwise
    commutativity.  A family declared empty asserts a purely local bracket,
    so the curvature representation degenerates to flatness and the check
    agrees with `check_dn`.

    Raises
    ------
    MissingAffinorsError
        If the system does not declare an affinor family at all.
    """
    if sys.affinors is None:
        raise MissingAffinorsError("system declares no affinor family")
    pts = sample_box(box or sys.box, samples, extra_points)
    checks = [_symmetry_check(sys, pts, tol_zero)]
    checks.extend(_connection_checks(sys, pts, tol_zero))

    gam = tz.christoffel_at(sys, pts)
    affs = _affinor_values(sys, pts)

    if affs:
        lower = tz.metric_lower_at(sys, pts)
        worst = None
        for _, w, _ in affs:
            contracted = np.einsum("pnt,ptm->pnm", lower, w)
            asym = contracted - np.swapaxes(contracted, 1, 2)
            cand = _check("metric-affinor-symmetry", asym, pts, tol_zero)
            worst = cand if worst is None or cand.residual > worst.residual else worst
        checks.append(worst)

        worst = None
        for _, w, dw in affs:
            cov = (dw + np.einsum("pmrs,psl->prml", gam, w)
                   - np.einsum("psrl,pms->prml", gam, w))
            asym = cov - np.transpose(cov, (0, 3, 2, 1))
            cand = _check("covariant-derivative-symmetry", asym, pts, tol_zero)
            worst = cand if worst is None or cand.residual > worst.residual else worst
        checks.append(worst)

    curv = tz.riemann_raised_at(sys, pts)
    rep = np.zeros_like(curv)
    for sign, w, _ in affs:
        rep += sign * (np.einsum("pnm,ptl->pntml", w, w)
                       - np.einsum("ptm,pnl->pntml", w, w))
    checks.append(_check("curvature-representation", curv - rep, pts, tol_zero))

    if affs:
        # a single-member family commutes vacuously but is still reported,
        # so every declared family shows all four condition groups
        com_res, com_wit = 0.0, None
        for i in range(len(affs)):
            for j in range(i + 1, len(affs)):
                wi, wj = affs[i][1], affs[j][1]
                com = (np.einsum("pns,psm->pnm", wi, wj)
                       - np.einsum("pns,psm->pnm", wj, wi))
                res, wit = _argmax_abs(com, pts)
                if res > com_res:
                    com_res, com_wit = res, wit
        checks.append(CheckResult("affinor-commutativity", com_res,
                                  TOL_COMMUTE, com_res < TOL_COMMUTE, com_wit))

    ok = all(c.passed for c in checks)
    return VerifyReport(sys.name, VERDICT_FER if ok else VERDICT_FAIL, checks)


def check_liouville(sys: SystemDef, *, box: Box | None = None,
                    samples: int = 64, extra_points=(),
                    tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the physical-form relations between gamma, the metric and b.

    Confirms that the declared potential symmetrizes to the metric and that
    its coordinate gradient reproduces the declared ``b``.

    Raises
    ------
    MissingGammaError
        If the system declares no gamma.
    """
    if sys.gamma is None:
        raise MissingGammaError("system declares no gamma")
    if sys.g_upper is None or sys.b is None:
        raise ValueError("physical-form check needs both g_upper and b")
    pts = sample_box(box or sys.box, samples, extra_points)
    env = tz._env(sys, pts)
    gamma = tz._eval_table(sys.gamma, env, len(pts))
    g = tz.metric_upper_at(sys, pts)
    checks = [_check("gamma-symmetrization",
                     g - (gamma + np.swapaxes(gamma, 1, 2)), pts, tol_zero)]
    dgamma = tz._eval_table(tz._d1_table(sys, "gamma", sys.gamma), env, len(pts))
    b = tz.b_at(sys, pts)
    # declared b[s][n][l] against d gamma^{sn} / dU^l
    checks.append(_check("gamma-gradient",
                         b - np.transpose(dgamma, (0, 2, 3, 1)), pts, tol_zero))
    ok = all(c.passed for c in checks)
    return VerifyReport(sys.name, VERDICT_LIOUVILLE if ok else VERDICT_FAIL, checks)


def classify(sys: SystemDef, *, box: Box | None = None, samples: int = 64,
             extra_points=(), tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Try bracket classes from most restrictive to least and report.

    Order: flat, constant-curvature, affinor extension.  If the first two
    fail and no affinors are declared, the verdict is indeterminate: an
    affinor family that closes the conditions might exist but cannot be
    guessed here.
    """
    kw = dict(box=box, samples=samples, extra_points=extra_points, tol_zero=tol_zero)
    dn = check_dn(sys, **kw)
    if dn.verdict == VERDICT_DN:
        return dn
    mf = check_mf(sys, **kw)
    if mf.verdict == VERDICT_MF:
        return mf
    if sys.affinors is not None:
        return check_ferapontov(sys, **kw)
    return VerifyReport(sys.name, VERDICT_UNKNOWN, mf.checks,
                        curvature_constant=mf.curvature_constant)


# --- metric pencils -------------------------------------------------------------

@dataclass
class PencilReport:
    """Pencil roots of a metric pair over the sample sweep."""

    system_pair: tuple
    roots: np.ndarray
    min_gap: float
    tol_gap: float
    regular: bool
    witness: tuple | None

    def to_dict(self):
        return {
            "systems": list(self.system_pair),
            "roots": [[[float(r.real), float(r.imag)] for r in row]
                      for row in self.roots],
            "min_gap": float(self.min_gap),
            "tol_gap": float(self.tol_gap),
            "regular": bool(self.regular),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def pencil_regularity(sys1: SystemDef, sys2: SystemDef, *,
                      box: Box | None = None, samples: int = 64,
                      extra_points=(), tol_gap: float = 1e-8) -> PencilReport:
    """Roots of ``det(g1 - lambda g2)`` over the box, with distinctness verdict.

    The pair is regular when at every sample the roots are pairwise distinct
    (gap above ``tol_gap``).  Roots are sorted by real then imaginary part,
    so reports are reproducible.
    """
    if sys1.N != sys2.N:
        raise ValueError("metric pair must have matching dimension")
    pts = sample_box(box or sys1.box, samples, extra_points)
    g1 = tz.metric_upper_at(sys1, pts)
    g2 = tz.metric_upper_at(sys2, pts)
    all_roots = np.empty((len(pts), sys1.N), dtype=complex)
    min_gap, witness = math.inf, None
    for p in range(len(pts)):
        roots = scipy.linalg.eigvals(g1[p], g2[p])
        order = np.lexsort((roots.imag, roots.real))
        roots = roots[order]
        all_roots[p] = roots
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                gap = abs(roots[i] - roots[j])
                if not np.isfinite(gap):
                    gap = 0.0
                if gap < min_gap:
                    min_gap, witness = gap, tuple(float(v) for v in pts[p])
    regular = bool(min_gap > tol_gap)
    return PencilReport((sys1.name, sys2.name), all_roots, float(min_gap),
                        tol_gap, regular, witness)


# --- flat coordinates -------------------------------------------------------------

@dataclass
class FlatChart:
    """Canonical flat coordinates developed over a grid.

    ``values`` holds the chart components on the grid (trailing axis is the
    component), ``jacobians`` the corresponding gradients, ``frame`` the
    initial gradient at the basepoint, and ``signature`` the diagonal signs
    of the pushed-forward metric.
    """

    basepoint: tuple
    frame: np.ndarray
    signature: tuple
    axes: tuple
    values: np.ndarray
    jacobians: np.ndarray
    pushed_metric_residual: float
    path_agreement: float
    tol: float

    @property
    def passed(self):
        return self.pushed_metric_residual < self.tol

    def summary_dict(self):
        return {
            "basepoint": [float(v) for v in self.basepoint],
            "frame": [[float(v) for v in row] for row in self.frame],
            "signature": [int(s) for s in self.signature],
            "pushed_metric_residual": float(self.pushed_metric_residual),
            "path_agreement": float(self.path_agreement),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }


def _frame_at(sys, basepoint):
    lower = tz.metric_lower_at(sys, np.asarray(basepoint, float)[None, :])[0]
    vals, vecs = np.linalg.eigh(lower)
    # deterministic orientation: first significant component positive
    for a in range(vecs.shape[1]):
        col = vecs[:, a]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        if len(nz) and col[nz[0]] < 0:
            vecs[:, a] = -col
    if np.any(vals == 0.0):
        raise SingularMetricError("metric eigenvalue vanishes at basepoint",
                                  tuple(basepoint))
    frame = np.sqrt(np.abs(vals))[:, None] * vecs.T
    signature = tuple(int(np.sign(v)) for v in vals)
    return frame, signature


def _transport_rhs(sys, pos, axis, p):
    gam = tz.christoffel_at(sys, pos)
    dp = np.einsum("Psl,Pas->Pal", gam[:, :, axis, :], p)
    dn = p[:, :, axis].copy()
    return dp, dn


def _rk4_advance(sys, pos, axis, p, n, start, stop, h_max):
    """Advance the frame transport along one axis for a batch of states."""
    length = stop - start
    nsteps = max(1, int(math.ceil(abs(length) / h_max)))
    h = length / nsteps
    c = start
    for _ in range(nsteps):
        pos[:, axis] = c
        k1p, k1n = _transport_rhs(sys, pos, axis, p)
        pos[:, axis] = c + 0.5 * h
        k2p, k2n = _transport_rhs(sys, pos, axis, p + 0.5 * h * k1p)
        k3p, k3n = _transport_rhs(sys, pos, axis, p + 0.5 * h * k2p)
        pos[:, axis] = c + h
        k4p, k4n = _transport_rhs(sys, pos, axis, p + h * k3p)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        n = n + (h / 6.0) * (k1n + 2 * k2n + 2 * k3n + k4n)
        c += h
    pos[:, axis] = stop
    return p, n


def _march_axis(sys, pos, p, n, axis, start_value, targets, h_max):
    """Integrate all current states along one axis to every target value.

    Returns arrays with a new innermost state axis ordered like ``targets``.
    """
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
            cur_p, cur_n = _rk4_advance(sys, work_pos, axis, cur_p, cur_n,
                                        cur, targets[idx], h_max)
            cur = targets[idx]
            out_p[:, idx] = cur_p
            out_n[:, idx] = cur_n
    return out_p, out_n


def _develop(sys, basepoint, frame, axes, order, h_max):
    nn = sys.N
    pos = np.asarray(basepoint, float)[None, :].copy()
    p = frame[None, :, :].copy()
    n = np.zeros((1, nn))
    for axis in order:
        targets = axes[axis]
        out_p, out_n = _march_axis(sys, pos, p, n, axis, basepoint[axis],
                                   targets, h_max[axis])
        count = p.shape[0] * len(targets)
        p = out_p.reshape(count, nn, nn)
        n = out_n.reshape(count, nn)
        new_pos = np.repeat(pos, len(targets), axis=0)
        new_pos[:, axis] = np.tile(targets, pos.shape[0])
        pos = new_pos
    shape = tuple(len(axes[a]) for a in order)
    p = p.reshape(shape + (nn, nn))
    n = n.reshape(shape + (nn,))
    perm = tuple(int(v) for v in np.argsort(order))
    p = np.transpose(p, perm + (len(order), len(order) + 1))
    n = np.transpose(n, perm + (len(order),))
    return n, p


def develop_flat_coords(sys: SystemDef, *, box: Box | None = None,
                        resolution: int = 64, basepoint=None,
                        tol_flat: float = TOL_FLAT,
                        resolution_multiplier: int = 4) -> FlatChart:
    """Develop canonical flat coordinates of a flat metric over a grid.

    The chart gradient is transported along axis-aligned paths from the
    basepoint with fixed-step classical Runge-Kutta (step = axis extent
    divided by ``64 * resolution_multiplier``), so results are exactly
    reproducible.  Integration is run in two different axis orders; if the
    two disagree beyond ``10 * tol_flat`` the metric is not flat on the box
    and `NotFlatError` is raised.

    Returns
    -------
    FlatChart
        Chart values and gradients on the grid, the initial frame, the
        signature, and the pushed-metric and path-agreement residuals.
    """
    box = box or sys.box
    nn = sys.N
    basepoint = tuple(box.center if basepoint is None else basepoint)
    if not box.contains(basepoint):
        raise ValueError(f"basepoint {basepoint} lies outside the box")
    axes = tuple(np.linspace(lo, hi, resolution + 1)
                 for lo, hi in zip(box.lo, box.hi))
    h_max = [ext / (64.0 * resolution_multiplier) for ext in box.extent]
    frame, signature = _frame_at(sys, basepoint)

    order = tuple(range(nn))
    n_fwd, p_fwd = _develop(sys, basepoint, frame, axes, order, h_max)
    if nn > 1:
        n_rev, _ = _develop(sys, basepoint, frame, axes, order[::-1], h_max)
        path_agreement = float(np.max(np.abs(n_fwd - n_rev)))
    else:
        path_agreement = 0.0
    if path_agreement > 10.0 * tol_flat:
        raise NotFlatError(
            f"path-dependent development: axis orders disagree by "
            f"{path_agreement:.3e} (allowed {10.0 * tol_flat:.1e})",
            residual=path_agreement)

    grid_pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, nn)
    upper = tz.metric_upper_at(sys, grid_pts).reshape(n_fwd.shape[:-1] + (nn, nn))
    pushed = np.einsum("...an,...nm,...bm->...ab", p_fwd, upper, p_fwd)
    target = np.diag(np.asarray(signature, dtype=float))
    pushed_residual = float(np.max(np.abs(pushed - target)))

    return FlatChart(basepoint, frame, signature, axes, n_fwd, p_fwd,
                     pushed_residual, path_agreement, tol_flat)
