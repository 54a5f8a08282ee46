"""Structural verification of bracket candidates.

The checks here decide, by exact pointwise residuals over a deterministic
sample of the declared box, whether declared data satisfy the geometric
conditions of the bracket class being claimed: flat-metric first-order
brackets, the constant-curvature extension, the affinor (nonlocal)
extension, and the physical (Liouville) form.  `develop_flat_coords`
constructs canonical flat coordinates by integrating the frame transport
equations, and `pencil_regularity` tests a metric pair for distinct
pencil roots.

Each check samples the system's box at the same ``SAMPLES`` points, so
the same system and tolerances give byte-identical JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import (
    DomainError, MissingAffinorsError, MissingGammaError, NotFlatError,
    SingularMetricError,
)
from .system import SystemDef, sample_box

# low-discrepancy points per residual sweep of the system's box
SAMPLES = 64
TOL_ZERO = 1e-9
TOL_FLAT = 1e-7
# the hodograph pipeline's defaults (`hodograph` reads them from here, so
# that a config load does not import it): a closed-form flow's defining
# residual, the smallest velocity gap, the Newton residual
TOL_GOURSAT = 1e-5
GAP_TOL = 1e-8
NEWTON_TOL = 1e-12
# commutativity of affinor pairs is always judged at this absolute scale,
# independent of the user-supplied zero tolerance
TOL_COMMUTE = 1e-9
# Runge-Kutta steps of the flat-coordinate transport per axis extent
RK4_STEPS_PER_EXTENT = 256
# points per connection evaluation of the flat-coordinate transport; bounds
# the (points, N, N, N) connection temporaries
TRANSPORT_BATCH_POINTS = 2048
# points per block of the flat chart's pushed-metric check; bounds its
# (points, N, N) temporaries
FLAT_CHECK_BLOCK_POINTS = 4096
# rows per block of a CSV table; bounds the text formatted at once
CSV_BLOCK_ROWS = 4096

VERDICT_DN = "DN_FLAT"
VERDICT_MF = "MF_CONST_CURV"
VERDICT_FER = "FERAPONTOV"
VERDICT_LIOUVILLE = "LIOUVILLE"
VERDICT_FAIL = "NOT_A_BRACKET"
VERDICT_UNKNOWN = "INDETERMINATE"


def json_text(data) -> str:
    """JSON of every report and ``--out`` file: sorted keys, indent 2."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_csv(path, header, columns):
    """CSV of every table ``--out`` file: one column per array, full
    precision, the bytes of ``np.savetxt(fmt="%.17e", delimiter=",")``.

    The rows are formatted and written in blocks of ``CSV_BLOCK_ROWS``, so
    the text held at once spans one block, not the file.  In a block, each
    distinct value of a column is formatted once; values are told apart by
    bit pattern, so ``-0.0`` and every NaN payload keep their own text."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            block = np.column_stack([c[lo:lo + CSV_BLOCK_ROWS] for c in columns])
            texts = []
            for col in block.astype(float, copy=False).T:
                bits, where = np.unique(col.view(np.int64), return_inverse=True)
                text = np.array(["%.17e" % v for v in bits.view(np.float64).tolist()],
                                dtype=object)
                texts.append(text[where])
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def point_list(point):
    """A witness or other point as a JSON list of floats; None stays None."""
    return None if point is None else [float(v) for v in point]


class JsonReport:
    """Base of the reports: `to_json` is `json_text` of ``to_dict()``."""

    def to_json(self):
        return json_text(self.to_dict())


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
            "witness": point_list(self.witness),
        }


@dataclass
class VerifyReport(JsonReport):
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


def _argmax_abs(values, pts, block=None):
    """Max absolute entry of a batched tensor and the point attaining it.

    The tensor is ``values`` or, when ``block`` is given, ``block(rows)``
    over each slice ``rows`` of points, with ``values`` giving its shape.
    Its entries are taken in point blocks of at most
    ``tz.CURVATURE_BLOCK_ENTRIES``, so the absolute values, and the tensor
    ``block`` builds, span one block, not the batch.
    """
    if block is None:
        block = values.__getitem__
    size = math.prod(values.shape[1:])
    per_point = np.zeros(len(values))
    if size:
        step = max(1, tz.CURVATURE_BLOCK_ENTRIES // size)
        for lo in range(0, len(values), step):
            rows = slice(lo, lo + step)
            np.max(np.abs(block(rows)).reshape(-1, size), axis=1, out=per_point[rows])
    idx = int(np.argmax(per_point))
    return float(per_point[idx]), tz.point_at(pts, idx)


def _worse(current, candidate):
    """The worse of two (residual, witness) pairs.

    A NaN residual is worse than any number; ties keep ``current``.
    """
    if math.isnan(current[0]):
        return current
    if math.isnan(candidate[0]) or candidate[0] > current[0]:
        return candidate
    return current


def fold_worst(tensors, pts, *start):
    """`_worse` folded over each batched tensor's `_argmax_abs`, from
    ``start`` if one is given, else from the first tensor's pair."""
    return functools.reduce(_worse, (_argmax_abs(v, pts) for v in tensors),
                            *start)


def _check(name, values, pts, tol, block=None):
    residual, witness = _argmax_abs(values, pts, block)
    return CheckResult(name, residual, tol, residual < tol, witness)


def _worst_check(name, tensors, pts, tol):
    """One check over several batched tensors, judged by the worst of them."""
    residual, witness = fold_worst(tensors, pts)
    return CheckResult(name, residual, tol, residual < tol, witness)


def _base_checks(sys, pts, tol):
    """Metric symmetry and, when ``b`` is declared, its consistency with the
    metric connection."""
    g = tz.metric_upper_at(sys, pts)
    # inf - inf is a NaN residual, reported with its witness, not warned
    with np.errstate(invalid="ignore"):
        out = [_check("metric-symmetry", g - np.swapaxes(g, 1, 2), pts, tol)]
    if sys.b is not None:
        gam = tz.christoffel_at(sys, pts)
        out.append(_check("connection-torsion",
                          gam - np.swapaxes(gam, 2, 3), pts, tol))
        out.append(_check("connection-compatibility",
                          gam - tz.levi_civita_at(sys, pts), pts, tol))
    return out


def _dn(sys, pts, base, curv, tol):
    checks = base + [_check("flatness", curv, pts, tol)]
    verdict = VERDICT_DN if all(c.passed for c in checks) else VERDICT_FAIL
    return VerifyReport(sys.name, verdict, checks)


def _curvature_pattern(n):
    eye = np.eye(n)
    return (np.einsum("nm,tl->ntml", eye, eye)
            - np.einsum("tm,nl->ntml", eye, eye))


def _mf(sys, pts, base, curv, tol):
    pattern = _curvature_pattern(sys.N)
    denom = float(np.sum(pattern * pattern)) * len(pts)
    c_fit = float(np.sum(curv * pattern) / denom) if denom else 0.0
    fit = c_fit * pattern
    checks = base + [_check("constant-curvature-pattern", curv, pts, tol,
                            lambda rows: curv[rows] - fit)]
    ok = all(c.passed for c in checks)
    cross = VERDICT_DN if ok and abs(c_fit) < tol else None
    return VerifyReport(sys.name, VERDICT_MF if ok else VERDICT_FAIL, checks,
                        curvature_constant=c_fit, cross_flag=cross)


def _fer(sys, pts, base, curv, tol):
    checks = list(base)
    affs = [(sign, *tz.table_jets_at(sys, w, pts, 1)) for sign, w in sys.affinors]

    if affs:
        lower = tz.metric_lower_at(sys, pts)
        gam = tz.christoffel_at(sys, pts)
        contracted = (np.einsum("pnt,ptm->pnm", lower, w) for _, w, _ in affs)
        checks.append(_worst_check(
            "metric-affinor-symmetry",
            (c - np.swapaxes(c, 1, 2) for c in contracted), pts, tol))
        cov = (dw + np.einsum("pmrs,psl->prml", gam, w)
               - np.einsum("psrl,pms->prml", gam, w) for _, w, dw in affs)
        checks.append(_worst_check(
            "covariant-derivative-symmetry",
            (c - np.transpose(c, (0, 3, 2, 1)) for c in cov), pts, tol))

    def residual(rows):
        # the curvature less its representation through the family
        rep = np.zeros_like(curv[rows])
        for sign, w, _ in affs:
            w = w[rows]
            rep += sign * (np.einsum("pnm,ptl->pntml", w, w)
                           - np.einsum("ptm,pnl->pntml", w, w))
        return curv[rows] - rep
    checks.append(_check("curvature-representation", curv, pts, tol, residual))

    if affs:
        # a single-member family commutes vacuously but is still reported,
        # so every declared family shows all four condition groups
        coms = (wi @ wj - wj @ wi for (_, wi, _), (_, wj, _)
                in itertools.combinations(affs, 2))
        com_res, com_wit = fold_worst(coms, pts, (0.0, None))
        checks.append(CheckResult("affinor-commutativity", com_res,
                                  TOL_COMMUTE, com_res < TOL_COMMUTE, com_wit))

    ok = all(c.passed for c in checks)
    return VerifyReport(sys.name, VERDICT_FER if ok else VERDICT_FAIL, checks)


def _run(body, sys, tol_zero, samples=SAMPLES):
    """Sample once, then judge ``body`` on the shared checks and curvature."""
    pts = sample_box(sys.box, samples)
    base = _base_checks(sys, pts, tol_zero)
    return body(sys, pts, base, tz.riemann_raised_at(sys, pts), tol_zero)


def check_dn(sys: SystemDef, *, tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the flat-metric (local first-order) bracket conditions.

    Checks metric symmetry, consistency of ``b`` with the metric connection
    (when ``b`` is declared), and vanishing of the curvature, over the
    low-discrepancy sample of the system's box.
    """
    return _run(_dn, sys, tol_zero)


def check_mf(sys: SystemDef, *, tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the constant-curvature bracket conditions.

    The curvature constant is fitted by least squares over all samples and
    reported; the check passes when the remaining pattern residual is below
    tolerance.  A fitted constant of zero means the bracket degenerates to
    the flat case.
    """
    return _run(_mf, sys, tol_zero)


def check_ferapontov(sys: SystemDef, *,
                     tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Verify the affinor (nonlocal) bracket conditions.

    For each declared affinor: symmetry of its metric contraction and
    symmetry of its covariant derivative; jointly: the curvature
    representation through the signed affinor family and pairwise
    commutativity.  A family declared empty asserts a purely local bracket,
    so the curvature representation degenerates to flatness and the check
    agrees with `check_dn`.  Each condition group reports its worst
    residual over the family; a non-finite one fails the group.

    Raises
    ------
    MissingAffinorsError
        If the system does not declare an affinor family at all.
    """
    if sys.affinors is None:
        raise MissingAffinorsError("system declares no affinor family")
    return _run(_fer, sys, tol_zero)


def check_liouville(sys: SystemDef, *,
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
    pts = sample_box(sys.box, SAMPLES)
    gamma, dgamma = tz.table_jets_at(sys, sys.gamma, pts, 1)
    g = tz.metric_upper_at(sys, pts)
    checks = [_check("gamma-symmetrization",
                     g - (gamma + np.swapaxes(gamma, 1, 2)), pts, tol_zero)]
    b = tz.b_at(sys, pts)
    # declared b[s][n][l] against d gamma^{sn} / dU^l
    checks.append(_check("gamma-gradient",
                         b - np.transpose(dgamma, (0, 2, 3, 1)), pts, tol_zero))
    ok = all(c.passed for c in checks)
    return VerifyReport(sys.name, VERDICT_LIOUVILLE if ok else VERDICT_FAIL, checks)


def classify(sys: SystemDef, *, samples: int = SAMPLES,
             tol_zero: float = TOL_ZERO) -> VerifyReport:
    """Try bracket classes from most restrictive to least and report.

    Order: flat, constant-curvature, affinor extension.  If the first two
    fail and no affinors are declared, the verdict is indeterminate: an
    affinor family that closes the conditions might exist but cannot be
    guessed here.  The sample, the shared checks and the curvature are
    computed once and judged by every class tried.
    """
    return _run(_classify, sys, tol_zero, samples)


def _classify(sys, pts, base, curv, tol):
    dn = _dn(sys, pts, base, curv, tol)
    if dn.verdict == VERDICT_DN:
        return dn
    mf = _mf(sys, pts, base, curv, tol)
    if mf.verdict == VERDICT_MF:
        return mf
    if sys.affinors is not None:
        return _fer(sys, pts, base, curv, tol)
    return VerifyReport(sys.name, VERDICT_UNKNOWN, mf.checks,
                        curvature_constant=mf.curvature_constant)


# --- metric pencils -------------------------------------------------------------

@dataclass
class PencilReport(JsonReport):
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
            "witness": point_list(self.witness),
        }


def _pencil_roots(g1, g2):
    """Roots lambda of ``det(g1 - lambda g2)`` per point, shape (P, N).

    They are ``1 / mu`` for the eigenvalues mu of ``g1^-1 g2``, infinite
    where mu vanishes (g2 singular).  When g1 is singular somewhere, points
    are taken one at a time, and where it is the roots are the eigenvalues
    of ``g2^-1 g1``; a point where both are singular gets NaN roots.
    """
    def roots(a, b, invert):
        mu = np.linalg.eigvals(np.linalg.solve(a, b)).astype(complex)
        if not invert:
            return mu
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mu == 0, np.inf, 1 / mu)

    try:
        return roots(g1, g2, True)
    except np.linalg.LinAlgError:
        pass
    out = np.full(g1.shape[:2], np.nan, dtype=complex)
    for p in range(len(g1)):
        for a, b, invert in ((g1[p], g2[p], True), (g2[p], g1[p], False)):
            try:
                out[p] = roots(a, b, invert)
                break
            except np.linalg.LinAlgError:
                pass
    return out


def pencil_regularity(sys1: SystemDef, sys2: SystemDef, *,
                      tol_gap: float = 1e-8) -> PencilReport:
    """Roots of ``det(g1 - lambda g2)`` over the box, with distinctness verdict.

    The pair is regular when at every sample of the box of ``sys1`` the roots
    are pairwise distinct (gap above ``tol_gap``).  Roots are sorted by real
    then imaginary part, so reports are reproducible.  An infinite or NaN
    root (g2 singular, or g1 and g2 both) counts as a collision.
    """
    if sys1.N != sys2.N:
        raise ValueError("metric pair must have matching dimension")
    pts = sample_box(sys1.box, SAMPLES)
    all_roots = _pencil_roots(tz.metric_upper_at(sys1, pts),
                              tz.metric_upper_at(sys2, pts))
    all_roots = np.take_along_axis(
        all_roots, np.lexsort((all_roots.imag, all_roots.real)), axis=1)
    # a non-finite root gap counts as a collision
    gaps = tz.pairwise_gaps(all_roots)
    gaps[~np.isfinite(gaps)] = 0.0
    per_point = np.min(gaps, axis=1, initial=math.inf)
    worst = int(np.argmin(per_point))
    min_gap = float(per_point[worst])
    witness = tz.point_at(pts, worst) if gaps.size else None
    regular = bool(min_gap > tol_gap)
    return PencilReport((sys1.name, sys2.name), all_roots, min_gap,
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
            "basepoint": point_list(self.basepoint),
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


def _segment_stages(start, stop, h_max):
    """Step and stage coordinates of one Runge-Kutta segment, in march order.

    The start, then ``c + h/2`` and ``c + h`` for each step, with ``c``
    accumulated step by step: ``2 * nsteps + 1`` coordinates.  The ``c + h``
    of one step is the ``c`` of the next, bit for bit.
    """
    length = stop - start
    nsteps = max(1, int(math.ceil(abs(length) / h_max)))
    h = length / nsteps
    coords = [start]
    c = start
    for _ in range(nsteps):
        coords += (c + 0.5 * h, c + h)
        c += h
    return h, coords


def _first_stage_error(sys, stages):
    """The error the stage-by-stage march meets first, or ``None``."""
    for pts in stages:
        try:
            tz.christoffel_at(sys, pts)
        except (SingularMetricError, DomainError) as err:
            return err
    return None


def _connection_rows(sys, pos, axis, coords):
    """Yield ``Gamma^s_{axis l}`` over the states ``pos`` at each axis coordinate.

    One ``(states, N, N)`` view per coordinate, in order.  The connection
    depends on position only, so it is evaluated ahead of the march, over
    stage coordinates x states stacked stage-major, at most
    ``TRANSPORT_BATCH_POINTS`` points per call.
    """
    states, nn = pos.shape
    per_call = max(1, TRANSPORT_BATCH_POINTS // states)
    for lo in range(0, len(coords), per_call):
        chunk = coords[lo:lo + per_call]
        stages = np.repeat(pos[None], len(chunk), axis=0)
        stages[:, :, axis] = np.asarray(chunk)[:, None]
        try:
            gam = tz.christoffel_at(sys, stages.reshape(-1, nn))
        except (SingularMetricError, DomainError) as err:
            # a batch reports its first failed check, not its first failing
            # stage: replay the stages in order for the error the march meets
            raise (_first_stage_error(sys, stages) or err) from None
        yield from gam[:, :, axis, :].reshape(len(chunk), states, nn, nn)


def _rk4_advance(rows, axis, p, n, h, nsteps):
    """Advance a batch of frames over one segment of ``nsteps`` steps.

    ``rows`` yields the segment's connection rows in `_segment_stages`
    order: k1 reads the one at ``c``, k2 and k3 the one at ``c + h/2``, k4
    the one at ``c + h``.
    """
    at_c = next(rows)
    for _ in range(nsteps):
        mid, end = next(rows), next(rows)
        k1p = np.einsum("Psl,Pas->Pal", at_c, p)
        q2 = p + 0.5 * h * k1p
        k2p = np.einsum("Psl,Pas->Pal", mid, q2)
        q3 = p + 0.5 * h * k2p
        k3p = np.einsum("Psl,Pas->Pal", mid, q3)
        q4 = p + h * k3p
        k4p = np.einsum("Psl,Pas->Pal", end, q4)
        # the chart value moves with the frame's axis column: dn = p[:, :, axis]
        n = n + (h / 6.0) * (p[:, :, axis] + 2 * q2[:, :, axis]
                             + 2 * q3[:, :, axis] + q4[:, :, axis])
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        at_c = end
    return p, n


def _march_axis(sys, pos, p, n, axis, start_value, targets, h_max):
    """Integrate all current states along one axis to every target value.

    Every segment's stage coordinates are listed first, for both directions
    in march order, so the geometry is evaluated in a few large batches.
    Returns arrays with a new innermost state axis ordered like ``targets``.
    """
    count, nn = p.shape[0], p.shape[1]
    out_p = np.empty((count, len(targets), nn, nn))
    out_n = np.empty((count, len(targets), nn))
    order = np.argsort(targets)
    above = [i for i in order if targets[i] >= start_value]
    below = [i for i in order[::-1] if targets[i] < start_value]
    plans, coords = [], []
    for direction in (above, below):
        cur, segments = start_value, []
        for idx in direction:
            h, stages = _segment_stages(cur, targets[idx], h_max)
            segments.append((idx, h, len(stages) // 2))
            coords += stages
            cur = targets[idx]
        plans.append(segments)
    rows = _connection_rows(sys, pos, axis, coords)
    for segments in plans:
        cur_p, cur_n = p, n
        for idx, h, nsteps in segments:
            cur_p, cur_n = _rk4_advance(rows, axis, cur_p, cur_n, h, nsteps)
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


def develop_flat_coords(sys: SystemDef, *, resolution: int = 64, basepoint=None,
                        tol_flat: float = TOL_FLAT) -> FlatChart:
    """Develop canonical flat coordinates of a flat metric over a grid.

    The chart gradient is transported along axis-aligned paths from the
    basepoint with fixed-step classical Runge-Kutta (step at most the axis
    extent / ``RK4_STEPS_PER_EXTENT``, whatever the grid resolution), so
    results are exactly reproducible.

    The connection depends on position only, never on the transported
    frame, so every stage position of an axis sweep is known before the
    march starts.  Each sweep lists its stage coordinates (per segment the
    start, then ``c + h/2`` and ``c + h`` per step) for both directions,
    evaluates `tensor.christoffel_at` over them x all current states in
    batches of at most ``TRANSPORT_BATCH_POINTS`` points (but at least one
    stage coordinate per batch), then runs the Runge-Kutta steps on
    lookups.  The results are bit for bit those of evaluating the
    connection stage by stage, and a failing batch is replayed stage by
    stage, so `SingularMetricError` and `DomainError` name the first
    failure the march reaches, with its witness.

    Integration is run in two different axis orders; if the two disagree
    beyond ``10 * tol_flat`` the metric is not flat on the box and
    `NotFlatError` is raised.  The pushed metric is checked over blocks of
    ``FLAT_CHECK_BLOCK_POINTS`` grid points, so its temporaries span one
    block; each point's value does not depend on the block, so the
    residual is the one over the whole grid at once.

    Returns
    -------
    FlatChart
        Chart values and gradients on the grid, the initial frame, the
        signature, and the pushed-metric and path-agreement residuals.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    box = sys.box
    nn = sys.N
    basepoint = tuple(box.center if basepoint is None else basepoint)
    if not box.contains(basepoint):
        raise ValueError(f"basepoint {basepoint} lies outside the box")
    axes = tuple(np.linspace(lo, hi, resolution + 1)
                 for lo, hi in zip(box.lo, box.hi))
    h_max = [ext / RK4_STEPS_PER_EXTENT for ext in box.extent]
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

    # the pushed metric, in blocks of grid points in raster order
    target = np.diag(np.asarray(signature, dtype=float))
    frames = p_fwd.reshape(-1, nn, nn)
    worst = []
    for lo in range(0, len(frames), FLAT_CHECK_BLOCK_POINTS):
        hi = min(lo + FLAT_CHECK_BLOCK_POINTS, len(frames))
        nodes = np.unravel_index(np.arange(lo, hi), n_fwd.shape[:-1])
        pts = np.column_stack([a[i] for a, i in zip(axes, nodes)])
        p = frames[lo:hi]
        pushed = np.einsum("pan,pnm,pbm->pab", p, tz.metric_upper_at(sys, pts), p)
        worst.append(np.max(np.abs(pushed - target)))
    pushed_residual = float(np.max(worst))

    return FlatChart(basepoint, frame, signature, axes, n_fwd, p_fwd,
                     pushed_residual, path_agreement, tol_flat)
