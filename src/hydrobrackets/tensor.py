"""Pointwise tensor evaluation for declared systems.

Everything here evaluates exactly at sample points: entries and their first
and second derivatives come from symbolic differentiation of the declared
expressions, and matrix-level quantities (inverse metric derivatives,
connection coefficients, curvature) are assembled from closed identities.
No finite differences are used.

Batched functions (suffix ``_at``) take an array of points with shape
``(P, N)`` and return arrays with a leading ``P`` axis; the public
single-point operations wrap them in `TensorValue`.

Index layout conventions, writing ``n, t`` for upper and ``m, l, s, r`` for
lower indices:

- ``christoffel_at[p, n, m, l]`` is the connection coefficient with upper
  index ``n`` acting on lower pair ``(m, l)``;
- ``riemann_at[p, n, t, m, l]`` is the curvature with one upper index;
- ``riemann_raised_at[p, n, t, m, l]`` has the second index raised;
- ``b`` entries follow the declaration order ``b[s][n][l]``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHyperbolicityWarning, SingularMetricError
from .expr import differentiate, evaluate
from .system import SystemDef

DET_FLOOR = 1e-300
COND_CEILING = 1e12

__all__ = [
    "TensorValue", "metric_lower", "christoffel", "riemann_curvature",
    "nijenhuis", "hantjes",
]


@dataclass(frozen=True)
class TensorValue:
    """Tensor components at a basepoint.

    ``variance`` marks each slot ``"u"`` (upper) or ``"l"`` (lower); its
    length equals ``entries.ndim``.
    """

    entries: np.ndarray
    variance: tuple
    basepoint: tuple

    def __post_init__(self):
        if len(self.variance) != self.entries.ndim:
            raise ValueError("variance length must match tensor rank")

    @property
    def shape(self):
        return self.entries.shape


# --- memoized symbolic derivative tables -------------------------------------

def _memo(sys, key, build):
    if key not in sys._memo:
        sys._memo[key] = build()
    return sys._memo[key]


def _d1_table(sys: SystemDef, label, exprs):
    def build():
        out = np.empty((sys.N,) + exprs.shape, dtype=object)
        for r, c in enumerate(sys.coords):
            for idx in np.ndindex(*exprs.shape):
                out[(r,) + idx] = differentiate(exprs[idx], c)
        return out
    return _memo(sys, ("d1", label), build)


def _d2_table(sys: SystemDef, label, exprs):
    def build():
        d1 = _d1_table(sys, label, exprs)
        out = np.empty((sys.N,) + d1.shape, dtype=object)
        for r, c in enumerate(sys.coords):
            for idx in np.ndindex(*d1.shape):
                out[(r,) + idx] = differentiate(d1[idx], c)
        return out
    return _memo(sys, ("d2", label), build)


def _points(sys, pts):
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != sys.N:
        raise ValueError(f"points must have {sys.N} components")
    return pts, single


def _env(sys, pts):
    env = {c: pts[:, i] for i, c in enumerate(sys.coords)}
    env.update(sys.params)
    return env


def _eval_table(exprs, env, count):
    out = np.empty((count,) + exprs.shape)
    for idx in np.ndindex(*exprs.shape):
        v = np.asarray(evaluate(exprs[idx], env), dtype=float)
        out[(slice(None),) + idx] = v
    return out


# --- metric and connection ----------------------------------------------------

def metric_upper_at(sys: SystemDef, pts):
    if sys.g_upper is None:
        raise ValueError("system declares no metric")
    pts, _ = _points(sys, pts)
    return _eval_table(sys.g_upper, _env(sys, pts), len(pts))


def metric_upper_d1_at(sys, pts):
    pts, _ = _points(sys, pts)
    return _eval_table(_d1_table(sys, "g_upper", sys.g_upper), _env(sys, pts), len(pts))


def metric_upper_d2_at(sys, pts):
    pts, _ = _points(sys, pts)
    return _eval_table(_d2_table(sys, "g_upper", sys.g_upper), _env(sys, pts), len(pts))


def metric_lower_at(sys: SystemDef, pts):
    """Batched inverse metric with singularity guard."""
    pts, _ = _points(sys, pts)
    upper = metric_upper_at(sys, pts)
    dets = np.linalg.det(upper)
    bad = np.abs(dets) < DET_FLOOR
    if np.any(bad):
        where = pts[int(np.argmax(bad))]
        raise SingularMetricError(
            f"metric determinant below {DET_FLOOR:g} at {tuple(where)}", tuple(where))
    conds = np.linalg.cond(upper)
    bad = ~(conds < COND_CEILING)
    if np.any(bad):
        where = pts[int(np.argmax(bad))]
        raise SingularMetricError(
            f"metric condition number above {COND_CEILING:g} at {tuple(where)}",
            tuple(where))
    return np.linalg.inv(upper)


def _lower_d1(lower, upper_d1):
    # d(g^{-1}) = -g^{-1} dg g^{-1}
    return -np.einsum("pij,prjk,pkl->pril", lower, upper_d1, lower)


def _lower_d2(lower, upper_d1, upper_d2):
    a = np.einsum("pij,prsjk,pkl->prsil", lower, upper_d2, lower)
    b = np.einsum("pij,prjk,pkl,pslm,pmn->prsin",
                  lower, upper_d1, lower, upper_d1, lower)
    return -a + b + np.swapaxes(b, 1, 2)


def b_at(sys, pts):
    if sys.b is None:
        raise ValueError("system declares no b coefficients")
    pts, _ = _points(sys, pts)
    return _eval_table(sys.b, _env(sys, pts), len(pts))


def h_ultra_at(sys, pts):
    if sys.h_ultra is None:
        raise ValueError("system declares no ultralocal coefficients")
    pts, _ = _points(sys, pts)
    return _eval_table(sys.h_ultra, _env(sys, pts), len(pts))


def b_d1_at(sys, pts):
    pts, _ = _points(sys, pts)
    return _eval_table(_d1_table(sys, "b", sys.b), _env(sys, pts), len(pts))


def levi_civita_at(sys: SystemDef, pts):
    """Connection of the declared metric, from exact derivative identities."""
    pts, _ = _points(sys, pts)
    lower = metric_lower_at(sys, pts)
    upper = metric_upper_at(sys, pts)
    l1 = _lower_d1(lower, metric_upper_d1_at(sys, pts))
    s = (np.transpose(l1, (0, 2, 1, 3)) + np.transpose(l1, (0, 2, 3, 1)) - l1)
    return 0.5 * np.einsum("pns,psml->pnml", upper, s)


def christoffel_at(sys: SystemDef, pts):
    """Connection coefficients: from ``b`` when declared, else Levi-Civita."""
    if sys.b is None:
        return levi_civita_at(sys, pts)
    pts, _ = _points(sys, pts)
    lower = metric_lower_at(sys, pts)
    return -np.einsum("pms,psnl->pnml", lower, b_at(sys, pts))


def christoffel_d1_at(sys: SystemDef, pts):
    pts, _ = _points(sys, pts)
    lower = metric_lower_at(sys, pts)
    upper_d1 = metric_upper_d1_at(sys, pts)
    l1 = _lower_d1(lower, upper_d1)
    if sys.b is not None:
        b = b_at(sys, pts)
        b1 = b_d1_at(sys, pts)
        return (-np.einsum("prms,psnl->prnml", l1, b)
                - np.einsum("pms,prsnl->prnml", lower, b1))
    upper = metric_upper_at(sys, pts)
    l2 = _lower_d2(lower, upper_d1, metric_upper_d2_at(sys, pts))
    s = (np.transpose(l1, (0, 2, 1, 3)) + np.transpose(l1, (0, 2, 3, 1)) - l1)
    s1 = (np.transpose(l2, (0, 1, 3, 2, 4)) + np.transpose(l2, (0, 1, 3, 4, 2)) - l2)
    return 0.5 * (np.einsum("prns,psml->prnml", upper_d1, s)
                  + np.einsum("pns,prsml->prnml", upper, s1))


def riemann_at(sys: SystemDef, pts):
    """Curvature ``R^n_{tml}`` of the connection used by `christoffel_at`."""
    gam = christoffel_at(sys, pts)
    gam1 = christoffel_d1_at(sys, pts)
    quad = np.einsum("pnsm,pstl->pntml", gam, gam)
    return (np.transpose(gam1, (0, 2, 3, 1, 4))
            - np.transpose(gam1, (0, 2, 3, 4, 1))
            + quad - np.transpose(quad, (0, 1, 2, 4, 3)))


def riemann_raised_at(sys: SystemDef, pts):
    """Curvature with the second index raised by the metric."""
    upper = metric_upper_at(sys, pts)
    return np.einsum("pts,pnsml->pntml", upper, riemann_at(sys, pts))


# --- operator tensors -----------------------------------------------------------

def operator_at(sys: SystemDef, pts):
    mat = sys.operator_matrix()
    if mat is None:
        raise ValueError("system declares no coefficient operator")
    pts, _ = _points(sys, pts)
    return _eval_table(mat, _env(sys, pts), len(pts))


def operator_d1_at(sys: SystemDef, pts):
    mat = sys.operator_matrix()
    if mat is None:
        raise ValueError("system declares no coefficient operator")
    pts, _ = _points(sys, pts)
    return _eval_table(_d1_table(sys, "operator", mat), _env(sys, pts), len(pts))


def nijenhuis_at(sys: SystemDef, pts):
    """Torsion ``N^n_{ml}`` of the coefficient operator."""
    v = operator_at(sys, pts)
    v1 = operator_d1_at(sys, pts)
    t1 = np.einsum("psm,psnl->pnml", v, v1)
    t3 = np.einsum("pns,plsm->pnml", v, v1)
    return t1 - np.swapaxes(t1, 2, 3) + t3 - np.swapaxes(t3, 2, 3)


def hantjes_at(sys: SystemDef, pts, warn_degenerate=True):
    """Diagonalizability obstruction built from the operator torsion."""
    pts_arr, _ = _points(sys, pts)
    v = operator_at(sys, pts_arr)
    if warn_degenerate:
        _warn_on_eigenvalue_collision(v, pts_arr)
    nt = nijenhuis_at(sys, pts_arr)
    t1 = np.einsum("pns,pst,ptml->pnml", v, v, nt)
    t2 = np.einsum("pns,pstl,ptm->pnml", v, nt, v)
    t3 = np.einsum("pns,psmt,ptl->pnml", v, nt, v)
    t4 = np.einsum("pnst,psm,ptl->pnml", nt, v, v)
    return t1 - t2 - t3 + t4


def _warn_on_eigenvalue_collision(v, pts):
    eigs = np.linalg.eigvals(v)
    scale = 1.0 + np.max(np.abs(eigs), axis=1)
    n = eigs.shape[1]
    if n < 2:
        return
    gaps = np.full(len(eigs), np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            gaps = np.minimum(gaps, np.abs(eigs[:, i] - eigs[:, j]))
    bad = gaps < 1e-8 * scale
    if np.any(bad):
        where = tuple(pts[int(np.argmax(bad))])
        warnings.warn(
            f"coefficient operator has coinciding eigenvalues near {where}",
            DegenerateHyperbolicityWarning, stacklevel=3)


# --- public single-point operations ---------------------------------------------

def _single(fn, sys, point, variance):
    pts, _ = _points(sys, point)
    return TensorValue(fn(sys, pts)[0], variance, tuple(np.asarray(point, float)))


def metric_lower(sys: SystemDef, point) -> TensorValue:
    """Covariant metric at a point.

    Raises
    ------
    SingularMetricError
        If the determinant of ``g_upper`` is below ``1e-300`` in absolute
        value or its condition estimate exceeds ``1e12``.
    """
    return _single(metric_lower_at, sys, point, ("l", "l"))


def christoffel(sys: SystemDef, point) -> TensorValue:
    """Connection coefficients at a point.

    Uses the declared lower-order coefficients when present, otherwise the
    Levi-Civita connection of the declared metric.  Slot order: upper index
    first, then the two lower indices.
    """
    return _single(christoffel_at, sys, point, ("u", "l", "l"))


def riemann_curvature(sys: SystemDef, point):
    """Curvature at a point.

    Returns
    -------
    (TensorValue, TensorValue)
        The ``(1, 3)`` curvature and the form with the second index raised.
    """
    lowered = _single(riemann_at, sys, point, ("u", "l", "l", "l"))
    raised = _single(riemann_raised_at, sys, point, ("u", "u", "l", "l"))
    return lowered, raised


def nijenhuis(sys: SystemDef, point) -> TensorValue:
    """Operator torsion at a point."""
    return _single(nijenhuis_at, sys, point, ("u", "l", "l"))


def hantjes(sys: SystemDef, point) -> TensorValue:
    """Diagonalizability obstruction at a point.

    Coinciding operator eigenvalues trigger a
    `DegenerateHyperbolicityWarning`; the tensor is still evaluated.
    """
    return _single(hantjes_at, sys, point, ("u", "l", "l"))
