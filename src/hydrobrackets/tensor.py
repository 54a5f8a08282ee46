"""Pointwise tensor evaluation for declared systems.

Everything here evaluates exactly at sample points: entries and their first
and second derivatives come from symbolic differentiation of the declared
expressions, and matrix-level quantities (inverse metric derivatives,
connection coefficients, curvature) are assembled from closed identities.
No finite differences are used.

The tensor functions (suffix ``_at``) take a batch of points with shape
``(P, N)`` and return arrays with a leading ``P`` axis; a single point of
shape ``(N,)`` is a batch of one.  `table_at` and `table_d1_at` evaluate
any object array of expressions, or its exact first derivatives, over a
point batch; other modules use them for their own tables.  `table_at`
delegates to `expr.evaluate_table`, and so evaluates every table here, the
geometry pass's included.  Each table a system owns (a declared field, or
a derivative table built from one) is compiled once per system with
`expr.compile_table`, so a subexpression its entries share, such as the
conformal factor of a diagonal metric, is evaluated once per batch.

Geometry pass: the metric-derived tensors come from one evaluation per
point batch (`_geometry`).  It evaluates the ``g_upper`` table once,
inverts it once under the singularity guard, evaluates the first-derivative
tables, and the second-derivative table only when the connection
derivative (so the curvature) is asked for, then assembles the connection
and its derivative.  `christoffel_at`, `christoffel_d1_at`,
`levi_civita_at`, `riemann_at` and `riemann_raised_at` are views of that
pass; `christoffel_at` stays first order, as the flat-coordinate
transport evaluates it at every Runge-Kutta stage position.  Products are contracted pairwise
with ``matmul`` (never an einsum of three or more operands), so the
curvature costs O(P N^5) arithmetic, and 5-index temporaries are dropped
as soon as they are used.

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

import numpy as np

from .errors import DegenerateHyperbolicityWarning, SingularMetricError
from .expr import Number, compile_table
# not called here: perfbench/selftest.py checks the tracer wraps tensor.evaluate
from .expr import differentiate, evaluate, evaluate_table  # noqa: F401
from .system import SystemDef

DET_FLOOR = 1e-300
COND_CEILING = 1e12


# --- memoized symbolic derivative tables -------------------------------------

def _memo(sys, key, build):
    if key not in sys._memo:
        sys._memo[key] = build()
    return sys._memo[key]


def _d1_table(sys: SystemDef, exprs):
    """Object array of ``d exprs / dU^r`` with a leading coordinate axis.

    Built once per system and expression array.  The memo is keyed by the
    identity of ``exprs`` and keeps ``exprs`` alive, so a cached identity
    is never reused by another array.
    """
    def build():
        out = np.empty((sys.N,) + exprs.shape, dtype=object)
        for r, c in enumerate(sys.coords):
            for idx in np.ndindex(*exprs.shape):
                out[(r,) + idx] = differentiate(exprs[idx], c)
        return exprs, out
    return _memo(sys, ("d1", id(exprs)), build)[1]


def _d2_table(sys: SystemDef, exprs):
    """Object array of ``d^2 exprs / dU^r dU^q``, two leading coordinate axes.

    Mixed partials commute, so the ``(q, r)`` entry is the same expression
    object as the ``(r, q)`` one.
    """
    def build():
        d1 = _d1_table(sys, exprs)
        out = np.empty((sys.N,) + d1.shape, dtype=object)
        for r, c in enumerate(sys.coords):
            for q in range(r, sys.N):
                for idx in np.ndindex(*exprs.shape):
                    out[(r, q) + idx] = out[(q, r) + idx] = differentiate(
                        d1[(q,) + idx], c)
        return exprs, out
    return _memo(sys, ("d2", id(exprs)), build)[1]


def _points(sys, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != sys.N:
        raise ValueError(f"points must have {sys.N} components")
    return pts


def table_at(sys: SystemDef, exprs, pts):
    """Values of an object array of expressions over a point batch.

    Returns shape ``(P,) + exprs.shape``.  The table is compiled once per
    system and expression array (`expr.compile_table`), so each
    subexpression its entries share is evaluated once per batch.  The memo
    is keyed by identity, as for `table_d1_at`: pass an array the caller
    keeps (a system field), and evaluate one-off arrays with
    `expr.evaluate_table`.
    """
    pts = _points(sys, pts)
    compiled = _memo(sys, ("compiled", id(exprs)),
                     lambda: (exprs, compile_table(exprs)))[1]
    return evaluate_table(compiled, sys.coords, sys.params, pts)


def table_d1_at(sys: SystemDef, exprs, pts):
    """Exact coordinate derivatives of ``exprs`` over a point batch.

    Returns shape ``(P, N) + exprs.shape`` with the differentiation
    coordinate on axis 1.  The symbolic table is built once per system and
    expression array, so pass an array the caller keeps (a system field).
    """
    return table_at(sys, _d1_table(sys, exprs), pts)


# --- pairwise contractions -----------------------------------------------------

def _apply(mat, t, lead):
    """``sum_s mat[..., a, s] t[..., s, *rest]``, one ``matmul``.

    ``lead`` counts the batch axes of ``t`` in front of the contracted
    axis; ``mat`` broadcasts against them.  The result has the index ``a``
    where ``t`` had ``s``.
    """
    rest = t.shape[lead + 1:]
    out = mat @ t.reshape(t.shape[:lead + 1] + (-1,))
    return out.reshape(out.shape[:-1] + rest)


# --- metric and connection ----------------------------------------------------

def metric_upper_at(sys: SystemDef, pts):
    if sys.g_upper is None:
        raise ValueError("system declares no metric")
    return table_at(sys, sys.g_upper, pts)


def point_at(pts, i):
    """Point ``i`` of a batch as a tuple of plain floats, as witnesses are
    reported."""
    return tuple(float(v) for v in pts[int(i)])


def _guarded_inverse(sys, upper, pts):
    finite = np.isfinite(upper).all(axis=(1, 2))
    if not finite.all():
        where = point_at(pts, np.argmin(finite))
        raise SingularMetricError(f"metric value not finite at {where}", where)
    dets = np.linalg.det(upper)
    bad = np.abs(dets) < DET_FLOOR
    if np.any(bad):
        if all(isinstance(e, Number) and e.value == 0.0 for e in sys.g_upper.flat):
            raise SingularMetricError(
                "the declared g_upper is identically zero, so there is no local "
                "bracket to classify; jacobi tests the ultralocal part")
        where = point_at(pts, np.argmax(bad))
        raise SingularMetricError(
            f"metric determinant below {DET_FLOOR:g} at {where}", where)
    # det and inv factorize alike, so no matrix left here is singular to inv
    lower = np.linalg.inv(upper)
    # ||g||_F ||g^-1||_F is never below the 2-norm condition number, so a
    # point whose bound is far below the ceiling needs no SVD; an overflowing
    # bound sends its point to the SVD
    with np.errstate(all="ignore"):
        bound = np.linalg.norm(upper, axis=(1, 2)) * np.linalg.norm(lower, axis=(1, 2))
    check = np.flatnonzero(~(bound < COND_CEILING / 100))
    if check.size:
        bad = ~(np.linalg.cond(upper[check]) < COND_CEILING)
        if np.any(bad):
            where = point_at(pts, check[np.argmax(bad)])
            raise SingularMetricError(
                f"metric condition number above {COND_CEILING:g} at {where}", where)
    return lower


def metric_lower_at(sys: SystemDef, pts):
    """Inverse metric; `SingularMetricError` where an entry of ``g_upper`` is
    not finite, ``|det g_upper|`` is below ``DET_FLOOR`` or its condition
    number is above ``COND_CEILING``."""
    pts = _points(sys, pts)
    return _guarded_inverse(sys, metric_upper_at(sys, pts), pts)


def _lower_d1(lower, upper_d1):
    # d_r(g^{-1}) = -g^{-1} (d_r g) g^{-1}
    low = lower[:, None]
    out = low @ upper_d1 @ low
    return np.negative(out, out=out)


def _lower_d2(lower, upper_d1, l1, upper_d2):
    # d_r d_q(g^{-1}) = -g^{-1} (d_r d_q g) g^{-1} - c_{rq} - c_{qr} with
    # c_{rq} = d_r(g^{-1}) (d_q g) g^{-1}; 5-index temporaries freed early
    low = lower[:, None, None]
    out = upper_d2 @ low
    out = np.matmul(low, out, out=out)
    c = l1[:, :, None] @ (upper_d1 @ lower[:, None])[:, None]
    out += c
    out += np.swapaxes(c, 1, 2)
    del c
    return np.negative(out, out=out)


def _geometry(sys: SystemDef, pts, *, derivative=False, levi_civita=False):
    """One pass over a point batch: ``(g_upper values, connection, derivative)``.

    Evaluates the ``g_upper`` table once and inverts it under the
    singularity guard.  The connection comes from the declared ``b`` unless
    ``levi_civita`` is set or no ``b`` is declared.  Derivative tables are
    evaluated only as far as the result needs: the second derivatives of
    ``g_upper`` only for the derivative of a Levi-Civita connection.  The
    derivative is ``None`` unless ``derivative`` is set, with layout
    ``[p, r, n, m, l] = d_r Gamma^n_{ml}``.
    """
    if sys.g_upper is None:
        raise ValueError("system declares no metric")
    pts = _points(sys, pts)
    upper = table_at(sys, sys.g_upper, pts)
    lower = _guarded_inverse(sys, upper, pts)
    declared = sys.b is not None and not levi_civita
    if declared:
        # Gamma^n_{ml} = -g_{ms} b^{sn}_l
        b = table_at(sys, sys.b, pts)
        gamma = np.swapaxes(_apply(-lower, b, 1), 1, 2)
        if not derivative:
            return upper, gamma, None
    upper_d1 = table_d1_at(sys, sys.g_upper, pts)
    l1 = _lower_d1(lower, upper_d1)
    if declared:
        b1 = table_d1_at(sys, sys.b, pts)
        gamma_d1 = _apply(lower[:, None], b1, 2)
        del b1
        gamma_d1 += _apply(l1, b[:, None], 2)
        np.negative(gamma_d1, out=gamma_d1)
        return upper, gamma, np.swapaxes(gamma_d1, 2, 3)
    # first-kind symbols s[k, m, l] = d_m g_{kl} + d_l g_{km} - d_k g_{ml}
    s = np.transpose(l1, (0, 2, 1, 3)) + np.transpose(l1, (0, 2, 3, 1))
    s -= l1
    gamma = 0.5 * _apply(upper, s, 1)
    if not derivative:
        return upper, gamma, None
    upper_d2 = table_at(sys, _d2_table(sys, sys.g_upper), pts)
    l2 = _lower_d2(lower, upper_d1, l1, upper_d2)
    del upper_d2
    s1 = np.transpose(l2, (0, 1, 3, 2, 4)) + np.transpose(l2, (0, 1, 3, 4, 2))
    s1 -= l2
    del l2
    gamma_d1 = _apply(upper[:, None], s1, 2)
    del s1
    gamma_d1 += _apply(upper_d1, s[:, None], 2)
    gamma_d1 *= 0.5
    return upper, gamma, gamma_d1


def _riemann(gamma, gamma_d1):
    # R^n_{tml} = d_m Gamma^n_{tl} - d_l Gamma^n_{tm}
    #             + Gamma^n_{sm} Gamma^s_{tl} - Gamma^n_{sl} Gamma^s_{tm}
    count, n = gamma.shape[:2]
    out = (np.transpose(gamma_d1, (0, 2, 3, 1, 4))
           - np.transpose(gamma_d1, (0, 2, 3, 4, 1)))
    left = np.swapaxes(gamma, 2, 3).reshape(count, n * n, n)
    quad = (left @ gamma.reshape(count, n, n * n)).reshape((count,) + (n,) * 4)
    quad = np.transpose(quad, (0, 1, 3, 2, 4))
    out += quad
    out -= np.swapaxes(quad, 3, 4)
    return out


def b_at(sys, pts):
    if sys.b is None:
        raise ValueError("system declares no b coefficients")
    return table_at(sys, sys.b, pts)


def h_ultra_at(sys, pts):
    if sys.h_ultra is None:
        raise ValueError("system declares no ultralocal coefficients")
    return table_at(sys, sys.h_ultra, pts)


def levi_civita_at(sys: SystemDef, pts):
    """Connection of the declared metric, from exact derivative identities."""
    return _geometry(sys, pts, levi_civita=True)[1]


def christoffel_at(sys: SystemDef, pts):
    """Connection coefficients: from ``b`` when declared, else Levi-Civita."""
    return _geometry(sys, pts)[1]


def christoffel_d1_at(sys: SystemDef, pts):
    """``[p, r, n, m, l] = d_r Gamma^n_{ml}`` of the `christoffel_at` connection."""
    return _geometry(sys, pts, derivative=True)[2]


def riemann_at(sys: SystemDef, pts):
    """Curvature ``R^n_{tml}`` of the connection used by `christoffel_at`."""
    _, gamma, gamma_d1 = _geometry(sys, pts, derivative=True)
    return _riemann(gamma, gamma_d1)


def riemann_raised_at(sys: SystemDef, pts):
    """Curvature with the second index raised by the metric."""
    upper, gamma, gamma_d1 = _geometry(sys, pts, derivative=True)
    return _apply(upper[:, None], _riemann(gamma, gamma_d1), 2)


# --- operator tensors -----------------------------------------------------------

def _operator(sys: SystemDef):
    # memoized, so the derivative table of a diagonal operator is built once
    mat = _memo(sys, "operator", sys.operator_matrix)
    if mat is None:
        raise ValueError("system declares no coefficient operator")
    return mat


def operator_at(sys: SystemDef, pts):
    return table_at(sys, _operator(sys), pts)


def operator_d1_at(sys: SystemDef, pts):
    return table_d1_at(sys, _operator(sys), pts)


def nijenhuis_at(sys: SystemDef, pts):
    """Torsion ``N^n_{ml}`` of the coefficient operator."""
    v = operator_at(sys, pts)
    v1 = operator_d1_at(sys, pts)
    t1 = np.einsum("psm,psnl->pnml", v, v1)
    t3 = np.einsum("pns,plsm->pnml", v, v1)
    return t1 - np.swapaxes(t1, 2, 3) + t3 - np.swapaxes(t3, 2, 3)


def hantjes_at(sys: SystemDef, pts):
    """Diagonalizability obstruction built from the operator torsion.

    ``H^n_{ml} = V^n_s V^s_t N^t_{ml} - V^n_s N^s_{tl} V^t_m
    - V^n_s N^s_{mt} V^t_l + N^n_{st} V^s_m V^t_l``.  Coinciding operator
    eigenvalues at any point trigger a `DegenerateHyperbolicityWarning`;
    the tensor is still evaluated.
    """
    pts = _points(sys, pts)
    v = operator_at(sys, pts)
    eigs = np.linalg.eigvals(v)
    gaps = np.min(pairwise_gaps(eigs), axis=1, initial=np.inf)
    bad = gaps < 1e-8 * (1.0 + np.max(np.abs(eigs), axis=1))
    if np.any(bad):
        warnings.warn("coefficient operator has coinciding eigenvalues near "
                      f"{point_at(pts, np.argmax(bad))}",
                      DegenerateHyperbolicityWarning, stacklevel=2)
    nt = nijenhuis_at(sys, pts)
    vt = np.swapaxes(v, 1, 2)[:, None]
    # x[s, m, l] = N^s_{mt} V^t_l; (vt @ nt)[s, m, l] = N^s_{tl} V^t_m
    x = nt @ v[:, None]
    inner = _apply(v, nt, 1)
    inner -= vt @ nt
    inner -= x
    out = _apply(v, inner, 1)
    out += vt @ x
    return out


def pairwise_gaps(values):
    """``|values[:, i] - values[:, j]|`` for every pair ``i < j``.

    Returns shape ``(P, N (N - 1) / 2)`` with the pairs in row-major
    `np.triu_indices` order; NaN entries give NaN gaps.
    """
    i, j = np.triu_indices(values.shape[1], 1)
    return np.abs(values[:, i] - values[:, j])
