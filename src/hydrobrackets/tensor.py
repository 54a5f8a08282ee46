"""Pointwise tensor evaluation for declared systems.

Everything here evaluates exactly at sample points: entries come from the
declared expressions, their first and second derivatives from forward-mode
jets (truncated Taylor arithmetic) over the same compiled tables, and
matrix-level quantities (inverse metric derivatives, connection
coefficients, curvature) are assembled from closed identities.  No
finite differences are used, and no derivative expression is built.

The tensor functions (suffix ``_at``) take a batch of points with shape
``(P, N)`` and return arrays with a leading ``P`` axis; a single point of
shape ``(N,)`` is a batch of one.  `table_at` evaluates an object array of
expressions over a point batch, and `table_jets_at` its values and exact
derivatives to a given order in one pass; other modules use them for their
own tables.  Each table a system owns (a declared field) is compiled once
per system with `expr.compile_table`, so a subexpression its entries share,
such as the conformal factor of a diagonal metric, is evaluated once per
batch.  `table_at` evaluates the compiled form with `expr.evaluate_table`;
`table_jets_at` and the geometry pass run its jets (`expr.jet_table`, the
package's one derivative engine) in the same executor, which gives the
values bitwise as `table_at` does and the derivatives that evaluating
`expr.differentiate` of each entry, their oracle, gives.

Geometry pass: the metric-derived tensors come from one evaluation per
point batch (`_geometry`).  It evaluates the jets of the ``g_upper`` table
once, to first order, or to second order for the curvature of a
Levi-Civita connection, and inverts the values once under the singularity
guard, both over the whole batch, then assembles the connection.
`christoffel_at`, `levi_civita_at` and `riemann_raised_at` are views of
that pass; `christoffel_at` stays first order, as the flat-coordinate
transport calls it on batches of up to ``verify.TRANSPORT_BATCH_POINTS``
Runge-Kutta stage positions.  `riemann_raised_at` assembles the curvature
in blocks of at most ``CURVATURE_BLOCK_ENTRIES // N**4`` points, so its
(P, N, N, N, N) temporaries span one block, not the batch.  For a
Levi-Civita connection, raising the second index cancels the inverse
metric on that side, so the assembly needs ``g_upper``, its inverse, their
jets and the first-kind symbols, and no second derivative of the inverse
(`_levi_civita_curvature`).  The pass keeps only the metric, its inverse
and their jets for the batch; each block builds its first-kind symbols and
connection from its own slices, reads its second derivatives of the
metric, then writes its curvature over them, so the output is the
second-derivative buffer and the pass holds about two outputs at its
peak.  A declared ``b`` is differentiated and goes through `_riemann`
into a fresh output.  Products are contracted
pairwise with ``matmul``, one product per point where the layout allows
(never an einsum of three or more operands), so the curvature costs
O(P N^5) arithmetic and about ten passes over the 5-index arrays of each
block.

Index layout conventions, writing ``n, t`` for upper and ``m, l, s, r`` for
lower indices:

- ``christoffel_at[p, n, m, l]`` is the connection coefficient with upper
  index ``n`` acting on lower pair ``(m, l)``;
- ``riemann_raised_at[p, n, t, m, l]`` is the curvature ``R^n_{tml}`` with
  its second index raised by the metric;
- ``b`` entries follow the declaration order ``b[s][n][l]``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateHyperbolicityWarning, DomainError, SingularMetricError
from .expr import Number, compile_table, evaluate_table, jet_table
# not called here: perfbench/selftest.py checks the tracer wraps tensor.evaluate
from .expr import evaluate  # noqa: F401
from .system import SystemDef

DET_FLOOR = 1e-300
COND_CEILING = 1e12
# at most this many entries (points times N**4) in one block of the curvature
CURVATURE_BLOCK_ENTRIES = 2 ** 16


# --- compiled tables ---------------------------------------------------------

def _memo(sys, key, build):
    if key not in sys._memo:
        sys._memo[key] = build()
    return sys._memo[key]


def _compiled(sys: SystemDef, exprs):
    """The `expr.compile_table` form of ``exprs``, built once per system.

    The memo is keyed by the identity of ``exprs`` and keeps ``exprs``
    alive, so a cached identity is never reused by another array.
    """
    return _memo(sys, ("compiled", id(exprs)),
                 lambda: (exprs, compile_table(exprs)))[1]


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
    is keyed by identity, as for `table_jets_at`: pass an array the caller
    keeps (a system field), and evaluate one-off arrays with
    `expr.evaluate_table`.
    """
    pts = _points(sys, pts)
    return evaluate_table(_compiled(sys, exprs), sys.coords, sys.params, pts)


def _jets(sys, exprs, pts, order):
    # `table_jets_at` on points already checked
    return jet_table(_compiled(sys, exprs), sys.coords, sys.params, pts, order)


def table_jets_at(sys: SystemDef, exprs, pts, order):
    """``[values, d1, ...]`` of ``exprs`` up to ``order`` over a point batch.

    One jet pass over the compiled table: ``d_j`` has shape
    ``(P,) + (N,) * j + exprs.shape`` with the differentiation coordinates
    on axes 1 to j, and the values are bitwise those of `table_at`.  The
    memo is keyed by identity, as for `table_at`.
    """
    return _jets(sys, exprs, _points(sys, pts), order)


# --- pairwise contractions -----------------------------------------------------

def _apply(mat, t, lead):
    """``sum_s mat[..., a, s] t[..., s, *rest]``, one ``matmul``.

    ``lead`` counts the batch axes of ``t`` in front of the contracted
    axis; ``mat`` broadcasts against them.  The result has the index ``a``
    where ``t`` had ``s``.
    """
    rest = t.shape[lead + 1:]
    out = mat @ t.reshape(t.shape[:lead + 1] + (int(np.prod(rest)),))
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
    # d_r(g^{-1}) = -g^{-1} (d_r g) g^{-1}; the right factor is one
    # (N^2, N) @ (N, N) product per point
    p, n = lower.shape[:2]
    out = (lower[:, None] @ upper_d1).reshape(p, n * n, n) @ lower
    return np.negative(out, out=out).reshape(upper_d1.shape)


def _geometry(sys: SystemDef, pts, *, curvature=False, levi_civita=False):
    """One pass over a point batch: ``(g_upper values, connection, curvature)``.

    Evaluates the jets of the ``g_upper`` table once, to the order the
    result needs: values only for a declared connection, first derivatives
    for its curvature or for a Levi-Civita connection, second derivatives
    only for the curvature of a Levi-Civita connection.  It inverts the
    values under the singularity guard; a singular metric is reported
    before a derivative outside its domain, as when the values came alone.
    The connection comes from the declared ``b`` unless ``levi_civita`` is
    set or no ``b`` is declared.  The curvature is ``None`` unless
    ``curvature`` is set; then it is ``(assemble, out, *parts)``, where
    ``out`` and the parts are batch arrays and ``assemble(block of out,
    *blocks)`` writes the raised curvature of a block of points, given the
    same block of each part.  For a Levi-Civita connection the connection
    is then ``None``, as the assembly builds it per block, and ``out`` is
    the second-derivative buffer, which each block reads before it writes.
    """
    if sys.g_upper is None:
        raise ValueError("system declares no metric")
    pts = _points(sys, pts)
    declared = sys.b is not None and not levi_civita
    order = int(curvature) + int(not declared)
    try:
        upper, *upper_d = _jets(sys, sys.g_upper, pts, order)
    except DomainError:
        _guarded_inverse(sys, table_at(sys, sys.g_upper, pts), pts)
        raise
    lower = _guarded_inverse(sys, upper, pts)
    if declared:
        # Gamma^n_{ml} = -g_{ms} b^{sn}_l
        b, *b_d = _jets(sys, sys.b, pts, order)
        gamma = np.swapaxes(_apply(-lower, b, 1), 1, 2)
        if not curvature:
            return upper, gamma, None
        out = np.empty(upper.shape[:1] + upper.shape[1:] * 2)
        return upper, gamma, (_declared_curvature, out, upper, lower,
                              _lower_d1(lower, upper_d[0]), b, b_d[0], gamma)
    if curvature:
        return upper, None, (_levi_civita_curvature, upper_d[1], upper, lower, *upper_d)
    return upper, _levi_civita(upper, lower, upper_d[0])[1], None


def _levi_civita(upper, lower, upper_d1):
    """First-kind symbols ``s[k, m, l] = d_m g_{kl} + d_l g_{km} - d_k g_{ml}``
    and the Levi-Civita connection ``Gamma = g^{..} s / 2``."""
    l1 = _lower_d1(lower, upper_d1)
    s = np.transpose(l1, (0, 2, 1, 3)) + np.transpose(l1, (0, 2, 3, 1))
    s -= l1
    return s, 0.5 * _apply(upper, s, 1)


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


def _declared_curvature(out, upper, lower, l1, b, b_d1, gamma):
    # d_r Gamma^n_{ml} = -d_r g_{ms} b^{sn}_l - g_{ms} d_r b^{sn}_l
    count, n = gamma.shape[:2]
    gamma_d1 = _apply(lower[:, None], b_d1, 2)
    gamma_d1 += _apply(l1, b[:, None], 2)
    np.negative(gamma_d1, out=gamma_d1)
    riemann = _riemann(gamma, np.swapaxes(gamma_d1, 2, 3))
    np.matmul(upper[:, None], riemann.reshape(count, n, n, n * n),
              out=out.reshape(count, n, n, n * n))


def _levi_civita_curvature(out, upper, lower, upper_d1, upper_d2):
    # Raising n and a in R_{ktml} = (F_{mtkl} - F_{ltkm}) / 2, where
    # F_{mtkl} = d_m d_t g_{kl} - d_m d_k g_{tl} - s_{xmk} Gamma^x_{tl}, gives
    # R^{na}_{ml} = A_{ml} A_{na} T with A_{ij} subtracting the copy with i
    # and j swapped and, writing D_m = d_m g^{..}, X_m = D_m g_{..},
    # W[a, k, l] = g^{at} X_t[k, l] and Z[x, a, l] = g^{at} Gamma^x_{tl},
    #   2T = g^{at} (X_m X_t + X_t X_m - (d_m d_t g^{..}) g_{..})[n, l]
    #        - (s_{xmk} g^{kn}) Z[x, a, l] / 2.
    # With s_{xmk} g^{kn} = -2 X_m[n, x] - 2 Gamma^n_{mx} and, by metric
    # compatibility, W[a, k, l] + Z[k, a, l] = -g^{at} g^{ki} s_{lit} / 2,
    #   2T = W[a, n, k] X_m[k, l] - D_m[n, i] g^{at} s_{lit} / 2
    #        + Gamma^n_{mx} Z[x, a, l] - g^{at} (d_t d_m g^{..} g_{..})[n, l].
    # The last three terms pair (m, n) against (l, a), so their products
    # come out as ``crossed[p, m, n, l, a]`` and are transposed once; the
    # first pairs (a, n) against (m, l), which is the layout of ``out`` with
    # n and a swapped, so A_{na} takes it with the sign flipped.  ``out`` may
    # be ``upper_d2`` itself: it is read in full before ``out`` is written.
    count, n = upper.shape[:2]
    nn = n * n
    second = upper_d2.reshape(count, n ** 3, n) @ lower
    crossed = (np.swapaxes(second.reshape(count, n, n ** 3), 1, 2)
               @ (-0.5 * upper)).reshape(count, nn, nn)
    del second
    s, gamma = _levi_civita(upper, lower, upper_d1)
    # s and Gamma are symmetric in their last two indices, so contracting
    # the last one with g^{..} gives [l, i, a] and Z as [x, l, a]
    s_up = (s.reshape(count, nn, n) @ (-0.25 * upper)).reshape(count, n, n, n)
    crossed += upper_d1.reshape(count, nn, n) @ np.swapaxes(s_up, 1, 2).reshape(count, n, nn)
    z = gamma.reshape(count, nn, n) @ (0.5 * upper)
    crossed += np.swapaxes(gamma, 1, 2).reshape(count, nn, n) @ z.reshape(count, n, nn)
    np.copyto(out, crossed.reshape((count,) + (n,) * 4).transpose(0, 2, 4, 1, 3))
    del crossed
    x = upper_d1.reshape(count, nn, n) @ lower
    w = (0.5 * upper) @ x.reshape(count, n, nn)
    xk = np.transpose(x.reshape(count, n, n, n), (0, 2, 1, 3)).reshape(count, n, nn)
    out -= (w.reshape(count, nn, n) @ xk).reshape(out.shape)
    u = out - np.swapaxes(out, 1, 2)
    np.subtract(u, np.swapaxes(u, 3, 4), out=out)


def b_at(sys, pts):
    if sys.b is None:
        raise ValueError("system declares no b coefficients")
    return table_at(sys, sys.b, pts)


def levi_civita_at(sys: SystemDef, pts):
    """Connection of the declared metric, from exact derivative identities."""
    return _geometry(sys, pts, levi_civita=True)[1]


def christoffel_at(sys: SystemDef, pts):
    """Connection coefficients: from ``b`` when declared, else Levi-Civita."""
    return _geometry(sys, pts)[1]


def riemann_raised_at(sys: SystemDef, pts):
    """Curvature with the second index raised by the metric.

    Assembled in blocks of at most ``CURVATURE_BLOCK_ENTRIES // N**4``
    points, so its 5-index temporaries never span the whole batch; for a
    Levi-Civita connection each block is written over the metric's second
    derivatives at its points, so the output is that buffer.
    """
    _, _, (assemble, out, *parts) = _geometry(sys, pts, curvature=True)
    step = max(1, CURVATURE_BLOCK_ENTRIES // out.shape[1] ** 4)
    for start in range(0, len(out), step):
        block = slice(start, start + step)
        assemble(out[block], *(part[block] for part in parts))
    return out


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
    return table_jets_at(sys, _operator(sys), pts, 1)[1]


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
    `np.triu_indices` order; NaN entries and equal infinities give NaN gaps.
    """
    i, j = np.triu_indices(values.shape[1], 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(values[:, i] - values[:, j])
