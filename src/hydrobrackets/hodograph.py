"""Integrability pipeline for diagonal hyperbolic systems.

Three stages: the compatibility check on the characteristic velocities
(`semi_hamiltonian_check`), construction of a commuting flow w(R), either
user-supplied in closed form or integrated for two-component systems by a
Goursat march swept by anti-diagonals (`integrate_commuting_flow`), and the
algebraic solve w^nu(R) = t v^nu(R) + x per spacetime gridpoint, one
Newton batch per time row, row 0 from the seed and every later row from
the row before, with a march in x as the fallback (`hodograph_solve`), and
an independent finite-difference residual audit (`verify_solution`).

Derivatives are numbers from the jets of `expr.jet_table`: the coupling
a[nu, mu] = d_mu v^nu / (v^mu - v^nu) (`_coupling`) and its derivatives, via
`tensor.table_jets_at`, and closed-form flow Jacobians.  Grid-sampled flows
interpolate with bicubic Hermite patches (`hermite.HermiteGrid`), whose
interpolation error is the dominant error term of the two-component pipeline.
The integration keeps the flow and little more: the grid and the velocity
jets are released before the march and the couplings before the interpolation
table is built, and its whole-grid passes run in `hermite.row_blocks`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import (
    DomainError, HyperbolicityViolationError, NonConvergenceError,
    RegionTooSmallError, SeedOutOfBoxError,
)
from .expr import as_expr, compile_table, evaluate_table, jet_table
from .hermite import HermiteGrid, row_blocks
from .system import Box, SystemDef, sample_box
from .verify import (
    SAMPLES, TOL_ZERO, JsonReport, fold_worst, point_list, write_csv,
)

TOL_GOURSAT = 1e-5
GAP_TOL = 1e-8
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


def _require_diagonal(sys: SystemDef):
    if sys.v_diag is None:
        raise ValueError("system declares no diagonal velocities")


def speeds_at(sys: SystemDef, pts):
    """Characteristic velocities v^nu at a batch of points, shape (P, N)."""
    _require_diagonal(sys)
    return tz.table_at(sys, sys.v_diag, pts)


def speeds_d1_at(sys: SystemDef, pts):
    """d v^nu / d R^mu, shape (P, mu, nu)."""
    _require_diagonal(sys)
    return tz.table_jets_at(sys, sys.v_diag, pts, 1)[1]


def _check_hyperbolicity(v, pts, gap_tol):
    """The smallest pairwise gap of the velocities ``v`` (P, N) at ``pts``;
    raises `HyperbolicityViolationError` where it is not above ``gap_tol``."""
    # smallest pairwise velocity separation per point; NaN gaps propagate
    gaps = np.min(tz.pairwise_gaps(v), axis=1, initial=math.inf)
    # argmin returns the first NaN when there is one
    worst = int(np.argmin(gaps))
    if not gaps[worst] > gap_tol:
        where = tz.point_at(pts, worst)
        raise HyperbolicityViolationError(
            f"characteristic velocities collide (gap {gaps[worst]:.3e} "
            f"<= {gap_tol:.1e}) at {where}", point=where)
    return float(gaps[worst])


def _hyperbolic_jets(sys, pts, order, gap_tol):
    """The smallest velocity gap at ``pts`` and the jets of ``v_diag`` there
    up to ``order``; the gap check reads the jets' values.  Where a
    derivative leaves its domain, the values alone are checked first, so a
    collision is reported before it, as `tensor._geometry` reports a
    singular metric first."""
    try:
        jets = tz.table_jets_at(sys, sys.v_diag, pts, order)
    except DomainError:
        _check_hyperbolicity(speeds_at(sys, pts), pts, gap_tol)
        raise
    return _check_hyperbolicity(jets[0], pts, gap_tol), jets


def _coupling(v, dv, nu, mu):
    """a[nu, mu] = d_mu v^nu / (v^mu - v^nu), shape (P, len(nu)), at the
    pairs ``zip(nu, mu)`` from the velocity jets ``v`` (P, N) and ``dv``
    (P, mu, nu), one pair at a time into one output whose columns are
    contiguous; inf and nan come without numpy warnings."""
    out = np.empty((len(nu), len(v))).T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (n, m) in enumerate(zip(nu, mu)):
            np.divide(dv[:, m, n], v[:, m] - v[:, n], out=out[:, k])
    return out


@dataclass
class SemiHamiltonianReport(JsonReport):
    """Compatibility-condition residuals of a diagonal system."""

    system: str
    residual: float
    tol: float
    passed: bool
    witness: tuple | None
    n_triples: int
    hyperbolicity_gap: float

    def to_dict(self):
        return {
            "system": self.system,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
            "witness": point_list(self.witness),
            "n_triples": int(self.n_triples),
            "hyperbolicity_gap": float(self.hyperbolicity_gap),
        }

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        note = " (vacuous: no index triples)" if self.n_triples == 0 else ""
        return (f"semi-hamiltonian [{status}]: residual {self.residual:.3e} "
                f"(tol {self.tol:.1e}) over {self.n_triples} triples{note}")


def semi_hamiltonian_check(sys: SystemDef, *, tol_zero: float = TOL_ZERO,
                           gap_tol: float = GAP_TOL) -> SemiHamiltonianReport:
    """Check the commuting-flow compatibility conditions of v_diag.

    For every distinct index triple (nu, mu, lam), mu < lam, the quantity
    d_lam(d_mu v^nu / (v^mu - v^nu)) - d_mu(d_lam v^nu / (v^lam - v^nu))
    is evaluated over the sample sweep from the second-order jets of v.
    Systems with fewer than three components pass vacuously.

    Raises
    ------
    HyperbolicityViolationError
        If characteristic velocities collide somewhere in the box.
    """
    _require_diagonal(sys)
    pts = sample_box(sys.box, SAMPLES)
    gap, (v, dv, ddv) = _hyperbolic_jets(sys, pts, 2, gap_tol)
    nu, mu, lam = np.array([t for t in itertools.permutations(range(sys.N), 3)
                            if t[1] < t[2]], dtype=int).reshape(-1, 3).T

    def d_coupling(nu, mu, lam):    # d_lam a[nu, mu] for a = u / w
        u, w = dv[:, mu, nu], v[:, mu] - v[:, nu]
        du, dw = ddv[:, lam, mu, nu], dv[:, lam, mu] - dv[:, lam, nu]
        return (du * w - u * dw) / (w * w)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = d_coupling(nu, mu, lam) - d_coupling(nu, lam, mu)
    residual, witness = fold_worst(np.moveaxis(vals, 1, 0), pts, (0.0, None))
    return SemiHamiltonianReport(sys.name, residual, tol_zero,
                                 residual < tol_zero, witness, len(nu), gap)


# --- commuting flows ---------------------------------------------------------

class CommutingFlow:
    """A candidate commuting flow w(R), closed-form or grid-sampled.

    ``residual`` is the largest violation of the defining relation
    d_mu w^nu = a_{nu mu} (w^mu - w^nu) found when the flow was built or
    verified, and ``witness`` the sample point where a closed-form flow
    violates it most (None otherwise); ``provenance`` records whether the
    flow was integrated here or supplied by the caller.
    """

    def __init__(self, coords, *, exprs=None, axes=None, values=None,
                 params=None, residual=None, tol=None, provenance="user-supplied"):
        self.coords = tuple(coords)
        self.params = dict(params or {})
        self.exprs = exprs
        self.axes = axes
        self.values = values
        self.residual = residual
        self.witness = None
        self.tol = tol
        self.provenance = provenance
        if (exprs is None) == (values is None):
            raise ValueError("flow needs either closed-form exprs or sampled values")
        if exprs is not None:
            self.kind = "closed-form"
            self._w = compile_table(np.array(exprs, dtype=object))
        else:
            self.kind = "sampled"
            if len(self.coords) != 2:
                raise ValueError("sampled flows are two-component")
            self._hermite = HermiteGrid(axes, values)

    @property
    def box(self) -> Box:
        if self.kind != "sampled":
            raise ValueError("closed-form flows carry no grid box")
        return Box((float(self.axes[0][0]), float(self.axes[1][0])),
                   (float(self.axes[0][-1]), float(self.axes[1][-1])))

    def w_at(self, point):
        """w components at one point ``(N,)`` or a batch ``(P, N)``.

        Returns shape ``(N,)`` or ``(P, N)``.
        """
        if self.kind == "closed-form":
            return evaluate_table(self._w, self.coords, self.params, point)
        return self._hermite(point, (0, 0))[..., 0]

    def dw_at(self, point):
        """Jacobian d w^nu / d R^mu at one point or a batch.

        Returns shape ``(N, N)`` or ``(P, N, N)`` with nu on the first
        matrix axis.
        """
        if self.kind == "closed-form":
            d1 = jet_table(self._w, self.coords, self.params, point, 1)[1]
            return np.swapaxes(d1, -1, -2)
        return self._hermite(point, (1, 0), (0, 1))


def closed_form_flow(sys: SystemDef, exprs, *,
                     gap_tol: float = GAP_TOL) -> CommutingFlow:
    """Wrap closed-form w components and measure their defining residual,
    with the sample point where it is largest as the flow's witness."""
    _require_diagonal(sys)
    symbols = set(sys.coords) | set(sys.params)
    parsed = tuple(as_expr(e, symbols, "flow") for e in exprs)
    if len(parsed) != sys.N:
        raise ValueError(f"need {sys.N} flow components, got {len(parsed)}")
    pts = sample_box(sys.box, SAMPLES)
    _, jets = _hyperbolic_jets(sys, pts, 1, gap_tol)
    flow = CommutingFlow(sys.coords, exprs=parsed, params=sys.params,
                         provenance="user-supplied")
    nu, mu = np.nonzero(~np.eye(sys.N, dtype=bool))
    a = _coupling(*jets, nu, mu)
    w, dw = flow.w_at(pts), flow.dw_at(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = dw[:, nu, mu] - a * (w[:, mu] - w[:, nu])
    flow.residual, flow.witness = fold_worst(np.moveaxis(vals, 1, 0), pts, (0.0, None))
    return flow


def _march_boundary(wline, other, a_line, coord, start, direction):
    """Implicit trapezoidal march of one flow component along a grid line.

    ``wline`` is updated in place from index ``start`` moving in
    ``direction``; ``other`` holds the already-known partner component on
    the same line and ``a_line`` the coupling coefficient samples.
    """
    n = len(wline)
    rng = range(start + direction, n if direction > 0 else -1, direction)
    for i in rng:
        prev = i - direction
        h = coord[i] - coord[prev]
        alpha_prev = 0.5 * h * a_line[prev]
        alpha_cur = 0.5 * h * a_line[i]
        denom = 1.0 + alpha_cur
        if abs(denom) < 1e-12:
            raise NonConvergenceError(
                f"singular boundary step at index {i} (1 + a h/2 = {denom:.3e})")
        wline[i] = (wline[prev] + alpha_prev * (other[prev] - wline[prev])
                    + alpha_cur * other[i]) / denom


def integrate_commuting_flow(sys: SystemDef, w1, w2, *, resolution: int = 256,
                             basepoint=None, tol_goursat: float = TOL_GOURSAT,
                             gap_tol: float = GAP_TOL) -> CommutingFlow:
    """Integrate a two-component commuting flow from axis boundary data.

    ``w1`` prescribes w^1 on the line R^2 = basepoint[1] and ``w2``
    prescribes w^2 on the line R^1 = basepoint[0]; both are expressions in
    the coordinates.  The coupled equations d_2 w^1 = a_{12}(w^2 - w^1),
    d_1 w^2 = a_{21}(w^1 - w^2) are marched with the implicit trapezoidal
    rule (one 2x2 linear solve per cell) on a grid of the system's box,
    outward from the basepoint, which must lie on the grid (default: the
    box corner).  A cell needs only its two inner neighbours, so each
    quadrant is swept by anti-diagonals, one vectorised step per diagonal.

    The returned flow carries the defining-relation residual measured by
    interior central differences; second-order convergence in the grid step
    makes the default tolerance attainable at resolution 256.

    Raises
    ------
    HyperbolicityViolationError, NonConvergenceError
    """
    _require_diagonal(sys)
    if sys.N != 2:
        raise ValueError("flow integration is implemented for two components")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    box = sys.box
    r1 = np.linspace(box.lo[0], box.hi[0], resolution + 1)
    r2 = np.linspace(box.lo[1], box.hi[1], resolution + 1)
    if basepoint is None:
        basepoint = (float(r1[0]), float(r2[0]))
    i0 = int(np.argmin(np.abs(r1 - basepoint[0])))
    j0 = int(np.argmin(np.abs(r2 - basepoint[1])))
    if abs(r1[i0] - basepoint[0]) > 1e-12 or abs(r2[j0] - basepoint[1]) > 1e-12:
        raise ValueError(f"basepoint {tuple(basepoint)} is not a gridpoint")

    n1, n2 = len(r1), len(r2)
    # the grid points in raster order, one contiguous column per coordinate
    flat = np.empty((n1 * n2, 2), order="F")
    flat[:, 0] = np.repeat(r1, n2)
    flat[:, 1] = np.tile(r2, n1)
    _, jets = _hyperbolic_jets(sys, flat, 1, gap_tol)
    a12, a21 = _coupling(*jets, [0, 1], [1, 0]).T.reshape(2, n1, n2)
    del jets

    symbols = set(sys.coords) | set(sys.params)
    w1e, w2e = (np.array(as_expr(e, symbols, "boundary"), dtype=object)
                for e in (w1, w2))
    w = np.empty((2, n1, n2))
    w.fill(np.nan)
    # boundary data on the axis lines R^2 = r2[j0] and R^1 = r1[i0]
    w[0, :, j0] = evaluate_table(w1e, sys.coords, sys.params, flat[j0::n2])
    w[1, i0, :] = evaluate_table(w2e, sys.coords, sys.params,
                                 flat[i0 * n2:(i0 + 1) * n2])
    # the march needs the couplings alone
    del flat

    # complete the boundary cross: the partner component on each axis line
    for direction in (1, -1):
        _march_boundary(w[1, :, j0], w[0, :, j0], a21[:, j0], r1, i0, direction)
        _march_boundary(w[0, i0, :], w[1, i0, :], a12[i0, :], r2, j0, direction)

    quadrants = [(sx, sy, np.arange(i0 + sx, n1 if sx > 0 else -1, sx),
                  np.arange(j0 + sy, n2 if sy > 0 else -1, sy))
                 for sx in (1, -1) for sy in (1, -1)]
    # the cell solve is singular where 1 + beta + gamma vanishes, which
    # depends on a12/a21 alone: check first, in column order per quadrant,
    # in blocks of columns
    for sx, sy, ii, jj in quadrants:
        h1 = (r1[ii] - r1[ii - sx])[None, :]
        for lo, hi in row_blocks(0, jj.size, ii.size):
            js = jj[lo:hi]
            h2 = (r2[js] - r2[js - sy])[:, None]
            cells = np.ix_(js, ii)
            # [j, i], so the first bad cell in C order is the first in column order
            det = 1.0 + 0.5 * h2 * a12.T[cells] + 0.5 * h1 * a21.T[cells]
            bad = np.argwhere(np.abs(det) < 1e-12)
            if bad.size:
                j, i = bad[0]
                raise NonConvergenceError(
                    f"singular cell solve at grid index ({ii[i]}, {js[j]})")
    # a cell needs its predecessors in i and in j, so the cells at one
    # step distance a + b from the boundary cross are independent
    for sx, sy, ii, jj in quadrants:
        for d in range(2, ii.size + jj.size + 1):
            a = np.arange(max(1, d - jj.size), min(ii.size, d - 1) + 1)
            i = i0 + sx * a
            j = j0 + sy * (d - a)
            pi = i - sx
            pj = j - sy
            h1 = r1[i] - r1[pi]
            h2 = r2[j] - r2[pj]
            beta = 0.5 * h2 * a12[i, j]
            gamma = 0.5 * h1 * a21[i, j]
            rhs0 = (w[0, i, pj] + 0.5 * h2 * a12[i, pj]
                    * (w[1, i, pj] - w[0, i, pj]))
            rhs1 = (w[1, pi, j] + 0.5 * h1 * a21[pi, j]
                    * (w[0, pi, j] - w[1, pi, j]))
            det = 1.0 + beta + gamma
            w[0, i, j] = ((1.0 + gamma) * rhs0 + beta * rhs1) / det
            w[1, i, j] = (gamma * rhs0 + (1.0 + beta) * rhs1) / det

    # defining-relation residual by interior central differences, each
    # component over blocks of grid rows; a NaN propagates as over the grid
    d1, d2 = (r1[2:] - r1[:-2])[:, None], (r2[2:] - r2[:-2])[None, :]
    res0 = np.max([np.max(np.abs(
        (w[0, lo:hi, 2:] - w[0, lo:hi, :-2]) / d2
        - a12[lo:hi, 1:-1] * (w[1, lo:hi, 1:-1] - w[0, lo:hi, 1:-1])))
        for lo, hi in row_blocks(0, n1, n2)])
    res1 = np.max([np.max(np.abs(
        (w[1, lo + 1:hi + 1] - w[1, lo - 1:hi - 1]) / d1[lo - 1:hi - 1]
        - a21[lo:hi] * (w[0, lo:hi] - w[1, lo:hi])))
        for lo, hi in row_blocks(1, n1 - 1, n2)])
    residual = float(max(res0, res1))
    # the interpolation table is built without the couplings alive
    del a12, a21
    return CommutingFlow(sys.coords, axes=(r1, r2), values=w,
                         params=sys.params, residual=residual,
                         tol=tol_goursat, provenance="integrated")


# --- hodograph solve ----------------------------------------------------------

@dataclass
class HodographSolution:
    """R(x, t) from the algebraic hodograph system on a spacetime grid.

    ``residual`` is the Newton residual max|w - t v - x| at exit (NaN
    where the start lay outside the expressions' domain); ``converged``
    flags points where it met the tolerance with R inside the flow's
    coordinate box.
    """

    system: str
    x: np.ndarray
    t: np.ndarray
    R: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    newton_tol: float

    @property
    def n_converged(self):
        return int(np.sum(self.converged))


def _rows(fn, count, shape, error=DomainError):
    """``fn(slice(None))`` for a batch of ``count`` points, and the mask of
    the points it succeeded at.

    When the batch raises ``error``, ``fn`` is called again one point at a
    time, so only the points that raise it themselves come back masked out,
    their rows NaN.
    """
    try:
        return fn(slice(None)), np.ones(count, dtype=bool)
    except error:
        out = np.full((count,) + shape, np.nan)
        good = np.zeros(count, dtype=bool)
        for p in range(count):
            try:
                out[p] = fn(slice(p, p + 1))[0]
                good[p] = True
            except error:
                pass
        return out, good


def _newton_batch(x, t, starts, sys, flow, box, tol):
    """Damped Newton for w(R) - t v(R) - x = 0 at a batch of points.

    Point p starts from ``starts[p]`` and runs its own iteration: a full
    step, then up to 20 halvings until the residual max-norm drops or meets
    ``tol``; it stops on convergence, a singular Jacobian, a rejected line
    search or after ``NEWTON_MAX_ITER`` iterations.  The live points share
    one stacked evaluation and one stacked solve per iteration, and a trial
    that leaves the expressions' domain counts as rejected.  Returns
    ``(R, residual, converged)``; a point whose start is outside the domain
    keeps its start, with residual NaN.
    """
    r = np.array(starts, dtype=float)
    count, n = r.shape

    def resid(q, xq):
        return flow.w_at(q) - t * speeds_at(sys, q) - xq[:, None]

    def jacobian(q):
        return flow.dw_at(q) - t * np.swapaxes(speeds_d1_at(sys, q), 1, 2)

    f, live = _rows(lambda s: resid(r[s], x[s]), count, (n,))
    fnorm = np.max(np.abs(f), axis=1)
    for _ in range(NEWTON_MAX_ITER):
        live &= ~(fnorm < tol)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        q, fq = r[idx], f[idx]
        jac, evaluated = _rows(lambda s: jacobian(q[s]), idx.size, (n, n))
        step, solved = _rows(
            lambda s: np.linalg.solve(jac[s], fq[s, :, None])[..., 0],
            idx.size, (n,), np.linalg.LinAlgError)
        keep = evaluated & solved
        live[idx[~keep]] = False
        idx, q, step = idx[keep], q[keep], step[keep]
        xq = x[idx]
        scale = 1.0
        for _ in range(21):
            if not idx.size:
                break
            rn = q - scale * step
            fn = _rows(lambda s: resid(rn[s], xq[s]), idx.size, (n,))[0]
            fn_norm = np.max(np.abs(fn), axis=1)
            accepted = (fn_norm < fnorm[idx]) | (fn_norm < tol)
            took = idx[accepted]
            r[took], f[took], fnorm[took] = rn[accepted], fn[accepted], fn_norm[accepted]
            pending = ~accepted
            idx, q, step, xq = idx[pending], q[pending], step[pending], xq[pending]
            scale *= 0.5
        live[idx] = False
    return r, fnorm, (fnorm < tol) & box.contains(r, pad=1e-9)


def spacetime_window(sys: SystemDef, flow: CommutingFlow, seed):
    """A solve window ``(x_window, t_window)`` around the image of ``seed``.

    The window is centered on the spacetime point (x*, t*) where the seed
    solves the first two equations w^nu(R) = t v^nu(R) + x, and sized from
    the inverse Jacobian so the solution branch stays well inside the
    coordinate box.  With more than two components the seed must solve the
    other equations at (x*, t*) too, to within ``TOL_ZERO``.

    Raises
    ------
    ValueError
        For single-component systems, which need an explicit window, and
        where the seed fixes no window: equal first two velocities, a later
        equation that misses at (x*, t*), or a singular Jacobian dw - t* dv
        at the seed.
    """
    if sys.N < 2:
        raise ValueError("hodograph section needs explicit x_window/t_window "
                         "for single-component systems")
    seed = np.asarray(seed, dtype=float)
    where = tuple(float(c) for c in seed)
    w = flow.w_at(seed)
    v = speeds_at(sys, seed[None, :])[0]
    if v[0] - v[1] == 0.0:
        raise ValueError(f"cannot place a solve window at seed {where}: v1 = v2 "
                         "there; give x_window/t_window in the hodograph section")
    tstar = (w[0] - w[1]) / (v[0] - v[1])
    xstar = w[0] - tstar * v[0]
    miss = np.abs(w[2:] - tstar * v[2:] - xstar)
    if miss.size and not np.max(miss) <= TOL_ZERO:
        k = int(np.argmax(miss))    # the first NaN, if there is one
        raise ValueError(f"cannot place a solve window at seed {where}: equation "
                         f"{k + 3} misses by {miss[k]:.3e} at the (x*, t*) = "
                         f"({float(xstar):.6g}, {float(tstar):.6g}) of equations "
                         "1 and 2; give x_window/t_window in the hodograph section")
    jac = flow.dw_at(seed) - tstar * speeds_d1_at(sys, seed[None, :])[0].T
    try:
        dr_dx = np.linalg.solve(jac, np.ones(sys.N))
        dr_dt = np.linalg.solve(jac, v)
    except np.linalg.LinAlgError:
        raise ValueError(f"cannot size a solve window at seed {where}: the "
                         f"Jacobian dw - t*dv is singular there (t* = "
                         f"{float(tstar):.6g}); give x_window/t_window in the "
                         "hodograph section") from None
    half = 0.5 * (np.asarray(sys.box.hi) - np.asarray(sys.box.lo))
    dx = float(np.min(0.3 * half / np.abs(dr_dx)))
    dt = float(np.min(0.3 * half / np.abs(dr_dt)))
    return (xstar - dx, xstar + dx), (tstar - dt, tstar + dt)


def hodograph_solve(sys: SystemDef, flow: CommutingFlow, *, x_window, t_window,
                    nx: int = 256, nt: int = 33, seed,
                    newton_tol: float = NEWTON_TOL) -> HodographSolution:
    """Solve w^nu(R) = t v^nu(R) + x on a spacetime grid by damped Newton.

    Each point runs its own damped Newton, with at most ``NEWTON_MAX_ITER``
    iterations.  Each row is solved as one batch: in row 0 every point
    starts from the seed, in row k > 0 the points whose row k-1 neighbour
    converged start from it.  The fallback is a march in x, warm started
    from the last converged point in raster order (its left neighbour when
    that converged, the seed before any did): it solves the points of row
    k > 0 that no batch started, and re-solves the row 0 points that the
    seed start left unconverged once that start is no longer the seed.  R
    must stay in the box of a sampled flow, else in the system's box.
    Diverged points are flagged, not fatal: characteristics may focus
    inside the window, and a point whose Newton trials leave the
    expressions' domain (`DomainError`) is flagged the same way.  Where
    the box holds more than one root, a row 0 point takes the one its
    Newton reaches from the seed.

    Raises
    ------
    SeedOutOfBoxError
        If the seed R value lies outside the flow's coordinate box.
    ValueError
        If a window's two ends are equal (reversed windows are fine).
    """
    _require_diagonal(sys)
    if len(flow.coords) != sys.N:
        raise ValueError("flow and system component counts differ")
    box = flow.box if flow.kind == "sampled" else sys.box
    seed = tuple(float(v) for v in seed)
    if len(seed) != sys.N:
        raise ValueError(f"seed must have {sys.N} components")
    if not box.contains(seed):
        raise SeedOutOfBoxError(f"seed {seed} outside coordinate box "
                                f"{box.lo}..{box.hi}")
    for name, window in (("x_window", x_window), ("t_window", t_window)):
        if window[0] == window[1]:
            raise ValueError(f"{name} {tuple(window)} has equal ends")

    xs = np.linspace(x_window[0], x_window[1], nx)
    ts = np.linspace(t_window[0], t_window[1], nt)
    shape = (nt, nx)
    rr = np.empty(shape + (sys.N,))
    res = np.empty(shape)
    conv = np.zeros(shape, dtype=bool)
    seed = np.array(seed)
    # the last converged point in raster order; the seed before any did
    last_good = seed
    for k, t in enumerate(ts):
        # row 0 starts every point from the seed, row k > 0 the points whose
        # row k-1 neighbour converged, from that neighbour
        if k == 0:
            batched = np.ones(nx, dtype=bool)
            starts = np.broadcast_to(seed, (nx, sys.N))
        else:
            batched = conv[k - 1]
            starts = rr[k - 1, batched]
        idx = np.flatnonzero(batched)
        if idx.size:
            rr[k, idx], res[k, idx], conv[k, idx] = _newton_batch(
                xs[idx], t, starts, sys, flow, box, newton_tol)
        # the fallback: points the batch left out, and the row 0 points it
        # left unconverged once their x-march start is no longer the seed
        # they already failed from
        march = ~batched if k > 0 else ~conv[0]
        for i in range(nx):
            if march[i] and (k > 0 or last_good is not seed):
                one = slice(i, i + 1)
                rr[k, one], res[k, one], conv[k, one] = _newton_batch(
                    xs[one], t, last_good[None, :], sys, flow, box, newton_tol)
            if conv[k, i]:
                last_good = rr[k, i]
    return HodographSolution(sys.name, xs, ts, rr, res, conv, newton_tol)


@dataclass
class SolutionResidual:
    """Finite-difference audit of a hodograph solution."""

    max_residual: float
    mean_residual: float
    n_points: int
    field: np.ndarray


def verify_solution(sol: HodographSolution, sys: SystemDef) -> SolutionResidual:
    """Max and mean of |R^nu_t - v^nu(R) R^nu_x| over the converged interior.

    Derivatives are 4th-order central differences, so a point is used only
    when its full 5-point stencils in both directions are converged.

    Raises
    ------
    RegionTooSmallError
        If no gridpoint has complete converged stencils.
    """
    _require_diagonal(sys)
    nt, nx = sol.converged.shape
    if nt < 5 or nx < 5:
        raise RegionTooSmallError(
            f"grid {nt} x {nx} cannot hold a 5-point stencil")
    c = sol.converged
    valid = c[2:-2, 2:-2].copy()
    for off in (-2, -1, 1, 2):
        valid &= c[2 + off:nt - 2 + off, 2:-2]
        valid &= c[2:-2, 2 + off:nx - 2 + off]
    if not np.any(valid):
        raise RegionTooSmallError("no converged 5-point stencils in the solution")

    ht = sol.t[1] - sol.t[0]
    hx = sol.x[1] - sol.x[0]
    r = sol.R
    r_t = (-r[4:, 2:-2] + 8 * r[3:-1, 2:-2] - 8 * r[1:-3, 2:-2]
           + r[:-4, 2:-2]) / (12 * ht)
    r_x = (-r[2:-2, 4:] + 8 * r[2:-2, 3:-1] - 8 * r[2:-2, 1:-3]
           + r[2:-2, :-4]) / (12 * hx)
    inner = r[2:-2, 2:-2].reshape(-1, sys.N)
    v = speeds_at(sys, inner).reshape(r_t.shape)
    per_point = np.max(np.abs(r_t - v * r_x), axis=-1)

    field = np.full((nt, nx), np.nan)
    field[2:-2, 2:-2][valid] = per_point[valid]
    picked = per_point[valid]
    return SolutionResidual(float(np.max(picked)), float(np.mean(picked)),
                            int(picked.size), field)


def save_solution_csv(path, sol: HodographSolution):
    """Write a solution as CSV with columns x, t, R1..RN, residual, converged."""
    n = sol.R.shape[-1]
    header = "x,t," + ",".join(f"R{k + 1}" for k in range(n)) + ",residual,converged"
    tt, xx = np.meshgrid(sol.t, sol.x, indexing="ij")
    cols = [xx.ravel(), tt.ravel()]
    cols.extend(sol.R[..., k].ravel() for k in range(n))
    cols.append(sol.residual.ravel())
    cols.append(sol.converged.ravel().astype(float))
    write_csv(path, header, cols)
