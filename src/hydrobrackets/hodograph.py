"""Integrability pipeline for diagonal hyperbolic systems.

Three stages: the compatibility check on the characteristic velocities
(`semi_hamiltonian_check`), construction of a commuting flow w(R), either
user-supplied in closed form or integrated for two-component systems by
Goursat marching (`integrate_commuting_flow`), and the algebraic solve
w^nu(R) = t v^nu(R) + x per spacetime gridpoint (`hodograph_solve`) with an
independent finite-difference residual audit (`verify_solution`).

Closed-form flows differentiate exactly; grid-sampled flows interpolate
with bicubic splines, whose interpolation error is the dominant error term
of the two-component pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.interpolate

from . import tensor as tz
from .errors import (
    HyperbolicityViolationError, NonConvergenceError, RegionTooSmallError,
    SeedOutOfBoxError,
)
from .expr import Expr, differentiate, evaluate, free_names, parse
from .system import Box, SystemDef, sample_box
from .verify import _argmax_abs

TOL_ZERO = 1e-9
TOL_GOURSAT = 1e-5
GAP_TOL = 1e-8
NEWTON_TOL = 1e-12


def _require_diagonal(sys: SystemDef):
    if sys.v_diag is None:
        raise ValueError("system declares no diagonal velocities")


def speeds_at(sys: SystemDef, pts):
    """Characteristic velocities v^nu at a batch of points, shape (P, N)."""
    _require_diagonal(sys)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return tz._eval_table(sys.v_diag, tz._env(sys, pts), len(pts))


def speeds_d1_at(sys: SystemDef, pts):
    """d v^nu / d R^mu, shape (P, mu, nu)."""
    _require_diagonal(sys)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    table = tz._d1_table(sys, "v_diag", sys.v_diag)
    return tz._eval_table(table, tz._env(sys, pts), len(pts))


def _min_gap(speeds):
    """Smallest pairwise velocity separation per point, shape (P,)."""
    n = speeds.shape[1]
    if n < 2:
        return np.full(len(speeds), math.inf)
    gaps = np.full(len(speeds), math.inf)
    for i in range(n):
        for j in range(i + 1, n):
            gaps = np.minimum(gaps, np.abs(speeds[:, i] - speeds[:, j]))
    return gaps


def _check_hyperbolicity(sys, pts, gap_tol):
    gaps = _min_gap(speeds_at(sys, pts))
    # argmin returns the first NaN when there is one
    worst = int(np.argmin(gaps))
    if not gaps[worst] > gap_tol:
        raise HyperbolicityViolationError(
            f"characteristic velocities collide (gap {gaps[worst]:.3e} "
            f"<= {gap_tol:.1e})", point=tuple(float(v) for v in pts[worst]))
    return float(gaps[worst])


def _worse(current, candidate):
    """The worse of two (residual, witness) pairs.

    A NaN residual is worse than any number; ties keep ``current``.
    """
    if math.isnan(current[0]):
        return current
    if math.isnan(candidate[0]) or candidate[0] > current[0]:
        return candidate
    return current


def _a_table(sys: SystemDef):
    """a[nu][mu] = d_mu v^nu / (v^mu - v^nu) as expressions, mu != nu."""
    def build():
        n = sys.N
        out = np.empty((n, n), dtype=object)
        for nu in range(n):
            for mu in range(n):
                if mu == nu:
                    continue
                out[nu, mu] = (differentiate(sys.v_diag[nu], sys.coords[mu])
                               / (sys.v_diag[mu] - sys.v_diag[nu]))
        return out
    return tz._memo(sys, "hodograph-a", build)


@dataclass
class SemiHamiltonianReport:
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
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "n_triples": int(self.n_triples),
            "hyperbolicity_gap": float(self.hyperbolicity_gap),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        note = " (vacuous: no index triples)" if self.n_triples == 0 else ""
        return (f"semi-hamiltonian [{status}]: residual {self.residual:.3e} "
                f"(tol {self.tol:.1e}) over {self.n_triples} triples{note}")


def semi_hamiltonian_check(sys: SystemDef, *, box: Box | None = None,
                           samples: int = 64, extra_points=(),
                           tol_zero: float = TOL_ZERO,
                           gap_tol: float = GAP_TOL) -> SemiHamiltonianReport:
    """Check the commuting-flow compatibility conditions of v_diag.

    For every distinct index triple (nu, mu, lam) the quantity
    d_lam(d_mu v^nu / (v^mu - v^nu)) - d_mu(d_lam v^nu / (v^lam - v^nu))
    is evaluated from exact symbolic derivatives over the sample sweep.
    Systems with fewer than three components pass vacuously.

    Raises
    ------
    HyperbolicityViolationError
        If characteristic velocities collide somewhere in the box.
    """
    _require_diagonal(sys)
    pts = sample_box(box or sys.box, samples, extra_points)
    gap = _check_hyperbolicity(sys, pts, gap_tol)
    n = sys.N
    a = _a_table(sys)
    env = tz._env(sys, pts)
    worst, count = (0.0, None), 0
    for nu in range(n):
        for mu in range(n):
            if mu == nu:
                continue
            for lam in range(mu + 1, n):
                if lam == nu or lam == mu:
                    continue
                count += 1
                diff = (differentiate(a[nu, mu], sys.coords[lam])
                        - differentiate(a[nu, lam], sys.coords[mu]))
                vals = np.broadcast_to(
                    np.asarray(evaluate(diff, env), dtype=float), (len(pts),))
                worst = _worse(worst, _argmax_abs(vals, pts))
    residual, witness = worst
    return SemiHamiltonianReport(sys.name, residual, tol_zero,
                                 residual < tol_zero, witness, count, gap)


# --- commuting flows ---------------------------------------------------------

class CommutingFlow:
    """A candidate commuting flow w(R), closed-form or grid-sampled.

    ``residual`` is the largest violation of the defining relation
    d_mu w^nu = a_{nu mu} (w^mu - w^nu) found when the flow was built or
    verified; ``provenance`` records whether the flow was integrated here
    or supplied by the caller.
    """

    def __init__(self, coords, *, exprs=None, axes=None, values=None,
                 params=None, residual=None, tol=None, provenance="user-supplied"):
        self.coords = tuple(coords)
        self.params = dict(params or {})
        self.exprs = exprs
        self.axes = axes
        self.values = values
        self.residual = residual
        self.tol = tol
        self.provenance = provenance
        if (exprs is None) == (values is None):
            raise ValueError("flow needs either closed-form exprs or sampled values")
        if exprs is not None:
            self.kind = "closed-form"
            self._dexprs = tuple(tuple(differentiate(e, c) for c in self.coords)
                                 for e in exprs)
            self._splines = None
        else:
            self.kind = "sampled"
            if len(self.coords) != 2:
                raise ValueError("sampled flows are two-component")
            self._splines = tuple(
                scipy.interpolate.RectBivariateSpline(axes[0], axes[1],
                                                      values[k], kx=3, ky=3)
                for k in range(len(self.coords)))

    @property
    def box(self) -> Box:
        if self.kind != "sampled":
            raise ValueError("closed-form flows carry no grid box")
        return Box((float(self.axes[0][0]), float(self.axes[1][0])),
                   (float(self.axes[0][-1]), float(self.axes[1][-1])))

    def _env(self, point):
        env = dict(self.params)
        for k, c in enumerate(self.coords):
            env[c] = float(point[k])
        return env

    def w_at(self, point):
        """w components at one point, shape (N,)."""
        if self.kind == "closed-form":
            env = self._env(point)
            return np.array([float(evaluate(e, env)) for e in self.exprs])
        return np.array([float(s(point[0], point[1], grid=False))
                         for s in self._splines])

    def dw_at(self, point):
        """Jacobian d w^nu / d R^mu at one point, shape (N, N)."""
        if self.kind == "closed-form":
            env = self._env(point)
            return np.array([[float(evaluate(d, env)) for d in row]
                             for row in self._dexprs])
        return np.array([[float(s(point[0], point[1], dx=1, grid=False)),
                          float(s(point[0], point[1], dy=1, grid=False))]
                         for s in self._splines])


def closed_form_flow(sys: SystemDef, exprs, *, box: Box | None = None,
                     samples: int = 64, gap_tol: float = GAP_TOL) -> CommutingFlow:
    """Wrap closed-form w components and measure their defining residual."""
    _require_diagonal(sys)
    symbols = set(sys.coords) | set(sys.params)
    parsed = tuple(parse(e, symbols) if isinstance(e, str) else e for e in exprs)
    if len(parsed) != sys.N:
        raise ValueError(f"need {sys.N} flow components, got {len(parsed)}")
    for e in parsed:
        if not isinstance(e, Expr):
            raise TypeError("flow components must be expressions or source strings")
        extra = free_names(e) - symbols
        if extra:
            raise ValueError(f"flow references undeclared names {sorted(extra)}")
    pts = sample_box(box or sys.box, samples)
    _check_hyperbolicity(sys, pts, gap_tol)
    a = _a_table(sys)
    env = tz._env(sys, pts)
    worst = (0.0, None)
    for nu in range(sys.N):
        for mu in range(sys.N):
            if mu == nu:
                continue
            diff = (differentiate(parsed[nu], sys.coords[mu])
                    - a[nu, mu] * (parsed[mu] - parsed[nu]))
            vals = np.broadcast_to(
                np.asarray(evaluate(diff, env), dtype=float), (len(pts),))
            worst = _worse(worst, _argmax_abs(vals, pts))
    residual = worst[0]
    return CommutingFlow(sys.coords, exprs=parsed, params=sys.params,
                         residual=residual, provenance="user-supplied")


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


def integrate_commuting_flow(sys: SystemDef, w1, w2, *, box: Box | None = None,
                             resolution: int = 256, basepoint=None,
                             tol_goursat: float = TOL_GOURSAT,
                             gap_tol: float = GAP_TOL) -> CommutingFlow:
    """Integrate a two-component commuting flow from axis boundary data.

    ``w1`` prescribes w^1 on the line R^2 = basepoint[1] and ``w2``
    prescribes w^2 on the line R^1 = basepoint[0]; both are expressions in
    the coordinates.  The coupled equations d_2 w^1 = a_{12}(w^2 - w^1),
    d_1 w^2 = a_{21}(w^1 - w^2) are marched cell by cell with the implicit
    trapezoidal rule (one 2x2 linear solve per cell), outward from the
    basepoint, which must lie on the grid (default: the box corner).

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
    box = box or sys.box
    r1 = np.linspace(box.lo[0], box.hi[0], resolution + 1)
    r2 = np.linspace(box.lo[1], box.hi[1], resolution + 1)
    if basepoint is None:
        basepoint = (float(r1[0]), float(r2[0]))
    i0 = int(np.argmin(np.abs(r1 - basepoint[0])))
    j0 = int(np.argmin(np.abs(r2 - basepoint[1])))
    if abs(r1[i0] - basepoint[0]) > 1e-12 or abs(r2[j0] - basepoint[1]) > 1e-12:
        raise ValueError(f"basepoint {tuple(basepoint)} is not a gridpoint")

    grid = np.stack(np.meshgrid(r1, r2, indexing="ij"), axis=-1)
    flat = grid.reshape(-1, 2)
    _check_hyperbolicity(sys, flat, gap_tol)
    a = _a_table(sys)
    env = tz._env(sys, flat)
    n1, n2 = len(r1), len(r2)
    a12 = np.broadcast_to(np.asarray(evaluate(a[0, 1], env), float),
                          (len(flat),)).reshape(n1, n2)
    a21 = np.broadcast_to(np.asarray(evaluate(a[1, 0], env), float),
                          (len(flat),)).reshape(n1, n2)

    symbols = set(sys.coords) | set(sys.params)
    w1e = parse(w1, symbols) if isinstance(w1, str) else w1
    w2e = parse(w2, symbols) if isinstance(w2, str) else w2
    w = np.empty((2, n1, n2))
    w.fill(np.nan)
    env1 = dict(sys.params)
    env1[sys.coords[0]] = r1
    env1[sys.coords[1]] = np.full(n1, r2[j0])
    w[0, :, j0] = np.broadcast_to(np.asarray(evaluate(w1e, env1), float), (n1,))
    env2 = dict(sys.params)
    env2[sys.coords[0]] = np.full(n2, r1[i0])
    env2[sys.coords[1]] = r2
    w[1, i0, :] = np.broadcast_to(np.asarray(evaluate(w2e, env2), float), (n2,))

    # complete the boundary cross: the partner component on each axis line
    for direction in (1, -1):
        _march_boundary(w[1, :, j0], w[0, :, j0], a21[:, j0], r1, i0, direction)
        _march_boundary(w[0, i0, :], w[1, i0, :], a12[i0, :], r2, j0, direction)

    for sx in (1, -1):
        for sy in (1, -1):
            irange = range(i0 + sx, n1 if sx > 0 else -1, sx)
            jrange = range(j0 + sy, n2 if sy > 0 else -1, sy)
            for j in jrange:
                pj = j - sy
                h2 = r2[j] - r2[pj]
                for i in irange:
                    pi = i - sx
                    h1 = r1[i] - r1[pi]
                    beta = 0.5 * h2 * a12[i, j]
                    gamma = 0.5 * h1 * a21[i, j]
                    rhs0 = (w[0, i, pj] + 0.5 * h2 * a12[i, pj]
                            * (w[1, i, pj] - w[0, i, pj]))
                    rhs1 = (w[1, pi, j] + 0.5 * h1 * a21[pi, j]
                            * (w[0, pi, j] - w[1, pi, j]))
                    det = 1.0 + beta + gamma
                    if abs(det) < 1e-12:
                        raise NonConvergenceError(
                            f"singular cell solve at grid index ({i}, {j})")
                    w[0, i, j] = ((1.0 + gamma) * rhs0 + beta * rhs1) / det
                    w[1, i, j] = (gamma * rhs0 + (1.0 + beta) * rhs1) / det

    # defining-relation residual by interior central differences
    d2w0 = (w[0, :, 2:] - w[0, :, :-2]) / (r2[2:] - r2[:-2])[None, :]
    res0 = d2w0 - a12[:, 1:-1] * (w[1, :, 1:-1] - w[0, :, 1:-1])
    d1w1 = (w[1, 2:, :] - w[1, :-2, :]) / (r1[2:] - r1[:-2])[:, None]
    res1 = d1w1 - a21[1:-1, :] * (w[0, 1:-1, :] - w[1, 1:-1, :])
    residual = float(max(np.max(np.abs(res0)), np.max(np.abs(res1))))
    return CommutingFlow(sys.coords, axes=(r1, r2), values=w,
                         params=sys.params, residual=residual,
                         tol=tol_goursat, provenance="integrated")


# --- hodograph solve ----------------------------------------------------------

@dataclass
class HodographSolution:
    """R(x, t) from the algebraic hodograph system on a spacetime grid.

    ``residual`` is the Newton residual max|w - t v - x| at exit;
    ``converged`` flags points where it met the tolerance with R inside the
    flow's coordinate box.
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


def _newton_point(x, t, start, flow, v_at, dv_at, box, tol, max_iter):
    r = np.array(start, dtype=float)
    f = flow.w_at(r) - t * v_at(r) - x
    fnorm = float(np.max(np.abs(f)))
    for _ in range(max_iter):
        if fnorm < tol:
            break
        jac = flow.dw_at(r) - t * dv_at(r)
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        scale, accepted = 1.0, False
        for _ in range(21):
            rn = r - scale * step
            fn = flow.w_at(rn) - t * v_at(rn) - x
            fn_norm = float(np.max(np.abs(fn)))
            if fn_norm < fnorm or fn_norm < tol:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        r, f, fnorm = rn, fn, fn_norm
    ok = fnorm < tol and box.contains(r, pad=1e-9)
    return r, fnorm, ok


def hodograph_solve(sys: SystemDef, flow: CommutingFlow, *, x_window, t_window,
                    nx: int = 256, nt: int = 33, seed,
                    rbox: Box | None = None, newton_tol: float = NEWTON_TOL,
                    max_iter: int = 60) -> HodographSolution:
    """Solve w^nu(R) = t v^nu(R) + x on a spacetime grid by damped Newton.

    Marches in x along the first time row and upward in t afterwards, warm
    starting every point from its already-solved neighbor.  Diverged points
    are flagged, not fatal: characteristics may focus inside the window.

    Raises
    ------
    SeedOutOfBoxError
        If the seed R value lies outside the flow's coordinate box.
    """
    _require_diagonal(sys)
    if len(flow.coords) != sys.N:
        raise ValueError("flow and system component counts differ")
    box = rbox or (flow.box if flow.kind == "sampled" else sys.box)
    seed = tuple(float(v) for v in seed)
    if len(seed) != sys.N:
        raise ValueError(f"seed must have {sys.N} components")
    if not box.contains(seed):
        raise SeedOutOfBoxError(f"seed {seed} outside coordinate box "
                                f"{box.lo}..{box.hi}")

    def v_at(r):
        return speeds_at(sys, r[None, :])[0]

    def dv_at(r):
        return speeds_d1_at(sys, r[None, :])[0].T

    xs = np.linspace(x_window[0], x_window[1], nx)
    ts = np.linspace(t_window[0], t_window[1], nt)
    shape = (nt, nx)
    rr = np.empty(shape + (sys.N,))
    res = np.empty(shape)
    conv = np.zeros(shape, dtype=bool)
    last_good = np.array(seed, dtype=float)
    for k, t in enumerate(ts):
        for i, x in enumerate(xs):
            if k > 0 and conv[k - 1, i]:
                start = rr[k - 1, i]
            elif i > 0 and conv[k, i - 1]:
                start = rr[k, i - 1]
            else:
                start = last_good
            r, fnorm, ok = _newton_point(x, t, start, flow, v_at, dv_at, box,
                                         newton_tol, max_iter)
            rr[k, i] = r
            res[k, i] = fnorm
            conv[k, i] = ok
            if ok:
                last_good = r
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
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="", fmt="%.17e")
