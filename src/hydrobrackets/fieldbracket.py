"""Discretized functional Poisson brackets on periodic one-dimensional fields.

Fields live on a uniform grid over x in [0, 2*pi) with a power-of-two point
count so spatial derivatives can be taken spectrally.  Functionals are
integrals of pointwise densities in the field components, which keeps their
variational derivatives exact.  The bracket is the one the system declares:
the local g and b terms and the ultralocal h term, each present when its
coefficients are declared.  On top of the evaluated bracket this module
provides the two operational bracket axioms as numbers: an antisymmetry
residual comes out of `bracket` directly, and `jacobi_residual` measures the
cyclic sum with the exact derivative of the discrete bracket in each term.

Cost model: a bracket evaluates each expression table entry once over the
M gridpoints.  A Jacobi residual evaluates each functional's gradient and
Hessian tables once at the field, and makes three calls into the operator
core shared by `bracket`, `apply_bracket_operator` and `hamiltonian_flow`,
each with the three cyclic terms stacked on its leading batch axis: the
three flows, the operator derivatives along them (first-derivative tables
of the coefficients) and the operator on the Hessian products.  That is
O(M) points per term, with no step size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ShapeMismatchError
from .expr import as_expr, differentiate, evaluate_table
from .system import SystemDef


def _is_power_of_two(m):
    return m >= 2 and (m & (m - 1)) == 0


def _require_finite(values):
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")


@dataclass(frozen=True)
class GridField:
    """N field components sampled on M uniform points of [0, 2*pi).

    ``values`` has shape (N, M); M must be a power of two and all entries
    finite.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ShapeMismatchError("field values must be a (components, points) array")
        if not _is_power_of_two(vals.shape[1]):
            raise ValueError(f"grid size {vals.shape[1]} is not a power of two")
        _require_finite(vals)
        object.__setattr__(self, "values", vals)

    @property
    def n_points(self):
        return self.values.shape[1]

    @property
    def dx(self):
        return 2.0 * math.pi / self.values.shape[1]


def spectral_dx(values):
    """Fourier differentiation along the last axis.

    The Nyquist mode is zeroed so the derivative matrix stays exactly
    antisymmetric on the grid.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    k = np.fft.rfftfreq(m, d=1.0 / m)
    coef = np.fft.rfft(values, axis=-1) * (1j * k)
    if m % 2 == 0:
        coef[..., -1] = 0.0
    return np.fft.irfft(coef, n=m, axis=-1)


class Functional:
    """Integral of a pointwise density over the periodic domain.

    The density is an expression in the field component names; no
    x-derivatives appear, so the variational derivative is the exact
    gradient of the density at each gridpoint.
    """

    def __init__(self, density, coords):
        self.coords = tuple(coords)
        self.density = as_expr(density, self.coords, "density")
        self.gradient = tuple(differentiate(self.density, c) for c in self.coords)
        self._density_table = np.array(self.density, dtype=object)
        self._gradient_table = np.array(self.gradient, dtype=object)
        # mixed partials commute, so the (q, r) entry is the (r, q) object
        # and `evaluate_table` evaluates it once
        n = len(self.coords)
        self._hessian_table = np.empty((n, n), dtype=object)
        for r, c in enumerate(self.coords):
            for q in range(r, n):
                self._hessian_table[r, q] = self._hessian_table[q, r] = (
                    differentiate(self.gradient[q], c))

    def value(self, U: GridField) -> float:
        dens = evaluate_table(self._density_table, self.coords, {}, U.values.T)
        return float(np.sum(dens) * U.dx)

    def variational(self, U: GridField):
        """delta F / delta U as an (N, M) array."""
        return self._variational(U.values)

    def _variational(self, values):
        """delta F / delta U of fields stacked as (..., N, M), same shape."""
        # the fields as points (..., M, N), component last
        grad = evaluate_table(self._gradient_table, self.coords, {},
                              np.swapaxes(values, -1, -2))
        return np.ascontiguousarray(np.swapaxes(grad, -1, -2))

    def _hessian(self, values):
        """Hessian of the density at fields (N, M), shape (M, N, N)."""
        return evaluate_table(self._hessian_table, self.coords, {}, values.T)


def random_polynomial_functional(coords, *, degree=3, seed=0) -> Functional:
    """Seeded random density with all monomials of degree 1..degree."""
    rng = np.random.default_rng(seed)
    terms = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(coords, d):
            c = rng.normal() / math.factorial(d)
            terms.append(f"{c!r}*" + "*".join(combo))
    return Functional(" + ".join(terms), coords)


def _check_shapes(sys, values, xi):
    # both stacked as (B, ...); report the per-field shapes
    if sys.N != values.shape[1]:
        raise ShapeMismatchError(
            f"system has {sys.N} components, field has {values.shape[1]}")
    if xi.shape != values.shape:
        raise ShapeMismatchError(
            f"covector shape {xi.shape[1:]} does not match field shape "
            f"{values.shape[1:]}")


def apply_bracket_operator(sys: SystemDef, U: GridField, xi) -> GridField:
    """Apply the declared bracket's operator to a covector array ``xi``.

    A(xi)^n(x) = g^{nm}(U) d_x xi_m + b^{nm}_l(U) U^l_x xi_m + h^{nm}(U) xi_m,

    each term present when the system declares its coefficients.  A system
    that declares neither ``g_upper`` nor ``h_ultra`` is a ``ValueError``.
    """
    return GridField(_operator(sys, U.values[None],
                               np.asarray(xi, dtype=float)[None])[0])


def _operator(sys, values, xi, along=None):
    """`apply_bracket_operator` on fields and covectors stacked as (B, N, M).

    With directions ``along`` stacked the same way, the derivative
    dA[along] xi of the operator along U + eps*along instead: each
    coefficient table is replaced by its derivative along ``along``, and the
    b term gains b^{nm}_l (along^l)_x xi_m.
    """
    _check_shapes(sys, values, xi)
    if sys.g_upper is None and sys.h_ultra is None:
        raise ValueError("system declares no bracket (needs g_upper or h_ultra)")

    batch, n, m = values.shape
    # (B*M, N) points; each column is a contiguous row of the (N, B*M) copy
    pts = np.moveaxis(values, 1, 0).reshape(n, batch * m).T
    if along is not None:
        dirs = np.moveaxis(along, 1, 0).reshape(n, batch * m).T

    def coef(table, value_at):
        if along is None:
            vals = value_at(sys, pts)
        else:
            d1 = tz.table_d1_at(sys, table, pts).reshape(batch * m, n, -1)
            vals = np.einsum("pr,prk->pk", dirs, d1)
        return vals.reshape((batch, m) + table.shape)

    out = np.zeros(values.shape)
    if sys.g_upper is not None:
        g = coef(sys.g_upper, tz.metric_upper_at)
        out += np.einsum("bxnm,bmx->bnx", g, spectral_dx(xi))
        if sys.b is not None:
            out += np.einsum("bxnml,blx,bmx->bnx", coef(sys.b, tz.b_at),
                             spectral_dx(values), xi)
            if along is not None:
                b = tz.b_at(sys, pts).reshape(batch, m, n, n, n)
                out += np.einsum("bxnml,blx,bmx->bnx", b, spectral_dx(along), xi)
    if sys.h_ultra is not None:
        out += np.einsum("bxnm,bmx->bnx", coef(sys.h_ultra, tz.h_ultra_at), xi)
    return out


def _bracket(sys, F, G, values, dx):
    """`bracket` of fields stacked as (B, N, M), shape (B,)."""
    a = _operator(sys, values, G._variational(values))
    _require_finite(a)
    return np.sum((F._variational(values) * a).reshape(len(values), -1), axis=1) * dx


def bracket(sys: SystemDef, F: Functional, G: Functional, U: GridField) -> float:
    """{F, G}[U] = sum_i deltaF(x_i) . A(deltaG)(x_i) dx."""
    return float(_bracket(sys, F, G, U.values[None], U.dx)[0])


def antisymmetry_residual(sys, F, G, U) -> float:
    return abs(bracket(sys, F, G, U) + bracket(sys, G, F, U))


def hamiltonian_flow(sys: SystemDef, H: Functional, U: GridField) -> GridField:
    """U_t = A(deltaH), the quasilinear flow generated by H."""
    return apply_bracket_operator(sys, U, H.variational(U))


def jacobi_residual(sys: SystemDef, F: Functional, G: Functional,
                    H: Functional, U: GridField) -> float:
    """|{{F,G},H} + {{G,H},F} + {{H,F},G}| at the given field.

    Term k, {{F_k, F_{k+1}}, F_{k+2}}, is the exact derivative of the
    discrete bracket {F_k, F_{k+1}} along the flow v = A(delta F_{k+2}):

        sum_x [(Hess f_k v).A(delta F_{k+1}) + delta F_k.dA[v](delta F_{k+1})
               + delta F_k.A(Hess f_{k+1} v)] dx,

    with dA[v] the derivative of the operator along v.  The three terms are
    stacked on the batch axis of the operator core, which a residual calls
    three times: for the flows, for dA and for A of the Hessian products.
    """
    funcs = (F, G, H)
    grads = np.stack([f._variational(U.values) for f in funcs])
    hess = np.stack([f._hessian(U.values) for f in funcs])
    values = np.broadcast_to(U.values, grads.shape)
    flows = _operator(sys, values, grads)
    _require_finite(flows)
    # term k reads F_k, F_{k+1} = F_nxt[k] and v_k = A(delta F_{k+2})
    nxt, v = [1, 2, 0], flows[[2, 0, 1]]
    hv, hv_next = (np.einsum("kxrq,kqx->krx", h, v) for h in (hess, hess[nxt]))
    inner = _operator(sys, values, grads[nxt], along=v)
    inner += _operator(sys, values, hv_next)
    _require_finite(inner)
    total = np.sum(hv * flows[nxt]) + np.sum(grads * inner)
    return float(abs(total) * U.dx)
