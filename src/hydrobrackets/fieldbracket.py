"""Discretized functional Poisson brackets on periodic one-dimensional fields.

Fields live on a uniform grid over x in [0, 2*pi) with a power-of-two point
count so spatial derivatives can be taken spectrally.  Functionals are
integrals of pointwise densities in the field components, which keeps their
variational derivatives exact.  The bracket is the one the system declares:
the local g and b terms and the ultralocal h term, each present when its
coefficients are declared.  On top of the evaluated bracket this module
provides the two operational bracket axioms as numbers: an antisymmetry
residual comes out of `bracket` directly, and `jacobi_residual` measures the
cyclic sum with one directional difference per term.

Cost model: a bracket evaluates each expression table entry once over the
M gridpoints.  Each cyclic term {{F,G},H} of a Jacobi residual is the
derivative of {F,G} along the flow A(delta H), so it costs one operator
application and the brackets of two perturbed fields, stacked along the
leading batch axis of the array core shared by `bracket`,
`apply_bracket_operator` and `Functional.variational`: O(M) points per term.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ShapeMismatchError, StepTooSmallWarning
from .expr import as_expr, differentiate, evaluate_table
from .system import SystemDef
from .verify import write_csv

H_STEP = 1e-5


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
    def n_components(self):
        return self.values.shape[0]

    @property
    def n_points(self):
        return self.values.shape[1]

    @property
    def dx(self):
        return 2.0 * math.pi / self.values.shape[1]

    @property
    def x(self):
        return np.arange(self.values.shape[1]) * self.dx


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


def _operator(sys, values, xi):
    """`apply_bracket_operator` on fields and covectors stacked as (B, N, M)."""
    _check_shapes(sys, values, xi)
    if sys.g_upper is None and sys.h_ultra is None:
        raise ValueError("system declares no bracket (needs g_upper or h_ultra)")

    batch, n, m = values.shape
    # (B*M, N) points; each column is a contiguous row of the (N, B*M) copy
    pts = np.moveaxis(values, 1, 0).reshape(n, batch * m).T
    out = np.zeros(values.shape)
    if sys.g_upper is not None:
        g = tz.metric_upper_at(sys, pts).reshape(batch, m, n, n)
        out += np.einsum("bxnm,bmx->bnx", g, spectral_dx(xi))
        if sys.b is not None:
            b = tz.b_at(sys, pts).reshape(batch, m, n, n, n)
            out += np.einsum("bxnml,blx,bmx->bnx", b, spectral_dx(values), xi)
    if sys.h_ultra is not None:
        h = tz.h_ultra_at(sys, pts).reshape(batch, m, n, n)
        out += np.einsum("bxnm,bmx->bnx", h, xi)
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


def _cyclic_term(sys, Fa, Fb, Fc, U):
    """{{Fa, Fb}, Fc} as the central difference of {Fa, Fb} along the flow
    of Fc, with the roundoff of that quotient."""
    flow = hamiltonian_flow(sys, Fc, U).values
    stack = U.values + np.multiply.outer([H_STEP, -H_STEP], flow)
    _require_finite(stack)
    up, down = _bracket(sys, Fa, Fb, stack, U.dx)
    noise = np.finfo(float).eps / (2.0 * H_STEP) * max(1.0, abs(up), abs(down))
    return float((up - down) / (2.0 * H_STEP)), float(noise)


def jacobi_residual(sys: SystemDef, F: Functional, G: Functional,
                    H: Functional, U: GridField) -> float:
    """|{{F,G},H} + {{G,H},F} + {{H,F},G}| at the given field.

    Each term {{F,G},H} is the derivative of {F,G} along the flow
    v = A(delta H), taken as the central difference
    ({F,G}[U + h v] - {F,G}[U - h v]) / (2 h) with h = ``H_STEP``, so a
    residual costs six brackets; everything else is exact on the grid.
    Emits `StepTooSmallWarning` when the cyclic sum is at or below ten times
    the roundoff of the three quotients, meaning the returned value is a
    floor rather than a resolved residual.
    """
    terms = [_cyclic_term(sys, F, G, H, U),
             _cyclic_term(sys, G, H, F, U),
             _cyclic_term(sys, H, F, G, U)]
    total = abs(sum(term for term, _ in terms))
    noise = sum(noise for _, noise in terms)
    if total <= 10.0 * noise:
        warnings.warn(
            f"Jacobi cyclic sum {total:.3e} is within the roundoff "
            f"estimate {10.0 * noise:.3e} for h_step={H_STEP:g}; the value is "
            "a floor, not a resolved residual",
            StepTooSmallWarning, stacklevel=2)
    return total


# --- grid I/O -------------------------------------------------------------

def save_grid_csv(path, U: GridField):
    """Write a field as CSV with columns x, U1..UN."""
    header = "x," + ",".join(f"U{k + 1}" for k in range(U.n_components))
    write_csv(path, header, [U.x, *U.values])


def load_grid_csv(path) -> GridField:
    """Read a field written by `save_grid_csv`, validating the grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("field CSV needs an x column and at least one component")
    x = data[:, 0]
    m = len(x)
    if not _is_power_of_two(m):
        raise ValueError(f"grid size {m} is not a power of two")
    if np.max(np.abs(x - np.arange(m) * (2.0 * math.pi / m))) > 1e-9:
        raise ValueError("x column is not the uniform grid on [0, 2*pi)")
    return GridField(data[:, 1:].T)
