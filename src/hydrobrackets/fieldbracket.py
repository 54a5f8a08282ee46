"""Discretized functional Poisson brackets on periodic one-dimensional fields.

Fields live on a uniform grid over x in [0, 2*pi) with a power-of-two point
count so spatial derivatives can be taken spectrally.  Functionals are
integrals of pointwise densities in the field components, which keeps their
variational derivatives exact.  The bracket is the one the system declares:
the local g and b terms and the ultralocal h term, each present when its
coefficients are declared.  On top of the evaluated bracket this module
provides the two operational bracket axioms as numbers: an antisymmetry
residual comes out of `bracket` directly, and `jacobi_residuals` measures
Olver's tri-vector of the operator together with each triple's
antisymmetry.

Cost model: the operator core takes one field (N, M), covectors stacked as
(B, N, M) and the g, b and h tables evaluated at the M gridpoints, one jet
pass per table (`tensor.table_jets_at`): the values for a bracket or a
flow.  A Jacobi sweep takes the first-order jets of each table once at the
field, and of each functional's density (`expr.jet_table`); per triple it
calls the core twice with the three gradients stacked: for the flows, and
for the operator derivatives along them.  That is O(M) points per
functional and per table, with no step size and no second derivatives of
the densities.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ShapeMismatchError
from .expr import as_expr, evaluate_table, jet_table
from .system import SystemDef


def _is_grid_size(m):
    # on 2 points the spectral derivative is identically zero
    return m >= 4 and (m & (m - 1)) == 0


def _require_finite(values):
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")


@dataclass(frozen=True)
class GridField:
    """N field components sampled on M uniform points of [0, 2*pi).

    ``values`` has shape (N, M); M must be a power of two of at least 4
    and all entries finite.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ShapeMismatchError("field values must be a (components, points) array")
        if not _is_grid_size(vals.shape[1]):
            raise ValueError(
                f"grid size {vals.shape[1]} is not a power of two of at least 4")
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
    gradient of the density at each gridpoint, its first-order jet.
    """

    def __init__(self, density, coords):
        self.coords = tuple(coords)
        self.density = as_expr(density, self.coords, "density")
        self._density_table = np.array(self.density, dtype=object)

    def _values(self, U):
        # the field's (N, M) values, one row per coordinate
        if len(U.values) != len(self.coords):
            raise ShapeMismatchError(
                f"functional has {len(self.coords)} coordinates, field has "
                f"{len(U.values)} components")
        return U.values

    def value(self, U: GridField) -> float:
        dens = evaluate_table(self._density_table, self.coords, {}, self._values(U).T)
        return float(np.sum(dens) * U.dx)

    def variational(self, U: GridField):
        """delta F / delta U as an (N, M) array."""
        return self._variational(self._values(U))

    def _variational(self, values):
        """delta F / delta U of fields stacked as (..., N, M), same shape."""
        # the fields as points (..., M, N), component last
        grad = jet_table(self._density_table, self.coords, {},
                         np.swapaxes(values, -1, -2), 1)[1]
        return np.ascontiguousarray(np.swapaxes(grad, -1, -2))


def random_polynomial_functional(coords, *, degree=3, seed=0) -> Functional:
    """Seeded random density with all monomials of degree 1..degree.

    The coefficient of a degree-d monomial is a standard normal draw over
    d!, from ``random.Random(seed)``, whose stream does not depend on the
    numpy version; ``seed`` is a non-negative integer.
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    # random.Random(-s) would replay the stream of s
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    terms = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(coords, d):
            c = rng.gauss(0.0, 1.0) / math.factorial(d)
            terms.append(f"{c!r}*" + "*".join(combo))
    return Functional(" + ".join(terms), coords)


def _coefficients(sys, values, order, xi=None, funcs=()):
    """The jets ``[values, d1, ...]`` to ``order`` of the g, b and h tables at
    the M points of the field ``values`` (N, M), one pass each, ``None`` for
    a table the bracket does not read; after the checks of the field, the
    covectors ``xi`` (B, N, M) and the functionals, shapes first."""
    if sys.N != len(values):
        raise ShapeMismatchError(
            f"system has {sys.N} components, field has {len(values)}")
    _check_coords(sys, funcs)
    if xi is not None and xi.shape[1:] != values.shape:
        raise ShapeMismatchError(
            f"covector shape {xi.shape[1:]} does not match field shape "
            f"{values.shape}")
    if sys.g_upper is None and sys.h_ultra is None:
        raise ValueError("system declares no bracket (needs g_upper or h_ultra)")
    b = sys.b if sys.g_upper is not None else None
    return [None if t is None else tz.table_jets_at(sys, t, values.T, order)
            for t in (sys.g_upper, b, sys.h_ultra)]


def _check_coords(sys, funcs):
    for f in funcs:
        if f.coords != sys.coords:
            raise ShapeMismatchError(
                f"functional coordinates {f.coords} are not the system "
                f"coordinates {sys.coords}")


def _operator(coefs, values, xi, along=None):
    """A(xi) of covectors stacked as (B, N, M) at one field (N, M), from
    its `_coefficients`.

    With directions ``along`` stacked as ``xi``, dA[along] xi instead, the
    derivative along U + eps*along: each table is replaced by its derivative
    along ``along``, and the b term gains b^{nm}_l (along^l)_x xi_m.
    """
    def coef(jets):
        # a derivative along carries the covector axis, which ``...`` takes
        return jets[0] if along is None else np.einsum("brx,xr...->bx...", along, jets[1])

    g, b, h = coefs
    out = np.zeros(xi.shape)
    if g is not None:
        out += np.einsum("...xnm,...mx->...nx", coef(g), spectral_dx(xi))
        if b is not None:
            out += np.einsum("...xnml,lx,...mx->...nx", coef(b), spectral_dx(values), xi)
            if along is not None:
                out += np.einsum("xnml,...lx,...mx->...nx", b[0], spectral_dx(along), xi)
    if h is not None:
        out += np.einsum("...xnm,...mx->...nx", coef(h), xi)
    return out


def apply_bracket_operator(sys: SystemDef, U: GridField, xi) -> GridField:
    """Apply the declared bracket's operator to a covector array ``xi``.

    A(xi)^n(x) = g^{nm}(U) d_x xi_m + b^{nm}_l(U) U^l_x xi_m + h^{nm}(U) xi_m,

    each term present when the system declares its coefficients.  A system
    that declares neither ``g_upper`` nor ``h_ultra`` is a ``ValueError``.
    """
    xi = np.asarray(xi, dtype=float)[None]
    return GridField(_operator(_coefficients(sys, U.values, 0, xi), U.values, xi)[0])


def bracket(sys: SystemDef, F: Functional, G: Functional, U: GridField) -> float:
    """{F, G}[U] = sum_i deltaF(x_i) . A(deltaG)(x_i) dx."""
    coefs = _coefficients(sys, U.values, 0, funcs=(F, G))
    a = _operator(coefs, U.values, G._variational(U.values)[None])[0]
    _require_finite(a)
    return float(np.sum(F._variational(U.values) * a) * U.dx)


def hamiltonian_flow(sys: SystemDef, H: Functional, U: GridField) -> GridField:
    """U_t = A(deltaH), the quasilinear flow generated by H."""
    coefs = _coefficients(sys, U.values, 0, funcs=(H,))
    return GridField(_operator(coefs, U.values, H._variational(U.values)[None])[0])


def jacobi_residuals(sys: SystemDef, triples, U: GridField) -> list[float]:
    """Olver's criterion at the given field, max(T, S), for each triple
    (F, G, H) of ``triples``, which may be a generator.

    A skew operator A is Hamiltonian if and only if its tri-vector

        T = |sum_k sum_x delta F_k . dA[A(delta F_{k+2})](delta F_{k+1}) dx|

    vanishes, with dA[v] the derivative of the operator along v.  T is the
    cyclic sum of {{F_k, F_{k+1}}, F_{k+2}} without the density Hessian
    terms, which cancel in that sum when A is skew; so skewness is read too,
    as S = max over j, k of |{F_j, F_k} + {F_k, F_j}| from the same flows.
    Each coefficient table's first-order jets are taken once at the field,
    with the first triple, after its checks.  Per triple the three
    gradients are stacked on the covector axis of the operator core, which
    is called twice, for the flows and for dA along them.
    """
    values = U.values
    coefs = None
    out = []
    for F, G, H in triples:
        if coefs is None:
            coefs = _coefficients(sys, values, 1, funcs=(F, G, H))
        else:
            _check_coords(sys, (F, G, H))
        grads = np.stack([f._variational(values) for f in (F, G, H)])
        flows = _operator(coefs, values, grads)
        _require_finite(flows)
        # term k reads F_k, F_{k+1} and the flow of F_{k+2}
        inner = _operator(coefs, values, grads[[1, 2, 0]], along=flows[[2, 0, 1]])
        _require_finite(inner)
        trivector = abs(np.sum(grads * inner))
        pairs = np.einsum("jnx,knx->jk", grads, flows)  # {F_j, F_k} / dx
        skew = np.max(np.abs(pairs + pairs.T))
        out.append(float(max(trivector, skew) * U.dx))
    return out


def jacobi_residual(sys: SystemDef, F: Functional, G: Functional,
                    H: Functional, U: GridField) -> float:
    """Olver's criterion max(T, S) for one triple: see `jacobi_residuals`."""
    return jacobi_residuals(sys, [(F, G, H)], U)[0]
