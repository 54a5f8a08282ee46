"""Declared first-order systems and their coordinate boxes.

A `SystemDef` bundles everything a check might need: coordinate names, an
optional contravariant metric, optional lower-order bracket coefficients,
an optional coefficient operator (full matrix or diagonal), declared
affinors, an optional ultralocal term, and an optional Liouville-form
potential.  Entries are expression trees over the coordinates and named
parameters; strings and numbers are parsed on construction (`expr.as_expr`).
Instances are treated as immutable after construction.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .expr import Number, as_expr

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Box:
    """Axis-aligned coordinate box with deterministic sampling."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds must have equal length")
        if not all(abs(v) <= sys.float_info.max for v in (*self.lo, *self.hi)):
            raise ValueError("box bounds must be finite")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self):
        return len(self.lo)

    @property
    def center(self):
        return tuple(0.5 * (l + h) for l, h in zip(self.lo, self.hi))

    @property
    def extent(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def contains(self, point, pad=0.0):
        """Whether ``point`` lies in the box widened by ``pad``.

        A batch of points ``(..., dim)`` gives one flag per point.
        """
        p = np.asarray(point, dtype=float)
        return np.all((np.asarray(self.lo) - pad <= p)
                      & (p <= np.asarray(self.hi) + pad), axis=-1)


def halton_points(count, dim):
    """First ``count`` Halton points in the unit cube, index starting at 1.

    Each coordinate is the radical inverse of the index in its prime base,
    built digit by digit for all indices at once; an index whose digits
    are used up adds exact zeros, so every point is the same float as the
    one-index-at-a-time sum.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton sampler supports up to {len(_PRIMES)} dimensions")
    pts = np.zeros((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        index = np.arange(1, count + 1)
        denom = 1.0
        while count and index.max() > 0:
            index, digit = np.divmod(index, base)
            denom *= base
            pts[:, j] += digit / denom
    return pts


def sample_box(box: Box, count: int):
    """Deterministic low-discrepancy sample of ``box``.

    The same box and count always yield the same points, so residual sweeps
    and their witnesses are reproducible.
    """
    if count < 1:
        raise ValueError(f"samples must be at least 1, got {count}")
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    return lo + halton_points(count, box.dim) * (hi - lo)


def _parse_matrix(rows, symbols, shape, what):
    arr = np.empty(shape, dtype=object)
    nested = rows
    try:
        for idx in np.ndindex(*shape):
            e = nested
            for k in idx:
                e = e[k]
            arr[idx] = as_expr(e, symbols, what)
    except (IndexError, KeyError, TypeError) as err:
        raise ValueError(f"{what} must be a nested list of shape {shape}") from err
    return arr


class SystemDef:
    """Definition of a quasilinear system / bracket candidate.

    Parameters
    ----------
    coords : sequence of str
        Coordinate names; their count fixes the number of components N.
    g_upper : N x N nested list of expressions, optional
        Contravariant metric entries.
    b : N x N x N nested list, optional
        Lower-order coefficients, indexed ``b[sigma][nu][lam]``.
    V : N x N nested list, optional
        Coefficient operator of the quasilinear system.
    v_diag : length-N list, optional
        Characteristic velocities of a diagonal system (excludes ``V``).
    affinors : list of (sign, N x N nested list), optional
        Declared affinor family with signs +1/-1.
    h_ultra : N x N nested list, optional
        Ultralocal bracket term.
    gamma : N x N nested list, optional
        Potential whose symmetrization should give ``g_upper``.
    params : dict of str to float, optional
        Named constants usable inside entries.
    box : Box or (lo, hi) pair, optional
        Coordinate region for residual sweeps.
    name : str, optional
    """

    def __init__(self, coords, *, g_upper=None, b=None, V=None, v_diag=None,
                 affinors=None, h_ultra=None, gamma=None, params=None,
                 box=None, name=""):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate names must be unique")
        n = len(coords)
        if n == 0:
            raise ValueError("at least one coordinate is required")
        self.coords = coords
        self.N = n
        self.params = dict(params or {})
        clash = set(self.params) & set(coords)
        if clash:
            raise ValueError(f"parameter names clash with coordinates: {sorted(clash)}")
        symbols = list(coords) + list(self.params)

        if V is not None and v_diag is not None:
            raise ValueError("give either V or v_diag, not both")

        self.g_upper = None if g_upper is None else _parse_matrix(
            g_upper, symbols, (n, n), "g_upper")
        self.b = None if b is None else _parse_matrix(b, symbols, (n, n, n), "b")
        self.V = None if V is None else _parse_matrix(V, symbols, (n, n), "V")
        self.v_diag = None if v_diag is None else np.array(
            [as_expr(e, symbols, "v_diag") for e in v_diag], dtype=object)
        if self.v_diag is not None and len(self.v_diag) != n:
            raise ValueError(f"v_diag must have {n} entries")
        self.h_ultra = None if h_ultra is None else _parse_matrix(
            h_ultra, symbols, (n, n), "h_ultra")
        self.gamma = None if gamma is None else _parse_matrix(
            gamma, symbols, (n, n), "gamma")
        # a declared-empty affinor list is meaningful (no nonlocal terms),
        # so it is kept distinct from "not declared at all"
        if affinors is None:
            self.affinors = None
        else:
            self.affinors = tuple(
                (float(sign), _parse_matrix(w, symbols, (n, n), "affinor"))
                for sign, w in affinors)
            for sign, _ in self.affinors:
                if sign not in (-1.0, 1.0):
                    raise ValueError("affinor signs must be +1 or -1")

        if box is None:
            box = Box((-1.0,) * n, (1.0,) * n)
        elif not isinstance(box, Box):
            box = Box(tuple(float(v) for v in box[0]),
                      tuple(float(v) for v in box[1]))
        if box.dim != n:
            raise ValueError(f"box dimension {box.dim} does not match N={n}")
        self.box = box
        self.name = name

        self._memo = {}

    def operator_matrix(self):
        """Coefficient operator entries as an object array, or None."""
        if self.V is not None:
            return self.V
        if self.v_diag is not None:
            arr = np.full((self.N, self.N), Number(0.0), dtype=object)
            for i in range(self.N):
                arr[i, i] = self.v_diag[i]
            return arr
        return None

    def __repr__(self):
        parts = [f"N={self.N}", f"coords={self.coords!r}"]
        if self.name:
            parts.insert(0, repr(self.name))
        return f"SystemDef({', '.join(parts)})"
