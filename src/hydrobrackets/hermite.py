"""Bicubic Hermite interpolation of node values on a uniform grid.

`HermiteGrid` is the interpolant of a grid-sampled commuting flow
(`hodograph.CommutingFlow`): the node values it is given, kept by
reference and read-only, and a table of node slopes and cross derivatives
(`node_slopes`: 4th-order finite differences), one bicubic patch per cell;
a two-component flow costs 64 bytes a node.  Next to the values it keeps,
the slope table is the only grid-sized array its construction allocates:
the slopes are written into its slots, over `row_blocks` of at most
``GRID_BLOCK_ENTRIES`` values, which
also bound the whole-grid passes of `hodograph.integrate_commuting_flow`,
its velocity jets included.  Each value comes from the same operations as
over the whole grid at once.
"""

from __future__ import annotations

import numpy as np

# grid values per block of a whole-grid pass; bounds its temporaries
GRID_BLOCK_ENTRIES = 2 ** 13


def row_blocks(start, stop, width):
    """``(lo, hi)`` bounds of consecutive blocks of the rows ``start`` to
    ``stop - 1``, each of at most ``GRID_BLOCK_ENTRIES`` values of rows of
    ``width``."""
    step = max(1, GRID_BLOCK_ENTRIES // max(1, width))
    return [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def node_slopes(f, h, axis, out):
    """Write the first derivative of node values along ``axis``, step ``h``,
    into ``out``: 4th-order central differences, 4th-order one-sided ones on
    the two edge rows (2nd-order `np.gradient` on axes of fewer than 5
    nodes).  The interior is taken in `row_blocks`, so no temporary
    spans the grid."""
    f, out = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    n = len(f)
    if n < 5:
        out[...] = np.gradient(f, h, axis=0, edge_order=min(2, n - 1))
        return
    for lo, hi in row_blocks(2, n - 2, f[0].size):
        out[lo:hi] = (f[lo - 2:hi - 2] - 8 * f[lo - 1:hi - 1]
                      + 8 * f[lo + 1:hi + 1] - f[lo + 2:hi + 2]) / (12 * h)
    edge = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1]]) / (12 * h)
    out[:2] = np.tensordot(edge, f[:5], axes=1)
    out[-2:] = -np.tensordot(edge[::-1, ::-1], f[-5:], axes=1)


# cubic Hermite basis on [0, 1] as power-series coefficients [degree, order,
# weight]: order 0 is the basis, order 1 its derivative; the weights multiply
# the value and the slope at the cell's left node, then at its right node
_HERMITE = np.array([[[1, 0, 0, 0], [0, 1, 0, 0]],
                     [[0, 1, 0, 0], [-6, -4, 6, -2]],
                     [[-3, -2, 3, -1], [6, 3, -6, 3]],
                     [[2, 1, -2, 1], [0, 0, 0, 0]]], dtype=float)


class HermiteGrid:
    """Bicubic Hermite interpolant of the two flow components ``values[k]``
    on a uniform grid ``axes``: it keeps ``values`` (the array itself when
    it is C-contiguous float) and a table ``slopes`` of the node slopes and
    cross derivatives (`node_slopes`); queries are clamped to the grid
    box.  The kept values are made read-only, the caller's array included
    when it is the one kept, so an edit that would leave the slopes behind
    raises instead."""

    def __init__(self, axes, values):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.steps = tuple(a[1] - a[0] if len(a) > 1 else 0.0 for a in self.axes)
        for a, h in zip(self.axes, self.steps):
            if not (h > 0 and np.allclose(np.diff(a), h, rtol=1e-9, atol=0.0)):
                raise ValueError("sampled flow axes must be increasing uniform "
                                 "grids of at least 2 nodes")
        f = np.ascontiguousarray(values, dtype=float)
        (x, y), (hx, hy) = self.axes, self.steps
        if f.shape != (2, len(x), len(y)):
            raise ValueError("sampled flow values must have shape "
                             f"(2, {len(x)}, {len(y)})")
        f.flags.writeable = False
        self.values = f
        # [k, i, j, slot] = d_y, d_x, d_x d_y of w^k at node (i, j), scaled
        # to a unit cell; filled in place, as the grid is large
        self.slopes = np.empty(f.shape + (3,))
        fy, fx, fxy = np.moveaxis(self.slopes, -1, 0)
        node_slopes(f, hy, 2, fy)
        fy *= hy
        # the x slopes are scaled once the cross derivatives difference them
        node_slopes(f, hx, 1, fx)
        node_slopes(fx, hy, 2, fxy)
        fxy *= hx * hy
        fx *= hx
        # a cell's four nodes [a, b] from its first one, in the flattened grid
        self._corners = np.array([[0, 1], [len(y), len(y) + 1]])
        self._flat_values = f.reshape(2, -1)
        self._flat_slopes = self.slopes.reshape(2, -1, 3)

    def __call__(self, point, *orders):
        """Derivatives of the given ``(x order, y order)`` at one point or a
        batch, stacked on the last axis: shape ``(N, len(orders))`` or
        ``(P, N, len(orders))``."""
        q = np.atleast_2d(np.asarray(point, dtype=float))
        cell, bases = 0, []
        for r, a, h in zip(q.T, self.axes, self.steps):
            r = np.clip(r, a[0], a[-1])
            i = np.clip(np.searchsorted(a, r, side="right") - 1, 0, len(a) - 2)
            t = ((r - a[i]) / h)[:, None, None]
            # the cell's first node, as an index of the flattened grid
            cell = cell * len(a) + i
            bases.append(((_HERMITE[3] * t + _HERMITE[2]) * t + _HERMITE[1]) * t
                         + _HERMITE[0])
        at = cell[:, None, None] + self._corners
        # [k, p, (a, s, b, r)]: node a/b of the cell in x/y, derivative s/r
        c = np.empty((2, len(q), 2, 2, 2, 2))
        c[:, :, :, 0, :, 0] = self._flat_values.take(at, axis=1)
        d = self._flat_slopes.take(at, axis=1)
        c[:, :, :, 0, :, 1] = d[..., 0]
        c[:, :, :, 1, :, 0] = d[..., 1]
        c[:, :, :, 1, :, 1] = d[..., 2]
        c = c.reshape(2, len(q), 16)
        # a batch is summed point by point, in the order of a single point
        res = np.stack([
            (c * (bases[0][:, ox, :, None] * bases[1][:, oy, None, :])
             .reshape(len(q), 16)).sum(axis=-1)
            / (self.steps[0] ** ox * self.steps[1] ** oy)
            for ox, oy in orders], axis=-1).swapaxes(0, 1)
        return res[0] if np.ndim(point) == 1 else res
