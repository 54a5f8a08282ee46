"""The bicubic Hermite interpolant behind grid-sampled commuting flows.

It reproduces bicubic polynomials exactly, converges at fourth order on a
smooth field, and on the Goursat grid of ``shallow_water_riemann`` agrees
with the bicubic spline of ``scipy.interpolate`` (a test-only oracle).
"""

import numpy as np
import pytest
import scipy.interpolate

from conftest import shallow_water_riemann_system
from hydrobrackets import hodograph as hg
from hydrobrackets.system import Box, sample_box

BOX = Box((0.2, -1.0), (1.4, 0.5))


def sampled_flow(field, cells, box=BOX):
    axes = tuple(np.linspace(lo, hi, cells + 1) for lo, hi in zip(box.lo, box.hi))
    grid = np.meshgrid(*axes, indexing="ij")
    return hg.CommutingFlow(("a", "b"), axes=axes,
                            values=np.stack([f(*grid) for f in field]))


def bicubic(a, b):
    return 1.5 - a + 2 * a * b - 3 * a ** 2 * b ** 3 + a ** 3 * b + 0.5 * b ** 3


def bicubic_da(a, b):
    return -1 + 2 * b - 6 * a * b ** 3 + 3 * a ** 2 * b


def bicubic_db(a, b):
    return 2 * a - 9 * a ** 2 * b ** 2 + a ** 3 + 1.5 * b ** 2


def smooth(a, b):
    return np.sin(2 * a + b) * np.exp(0.7 * b) + np.cos(3 * a * b)


@pytest.mark.parametrize("cells", [4, 7])
def test_bicubic_polynomials_are_reproduced(cells):
    other = lambda a, b: bicubic(b + 1, a - 0.5)    # noqa: E731
    flow = sampled_flow((bicubic, other), cells)
    pts = sample_box(BOX, 200)
    a, b = pts.T
    w, dw = flow.w_at(pts), flow.dw_at(pts)
    np.testing.assert_allclose(w[:, 0], bicubic(a, b), rtol=0, atol=1e-12)
    np.testing.assert_allclose(w[:, 1], other(a, b), rtol=0, atol=1e-12)
    np.testing.assert_allclose(dw[:, 0, 0], bicubic_da(a, b), rtol=0, atol=1e-11)
    np.testing.assert_allclose(dw[:, 0, 1], bicubic_db(a, b), rtol=0, atol=1e-11)
    np.testing.assert_allclose(dw[:, 1, 0], bicubic_db(b + 1, a - 0.5),
                               rtol=0, atol=1e-11)
    np.testing.assert_allclose(dw[:, 1, 1], bicubic_da(b + 1, a - 0.5),
                               rtol=0, atol=1e-11)


def test_smooth_field_converges_at_fourth_order():
    pts = sample_box(BOX, 500)
    exact = smooth(*pts.T)
    errors = [np.max(np.abs(sampled_flow((smooth, smooth), cells).w_at(pts)[:, 0]
                            - exact))
              for cells in (16, 32, 64)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 3.5), (errors, orders)


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_axes_of_fewer_than_five_nodes_reproduce_quadratics(cells):
    # 2nd-order node slopes there, exact on quadratics (linears on 2 nodes)
    def field(a, b):
        return 1 + a - 2 * b + (a * b - 0.5 * a * a if cells > 1 else 0)

    flow = sampled_flow((field, field), cells)
    pts = sample_box(BOX, 50)
    np.testing.assert_allclose(flow.w_at(pts)[:, 1], field(*pts.T),
                               rtol=0, atol=1e-12)


def test_queries_outside_the_grid_are_clamped():
    flow = sampled_flow((smooth, bicubic), 8)
    lo, hi = np.array(BOX.lo), np.array(BOX.hi)
    outside = np.array([[lo[0] - 1, 0.0], [hi[0] + 2, hi[1] + 1], [0.5, lo[1] - 3]])
    assert np.array_equal(flow.w_at(outside), flow.w_at(np.clip(outside, lo, hi)))
    assert np.array_equal(flow.dw_at(outside), flow.dw_at(np.clip(outside, lo, hi)))


@pytest.mark.parametrize("axes", [
    (np.array([0.0, 0.1, 0.3, 0.4]), np.linspace(0, 1, 4)),
    (np.linspace(1, 0, 4), np.linspace(0, 1, 4)),
    (np.array([0.0]), np.linspace(0, 1, 4)),
])
def test_sampled_flow_needs_increasing_uniform_axes(axes):
    values = np.zeros((2, len(axes[0]), len(axes[1])))
    with pytest.raises(ValueError, match="uniform"):
        hg.CommutingFlow(("a", "b"), axes=axes, values=values)


def test_sampled_flow_values_must_match_the_axes():
    axes = (np.linspace(0, 1, 5), np.linspace(0, 1, 6))
    with pytest.raises(ValueError, match=r"shape \(2, 5, 6\)"):
        hg.CommutingFlow(("a", "b"), axes=axes, values=np.zeros((2, 6, 5)))


def test_an_edit_of_the_callers_values_reaches_no_sampled_flow():
    """A caller's values are copied, and a flow's own values are read-only,
    so no edit leaves the interpolant's slopes behind its values."""
    axes = tuple(np.linspace(lo, hi, 9) for lo, hi in zip(BOX.lo, BOX.hi))
    grid = np.meshgrid(*axes, indexing="ij")
    values = np.stack([smooth(*grid), bicubic(*grid)])
    flow = hg.CommutingFlow(("a", "b"), axes=axes, values=values)
    pts = sample_box(BOX, 20)
    before = (flow.values.copy(), flow.w_at(pts), flow.dw_at(pts))
    values[:] = 7.0
    assert values.flags.writeable
    for got, want in zip((flow.values, flow.w_at(pts), flow.dw_at(pts)), before):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="read-only"):
        flow.values[0, 0, 0] = 1.0


def test_an_integrated_flow_keeps_its_grid_read_only():
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1", "R2", resolution=16)
    assert flow.values is flow._hermite.values
    with pytest.raises(ValueError, match="read-only"):
        flow.values[1, 2, 3] = 0.0


def test_goursat_flow_agrees_with_the_scipy_spline():
    sys = shallow_water_riemann_system()
    flow = hg.integrate_commuting_flow(sys, "R1^2/2", "R2^2/2 - 5")
    pts = sample_box(sys.box, 2000)
    r1, r2 = pts.T
    for k in range(2):
        spline = scipy.interpolate.RectBivariateSpline(
            *flow.axes, flow.values[k], kx=3, ky=3)
        np.testing.assert_allclose(flow.w_at(pts)[:, k],
                                   spline(r1, r2, grid=False), rtol=0, atol=1e-8)
        for mu, (dx, dy) in enumerate([(1, 0), (0, 1)]):
            np.testing.assert_allclose(flow.dw_at(pts)[:, k, mu],
                                       spline(r1, r2, dx=dx, dy=dy, grid=False),
                                       rtol=0, atol=1e-6)
