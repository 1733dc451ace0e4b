import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abincull import (
    Box3,
    ScalarQuadratic,
    box_extrema_exact,
    box_extrema_grid,
    box_extrema_nine_point,
    stationary_point,
)
from abincull.cli import random_box, random_quadratic

I3 = np.eye(3)
Z3 = np.zeros((3, 3))
UNIT_BOX = Box3([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])


def quad(c0=0.0, b=(0.0, 0.0, 0.0), h=None):
    return ScalarQuadratic(c0, b, Z3 if h is None else h)


class TestValueAndGradient:
    def test_constant_polynomial(self):
        assert quad(c0=5.0).value([3.0, -1.0, 2.0]) == 5.0

    def test_linear_projection(self):
        assert quad(b=(1.0, 0.0, 0.0)).value([2.0, 7.0, -4.0]) == 2.0

    def test_half_norm_squared(self):
        assert quad(h=I3).value([1.0, 1.0, 1.0]) == pytest.approx(1.5)

    def test_constant_gradient(self):
        q = quad(b=(1.0, 2.0, 3.0))
        for x in ([0.0, 0.0, 0.0], [4.0, -2.0, 9.0]):
            assert np.allclose(q.gradient(x), [1.0, 2.0, 3.0])

    def test_identity_hessian_gradient(self):
        assert np.allclose(quad(h=I3).gradient([1.0, -1.0, 0.0]), [1.0, -1.0, 0.0])

    def test_cross_term_gradient(self):
        h = np.zeros((3, 3))
        h[0, 1] = h[1, 0] = 1.0
        assert np.allclose(quad(h=h).gradient([2.0, 3.0, 5.0]), [3.0, 2.0, 0.0])

    def test_hessian_symmetrized_on_construction(self):
        q = ScalarQuadratic(0.0, np.zeros(3), [[0, 2, 0], [0, 0, 0], [0, 0, 0]])
        assert np.allclose(q.hessian, q.hessian.T)

    def test_value_at_origin_is_constant(self, rng):
        for _ in range(20):
            q = random_quadratic(rng)
            assert q.value([0.0, 0.0, 0.0]) == q.constant


class TestBox3Corners:
    def test_corner_order(self):
        # row k takes hi on the axes whose bit is set, bits in
        # itertools.product((0, 1), repeat=3) order
        corners = Box3([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]).corners()
        assert corners.tolist() == [
            [1.0, 2.0, 3.0], [1.0, 2.0, 30.0], [1.0, 20.0, 3.0], [1.0, 20.0, 30.0],
            [10.0, 2.0, 3.0], [10.0, 2.0, 30.0], [10.0, 20.0, 3.0], [10.0, 20.0, 30.0],
        ]

    def test_degenerate_axis(self):
        corners = Box3([-1.0, 5.0, 0.0], [1.0, 5.0, 2.0]).corners()
        assert corners.shape == (8, 3)
        assert np.all(corners[:, 1] == 5.0)


class TestStationaryPoint:
    def test_identity_hessian(self):
        assert np.allclose(stationary_point(quad(h=I3)), [0.0, 0.0, 0.0])

    def test_completes_the_square(self):
        q = quad(b=(-1.0, 0.0, 0.0), h=np.diag([1.0, 1.0, 1.0]))
        assert np.allclose(stationary_point(q), [1.0, 0.0, 0.0])

    def test_linear_has_none(self):
        assert stationary_point(quad(b=(1.0, 0.0, 0.0))) is None

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            stationary_point(quad(h=I3), tol=0.0)

    def test_gradient_vanishes_at_stationary_point(self, rng):
        hits = 0
        for _ in range(300):
            q = random_quadratic(rng)
            x_star = stationary_point(q)
            if x_star is None:
                continue
            hits += 1
            g = np.linalg.norm(q.gradient(x_star))
            scale = (np.linalg.norm(q.linear)
                     + np.linalg.norm(q.hessian) * np.linalg.norm(x_star) + 1e-30)
            assert g <= 1e-9 * scale
        assert hits > 250


class TestNinePointExtrema:
    def test_linear_corners_exact(self):
        ext = box_extrema_nine_point(quad(b=(1.0, 0.0, 0.0)), UNIT_BOX)
        assert (ext.min_val, ext.max_val) == (-1.0, 1.0)

    def test_convex_bowl(self):
        ext = box_extrema_nine_point(quad(h=I3), UNIT_BOX)
        assert ext.min_val == 0.0
        assert np.allclose(ext.argmin, [0.0, 0.0, 0.0])
        assert ext.max_val == pytest.approx(1.5)

    def test_misses_facet_maximum(self):
        # value x2 - x1^2: true max 1 sits mid-facet, invisible to the
        # nine candidate points
        q = quad(b=(0.0, 1.0, 0.0), h=np.diag([-2.0, 0.0, 0.0]))
        nine = box_extrema_nine_point(q, UNIT_BOX)
        assert (nine.min_val, nine.max_val) == (-2.0, 0.0)
        exact = box_extrema_exact(q, UNIT_BOX)
        grid = box_extrema_grid(q, UNIT_BOX, 101)
        span = exact.max_val - exact.min_val
        assert exact.min_val == pytest.approx(grid.min_val, abs=1e-4 * span)
        assert exact.max_val == pytest.approx(grid.max_val, abs=1e-4 * span)
        assert (exact.min_val, exact.max_val) == pytest.approx((-2.0, 1.0))


class TestExactExtrema:
    def test_facet_maximum_found(self):
        q = quad(b=(0.0, 1.0, 0.0), h=np.diag([-2.0, 0.0, 0.0]))
        ext = box_extrema_exact(q, UNIT_BOX)
        assert ext.min_val == pytest.approx(-2.0)
        assert ext.max_val == pytest.approx(1.0)
        assert abs(ext.argmax[0]) < 1e-9 and ext.argmax[1] == pytest.approx(1.0)

    def test_convex_bowl(self):
        ext = box_extrema_exact(quad(h=I3), UNIT_BOX)
        assert (ext.min_val, ext.max_val) == pytest.approx((0.0, 1.5))

    def test_saddle_cross_term(self):
        h = np.zeros((3, 3))
        h[0, 1] = h[1, 0] = 1.0
        ext = box_extrema_exact(quad(h=h), UNIT_BOX)
        assert (ext.min_val, ext.max_val) == pytest.approx((-1.0, 1.0))

    def test_argpoints_inside_box(self, rng):
        for _ in range(100):
            q = random_quadratic(rng)
            box = random_box(rng, degenerate=rng.random() < 0.2)
            ext = box_extrema_exact(q, box)
            tol = 1e-12 * (box.diagonal + 1.0)
            assert box.contains(ext.argmin, tol=tol)
            assert box.contains(ext.argmax, tol=tol)
            assert ext.min_val <= ext.max_val

    def test_degenerate_box_axis(self):
        # value y - x^2 with y pinned at 0.5
        box = Box3([-1.0, 0.5, -1.0], [1.0, 0.5, 1.0])
        q = quad(b=(0.0, 1.0, 0.0), h=np.diag([-2.0, 0.0, 0.0]))
        ext = box_extrema_exact(q, box)
        assert ext.max_val == pytest.approx(0.5)
        assert ext.min_val == pytest.approx(-0.5)

    def test_point_box(self):
        box = Box3([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        q = quad(c0=1.0, b=(1.0, 1.0, 1.0))
        ext = box_extrema_exact(q, box)
        assert ext.min_val == ext.max_val == pytest.approx(2.5)


class TestGridExtrema:
    def test_linear_two_points(self):
        ext = box_extrema_grid(quad(b=(1.0, 0.0, 0.0)), Box3([0] * 3, [1] * 3), 2)
        assert (ext.min_val, ext.max_val) == (0.0, 1.0)

    def test_lattice_hits_center_and_corners(self):
        ext = box_extrema_grid(quad(h=I3), UNIT_BOX, 3)
        assert (ext.min_val, ext.max_val) == pytest.approx((0.0, 1.5))

    def test_n2_equals_corner_extrema(self, rng):
        for _ in range(25):
            q = random_quadratic(rng)
            box = random_box(rng)
            grid = box_extrema_grid(q, box, 2)
            vals = q.value(box.corners())
            assert grid.min_val == pytest.approx(vals.min())
            assert grid.max_val == pytest.approx(vals.max())

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            box_extrema_grid(quad(), UNIT_BOX, 1)


class TestBracketingInvariants:
    def test_nine_point_bracketed_by_exact(self, rng):
        for _ in range(300):
            q = random_quadratic(rng)
            box = random_box(rng, degenerate=rng.random() < 0.15)
            exact = box_extrema_exact(q, box)
            nine = box_extrema_nine_point(q, box)
            span = max(exact.max_val - exact.min_val, 1.0)
            assert nine.min_val >= exact.min_val - 1e-12 * span
            assert nine.max_val <= exact.max_val + 1e-12 * span

    def test_grid_converges_monotonically(self, rng):
        # the n = 2, 11, 101 lattices are nested, so extrema tighten with n
        # and land within O(1/n^2) of exact
        for _ in range(40):
            q = random_quadratic(rng)
            box = random_box(rng)
            exact = box_extrema_exact(q, box)
            diag = box.diagonal
            h_norm = np.linalg.norm(q.hessian)
            b_norm = np.linalg.norm(q.linear)
            prev_min, prev_max = math.inf, -math.inf
            for n in (2, 11, 101):
                grid = box_extrema_grid(q, box, n)
                eps = 1e-9 * (1.0 + abs(grid.min_val) + abs(grid.max_val))
                assert grid.min_val <= prev_min + eps
                assert grid.max_val >= prev_max - eps
                assert grid.min_val >= exact.min_val - eps
                assert grid.max_val <= exact.max_val + eps
                bound = (h_norm * diag ** 2 + b_norm * diag) / (n - 1) ** 2 + eps
                assert grid.min_val - exact.min_val <= bound
                assert exact.max_val - grid.max_val <= bound
                prev_min, prev_max = grid.min_val, grid.max_val

    def test_linear_all_routes_agree_exactly(self, rng):
        for _ in range(50):
            q = ScalarQuadratic(rng.normal(), rng.normal(size=3) * 3.0, Z3)
            box = random_box(rng)
            nine = box_extrema_nine_point(q, box)
            exact = box_extrema_exact(q, box)
            grid = box_extrema_grid(q, box, 2)
            assert nine.min_val == exact.min_val == grid.min_val
            assert nine.max_val == exact.max_val == grid.max_val

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(1000):
            q = random_quadratic(rng)
            x = rng.uniform(-4.0, 4.0, size=3)
            scale = float(np.linalg.norm(x)) + 1.0
            h = 1e-5 * scale
            fd = np.empty(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (q.value(x + e) - q.value(x - e)) / (2.0 * h)
            g = q.gradient(x)
            assert np.linalg.norm(fd - g) <= 1e-6 * (np.linalg.norm(g) + 1.0)


coef = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(c0=coef, b=st.tuples(coef, coef, coef),
       diag=st.tuples(coef, coef, coef),
       off=st.tuples(coef, coef, coef),
       center=st.tuples(coef, coef, coef),
       half=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
def test_bracketing_property(c0, b, diag, off, center, half):
    h = np.diag(diag)
    h[0, 1] = h[1, 0] = off[0]
    h[0, 2] = h[2, 0] = off[1]
    h[1, 2] = h[2, 1] = off[2]
    q = ScalarQuadratic(c0, b, h)
    c = np.array(center)
    w = np.array(half)
    box = Box3(c - w, c + w)
    exact = box_extrema_exact(q, box)
    nine = box_extrema_nine_point(q, box)
    grid = box_extrema_grid(q, box, 11)
    span = max(exact.max_val - exact.min_val, 1.0)
    assert exact.min_val - 1e-9 * span <= nine.min_val
    assert nine.max_val <= exact.max_val + 1e-9 * span
    assert exact.min_val - 1e-9 * span <= grid.min_val
    assert grid.max_val <= exact.max_val + 1e-9 * span
