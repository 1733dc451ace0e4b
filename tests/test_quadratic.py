import copy
import hashlib
import math
import pickle
import random

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
from abincull.quadratic import _extrema_exact, _extrema_nine_point

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


class TestBox3Values:
    """Box3 holds its six bounds as Python floats; lo/hi are views built on demand."""

    @pytest.mark.parametrize("lo, hi", [
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, 1.0]),
        ([[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]]),
        ([[0.0], [0.0], [0.0]], [[1.0], [1.0], [1.0]]),
        (0.0, 1.0),
    ], ids=["both_2d", "hi_2d", "nested_row", "nested_column", "scalar"])
    def test_rejects_non_3_vectors(self, lo, hi):
        with pytest.raises(ValueError):
            Box3(lo, hi)

    @pytest.mark.parametrize("axis", range(3))
    def test_rejects_lo_above_hi_on_each_axis(self, axis):
        lo, hi = [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
        lo[axis] = 2.0
        with pytest.raises(ValueError):
            Box3(lo, hi)
        with pytest.raises(ValueError):
            Box3(tuple(lo), tuple(hi))

    def test_nan_bounds_accepted(self):
        box = Box3((math.nan, 0.0, 0.0), (1.0, math.nan, 1.0))
        assert math.isnan(box.bounds[0]) and math.isnan(box.bounds[4])

    @pytest.mark.parametrize("lo, hi", [
        ([-1, 0, 2], [1, 3, 4]),
        (np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 4.0])),
        ((np.float64(-1.0), np.float64(0.0), np.float64(2.0)),
         (np.float64(1.0), np.float64(3.0), np.float64(4.0))),
        (np.array([-1, 0, 2], dtype=np.int32), np.array([1, 3, 4], dtype=np.int64)),
    ], ids=["ints", "arrays", "float64_scalars", "int_arrays"])
    def test_bounds_are_python_floats(self, lo, hi):
        box = Box3(lo, hi)
        assert box.bounds == (-1.0, 0.0, 2.0, 1.0, 3.0, 4.0)
        assert all(type(v) is float for v in box.bounds)

    @pytest.mark.parametrize("make", [tuple, list, np.array])
    def test_negative_zero_kept(self, make):
        box = Box3(make([-0.0, -0.0, -0.0]), make([0.0, 0.0, 0.0]))
        assert [math.copysign(1.0, v) for v in box.bounds] == [-1.0] * 3 + [1.0] * 3

    def test_lo_hi_arrays_bit_equal_to_inputs(self, rng):
        lo = rng.normal(size=3) - 1.0
        hi = lo + rng.uniform(0.0, 2.0, size=3)
        lo[1] = -0.0
        hi[1] = 0.0
        box = Box3(lo, hi)
        assert box.lo.dtype == box.hi.dtype == np.float64
        assert (box.lo.tobytes(), box.hi.tobytes()) == (lo.tobytes(), hi.tobytes())
        # a new array on each access: writing to one leaves the box as it was
        box.lo[0] = 99.0
        assert box.lo.tobytes() == lo.tobytes()

    def test_immutable(self):
        box = Box3([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        for name, value in (("bounds", (0.0,) * 6), ("lo", np.zeros(3)),
                            ("other", 1.0)):
            with pytest.raises(AttributeError):
                setattr(box, name, value)

    def test_equal_bounds_give_equal_hashable_boxes(self):
        a = Box3([0, -1.5, 2], [1, 1.5, 2])
        b = Box3(np.array([0.0, -1.5, 2.0]), (1.0, 1.5, 2.0))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Box3([0, -1.5, 2], [1, 1.5, 3])
        assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


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


def _golden_inputs(seed: int = 15, per_kind: int = 850) -> list[tuple]:
    """Kernel argument tuples (c0, b0, b1, b2, h00, h01, h02, h11, h12, h22,
    lo0, lo1, lo2, hi0, hi1, hi2), six kinds of ``per_kind`` each.

    Built from ``random.Random(seed).uniform`` and float arithmetic only
    (no libm calls), so every IEEE-754 host builds the same inputs.
    """
    u = random.Random(seed).uniform
    decades = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7)

    def signed_magnitude():  # |value| spans 1e-3 .. 1e7
        value = u(1.0, 10.0) * decades[int(u(0.0, 10.0))]
        return value if u(-1.0, 1.0) >= 0.0 else -value

    def general(scale=5.0):
        return [u(-scale, scale) for _ in range(10)]

    def box(half):
        center = [u(-3.0, 3.0) for _ in range(3)]
        return ([c - w for c, w in zip(center, half)]
                + [c + w for c, w in zip(center, half)])

    def definite():  # +-(m m^T) for a random 3x3 m, mostly full rank
        m = [[u(-2.0, 2.0) for _ in range(3)] for _ in range(3)]
        sign = 1.0 if u(-1.0, 1.0) >= 0.0 else -1.0
        return [sign * sum(m[i][k] * m[j][k] for k in range(3))
                for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]

    inputs = []
    for _ in range(per_kind):
        # general position
        inputs.append((*general(), *box([u(0.0, 2.0) for _ in range(3)])))
        # stationary point s in the box, on its lo or hi face per axis with
        # probability 2/3, with a definite hessian in half the cases: the
        # interior and facet candidates win, and face solves land on the
        # box's boundary, where their in-box tests and clamps decide
        c = general()
        if u(0.0, 1.0) < 0.5:
            c[4:] = definite()
        h00, h01, h02, h11, h12, h22 = c[4:]
        s = [u(-2.0, 2.0) for _ in range(3)]
        c[1:4] = [-(h00 * s[0] + h01 * s[1] + h02 * s[2]),
                  -(h01 * s[0] + h11 * s[1] + h12 * s[2]),
                  -(h02 * s[0] + h12 * s[1] + h22 * s[2])]
        lo, hi = [x - u(0.0, 3.0) for x in s], [x + u(0.0, 3.0) for x in s]
        for k in range(3):
            side = u(0.0, 3.0)
            if side < 1.0:
                lo[k] = s[k]
            elif side < 2.0:
                hi[k] = s[k]
        inputs.append((*c, *lo, *hi))
        # degenerate widths: each axis pinned with probability 1/2
        inputs.append((*general(), *box([u(0.0, 2.0) if u(0.0, 1.0) < 0.5 else 0.0
                                         for _ in range(3)])))
        # zero hessian rows, all three (a linear function) in 1/8 of cases
        c = general()
        for entries in ((4, 5, 6), (5, 7, 8), (6, 8, 9)):
            if u(0.0, 1.0) < 0.5:
                for e in entries:
                    c[e] = 0.0
        inputs.append((*c, *box([u(0.0, 2.0) for _ in range(3)])))
        # singular hessians s1 a a^T + s2 v v^T (rank 1 when s2 = 0); integer
        # vectors make the reduced determinants exactly zero
        whole = u(0.0, 1.0) < 0.5
        a, v = ([float(int(u(-3.0, 3.0))) if whole else u(-2.0, 2.0) for _ in range(3)]
                for _ in range(2))
        s1, s2 = u(-2.0, 2.0), (u(-2.0, 2.0) if u(0.0, 1.0) < 0.5 else 0.0)
        hess = [s1 * a[i] * a[j] + s2 * v[i] * v[j]
                for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
        inputs.append((*general()[:4], *hess, *box([u(0.0, 2.0) for _ in range(3)])))
        # geodetic scale: centered radius x lat x lon offsets, flat in 1/5
        half = [u(0.0, 4500.0) if u(0.0, 1.0) < 0.8 else 0.0,
                u(0.0, 0.05), u(0.0, 0.05)]
        inputs.append((0.0, *(signed_magnitude() for _ in range(9)),
                       *(-w for w in half), *half))
    return inputs


# sha256 over float.hex of every (min, max, argmin, argmax) on _golden_inputs(),
# recorded from the kernels before their candidates shared one loop: a change
# to a kernel's arithmetic, tolerances or candidate order changes a digest
GOLDEN_SHA256 = {
    "exact": "6550adb742139fe619a07c22d44becc8f31010c8301a18d4c15077dba532d429",
    "nine_point": "0097cc5625012b1974dbacd1ba1fd0a349a819f7e78dde448953d0ef536d2553",
}


@pytest.mark.parametrize("kernel", ["exact", "nine_point"])
def test_kernel_bits_match_golden(kernel):
    fn = {"exact": _extrema_exact, "nine_point": _extrema_nine_point}[kernel]
    inputs = _golden_inputs()
    assert len(inputs) == 5100
    digest = hashlib.sha256()
    for args in inputs:
        mn, mx, amn, amx = fn(*args)
        digest.update(" ".join(map(float.hex, (mn, mx, *amn, *amx))).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256[kernel]
