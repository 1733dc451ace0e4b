import math

import numpy as np
import pytest

from abincull import (
    Box3,
    Classification,
    CullConfig,
    ExtremaMode,
    GeodeticParams,
    Plane,
    PlaneState,
    ScalarQuadratic,
    classify_aabb8,
    classify_against_plane,
    classify_bin,
    frustum_from_camera,
    identity_jet,
    inflate_bin,
    plane_quadratic,
    sphere_jet,
)
from abincull.cli import _orbit_pose, random_pose
from abincull.mapping import _sphere_jet_rows

PARAMS = GeodeticParams()
R = PARAMS.radius_m
HALF_BOX = Box3([-0.5] * 3, [0.5] * 3)


class TestInflateBin:
    def test_reference_factor(self):
        out = inflate_bin(Box3([-1.0] * 3, [1.0] * 3), 1.1)
        assert np.allclose(out.lo, [-1.1] * 3)
        assert np.allclose(out.hi, [1.1] * 3)

    def test_identity_factor(self):
        box = Box3([-2.0, 0.0, 1.0], [-1.0, 3.0, 4.0])
        out = inflate_bin(box, 1.0)
        assert np.allclose(out.lo, box.lo) and np.allclose(out.hi, box.hi)

    def test_center_preserved(self):
        out = inflate_bin(Box3([0.0] * 3, [2.0] * 3), 1.5)
        assert np.allclose(out.lo, [-0.5] * 3)
        assert np.allclose(out.hi, [2.5] * 3)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            inflate_bin(HALF_BOX, 0.9)


class TestCullConfig:
    def test_rejects_out_of_range_inflation(self):
        for bad in (0.5, 2.5):
            with pytest.raises(ValueError):
                CullConfig(inflation=bad)


class TestPlaneQuadratic:
    def test_identity_jet(self):
        jet = identity_jet([2.0, 0.0, 0.0])
        q, d = plane_quadratic(jet, Plane([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
        assert d == pytest.approx(2.0)
        assert np.allclose(q.linear, [-1.0, 0.0, 0.0])
        assert np.allclose(q.hessian, 0.0)
        assert q.constant == 0.0

    def test_sphere_jet_z_plane(self):
        jet = sphere_jet(PARAMS, [R, 0.0, 0.0])
        q, d = plane_quadratic(jet, Plane([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]))
        assert d == pytest.approx(R)
        assert np.allclose(q.linear, [-1.0, 0.0, 0.0])

    def test_value_at_origin_is_zero(self, rng):
        for _ in range(20):
            jet = sphere_jet(PARAMS, [R + rng.uniform(0, 9000),
                                      rng.uniform(-1.5, 1.5),
                                      rng.uniform(-3.1, 3.1)])
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            q, _ = plane_quadratic(jet, Plane(n, rng.uniform(-R, R, 3)))
            assert q.value([0.0, 0.0, 0.0]) == 0.0


def _unrolled_terms(value, jac, h_x, h_y, h_z, plane_scalars):
    """The traversal's per-plane arithmetic, written out: (b, H, d)."""
    n0, n1, n2, p0, p1, p2 = plane_scalars
    b = [-(jac[0][k] * n0 + jac[1][k] * n1 + jac[2][k] * n2) for k in range(3)]
    h = [[-(n0 * h_x[r][c] + n1 * h_y[r][c] + n2 * h_z[r][c]) for c in range(3)]
         for r in range(3)]
    d = n0 * (value[0] - p0) + n1 * (value[1] - p1) + n2 * (value[2] - p2)
    return b, h, d


def _tiles_under_orbit_poses(rng, count):
    """(frustum, center, offsets) with the bin near the camera's nadir."""
    for _ in range(count):
        pose = _orbit_pose(rng, PARAMS)
        x, y, z = pose.eye / np.linalg.norm(pose.eye)
        center = np.array([R + rng.uniform(0, 9000),
                           np.clip(math.asin(y) + rng.uniform(-0.4, 0.4), -1.5, 1.5),
                           math.atan2(x, z) + rng.uniform(-0.4, 0.4)])
        half = np.array([rng.uniform(0, 4500),
                         rng.uniform(0.005, 0.1),
                         rng.uniform(0.005, 0.1)])
        yield frustum_from_camera(pose), center, Box3(-half, half)


class TestOneArithmetic:
    """The single-plane API runs the traversal's arithmetic, bit for bit."""

    def test_plane_quadratic_equals_unrolled(self, rng):
        for frustum, center, _ in _tiles_under_orbit_poses(rng, 300):
            rows = _sphere_jet_rows(*center.tolist())
            jet = sphere_jet(PARAMS, center)
            for plane, scalars in zip(frustum.planes, frustum.plane_scalars):
                q, d = plane_quadratic(jet, plane)
                b, h, want_d = _unrolled_terms(*rows, scalars)
                assert q.linear.tolist() == b
                assert q.hessian.tolist() == h
                assert d == want_d

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_planes_compose_to_classify_bin(self, rng, mode):
        seen = set()
        for frustum, center, offsets in _tiles_under_orbit_poses(rng, 300):
            jet = sphere_jet(PARAMS, center)
            inflated = inflate_bin(offsets, 1.1)
            states = [classify_against_plane(*plane_quadratic(jet, plane), inflated, mode)
                      for plane in frustum.planes]
            if PlaneState.FULLY_OUTSIDE in states:
                composed = Classification.OUTSIDE
            elif all(s is PlaneState.FULLY_INSIDE for s in states):
                composed = Classification.INSIDE
            else:
                composed = Classification.INTERSECT
            assert classify_bin(jet, offsets, frustum, CullConfig(1.1, mode)) is composed
            seen.add(composed)
        assert seen == set(Classification)


class TestClassifyAgainstPlane:
    Q = ScalarQuadratic(0.0, [-1.0, 0.0, 0.0], np.zeros((3, 3)))

    def test_fully_outside(self):
        state = classify_against_plane(self.Q, 2.0, HALF_BOX, ExtremaMode.EXACT)
        assert state is PlaneState.FULLY_OUTSIDE

    def test_fully_inside(self):
        state = classify_against_plane(self.Q, -2.0, HALF_BOX, ExtremaMode.EXACT)
        assert state is PlaneState.FULLY_INSIDE

    def test_straddles(self):
        state = classify_against_plane(self.Q, 0.0, HALF_BOX, ExtremaMode.NINE_POINT)
        assert state is PlaneState.STRADDLES

    def test_mode_dominance(self, rng):
        # EXACT deciding a side forces NINE_POINT to decide the same side
        from abincull.cli import random_box, random_quadratic
        for _ in range(300):
            q = random_quadratic(rng)
            box = random_box(rng)
            d = rng.normal() * 4.0
            exact = classify_against_plane(q, d, box, ExtremaMode.EXACT)
            nine = classify_against_plane(q, d, box, ExtremaMode.NINE_POINT)
            if exact is PlaneState.FULLY_OUTSIDE:
                assert nine is PlaneState.FULLY_OUTSIDE
            if exact is PlaneState.FULLY_INSIDE:
                assert nine is PlaneState.FULLY_INSIDE


class TestClassifyBin:
    def test_beyond_far_plane(self, canonical_frustum):
        jet = identity_jet([0.0, 0.0, -150.0])
        cls = classify_bin(jet, HALF_BOX, canonical_frustum, CullConfig(1.0))
        assert cls is Classification.OUTSIDE

    def test_strictly_interior(self, canonical_frustum):
        jet = identity_jet([0.0, 0.0, -50.0])
        cls = classify_bin(jet, HALF_BOX, canonical_frustum, CullConfig(1.0))
        assert cls is Classification.INSIDE

    def test_straddles_near_plane(self, canonical_frustum):
        jet = identity_jet([0.0, 0.0, -1.0])
        cls = classify_bin(jet, HALF_BOX, canonical_frustum, CullConfig(1.0))
        assert cls is Classification.INTERSECT

    def test_identity_equivalence_with_corner_test(self, rng):
        # with the identity map and no inflation, the quadratic test reduces
        # to the linear 8-corner box test
        for mode in (ExtremaMode.EXACT, ExtremaMode.NINE_POINT):
            cfg = CullConfig(1.0, mode)
            for _ in range(500):
                frustum = frustum_from_camera(random_pose(rng))
                center = rng.uniform(-300, 300, 3)
                half = rng.uniform(0.1, 50.0, 3)
                got = classify_bin(identity_jet(center), Box3(-half, half),
                                   frustum, cfg)
                want = classify_aabb8(Box3(center - half, center + half), frustum)
                assert got is want

    def test_inflation_monotonicity(self, rng):
        for _ in range(200):
            center = np.array([R + rng.uniform(0, 9000),
                               rng.uniform(-1.2, 1.2),
                               rng.uniform(-3.0, 3.0)])
            half = np.array([rng.uniform(0, 4500),
                             rng.uniform(0.01, 0.1),
                             rng.uniform(0.01, 0.1)])
            jet = sphere_jet(PARAMS, center)
            pose = _orbit_pose(rng, PARAMS)
            frustum = frustum_from_camera(pose)
            offsets = Box3(-half, half)
            tight = classify_bin(jet, offsets, frustum, CullConfig(1.0))
            loose = classify_bin(jet, offsets, frustum, CullConfig(1.1))
            if loose is Classification.OUTSIDE:
                assert tight is not Classification.INSIDE
            if loose is Classification.INSIDE:
                assert tight is Classification.INSIDE

