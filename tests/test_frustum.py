import math

import numpy as np
import pytest

from abincull import CameraPose, Frustum, Plane, frustum_corners, frustum_from_camera
from abincull.cli import random_pose


class TestPlane:
    def test_signed_distance_positive_outside(self):
        p = Plane([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert p.signed_distance([2.0, 5.0, -1.0]) == pytest.approx(2.0)

    def test_point_on_plane(self):
        p = Plane([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        assert p.signed_distance([9.0, -4.0, 3.0]) == pytest.approx(0.0)

    def test_negative_inside(self):
        p = Plane([0.0, 1.0, 0.0], [0.0, 3.0, 0.0])
        assert p.signed_distance([0.0, 1.0, 0.0]) == pytest.approx(-2.0)

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            Plane([1.0, 1.0, 0.0], [0.0, 0.0, 0.0])

    def test_rejects_nan_normal(self):
        # |n| is NaN, which the unit-length comparison must not let through
        with pytest.raises(ValueError, match="normal"):
            Plane([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("point", [[math.inf, 0.0, 0.0], [0.0, math.nan, 0.0]],
                             ids=["inf", "nan"])
    def test_rejects_non_finite_point(self, point):
        with pytest.raises(ValueError, match="point"):
            Plane([1.0, 0.0, 0.0], point)


class TestCameraPose:
    def test_rejects_collinear_up(self):
        with pytest.raises(ValueError):
            CameraPose([0, 0, 0], [0, 0, -1], [0, 0, 1], 1.0, 1.0, 1.0, 10.0)

    def test_rejects_bad_fov(self):
        for fov in (0.0, math.pi, 4.0):
            with pytest.raises(ValueError):
                CameraPose([0, 0, 0], [0, 0, -1], [0, 1, 0], fov, 1.0, 1.0, 10.0)

    def test_rejects_bad_planes(self):
        with pytest.raises(ValueError):
            CameraPose([0, 0, 0], [0, 0, -1], [0, 1, 0], 1.0, 1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            CameraPose([0, 0, 0], [0, 0, -1], [0, 1, 0], 1.0, 1.0, 5.0, 5.0)

    def test_rejects_bad_aspect(self):
        with pytest.raises(ValueError):
            CameraPose([0, 0, 0], [0, 0, -1], [0, 1, 0], 1.0, 0.0, 1.0, 10.0)

    def test_rejects_infinite_aspect(self):
        # an infinite aspect gives the side planes non-finite normals
        with pytest.raises(ValueError, match="aspect"):
            CameraPose([0, 0, 0], [0, 0, -1], [0, 1, 0], 1.0, math.inf, 1.0, 10.0)

    def test_rejects_infinite_far(self):
        # an infinite far distance gives the far plane a NaN offset
        with pytest.raises(ValueError, match="far"):
            CameraPose([0, 0, 0], [0, 0, -1], [0, 1, 0], 1.0, 1.0, 1.0, math.inf)

    @pytest.mark.parametrize("field, value", [
        ("eye", [math.nan, 0, 0]), ("eye", [0, -math.inf, 0]), ("eye", [0, 0]),
        ("eye", [[0, 0, 0]]), ("look_dir", [math.inf, 0, -1]),
        ("look_dir", [0, math.nan, -1]), ("look_dir", [0, -1]),
        ("look_dir", [1e308, 1e308, 0]), ("up_hint", [math.nan, 1, 0]),
        ("up_hint", [0, 1, 0, 0]),
    ], ids=["eye_nan", "eye_inf", "eye_2d", "eye_nested", "look_inf", "look_nan",
         "look_2d", "look_norm_overflow", "up_nan", "up_4d"])
    def test_rejects_non_finite_or_misshaped_vectors(self, field, value):
        vectors = {"eye": [0, 0, 0], "look_dir": [0, 0, -1], "up_hint": [0, 1, 0]}
        vectors[field] = value
        with pytest.raises(ValueError, match=field):
            CameraPose(**vectors, fov_y=1.0, aspect=1.0, near=1.0, far=10.0)


class TestCanonicalFrustum:
    def test_interior_point(self, canonical_frustum):
        dists = [p.signed_distance([0.0, 0.0, -50.0]) for p in canonical_frustum.planes]
        assert all(d < 0 for d in dists)

    def test_point_in_front_of_near_plane(self, canonical_frustum):
        dists = [p.signed_distance([0.0, 0.0, -0.5]) for p in canonical_frustum.planes]
        assert dists[0] > 0
        assert all(d < 0 for d in dists[1:])

    def test_right_plane_normal(self, canonical_frustum):
        n = canonical_frustum.planes[3].normal
        s = math.sqrt(0.5)
        assert np.allclose(n, [s, 0.0, s])
        assert canonical_frustum.planes[3].signed_distance([200.0, 0.0, -50.0]) > 0

    def test_containment(self, canonical_frustum):
        assert canonical_frustum.contains([0.0, 0.0, -50.0])
        assert not canonical_frustum.contains([0.0, 0.0, 1.0])
        assert not canonical_frustum.contains([0.0, 0.0, -101.0])

    def test_eye_distance_to_near_plane(self, canonical_pose, canonical_frustum):
        d = canonical_frustum.planes[0].signed_distance(canonical_pose.eye)
        assert d == pytest.approx(canonical_pose.near)

    def test_contains_points_vectorized(self, canonical_frustum):
        pts = np.array([[0.0, 0.0, -50.0], [0.0, 0.0, 1.0], [0.0, 0.0, -101.0]])
        assert list(canonical_frustum.contains_points(pts)) == [True, False, False]


class TestFrustumGeometry:
    def test_corner_centroid_contained(self, rng):
        for _ in range(100):
            pose = random_pose(rng)
            fr = frustum_from_camera(pose)
            corners = frustum_corners(pose)
            assert fr.contains(corners.mean(axis=0))

    def test_corners_on_their_planes(self, rng):
        for _ in range(100):
            pose = random_pose(rng)
            fr = frustum_from_camera(pose)
            dists = fr.signed_distances(frustum_corners(pose))
            tol = 1e-6 * pose.far
            assert np.all(dists <= tol)
            # each corner is incident to near-or-far plus two side planes
            assert np.all((np.abs(dists) <= tol).sum(axis=1) >= 3)

    def test_homogeneity_under_scaling(self, rng):
        for _ in range(30):
            pose = random_pose(rng)
            s = rng.uniform(0.5, 10.0)
            scaled = CameraPose(pose.eye * s, pose.look_dir, pose.up_hint,
                                pose.fov_y, pose.aspect, pose.near * s, pose.far * s)
            fr = frustum_from_camera(pose)
            fr_s = frustum_from_camera(scaled)
            p = rng.uniform(-200, 200, 3)
            d = fr.signed_distances(p)
            d_s = fr_s.signed_distances(p * s)
            assert np.allclose(d_s, d * s, rtol=1e-9, atol=1e-9 * s)

    def test_frustum_requires_six_planes(self):
        with pytest.raises(ValueError):
            Frustum([Plane([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])] * 5, [0.0, 0.0, 0.0])
