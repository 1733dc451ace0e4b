import math

import numpy as np
import pytest

from abincull import (
    GeodeticParams,
    MapJet,
    identity_jet,
    identity_point,
    jet_fd_error,
    sphere_fd_error,
    sphere_jet,
    sphere_point,
)

PARAMS = GeodeticParams()
R = PARAMS.radius_m


class TestIdentityJet:
    def test_at_origin(self):
        jet = identity_jet([0.0, 0.0, 0.0])
        assert np.allclose(jet.value, 0.0)
        assert np.allclose(jet.jacobian, np.eye(3))
        assert np.allclose(jet.hessians, 0.0)

    def test_value_equals_point(self):
        jet = identity_jet([1.0, 2.0, 3.0])
        assert np.allclose(jet.value, [1.0, 2.0, 3.0])
        assert np.allclose(jet.jacobian, np.eye(3))

    def test_quadratic_expansion_is_exact(self, rng):
        # identity is its own second-order expansion: value + J @ dx
        # reproduces the map exactly for any offset
        jet = identity_jet([4.0, -1.0, 0.5])
        for _ in range(10):
            dx = rng.uniform(-10, 10, 3)
            approx = jet.value + jet.jacobian @ dx
            assert np.allclose(approx, jet.point + dx)


class TestSphereJet:
    def test_equator_prime_meridian(self):
        jet = sphere_jet(PARAMS, [R, 0.0, 0.0])
        assert np.allclose(jet.value, [0.0, 0.0, R])

    def test_north_pole_any_lon(self):
        for lon in (0.0, 1.0, -2.5):
            jet = sphere_jet(PARAMS, [R, math.pi / 2, lon])
            assert np.allclose(jet.value, [0.0, R, 0.0], atol=1e-6)

    def test_jacobian_at_equator(self):
        jet = sphere_jet(PARAMS, [R, 0.0, 0.0])
        expect = np.array([[0.0, 0.0, R], [0.0, R, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(jet.jacobian, expect)
        assert sphere_fd_error(PARAMS, [R, 0.0, 0.0]) < 1e-6

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            sphere_jet(PARAMS, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            sphere_jet(PARAMS, [-10.0, 0.1, 0.1])

    def test_points_lie_on_sphere(self, rng):
        for _ in range(200):
            x = np.array([R + rng.uniform(0, 9000),
                          rng.uniform(-math.pi / 2, math.pi / 2),
                          rng.uniform(-math.pi, math.pi)])
            p = sphere_point(PARAMS, x)
            assert np.linalg.norm(p) == pytest.approx(x[0], rel=1e-14)

    def test_radial_second_derivatives_vanish(self, rng):
        # the map is linear in r, so every (r, r) hessian entry is exactly 0
        for _ in range(50):
            x = np.array([R + rng.uniform(0, 9000),
                          rng.uniform(-math.pi / 2, math.pi / 2),
                          rng.uniform(-math.pi, math.pi)])
            jet = sphere_jet(PARAMS, x)
            assert np.all(jet.hessians[:, 0, 0] == 0.0)

    def test_sphere_point_batched(self):
        pts = np.array([[R, 0.0, 0.0], [R, math.pi / 2, 0.3]])
        out = sphere_point(PARAMS, pts)
        assert out.shape == (2, 3)
        assert np.allclose(out[0], [0.0, 0.0, R])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GeodeticParams(0.0)
        with pytest.raises(ValueError):
            GeodeticParams(-1.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_params_reject_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="radius_m"):
            GeodeticParams(radius)


class TestFiniteDifferenceCheck:
    def test_identity_is_exact(self):
        for x0 in ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-5.0, 0.3, 7.0]):
            err = jet_fd_error(identity_point, identity_jet(x0), 1e-5)
            assert err <= 1e-9

    def test_sphere_jet_passes(self, rng):
        worst = 0.0
        for _ in range(100):
            x = np.array([R + rng.uniform(0, 9000),
                          rng.uniform(-math.pi / 2, math.pi / 2),
                          rng.uniform(-math.pi, math.pi)])
            worst = max(worst, sphere_fd_error(PARAMS, x, 1e-4))
        assert worst <= 1e-6

    def test_detects_flipped_derivative(self):
        # sensitivity check: a single sign flip must blow the error up to
        # order one
        jet = sphere_jet(PARAMS, [R, 0.0, 0.0])
        jac = jet.jacobian.copy()
        jac[0, 2] = -jac[0, 2]
        broken = MapJet(jet.point, jet.value, jac, jet.hessians)
        err = jet_fd_error(lambda x: sphere_point(PARAMS, x), broken, 1e-4)
        assert err > 0.5

    def test_detects_corrupted_hessian(self):
        jet = sphere_jet(PARAMS, [R, 0.4, -1.1])
        hes = jet.hessians.copy()
        hes[2, 1, 1] *= -1.0
        broken = MapJet(jet.point, jet.value, jet.jacobian, hes)
        err = jet_fd_error(lambda x: sphere_point(PARAMS, x), broken, 1e-4)
        assert err > 0.1

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            jet_fd_error(identity_point, identity_jet([0.0, 0.0, 0.0]), 0.0)
