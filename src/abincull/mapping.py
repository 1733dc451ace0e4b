"""Twice-differentiable 3->3 mappings packaged as second-order jets.

A jet bundles the mapping value, Jacobian, and the three per-component
Hessians at an expansion point.  Two mappings are provided: the identity
(calibration; reduces curved-bin culling to plain linear AABB culling) and
the geodetic sphere map

    x = r * cos(lat) * sin(lon)
    y = r * sin(lat)
    z = r * cos(lat) * cos(lon)

over parameters X = (r, lat, lon) with r = radius + altitude.  All derivative
code is validated against central finite differences by ``jet_fd_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MapJet",
    "GeodeticParams",
    "EARTH_RADIUS_M",
    "identity_jet",
    "identity_point",
    "sphere_jet",
    "sphere_point",
    "jet_fd_error",
    "sphere_fd_error",
]

# Mean earth radius in meters, configurable through GeodeticParams.
EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class MapJet:
    """Value, Jacobian, and per-component Hessians of a mapping at a point.

    ``jacobian[i, k]`` is the partial of component i with respect to
    parameter k; ``hessians[i]`` is the symmetric second-derivative matrix of
    component i.
    """

    point: np.ndarray
    value: np.ndarray
    jacobian: np.ndarray
    hessians: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        v = np.asarray(self.value, dtype=float)
        j = np.asarray(self.jacobian, dtype=float)
        h = np.asarray(self.hessians, dtype=float)
        if p.shape != (3,) or v.shape != (3,) or j.shape != (3, 3) or h.shape != (3, 3, 3):
            raise ValueError("jet shapes must be (3,), (3,), (3,3), (3,3,3)")
        h = 0.5 * (h + np.transpose(h, (0, 2, 1)))
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "jacobian", j)
        object.__setattr__(self, "hessians", h)


@dataclass(frozen=True)
class GeodeticParams:
    """Spherical earth model; radius in meters."""

    radius_m: float = EARTH_RADIUS_M

    def __post_init__(self):
        if not 0 < self.radius_m < math.inf:
            raise ValueError(f"radius_m must be positive and finite, got {self.radius_m}")


def identity_point(x) -> np.ndarray:
    return np.array(x, dtype=float)


def identity_jet(point) -> MapJet:
    """Jet of the identity map: J = I, all second derivatives zero."""
    p = np.asarray(point, dtype=float)
    return MapJet(p, p.copy(), np.eye(3), np.zeros((3, 3, 3)))


def sphere_point(params: GeodeticParams, x) -> np.ndarray:
    """Map (r, lat, lon) points to world coordinates; accepts (..., 3)."""
    x = np.asarray(x, dtype=float)
    r, lat, lon = x[..., 0], x[..., 1], x[..., 2]
    clat = np.cos(lat)
    return np.stack([r * clat * np.sin(lon),
                     r * np.sin(lat),
                     r * clat * np.cos(lon)], axis=-1)


def _sphere_point_rows(corners) -> list[tuple[float, float, float]]:
    """``sphere_point`` on the 8 corners of a box, given as float
    (r, lat, lon) triples in ``Box3.corners()`` order (radius outermost,
    longitude innermost), as ``world_aabb_of_bin`` passes them.

    Reads the two radii, latitudes and longitudes from the first and last
    corner and takes sin and cos once per latitude and longitude; the points
    are ``_sphere_corner_points`` of those.  Returns plain float triples.
    """
    r0, lat0, lon0 = corners[0]
    r1, lat1, lon1 = corners[7]
    lats = (math.sin(lat0), math.cos(lat0)), (math.sin(lat1), math.cos(lat1))
    return _sphere_corner_points(r0, r1, lats, math.sin(lon0), math.cos(lon0),
                                 math.sin(lon1), math.cos(lon1))


def _sphere_corner_points(r0, r1, lats, s0, c0, s1, c1):
    """The 8 corner points of ``_sphere_point_rows`` from the radii ``r0``,
    ``r1``, the two latitudes' ``(sin, cos)`` pairs ``lats`` and the two
    longitudes' sines and cosines.

    Each point is computed in ``sphere_point``'s order of operations,
    ``(r cos lat) sin lon``, ``r sin lat``, ``(r cos lat) cos lon``, so it has
    ``sphere_point``'s bits.  The arguments may be floats or numpy arrays
    that broadcast together; the start-level array pass passes arrays.
    """
    out = []
    for r in (r0, r1):
        for s_lat, c_lat in lats:
            rc, y = r * c_lat, r * s_lat
            out += (rc * s0, y, rc * c0), (rc * s1, y, rc * c1)
    return out


def _sphere_jet_rows(r: float, lat: float, lon: float):
    """Sphere jet as plain float tuples: (value, jacobian rows, H_x, H_y, H_z).

    Shared by the array-building constructor and the scalar classification
    fast path so both see bit-identical derivative values.
    """
    return _sphere_jet_algebra(r, math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon))


def _sphere_jet_algebra(r, sp, cp, st, ct):
    """``_sphere_jet_rows`` from r and the sines and cosines of lat (``sp``,
    ``cp``) and lon (``st``, ``ct``).  The arguments may be floats or numpy
    arrays that broadcast together; every entry takes the same operations in
    the same order either way, so both give the same bits."""
    value = (r * cp * st, r * sp, r * cp * ct)
    jac = ((cp * st, -r * sp * st, r * cp * ct),
           (sp, r * cp, 0.0),
           (cp * ct, -r * sp * ct, -r * cp * st))
    h_x = ((0.0, -sp * st, cp * ct),
           (-sp * st, -r * cp * st, -r * sp * ct),
           (cp * ct, -r * sp * ct, -r * cp * st))
    h_y = ((0.0, cp, 0.0),
           (cp, -r * sp, 0.0),
           (0.0, 0.0, 0.0))
    h_z = ((0.0, -sp * ct, -cp * st),
           (-sp * ct, -r * cp * ct, r * sp * st),
           (-cp * st, r * sp * st, -r * cp * ct))
    return value, jac, h_x, h_y, h_z


def sphere_jet(params: GeodeticParams, point) -> MapJet:
    """Second-order jet of the sphere map at (r, lat, lon).

    The map is linear in r, so every (r, r) second derivative is exactly
    zero.  Rejects non-positive r.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise ValueError("expansion point must be a 3-vector (r, lat, lon)")
    r = float(p[0])
    if r <= 0:
        raise ValueError(f"geodetic radius must be positive, got {r}")
    value, jac, h_x, h_y, h_z = _sphere_jet_rows(r, float(p[1]), float(p[2]))
    return MapJet(p, np.array(value), np.array(jac),
                  np.stack([np.array(h_x), np.array(h_y), np.array(h_z)]))


def jet_fd_error(value_fn, jet: MapJet, step: float) -> float:
    """Max relative mismatch between a jet and finite differences of value_fn.

    Central differences with the given step are compared entrywise against
    the jet's Jacobian and Hessians.  Each entrywise error is normalized by
    ``|analytic| + |point| + 1e-30`` so derivative entries spanning many
    orders of magnitude (meters vs radians) share one scale.  Returns the
    worst entry; a correct jet scores well below 1e-6 at sensible steps,
    while a single wrong sign scores order 1.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = jet.point
    h = float(step)
    scale = float(np.linalg.norm(x0))

    def f(dx):
        return np.asarray(value_fn(x0 + dx), dtype=float)

    e = np.eye(3)
    f0 = f(np.zeros(3))
    fp, fm, dp, dm = [], [], np.empty(3), np.empty(3)
    for k in range(3):
        xp = x0 + h * e[k]
        xm = x0 - h * e[k]
        # actual representable offsets; dividing by these instead of the
        # nominal step keeps the second difference exact for linear maps
        dp[k] = xp[k] - x0[k]
        dm[k] = x0[k] - xm[k]
        fp.append(np.asarray(value_fn(xp), dtype=float))
        fm.append(np.asarray(value_fn(xm), dtype=float))

    jac_fd = np.stack([(fp[k] - fm[k]) / (dp[k] + dm[k]) for k in range(3)], axis=1)
    hess_fd = np.zeros((3, 3, 3))
    for k in range(3):
        hess_fd[:, k, k] = (2.0 * (dm[k] * fp[k] - (dp[k] + dm[k]) * f0 + dp[k] * fm[k])
                            / (dp[k] * dm[k] * (dp[k] + dm[k])))
    for k in range(3):
        for m in range(k + 1, 3):
            fpp = f(h * (e[k] + e[m]))
            fpm = f(h * (e[k] - e[m]))
            fmp = f(h * (e[m] - e[k]))
            fmm = f(-h * (e[k] + e[m]))
            mixed = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
            hess_fd[:, k, m] = mixed
            hess_fd[:, m, k] = mixed

    err_j = np.abs(jac_fd - jet.jacobian) / (np.abs(jet.jacobian) + scale + 1e-30)
    err_h = np.abs(hess_fd - jet.hessians) / (np.abs(jet.hessians) + scale + 1e-30)
    return float(max(err_j.max(), err_h.max()))


def sphere_fd_error(params: GeodeticParams, point, step: float = 1e-4) -> float:
    """Finite-difference error of the sphere jet at one parameter point."""
    jet = sphere_jet(params, point)
    return jet_fd_error(lambda x: sphere_point(params, x), jet, step)
