"""Six-plane view frustum with outward point-normal planes.

Planes are stored as (unit outward normal, point on plane) so signed
distances need no matrix convention: positive distance means outside the
frustum with respect to that plane, and a point is inside the frustum iff
its signed distance to all six planes is <= 0 (boundary counts as inside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Plane",
    "Frustum",
    "CameraPose",
    "frustum_from_camera",
    "frustum_corners",
]


def _vec3(v, what: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,) or not np.isfinite(a).all():
        raise ValueError(f"{what} must be a finite 3-vector")
    return a


def _unit(v, what: str) -> np.ndarray:
    a = _vec3(v, what)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(a)
    if not 0.0 < n < math.inf:  # an overflowing norm would give a zero unit vector
        raise ValueError(f"{what} must be a nonzero 3-vector of finite length")
    return a / n


@dataclass(frozen=True)
class Plane:
    """Oriented plane: unit normal pointing away from the frustum interior."""

    normal: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        p = np.asarray(self.point, dtype=float)
        if n.shape != (3,) or p.shape != (3,):
            raise ValueError("normal and point must be 3-vectors")
        # written so that a NaN length fails too
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-12:
            raise ValueError(f"plane normal must be unit length, got |n| = {np.linalg.norm(n)}")
        if not np.isfinite(p).all():
            raise ValueError(f"plane point must be finite, got {p}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "point", p)

    def signed_distance(self, p) -> float:
        """normal . (p - point); positive is outside this plane."""
        p = np.asarray(p, dtype=float)
        return float(self.normal @ (p - self.point))


class Frustum:
    """Six outward-oriented planes in the order near, far, left, right, top, bottom."""

    def __init__(self, planes, eye):
        planes = tuple(planes)
        if len(planes) != 6:
            raise ValueError(f"a frustum needs exactly 6 planes, got {len(planes)}")
        self.planes = planes
        self.eye = np.asarray(eye, dtype=float)
        # packed forms for batched and scalar-path distance queries
        self._normals = np.stack([p.normal for p in planes])          # (6, 3)
        self._offsets = np.array([p.normal @ p.point for p in planes])  # (6,)
        self.plane_scalars = tuple(
            (float(p.normal[0]), float(p.normal[1]), float(p.normal[2]),
             float(p.point[0]), float(p.point[1]), float(p.point[2]))
            for p in planes)
        # (n0, n1, n2, normal . point) per plane, for the box-corner test
        self.plane_offsets = tuple(
            (n0, n1, n2, off) for (n0, n1, n2, *_), off
            in zip(self.plane_scalars, self._offsets.tolist()))

    def signed_distances(self, points) -> np.ndarray:
        """Signed distances of (..., 3) points to all 6 planes, shape (..., 6)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self._normals.T - self._offsets

    def contains(self, p) -> bool:
        """True iff the point is inside or on every plane."""
        return bool(np.all(self.signed_distances(np.asarray(p, dtype=float)) <= 0.0))

    def contains_points(self, points) -> np.ndarray:
        """Vectorized containment for (n, 3) points."""
        return np.all(self.signed_distances(points) <= 0.0, axis=-1)


@dataclass(frozen=True)
class CameraPose:
    """Perspective camera: position, orientation, vertical field of view."""

    eye: np.ndarray
    look_dir: np.ndarray
    up_hint: np.ndarray
    fov_y: float
    aspect: float
    near: float
    far: float

    def __post_init__(self):
        object.__setattr__(self, "eye", _vec3(self.eye, "eye"))
        object.__setattr__(self, "look_dir", _unit(self.look_dir, "look_dir"))
        object.__setattr__(self, "up_hint", _unit(self.up_hint, "up_hint"))
        if not 0.0 < self.fov_y < math.pi:
            raise ValueError(f"fov_y must be in (0, pi), got {self.fov_y}")
        if not 0.0 < self.aspect < math.inf:
            raise ValueError(f"aspect must be positive and finite, got {self.aspect}")
        if not 0.0 < self.near < self.far < math.inf:
            raise ValueError(f"need 0 < near < far < inf, got near={self.near} "
                             f"far={self.far}")
        if abs(float(self.look_dir @ self.up_hint)) >= 1.0 - 1e-9:
            raise ValueError("look_dir and up_hint must not be collinear")

    def basis(self):
        """Right-handed (look, right, up) orthonormal basis."""
        look = self.look_dir
        right = _unit(np.cross(look, self.up_hint), "right")
        up = np.cross(right, look)
        return look, right, up


def frustum_from_camera(pose: CameraPose) -> Frustum:
    """Build the six outward planes of a perspective frustum.

    Near and far planes sit perpendicular to the look direction; the four
    side planes pass through the eye, tilted by the half-angles implied by
    fov_y and aspect (half-width at distance d is aspect * d * tan(fov_y/2)).
    """
    look, right, up = pose.basis()
    eye = pose.eye

    tv = math.tan(0.5 * pose.fov_y)
    th = pose.aspect * tv
    inv_v = 1.0 / math.hypot(1.0, tv)
    inv_h = 1.0 / math.hypot(1.0, th)
    cos_v, sin_v = inv_v, tv * inv_v
    cos_h, sin_h = inv_h, th * inv_h

    planes = (
        Plane(-look, eye + pose.near * look),                 # near
        Plane(look, eye + pose.far * look),                   # far
        Plane(_unit(-cos_h * right - sin_h * look, "left"), eye),
        Plane(_unit(cos_h * right - sin_h * look, "right"), eye),
        Plane(_unit(cos_v * up - sin_v * look, "top"), eye),
        Plane(_unit(-cos_v * up - sin_v * look, "bottom"), eye),
    )
    return Frustum(planes, eye)


def frustum_corners(pose: CameraPose) -> np.ndarray:
    """The 8 corner points (4 on the near plane, 4 on the far plane)."""
    look, right, up = pose.basis()
    tv = math.tan(0.5 * pose.fov_y)
    corners = []
    for d in (pose.near, pose.far):
        hh = d * tv
        hw = pose.aspect * hh
        c = pose.eye + d * look
        for sy in (-1.0, 1.0):
            for sx in (-1.0, 1.0):
                corners.append(c + sx * hw * right + sy * hh * up)
    return np.array(corners)
