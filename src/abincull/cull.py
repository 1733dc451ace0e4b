"""Conservative frustum classification of curved bins.

A bin is an axis-aligned box of parameter offsets around a jet's expansion
point.  For each frustum plane the displacement of the mapped image away
from the expansion point is approximated to second order, producing one
scalar quadratic per plane; the quadratic's extrema over the (inflated) bin
decide whether the bin's image is fully outside, fully inside, or straddling
that plane.  The inflation factor absorbs the truncation error of the
quadratic approximation so OUTSIDE verdicts stay conservative.

Sign conventions: with d the signed distance of the mapped bin center to a
plane and s(x) the per-plane quadratic, the approximated image point at
offset x sits at signed distance d - s(x).  Hence

    max s < d   -> every image point outside the plane
    d < min s   -> every image point inside the plane
    otherwise   -> the image may straddle the plane
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .frustum import Frustum, Plane
from .mapping import MapJet
from .quadratic import (
    Box3,
    ScalarQuadratic,
    _extrema_exact,
    _extrema_nine_point,
    _unpack,
)

__all__ = [
    "Classification",
    "PlaneState",
    "ExtremaMode",
    "CullConfig",
    "inflate_bin",
    "plane_quadratic",
    "classify_against_plane",
    "classify_bin",
]


class Classification(enum.Enum):
    OUTSIDE = "OUTSIDE"
    INSIDE = "INSIDE"
    INTERSECT = "INTERSECT"


class PlaneState(enum.Enum):
    FULLY_OUTSIDE = "FULLY_OUTSIDE"
    FULLY_INSIDE = "FULLY_INSIDE"
    STRADDLES = "STRADDLES"


class ExtremaMode(enum.Enum):
    NINE_POINT = "NINE_POINT"
    EXACT = "EXACT"


@dataclass(frozen=True)
class CullConfig:
    """Inflation factor and extrema mode for bin classification."""

    inflation: float = 1.1
    extrema_mode: ExtremaMode = ExtremaMode.EXACT

    def __post_init__(self):
        if not 1.0 <= self.inflation <= 2.0:
            raise ValueError(f"inflation must be in [1, 2], got {self.inflation}")


def inflate_bin(bin_box: Box3, factor: float) -> Box3:
    """Scale the box about its center, multiplying each half-width by factor."""
    if factor < 1.0:
        raise ValueError(f"inflation factor must be >= 1, got {factor}")
    c = bin_box.center
    hw = bin_box.half_widths * factor
    return Box3(c - hw, c + hw)


def _plane_coeffs(jet: MapJet, normal: np.ndarray):
    """Quadratic coefficients of the plane-aligned displacement.

    The displacement of the image away from the mapped center, projected on
    the plane normal, is  s(x) = -(J^T n) . x - 0.5 x^T (sum_i n_i H_i) x.
    Returns (b, H) for that quadratic; the constant term is zero.
    """
    b = -(jet.jacobian.T @ normal)
    h = -np.tensordot(normal, jet.hessians, axes=(0, 0))
    return b, h


def plane_quadratic(jet: MapJet, plane: Plane):
    """Per-plane quadratic and the signed distance of the mapped bin center.

    Returns (q, d) with q(0) = 0; the approximated signed distance of the
    image of offset x is d - q(x).
    """
    b, h = _plane_coeffs(jet, plane.normal)
    d = plane.signed_distance(jet.value)
    return ScalarQuadratic(0.0, b, h), d


def _plane_state(min_s: float, max_s: float, d: float) -> PlaneState:
    if max_s < d:
        return PlaneState.FULLY_OUTSIDE
    if d < min_s:
        return PlaneState.FULLY_INSIDE
    return PlaneState.STRADDLES


def classify_against_plane(q: ScalarQuadratic, d: float, bin_box: Box3,
                           mode: ExtremaMode) -> PlaneState:
    """Three-way test of an (already inflated) bin against one plane."""
    lo, hi = bin_box.lo, bin_box.hi
    extrema = _extrema_exact if mode is ExtremaMode.EXACT else _extrema_nine_point
    mn, mx, _, _ = extrema(*_unpack(q), lo[0], lo[1], lo[2], hi[0], hi[1], hi[2])
    return _plane_state(mn, mx, float(d))


def _classify_bin_scalars(value, jac, h_x, h_y, h_z,
                          lo0, lo1, lo2, hi0, hi1, hi2,
                          frustum: Frustum, mode: ExtremaMode) -> Classification:
    """Scalar-path classification over an already-inflated offset box.

    value / jac / h_* are plain float rows as produced by the jet builders;
    the box bounds are floats.  Early-exits on the first separating plane.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac
    v0, v1, v2 = value
    extrema = _extrema_exact if mode is ExtremaMode.EXACT else _extrema_nine_point

    inside_count = 0
    for n0, n1, n2, p0, p1, p2 in frustum.plane_scalars:
        b0 = -(j00 * n0 + j10 * n1 + j20 * n2)
        b1 = -(j01 * n0 + j11 * n1 + j21 * n2)
        b2 = -(j02 * n0 + j12 * n1 + j22 * n2)
        h00 = -(n0 * h_x[0][0] + n1 * h_y[0][0] + n2 * h_z[0][0])
        h01 = -(n0 * h_x[0][1] + n1 * h_y[0][1] + n2 * h_z[0][1])
        h02 = -(n0 * h_x[0][2] + n1 * h_y[0][2] + n2 * h_z[0][2])
        h11 = -(n0 * h_x[1][1] + n1 * h_y[1][1] + n2 * h_z[1][1])
        h12 = -(n0 * h_x[1][2] + n1 * h_y[1][2] + n2 * h_z[1][2])
        h22 = -(n0 * h_x[2][2] + n1 * h_y[2][2] + n2 * h_z[2][2])
        d = n0 * (v0 - p0) + n1 * (v1 - p1) + n2 * (v2 - p2)
        mn, mx, _, _ = extrema(0.0, b0, b1, b2,
                               h00, h01, h02, h11, h12, h22,
                               lo0, lo1, lo2, hi0, hi1, hi2)
        if mx < d:
            return Classification.OUTSIDE
        if d < mn:
            inside_count += 1
    if inside_count == 6:
        return Classification.INSIDE
    return Classification.INTERSECT


def classify_bin(jet: MapJet, bin_offsets: Box3, frustum: Frustum,
                 cfg: CullConfig = CullConfig()) -> Classification:
    """Classify the image of a parameter bin against the whole frustum.

    bin_offsets is expressed as offsets about the jet's expansion point, so
    a well-formed bin is centered at the origin.  The bin is inflated by
    cfg.inflation first; any plane with the image fully outside prunes the
    bin immediately, and only a bin fully inside all six planes is INSIDE.
    """
    inflated = inflate_bin(bin_offsets, cfg.inflation)
    lo, hi = inflated.lo.tolist(), inflated.hi.tolist()
    return _classify_bin_scalars(
        jet.value.tolist(), jet.jacobian.tolist(),
        jet.hessians[0].tolist(), jet.hessians[1].tolist(), jet.hessians[2].tolist(),
        lo[0], lo[1], lo[2], hi[0], hi[1], hi[2],
        frustum, cfg.extrema_mode)
