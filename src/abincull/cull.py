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

The traversal's scalar path takes a 6-bit plane mask (bit k for the
frustum's k-th plane), tests only the planes whose bit is set, and reports
the ones the image straddles.  A child tile's bin is nested in its parent's,
so the traversal does not test a child against a plane its parent was found
fully inside of (plane masking; Assarsson & Moeller, JGT 2000).
``classify_bin`` tests all six planes.

Before the extrema kernel, each plane test over a centred box (lo == -hi
on every axis, which the traversal always passes) tries the natural
interval extension of s (Moore, 1966): with w the half-widths,
UB = sum |b_i| w_i + sum_{i<j} |h_ij| w_i w_j + 1/2 sum max(h_ii, 0) w_i^2
bounds max s, and LB, its mirror with min(h_ii, 0), bounds min s.  A
plane with UB + eps < d separates, and one with d < LB - eps is fully
inside; any other plane, and every plane of an uncentred box, goes to the
kernel.  eps = 1e-9 (sum of term magnitudes + |d|) covers the rounding of
the bound and of the kernel's own evaluation (derived in
``_classify_bin_scalars``), so the verdicts and straddle masks are the
kernel's own.  On the benchmark's orbit frames the bound decides about
three quarters of the plane tests.

A plane the bound leaves undecided then gets a corner bracket: s at the 8
box corners, from products the bound already holds.  Both kernels evaluate
those corners among their candidates, so a d that lies inside the corner
range by more than eps straddles for the kernel too, and the plane gets its
straddle bit without a kernel call.  What is left for the kernel (a corner
range that misses d, a d within eps of its ends, non-finite terms, and
uncentred boxes) is about 0.02 calls per visited tile on the benchmark's
frames.
"""

from __future__ import annotations

import enum
import math
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


_EXTREMA = {ExtremaMode.EXACT: _extrema_exact,
            ExtremaMode.NINE_POINT: _extrema_nine_point}

# Plane masks: bit k stands for the frustum's k-th plane.  _ACTIVE_PLANES
# lists each mask's set bits, so the per-tile loop does no bit tests.
ALL_PLANES = 0b111111
_ACTIVE_PLANES = tuple(tuple(k for k in range(6) if mask >> k & 1)
                       for mask in range(ALL_PLANES + 1))

# Relative margin of the interval pre-test in _classify_bin_scalars.
_PRETEST_REL = 1e-9
# Relative margin of the reach screen in _screened_bins.
_SCREEN_REL = 1e-6


@dataclass(frozen=True)
class CullConfig:
    """Inflation factor and extrema mode for bin classification."""

    inflation: float = 1.1
    extrema_mode: ExtremaMode = ExtremaMode.EXACT

    def __post_init__(self):
        if not 1.0 <= self.inflation <= 2.0:
            raise ValueError(f"inflation must be in [1, 2], got {self.inflation}")
        if not isinstance(self.extrema_mode, ExtremaMode):
            raise ValueError(f"extrema_mode must be an ExtremaMode, got "
                             f"{self.extrema_mode!r}")


def inflate_bin(bin_box: Box3, factor: float) -> Box3:
    """Scale the box about its center, multiplying each half-width by factor."""
    if not 1.0 <= factor < math.inf:
        raise ValueError(f"inflation factor must be finite and >= 1, got {factor}")
    lo0, lo1, lo2, hi0, hi1, hi2 = bin_box.bounds
    # per axis the same IEEE operations as center -+ half_widths * factor
    c0, c1, c2 = 0.5 * (lo0 + hi0), 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)
    w0 = 0.5 * (hi0 - lo0) * factor
    w1 = 0.5 * (hi1 - lo1) * factor
    w2 = 0.5 * (hi2 - lo2) * factor
    return Box3((c0 - w0, c1 - w1, c2 - w2), (c0 + w0, c1 + w1, c2 + w2))


def _plane_terms(value, jac, h_x, h_y, h_z, planes):
    """Yield (b0, b1, b2, h00, h01, h02, h11, h12, h22, d) for each plane.

    The image's displacement from the mapped center along the normal n is
    s(x) = b.x + 0.5 x^T H x with b = -(J^T n), H = -(sum_i n_i H_i), and
    d = n . (value - p).  Jet rows and (n0, n1, n2, p0, p1, p2) plane tuples
    are plain floats; every analytic plane test gets its terms here.
    """
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac
    v0, v1, v2 = value
    (x00, x01, x02), (_, x11, x12), (_, _, x22) = h_x
    (y00, y01, y02), (_, y11, y12), (_, _, y22) = h_y
    (z00, z01, z02), (_, z11, z12), (_, _, z22) = h_z
    for n0, n1, n2, p0, p1, p2 in planes:
        yield (-(j00 * n0 + j10 * n1 + j20 * n2),
               -(j01 * n0 + j11 * n1 + j21 * n2),
               -(j02 * n0 + j12 * n1 + j22 * n2),
               -(n0 * x00 + n1 * y00 + n2 * z00),
               -(n0 * x01 + n1 * y01 + n2 * z01),
               -(n0 * x02 + n1 * y02 + n2 * z02),
               -(n0 * x11 + n1 * y11 + n2 * z11),
               -(n0 * x12 + n1 * y12 + n2 * z12),
               -(n0 * x22 + n1 * y22 + n2 * z22),
               n0 * (v0 - p0) + n1 * (v1 - p1) + n2 * (v2 - p2))


def plane_quadratic(jet: MapJet, plane: Plane):
    """Per-plane quadratic and the signed distance of the mapped bin center.

    Returns (q, d) with q(0) = 0; the approximated signed distance of the
    image of offset x is d - q(x).  The coefficients are the traversal's own.
    """
    (b0, b1, b2, h00, h01, h02, h11, h12, h22, d), = _plane_terms(
        jet.value.tolist(), jet.jacobian.tolist(), *jet.hessians.tolist(),
        [(*plane.normal.tolist(), *plane.point.tolist())])
    q = ScalarQuadratic(0.0, [b0, b1, b2],
                        [[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]])
    return q, d


def classify_against_plane(q: ScalarQuadratic, d: float, bin_box: Box3,
                           mode: ExtremaMode) -> PlaneState:
    """Three-way test of an (already inflated) bin against one plane."""
    if not isinstance(mode, ExtremaMode):
        raise ValueError(f"mode must be an ExtremaMode, got {mode!r}")
    mn, mx, _, _ = _EXTREMA[mode](*_unpack(q), *bin_box.bounds)
    if mn > mx:  # every candidate value was NaN
        return PlaneState.STRADDLES
    if mx < d:
        return PlaneState.FULLY_OUTSIDE
    if d < mn:
        return PlaneState.FULLY_INSIDE
    return PlaneState.STRADDLES


def _classify_bin_scalars(value, jac, h_x, h_y, h_z,
                          lo0, lo1, lo2, hi0, hi1, hi2,
                          frustum: Frustum, mode: ExtremaMode,
                          planes: int) -> tuple[Classification, int]:
    """Scalar-path classification over an already-inflated offset box.

    value / jac / h_* are plain float rows as produced by the jet builders;
    the box bounds are floats; ``mode`` is an ``ExtremaMode``, as
    ``CullConfig`` checks.  Only the planes whose bit is set in the
    ``planes`` mask (bit k for ``frustum.plane_scalars[k]``) are tested.
    Returns the verdict and the mask of tested planes the image straddles;
    early-exits with mask 0 on the first separating plane.

    Interval pre-test.  When the box is centred (lo_k == -hi_k on every
    axis, as on the traversal path), w_k = hi_k and every plane is first
    bounded by the natural interval extension of s over the box (Moore,
    1966): with T_lin = sum |b_i| w_i + sum_{i<j} |h_ij| w_i w_j and
    q_i = h_ii w_i^2 / 2,

        UB = T_lin + sum max(q_i, 0),    LB = -T_lin + sum min(q_i, 0)

    (computed as T_lin + (sum q_i + sum |q_i|) / 2 and its mirror).  If
    UB + eps < d the plane separates (OUTSIDE); if d < LB - eps the image is
    fully inside the plane, which is skipped without its straddle bit;
    otherwise the extrema kernel decides.  Either way the result is the
    kernel's own: both kernels evaluate s only at points of the closed box,
    so their computed [mn, mx] lies in [LB, UB] up to rounding.  With
    T = T_lin + sum |q_i|, the computed UB and LB, and the kernel's
    evaluation of s at any candidate (9 products of at most 3 factors,
    summed), are each off by at most 2 gamma_10 T, where
    gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3); the final addition
    and comparison add u (|UB| + eps + |d|).  eps = 1e-9 (T + |d|) exceeds
    that sum by five orders of magnitude, and so also covers the rounding
    of eps itself.  A NaN or infinite term fails both comparisons, so the
    kernel decides.  An uncentred box goes straight to the kernel.

    Corner bracket.  A plane the bound leaves undecided is next evaluated
    at the 8 corners sigma o w (sigma in {-1, 1}^3): with a_i = b_i w_i,
    c_ij = h_ij w_i w_j (the products in T_lin) and Q = sum q_i,

        s(sigma o w) = Q + sum sigma_i a_i + sum_{i<j} sigma_i sigma_j c_ij.

    Per sign of x2 the four corners pair up as +-(u0 + u1) and +-(u0 - u1)
    with u_i = a_i + sigma_2 c_i2, so the corner range [cmin, cmax] takes
    about twenty additions.  If cmin + eps <= d <= cmax - eps the plane
    straddles: its bit is set and the kernel is skipped.  Both kernels
    evaluate all 8 corners among their candidates, so their [mn, mx]
    contains the corner values they compute.  Each computed corner value,
    here and in the kernel, is a sum of the same 9 products in some order,
    so each is off from the exact value by at most 2 gamma_10 T as above,
    and the two differ by at most 4 gamma_10 T, five orders of magnitude
    below eps.  So mn < d < mx, and the kernel also finds the plane
    straddled.  This, like the bound, assumes that no intermediate product
    overflows.  A corner range that misses d, a d within eps of its ends,
    and NaN or infinite terms (eps is then NaN or infinite and both
    comparisons fail) go to the kernel.
    """
    active = _ACTIVE_PLANES[planes]
    straddled = 0
    centred = lo0 == -hi0 and lo1 == -hi1 and lo2 == -hi2
    if centred:
        w0, w1, w2 = hi0, hi1, hi2
        w01, w02, w12 = w0 * w1, w0 * w2, w1 * w2
        sq0, sq1, sq2 = 0.5 * w0 * w0, 0.5 * w1 * w1, 0.5 * w2 * w2
    for k, (b0, b1, b2, h00, h01, h02, h11, h12, h22, d) in zip(active, _plane_terms(
            value, jac, h_x, h_y, h_z, map(frustum.plane_scalars.__getitem__, active))):
        if centred:
            a0, a1, a2 = b0 * w0, b1 * w1, b2 * w2
            c01, c02, c12 = h01 * w01, h02 * w02, h12 * w12
            lin = (abs(a0) + abs(a1) + abs(a2)
                   + abs(c01) + abs(c02) + abs(c12))
            q0, q1, q2 = h00 * sq0, h11 * sq1, h22 * sq2
            qs, qa = q0 + q1 + q2, abs(q0) + abs(q1) + abs(q2)
            eps = _PRETEST_REL * (lin + qa + abs(d))
            if lin + 0.5 * (qs + qa) + eps < d:
                return Classification.OUTSIDE, 0
            if d < 0.5 * (qs - qa) - lin - eps:
                continue
            # corner bracket: with e, f = a2 + c01, a2 - c01 the corners are
            # qs + e +- (u + v) and qs + f +- (u - v) at x2 = +w2, and
            # qs - f +- (u + v) and qs - e +- (u - v) at x2 = -w2
            u, v = a0 + c02, a1 + c12      # x2 = +w2
            up, um = abs(u + v), abs(u - v)
            u, v = a0 - c02, a1 - c12      # x2 = -w2
            vp, vm = abs(u + v), abs(u - v)
            e, f = a2 + c01, a2 - c01
            if (qs + min(e - up, f - um, -f - vp, -e - vm) + eps <= d
                    <= qs + max(e + up, f + um, vp - f, vm - e) - eps):
                straddled |= 1 << k
                continue
        # looked up here, not per tile: few tiles reach the kernel, and
        # hashing an Enum member runs a Python-level __hash__
        state = _kernel_state(_EXTREMA[mode], b0, b1, b2, h00, h01, h02, h11, h12, h22,
                              d, lo0, lo1, lo2, hi0, hi1, hi2)
        if state is PlaneState.FULLY_OUTSIDE:
            return Classification.OUTSIDE, 0
        if state is PlaneState.STRADDLES:
            straddled |= 1 << k
    if straddled:
        return Classification.INTERSECT, straddled
    return Classification.INSIDE, 0


def _kernel_state(extrema, b0, b1, b2, h00, h01, h02, h11, h12, h22, d,
                  lo0, lo1, lo2, hi0, hi1, hi2) -> PlaneState:
    """One plane's state from the extrema kernel ``extrema`` over the box,
    for the plane terms of ``_plane_terms``."""
    mn, mx, _, _ = extrema(0.0, b0, b1, b2, h00, h01, h02, h11, h12, h22,
                           lo0, lo1, lo2, hi0, hi1, hi2)
    if mx < d and mn <= mx:
        return PlaneState.FULLY_OUTSIDE
    # a NaN d, or no candidate value at all (mn > mx: every one was NaN),
    # counts as straddling
    if not d < mn or mn > mx:
        return PlaneState.STRADDLES
    return PlaneState.FULLY_INSIDE


def _classify_centred_bins(value, jac, h_x, h_y, h_z, w0, w1, w2, w01, w02, w12,
                           sq0, sq1, sq2, frustum: Frustum,
                           mode: ExtremaMode) -> list[tuple[Classification, int]]:
    """``_classify_bin_scalars`` with all six planes, for a grid of centred
    boxes at once: the start-level array pass of the traversal.

    The jet rows are those of ``_sphere_jet_algebra`` and the box of bin k
    has half-widths (w0, w1, w2)[k], with w01 = w0 * w1, w02 = w0 * w2,
    w12 = w1 * w2 and sq_i = 0.5 * w_i * w_i.  Every jet entry and width is
    a 1-D column over the N bins.  Returns one ``(classification,
    straddled)`` pair per bin, in column order.

    The plane terms come from ``_plane_terms`` with each plane component an
    array over the six planes, and the interval bound and the corner bracket
    are the scalar path's expressions in its order, so every (bin, plane)
    pair gets the scalar path's bits and the same decision.  The bracket
    decides only when eps is finite, and then no operand of its min and max
    is NaN, so ``np.minimum``/``np.maximum`` give Python's ``min``/``max``.
    A plane decides the same whatever the others do, and the scalar path's
    early exit only skips planes, so a bin is OUTSIDE exactly when some
    plane separates it.  The pairs that neither the bound nor the bracket
    decided, of bins no plane has separated so far, go to the extrema kernel
    one by one, bin by bin in plane order.
    """
    # one "plane" whose six components are (6, 1) columns over the frustum's planes
    planes = np.array(frustum.plane_scalars).T.reshape(6, 6, 1)
    with np.errstate(all="ignore"):  # as in plain floats, overflow gives inf
        (b0, b1, b2, h00, h01, h02, h11, h12, h22, d), = _plane_terms(
            value, jac, h_x, h_y, h_z, [tuple(planes)])
        a0, a1, a2 = b0 * w0, b1 * w1, b2 * w2
        c01, c02, c12 = h01 * w01, h02 * w02, h12 * w12
        lin = (abs(a0) + abs(a1) + abs(a2)
               + abs(c01) + abs(c02) + abs(c12))
        q0, q1, q2 = h00 * sq0, h11 * sq1, h22 * sq2
        qs, qa = q0 + q1 + q2, abs(q0) + abs(q1) + abs(q2)
        eps = _PRETEST_REL * (lin + qa + abs(d))
        outside = lin + 0.5 * (qs + qa) + eps < d
        inside = d < 0.5 * (qs - qa) - lin - eps
        u, v = a0 + c02, a1 + c12      # x2 = +w2
        up, um = abs(u + v), abs(u - v)
        u, v = a0 - c02, a1 - c12      # x2 = -w2
        vp, vm = abs(u + v), abs(u - v)
        e, f = a2 + c01, a2 - c01
        bracket = ((qs + np.minimum(np.minimum(e - up, f - um), np.minimum(-f - vp, -e - vm))
                    + eps <= d)
                   & (d <= qs + np.maximum(np.maximum(e + up, f + um), np.maximum(vp - f, vm - e))
                      - eps))
    # every plane term, d and the three masks are (6, N)
    bits = (1 << np.arange(6)).reshape(6, 1)
    straddled = np.where(bracket & ~inside, bits, 0).sum(axis=0).tolist()
    separated = outside.any(axis=0)
    # bin-major, so that nonzero walks bin by bin in plane order
    bins, planes = np.nonzero((~(outside | inside | bracket)).T & ~separated[:, None])
    separated = separated.tolist()
    if bins.size:
        extrema = _EXTREMA[mode]
        columns = [x[planes, bins].tolist()
                   for x in (b0, b1, b2, h00, h01, h02, h11, h12, h22, d)]
        widths = [w[bins].tolist() for w in (w0, w1, w2)]
        for n, k, *terms, hw0, hw1, hw2 in zip(bins.tolist(), planes.tolist(),
                                                *columns, *widths):
            if separated[n]:
                continue
            state = _kernel_state(extrema, *terms, -hw0, -hw1, -hw2, hw0, hw1, hw2)
            if state is PlaneState.FULLY_OUTSIDE:
                separated[n] = True
            elif state is PlaneState.STRADDLES:
                straddled[n] |= 1 << k
    outside_0 = Classification.OUTSIDE, 0
    inside_0 = Classification.INSIDE, 0
    intersect = Classification.INTERSECT
    return [outside_0 if out else (intersect, mask) if mask else inside_0
            for out, mask in zip(separated, straddled)]


def _reach(jac, h_x, h_y, h_z, w0, w1, w2, w01, w02, w12, sq0, sq1, sq2):
    """Each centred box's reach: with J_i the Jacobian column i and H_ij the
    vector (h_x[i][j], h_y[i][j], h_z[i][j]),

        R = sum ||J_i|| w_i + sum_{i<j} ||H_ij|| w_i w_j + sum ||H_ii|| w_i^2 / 2,

    for the arguments of ``_classify_centred_bins`` (numpy arrays or floats
    that broadcast together).  It does not depend on the frustum: for a plane
    normal n, |b_i| <= ||J_i|| ||n|| and |h_ij| <= ||H_ij|| ||n|| by
    Cauchy-Schwarz, so the interval bound's T_lin + sum |q_i| is at most
    ||n|| R.  An overflow makes R infinite or NaN.
    """
    def norm(x, y, z):
        return np.sqrt(x * x + y * y + z * z)
    with np.errstate(all="ignore"):
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = jac
        (x00, x01, x02), (_, x11, x12), (_, _, x22) = h_x
        (y00, y01, y02), (_, y11, y12), (_, _, y22) = h_y
        (z00, z01, z02), (_, z11, z12), (_, _, z22) = h_z
        return (norm(j00, j10, j20) * w0 + norm(j01, j11, j21) * w1
                + norm(j02, j12, j22) * w2
                + norm(x01, y01, z01) * w01 + norm(x02, y02, z02) * w02
                + norm(x12, y12, z12) * w12
                + norm(x00, y00, z00) * sq0 + norm(x11, y11, z11) * sq1
                + norm(x22, y22, z22) * sq2)


def _screened_bins(v0, v1, v2, reach, frustum: Frustum) -> np.ndarray:
    """Which centred bins some plane of ``frustum`` separates by the reach
    screen: a boolean array of the shape of the value rows ``v0``, ``v1``,
    ``v2`` (1-D) and of ``reach`` (``_reach``).  A screened bin gets
    (OUTSIDE, 0) from ``_classify_bin_scalars`` with any plane mask that
    holds the screening plane.

    Each plane's d is ``_plane_terms``' expression, so it has the scalar
    path's bits, and the plane screens a bin when d is finite and

        d > (1 + 1e-6) ||n|| R.

    Why that implies the scalar path's ``UB + eps < d`` after rounding: write
    gamma_k = k u / (1 - k u) with u = 2^-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3) and let R* and ||n||*
    be the exact values the computed R and ||n|| approximate.  Each of
    ||n||, R (norms, products with w and their sum) and their product with
    1 + 1e-6 takes at most 20 rounded operations on non-negative terms, so
    the computed threshold is at least (1 + 1e-6)(1 - gamma_20) ||n||* R*.
    On the scalar side, b_i, a_i = b_i w_i, c_ij and q_i are each within
    gamma_4 of a sum of products bounded term by term by ||J_i|| ||n|| w_i
    (Cauchy-Schwarz on the absolute values), and so on; summing them into
    T_lin + sum |q_i| adds at most gamma_9, so the computed UB, T and eps
    satisfy UB <= T <= (1 + gamma_13) ||n||* R* and
    eps <= 1e-9 (1 + gamma_3) (T + |d|); the final addition adds u.  With
    d above the threshold, ||n||* R* < d / ((1 + 1e-6)(1 - gamma_20)), so

        fl(UB + eps) <= d (1 + u) ((1 + gamma_13)(1 + 1.1e-9)
                                   / ((1 + 1e-6)(1 - gamma_20)) + 1.1e-9)
                     <  d (1 - 9e-7) < d,

    as d > 0 here.

    The margin 1e-6 sits three orders of magnitude above eps's 1e-9 and
    seven above the rounding terms (gamma_20 < 3e-15).  Like the bound, this
    assumes that no intermediate value overflows or underflows.  A NaN or
    infinite R, or a NaN d, fails the comparison, and an infinite d is
    excluded explicitly, so none of them screens; the scalar path decides.
    """
    n0, n1, n2, p0, p1, p2 = np.array(frustum.plane_scalars).T.reshape(6, 6, 1)
    with np.errstate(all="ignore"):
        d = n0 * (v0 - p0) + n1 * (v1 - p1) + n2 * (v2 - p2)   # _plane_terms' d
        threshold = (1.0 + _SCREEN_REL) * np.sqrt(n0 * n0 + n1 * n1 + n2 * n2) * reach
        return ((threshold < d) & (d < np.inf)).any(axis=0)


def classify_bin(jet: MapJet, bin_offsets: Box3, frustum: Frustum,
                 cfg: CullConfig = CullConfig()) -> Classification:
    """Classify the image of a parameter bin against the whole frustum.

    bin_offsets is expressed as offsets about the jet's expansion point, so
    a well-formed bin is centered at the origin.  The bin is inflated by
    cfg.inflation first; any plane with the image fully outside prunes the
    bin immediately, and only a bin fully inside all six planes is INSIDE.
    """
    inflated = inflate_bin(bin_offsets, cfg.inflation)
    cls, _ = _classify_bin_scalars(
        jet.value.tolist(), jet.jacobian.tolist(), *jet.hessians.tolist(),
        *inflated.bounds, frustum, cfg.extrema_mode,
        ALL_PLANES)
    return cls
