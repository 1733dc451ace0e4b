"""Scalar quadratics in three variables and their extrema over axis-aligned boxes.

A quadratic is stored as ``value(x) = constant + linear.x + 0.5 * x^T @ hessian @ x``
with a symmetric hessian.  The two box kernels enumerate candidate points face
by face and hand them to one loop, ``_keep_extremes``, that keeps the extremes
and the candidates attaining them.  Three extrema routines are provided:

* ``box_extrema_nine_point`` -- the cheap heuristic: the 8 box corners plus the
  unconstrained stationary point when it falls inside the box.  Not exact for
  indefinite quadratics whose extrema sit on box facets or edges.
* ``box_extrema_exact`` -- exact extrema over all 27 faces of the box (8 corners,
  12 edges, 6 facets, interior), one stationary candidate per face; the edge
  solve and the facet solve are each written once, in one loop over the axes.
* ``box_extrema_grid`` -- brute-force lattice evaluation, used as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScalarQuadratic",
    "Box3",
    "Extrema",
    "stationary_point",
    "box_extrema_nine_point",
    "box_extrema_exact",
    "box_extrema_grid",
]

# Relative determinant threshold below which a stationary system is treated
# as singular and the caller falls back to boundary-only candidates.
SINGULAR_TOL = 1e-12

# Row k selects hi on the axes whose bit is set, in itertools.product order.
_CORNER_BITS = np.array(list(itertools.product((False, True), repeat=3)))


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ScalarQuadratic:
    """Quadratic polynomial q(x) = constant + linear.x + 0.5 x^T hessian x."""

    constant: float
    linear: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "linear", _as_vec3(self.linear))
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (3, 3):
            raise ValueError(f"hessian must be 3x3, got shape {h.shape}")
        # store the symmetric part so downstream algebra can rely on symmetry
        object.__setattr__(self, "hessian", 0.5 * (h + h.T))

    def value(self, x) -> float | np.ndarray:
        """Evaluate at a point (3,) or a batch (..., 3)."""
        x = np.asarray(x, dtype=float)
        out = _eval_f(*_unpack(self), x[..., 0], x[..., 1], x[..., 2])
        return float(out) if x.ndim == 1 else out

    def gradient(self, x) -> np.ndarray:
        """Gradient linear + hessian @ x."""
        x = _as_vec3(x)
        return self.linear + self.hessian @ x


def _float_triple(v, what: str) -> tuple[float, float, float]:
    """v as a tuple of three Python floats; a tuple of floats is kept as is."""
    if type(v) is tuple and len(v) == 3:
        a, b, c = v
        if type(a) is float and type(b) is float and type(c) is float:
            return v
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {a.shape}")
    return tuple(a.tolist())


@dataclass(frozen=True, init=False)
class Box3:
    """Axis-aligned box; zero-width axes are allowed.

    The six bounds are held as Python floats, ``bounds = (lo0, lo1, lo2,
    hi0, hi1, hi2)``, which the kernels read directly; ``lo`` and ``hi``
    build a new array on each access.  A NaN bound is accepted.
    """

    # declared here rather than by slots=True, whose class copy breaks the
    # frozen __setattr__ for names other than fields on Python 3.11
    __slots__ = ("bounds",)
    bounds: tuple[float, float, float, float, float, float]

    def __init__(self, lo, hi):
        lo = _float_triple(lo, "lo")
        hi = _float_triple(hi, "hi")
        if lo[0] > hi[0] or lo[1] > hi[1] or lo[2] > hi[2]:
            raise ValueError(f"invalid box: lo {lo} exceeds hi {hi}")
        object.__setattr__(self, "bounds", lo + hi)

    @classmethod
    def _from_floats(cls, lo0: float, lo1: float, lo2: float,
                     hi0: float, hi1: float, hi2: float) -> Box3:
        """Box over six bounds the caller knows to be Python floats, stored
        as they are; an inverted axis still raises ``ValueError``."""
        if lo0 > hi0 or lo1 > hi1 or lo2 > hi2:
            raise ValueError(f"invalid box: lo {(lo0, lo1, lo2)} exceeds hi "
                             f"{(hi0, hi1, hi2)}")
        box = object.__new__(cls)
        object.__setattr__(box, "bounds", (lo0, lo1, lo2, hi0, hi1, hi2))
        return box

    def __reduce__(self):  # copy and pickle cannot set a frozen slot
        return Box3, (self.bounds[:3], self.bounds[3:])

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.bounds[:3])

    @property
    def hi(self) -> np.ndarray:
        return np.array(self.bounds[3:])

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def half_widths(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def corners(self) -> np.ndarray:
        """The 8 corners, shape (8, 3), in lexicographic bit order."""
        return np.where(_CORNER_BITS, self.hi, self.lo)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = _as_vec3(x)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass
class Extrema:
    min_val: float
    max_val: float
    argmin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    argmax: np.ndarray = field(default_factory=lambda: np.zeros(3))


def _det3(m00, m01, m02, m10, m11, m12, m20, m21, m22) -> float:
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def _solve3(h00, h01, h02, h11, h12, h22, r0, r1, r2, tol):
    """Solve the symmetric system H x = r via Cramer; None if near-singular.

    Singularity is judged relative to the Frobenius norm of H so the test is
    unit-independent (H entries for geodetic bins span many orders of
    magnitude).
    """
    det = _det3(h00, h01, h02, h01, h11, h12, h02, h12, h22)
    fro = math.sqrt(h00 * h00 + h11 * h11 + h22 * h22
                    + 2.0 * (h01 * h01 + h02 * h02 + h12 * h12))
    if abs(det) <= tol * fro * fro * fro or det == 0.0:
        return None
    x0 = _det3(r0, h01, h02, r1, h11, h12, r2, h12, h22) / det
    x1 = _det3(h00, r0, h02, h01, r1, h12, h02, r2, h22) / det
    x2 = _det3(h00, h01, r0, h01, h11, r1, h02, h12, r2) / det
    return (x0, x1, x2)


def stationary_point(q: ScalarQuadratic, tol: float = SINGULAR_TOL):
    """Point where the gradient vanishes, or None for a (near-)singular hessian.

    Solves the full symmetric 3x3 system hessian @ x = -linear, cross terms
    included.  Callers treat None as "no interior candidate" and fall back to
    boundary extrema.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, b0, b1, b2, h00, h01, h02, h11, h12, h22 = _unpack(q)
    sol = _solve3(h00, h01, h02, h11, h12, h22, -b0, -b1, -b2, tol)
    return None if sol is None else np.array(sol)


def _eval_f(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22, x, y, z):
    return (c0 + b0 * x + b1 * y + b2 * z
            + 0.5 * (h00 * x * x + h11 * y * y + h22 * z * z)
            + h01 * x * y + h02 * x * z + h12 * y * z)


def _unpack(q: ScalarQuadratic):
    """(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22) as plain floats."""
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = q.hessian.tolist()
    return (q.constant, *q.linear.tolist(), h00, h01, h02, h11, h12, h22)


def _keep_extremes(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22, points,
                   best_min, best_max, amn, amx):
    """Fold points in order into (min, max, argmin, argmax); ties keep the earliest."""
    for p in points:
        x, y, z = p
        v = _eval_f(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22, x, y, z)
        if v < best_min:
            best_min, amn = v, p
        if v > best_max:
            best_max, amx = v, p
    return best_min, best_max, amn, amx


def _extrema_nine_point(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22,
                        lo0, lo1, lo2, hi0, hi1, hi2):
    """The 8 corners, then the stationary point when it lies in the box."""
    points = [(lo0, lo1, lo2), (lo0, lo1, hi2), (lo0, hi1, lo2), (lo0, hi1, hi2),
              (hi0, lo1, lo2), (hi0, lo1, hi2), (hi0, hi1, lo2), (hi0, hi1, hi2)]
    sol = _solve3(h00, h01, h02, h11, h12, h22, -b0, -b1, -b2, SINGULAR_TOL)
    if (sol is not None and lo0 <= sol[0] <= hi0
            and lo1 <= sol[1] <= hi1 and lo2 <= sol[2] <= hi2):
        points.append(sol)
    return _keep_extremes(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22,
                          points, math.inf, -math.inf, points[0], points[0])


def _place(a, pa, pu, pv):
    """(pa, pu, pv) in axis order: pa on axis a, pu and pv on the others."""
    if a == 0:
        return pa, pu, pv
    return (pu, pa, pv) if a == 1 else (pu, pv, pa)


def _extrema_exact(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22,
                   lo0, lo1, lo2, hi0, hi1, hi2):
    """Exact box extrema: stationary candidates on all 27 faces.

    The 8 corners are evaluated inline from hoisted partial sums.  One loop
    over the axes a states the edge rule (a free, the others at a bound) and
    the facet rule (a at a bound, a 2x2 solve on the others) once each.  Each
    edge, facet and interior solve checks its stationary point against the
    closed face, clamps it and appends it, edges before facets;
    ``_keep_extremes`` then evaluates the candidates in that order.  Faces
    with a singular reduced system are skipped: their extrema fall on
    sub-faces, which are enumerated anyway.  The loop costs about 1 us a call
    over one copy per axis; the traversal's interval bound and corner bracket
    leave this kernel about 1 in 40 of the tiles an orbit frame visits and 1
    in 190 on a zoom.  Plain floats only.
    """
    # per-axis slack for accepting stationary candidates on the closed face
    t0 = 1e-12 * max(1.0, abs(lo0), abs(hi0))
    t1 = 1e-12 * max(1.0, abs(lo1), abs(hi1))
    t2 = 1e-12 * max(1.0, abs(lo2), abs(hi2))
    htol = SINGULAR_TOL * max(abs(h00), abs(h01), abs(h02), abs(h11), abs(h12), abs(h22))

    best_min, best_max = math.inf, -math.inf
    amn = amx = (lo0, lo1, lo2)
    # 8 corners, from hoisted partial sums
    for x in (lo0, hi0):
        bx = c0 + b0 * x + 0.5 * h00 * x * x
        for y in (lo1, hi1):
            bxy = bx + b1 * y + 0.5 * h11 * y * y + h01 * x * y
            for z in (lo2, hi2):
                v = (bxy + b2 * z + 0.5 * h22 * z * z
                     + h02 * x * z + h12 * y * z)
                if v < best_min:
                    best_min, amn = v, (x, y, z)
                if v > best_max:
                    best_max, amx = v, (x, y, z)

    # per axis: bounds, slack, linear term and Hessian row
    axes = ((lo0, hi0, t0, b0, (h00, h01, h02)), (lo1, hi1, t1, b1, (h01, h11, h12)),
            (lo2, hi2, t2, b2, (h02, h12, h22)))
    edges, facets = [], []
    for a, u, v in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        (loa, hia, ta, ba, ha), (lou, hiu, tu, bu, hu), (lov, hiv, tv, bv, hv) = (
            axes[a], axes[u], axes[v])
        haa, hau, hav = ha[a], ha[u], ha[v]
        # 4 edges: axis a free, u and then v at a bound
        if haa != 0.0 and abs(haa) > htol:
            for pu in (lou, hiu):
                for pv in (lov, hiv):
                    s = -(ba + hau * pu + hav * pv) / haa
                    if loa - ta <= s <= hia + ta:
                        edges.append(_place(a, min(max(s, loa), hia), pu, pv))
        # 2 facets: axis a at a bound, a 2x2 stationary solve on u and v
        huu, huv, hvv = hu[u], hu[v], hv[v]
        det = huu * hvv - huv * huv
        if det != 0.0 and abs(det) > htol * htol:
            for pa in (loa, hia):
                ru, rv = -(bu + hau * pa), -(bv + hav * pa)
                su, sv = (ru * hvv - huv * rv) / det, (huu * rv - ru * huv) / det
                if lou - tu <= su <= hiu + tu and lov - tv <= sv <= hiv + tv:
                    facets.append(_place(a, pa, min(max(su, lou), hiu),
                                         min(max(sv, lov), hiv)))
    points = edges + facets   # the 12 edges, then the 6 facets

    # interior stationary point
    sol = _solve3(h00, h01, h02, h11, h12, h22, -b0, -b1, -b2, SINGULAR_TOL)
    if sol is not None:
        x, y, z = sol
        if (lo0 - t0 <= x <= hi0 + t0 and lo1 - t1 <= y <= hi1 + t1
                and lo2 - t2 <= z <= hi2 + t2):
            points.append((min(max(x, lo0), hi0), min(max(y, lo1), hi1),
                           min(max(z, lo2), hi2)))
    if not points:  # most calls: no face has its stationary point on it
        return best_min, best_max, amn, amx
    return _keep_extremes(c0, b0, b1, b2, h00, h01, h02, h11, h12, h22,
                          points, best_min, best_max, amn, amx)


def _box_extrema(kernel, q: ScalarQuadratic, box: Box3) -> Extrema:
    mn, mx, amn, amx = kernel(*_unpack(q), *box.bounds)
    return Extrema(mn, mx, np.array(amn), np.array(amx))


def box_extrema_nine_point(q: ScalarQuadratic, box: Box3) -> Extrema:
    """Heuristic extrema from the 8 corners plus an in-box stationary point.

    Candidate values are a subset of the feasible set, so the reported range
    is always bracketed by the exact one; facet and edge extrema of
    indefinite quadratics can be missed.
    """
    return _box_extrema(_extrema_nine_point, q, box)


def box_extrema_exact(q: ScalarQuadratic, box: Box3) -> Extrema:
    """Exact extrema over the box by stationary-point enumeration per face."""
    return _box_extrema(_extrema_exact, q, box)


def box_extrema_grid(q: ScalarQuadratic, box: Box3, n: int) -> Extrema:
    """Min/max over the n x n x n lattice spanning the box, corners included."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lo0, lo1, lo2, hi0, hi1, hi2 = box.bounds
    xs = np.linspace(lo0, hi0, n)
    ys = np.linspace(lo1, hi1, n)
    zs = np.linspace(lo2, hi2, n)
    vals = _eval_f(*_unpack(q), *np.meshgrid(xs, ys, zs, indexing="ij", copy=False))
    kmin = np.unravel_index(int(np.argmin(vals)), vals.shape)
    kmax = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return Extrema(float(vals[kmin]), float(vals[kmax]),
                   np.array([xs[kmin[0]], ys[kmin[1]], zs[kmin[2]]]),
                   np.array([xs[kmax[0]], ys[kmax[1]], zs[kmax[2]]]))
