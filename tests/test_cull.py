import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from abincull import (
    Box3,
    Classification,
    CullConfig,
    ExtremaMode,
    GeodeticParams,
    Method,
    Plane,
    PlaneState,
    ScalarQuadratic,
    TerrainConfig,
    box_extrema_exact,
    box_extrema_grid,
    build_minmax_pyramid,
    classify_aabb8,
    classify_against_plane,
    classify_bin,
    classify_tile,
    frustum_from_camera,
    identity_jet,
    inflate_bin,
    load_scenario,
    plane_quadratic,
    sphere_jet,
    subdivide,
    synth_heightfield,
)
from abincull.cli import _orbit_pose, random_pose, random_quadratic
from abincull.cull import (
    _EXTREMA,
    ALL_PLANES,
    _classify_bin_scalars,
    _reach,
    _screened_bins,
)
from abincull.mapping import _sphere_jet_rows
from abincull.terrain import _grid_shape

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

    def test_rejects_nan_factor(self):
        # a NaN factor used to give an all-NaN box
        with pytest.raises(ValueError, match="nan"):
            inflate_bin(Box3((-1.0, 0.0, -1.0), (1.0, 0.0, 1.0)), math.nan)

    def test_rejects_infinite_factor(self):
        # an infinite factor used to give NaN bounds on the zero-width axis
        with pytest.raises(ValueError, match="inf"):
            inflate_bin(Box3((-1.0, 0.0, -1.0), (1.0, 0.0, 1.0)), math.inf)


class TestCullConfig:
    def test_rejects_out_of_range_inflation(self):
        for bad in (0.5, 2.5):
            with pytest.raises(ValueError):
                CullConfig(inflation=bad)

    @pytest.mark.parametrize("bad", ["EXACT", "NINE_POINT", None])
    def test_rejects_an_extrema_mode_that_is_no_extrema_mode(self, bad):
        # "EXACT" used to be accepted, and the first analytic tile then
        # raised KeyError: 'EXACT'
        with pytest.raises(ValueError, match="extrema_mode"):
            CullConfig(extrema_mode=bad)
        with pytest.raises(ValueError, match="extrema_mode"):
            dataclasses.replace(CullConfig(), extrema_mode=bad)


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

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_all_nan_candidates_straddle(self, mode):
        # every candidate value is NaN, so the kernel keeps no extremum and
        # returns (inf, -inf); that is no bound, not a separation
        q = ScalarQuadratic(0.0, [math.nan, 0.0, 0.0], np.zeros((3, 3)))
        state = classify_against_plane(q, 0.0, Box3([-1.0] * 3, [1.0] * 3), mode)
        assert state is PlaneState.STRADDLES

    @pytest.mark.parametrize("mode", ["EXACT", None, 0])
    def test_mode_that_is_no_extrema_mode_rejected(self, mode):
        q = ScalarQuadratic(0.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
        with pytest.raises(ValueError, match="mode must be an ExtremaMode"):
            classify_against_plane(q, 0.5, Box3([-1.0] * 3, [1.0] * 3), mode)

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

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_all_nan_candidates_intersect(self, canonical_frustum, mode):
        # a NaN Jacobian entry makes every plane's linear term NaN; the tile
        # would be INSIDE with a finite one
        jet = identity_jet([0.0, 0.0, -50.0])
        jac = jet.jacobian.copy()
        jac[0, 0] = math.nan
        cls = classify_bin(dataclasses.replace(jet, jacobian=jac), HALF_BOX,
                           canonical_frustum, CullConfig(1.1, mode))
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


def _kernel_only(tile, frustum, params, cull, planes):
    """classify_tile's analytic (verdict, straddled) from the public per-plane
    API alone: plane_quadratic and classify_against_plane over the inflated
    box, built with classify_tile's own expressions, with no pre-test."""
    h_lo, h_hi = tile.height_range
    lat_lo, lat_hi = tile.lat_range
    lon_lo, lon_hi = tile.lon_range
    f = cull.inflation
    hw = [f * 0.5 * (h_hi - h_lo), f * 0.5 * (lat_hi - lat_lo), f * 0.5 * (lon_hi - lon_lo)]
    jet = sphere_jet(params, [params.radius_m + 0.5 * (h_lo + h_hi),
                              0.5 * (lat_lo + lat_hi), 0.5 * (lon_lo + lon_hi)])
    box = Box3([-w for w in hw], hw)
    straddled = 0
    for k, plane in enumerate(frustum.planes):
        if not planes >> k & 1:
            continue
        state = classify_against_plane(*plane_quadratic(jet, plane), box, cull.extrema_mode)
        if state is PlaneState.FULLY_OUTSIDE:
            return Classification.OUTSIDE, 0
        if state is PlaneState.STRADDLES:
            straddled |= 1 << k
    return (Classification.INTERSECT, straddled) if straddled else (Classification.INSIDE, 0)


def _differential_walk(frustum, cfg, pyramid, params):
    """Walk the traversal's (tile, mask) stack, asserting at every tile that
    classify_tile with the mask equals the kernel-only reference; returns the
    tested tiles."""
    n_lat, n_lon = _grid_shape(cfg.start_level)
    stack = [(pyramid.tile(cfg.start_level, i, j), ALL_PLANES)
             for i in range(n_lat) for j in range(n_lon)]
    tested = []
    while stack:
        tile, planes = stack.pop()
        got = classify_tile(tile, frustum, params, Method.ANALYTIC_BIN, cfg.cull,
                            planes=planes)
        want = _kernel_only(tile, frustum, params, cfg.cull, planes)
        assert got == want, (tile.tile_id, planes)
        tested.append(tile)
        cls, straddled = want
        if cls is Classification.INTERSECT and tile.level < cfg.max_level:
            stack.extend((child, straddled) for child in subdivide(tile, pyramid))
    return tested


def _one_plane_frustum(b, h, d):
    """A frustum stand-in and jet rows whose single plane (normal e_x through
    the origin) yields exactly the plane terms b, H and d, so tests can drive
    _classify_bin_scalars with a chosen quadratic."""
    rows = ([d, 0.0, 0.0],
            [[-b[0], -b[1], -b[2]], [0.0] * 3, [0.0] * 3],
            [[-h[r][c] for c in range(3)] for r in range(3)],
            [[0.0] * 3 for _ in range(3)],
            [[0.0] * 3 for _ in range(3)])
    return rows, SimpleNamespace(plane_scalars=((1.0, 0.0, 0.0, 0.0, 0.0, 0.0),) * 6)


def _one_plane_vs_kernel_only(b, h, d, half, mode, kernel_calls):
    """(got, want, kernel calls of got) for the one-plane stand-in over the
    centred box with half-widths half: got from _classify_bin_scalars, want
    from the public kernel-only API."""
    state = classify_against_plane(ScalarQuadratic(0.0, b, h), d,
                                   Box3([-w for w in half], half), mode)
    want = {PlaneState.FULLY_OUTSIDE: (Classification.OUTSIDE, 0),
            PlaneState.FULLY_INSIDE: (Classification.INSIDE, 0)}.get(
                state, (Classification.INTERSECT, 1))
    rows, frustum = _one_plane_frustum(b, h, d)
    before = kernel_calls[mode]
    got = _classify_bin_scalars(*rows, *(-w for w in half), *half, frustum, mode, 1)
    return got, want, kernel_calls[mode] - before


def _ulps(v, n):
    """v moved n floats up (n > 0) or down."""
    for _ in range(abs(n)):
        v = math.nextafter(v, math.copysign(math.inf, n))
    return v


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the extrema kernel calls of _classify_bin_scalars, per mode."""
    calls = {mode: 0 for mode in ExtremaMode}

    def counting(mode, kernel):
        def wrapper(*args):
            calls[mode] += 1
            return kernel(*args)
        return wrapper
    for mode, kernel in list(_EXTREMA.items()):
        monkeypatch.setitem(_EXTREMA, mode, counting(mode, kernel))
    return calls


class TestIntervalPretest:
    """The interval pre-test gives the extrema kernel's own verdicts."""

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_bundled_frames_match_kernel_only(self, scenarios_dir, mode):
        for name, frames in (("orbit_sinusoidal", range(0, 97, 8)), ("peak_orbit", (3, 12))):
            sc = load_scenario(scenarios_dir / f"{name}.json")
            cfg = dataclasses.replace(
                sc.terrain, cull=dataclasses.replace(sc.terrain.cull, extrema_mode=mode))
            pyramid = build_minmax_pyramid(sc.build_heightfield(), cfg)
            for frame in frames:
                frustum = frustum_from_camera(sc.cameras[frame])
                assert _differential_walk(frustum, cfg, pyramid, sc.geodetic)

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_orbit_poses_match_kernel_only(self, mode):
        rng = np.random.default_rng(16)
        cfg = TerrainConfig(start_level=2, max_level=6, cull=CullConfig(1.1, mode))
        pyramid = build_minmax_pyramid(synth_heightfield("SINUSOIDAL", rows=65, cols=129), cfg)
        pole = seam = 0
        for _ in range(20):
            frustum = frustum_from_camera(_orbit_pose(rng, PARAMS))
            for tile in _differential_walk(frustum, cfg, pyramid, PARAMS):
                if tile.level > cfg.start_level:
                    pole += tile.lat_range[0] == -math.pi / 2 or tile.lat_range[1] == math.pi / 2
                    seam += tile.lon_range[0] == -math.pi or tile.lon_range[1] == math.pi
        assert pole > 0 and seam > 0

    def test_bound_brackets_kernel_ranges(self, rng, kernel_calls):
        # d at either end of a kernel's range must be left to the kernel:
        # [LB - eps, UB + eps] contains every kernel's [min, max]
        for k in range(400):
            q = dataclasses.replace(random_quadratic(rng), constant=0.0)
            half = rng.uniform(0.05, 3.0, size=3)
            if k % 2:
                half[rng.integers(0, 3)] = 0.0
            box = Box3(-half, half)
            for ext in (box_extrema_exact(q, box), box_extrema_grid(q, box, 5)):
                for d in (ext.min_val, ext.max_val):
                    rows, frustum = _one_plane_frustum(q.linear.tolist(),
                                                       q.hessian.tolist(), d)
                    before = kernel_calls[ExtremaMode.EXACT]
                    _classify_bin_scalars(*rows, *box.lo.tolist(), *box.hi.tolist(),
                                          frustum, ExtremaMode.EXACT, 1)
                    assert kernel_calls[ExtremaMode.EXACT] == before + 1

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_eps_band_reaches_kernel(self, mode, kernel_calls):
        # s(x) = x0 over [-1, 1]^3: UB = 1, LB = -1, T = 1, eps ~ 2e-9
        rows_for = lambda d: _one_plane_frustum([1.0, 0.0, 0.0], [[0.0] * 3] * 3, d)
        cases = [(1.0 + 1e-10, Classification.OUTSIDE, 1),
                 (1.0 + 1e-6, Classification.OUTSIDE, 0),
                 (-1.0 - 1e-10, Classification.INSIDE, 1),
                 (-1.0 - 1e-6, Classification.INSIDE, 0)]
        for d, verdict, calls in cases:
            rows, frustum = rows_for(d)
            before = kernel_calls[mode]
            got = _classify_bin_scalars(*rows, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0,
                                        frustum, mode, 1)
            assert got == (verdict, 0), d
            assert kernel_calls[mode] - before == calls, d

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_nan_distance_straddles(self, mode, kernel_calls):
        rows, frustum = _one_plane_frustum([1.0, 0.0, 0.0], [[0.0] * 3] * 3, math.nan)
        got = _classify_bin_scalars(*rows, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0,
                                    frustum, mode, 1)
        assert got == (Classification.INTERSECT, 1)
        assert kernel_calls[mode] == 1

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_corner_bracket_decides_straddles(self, mode, kernel_calls):
        # over [-1, 1]^3, s(x) = x0 has corner range [-1, 1] and eps ~ 1e-9;
        # s(x) = x0 -+ x1^2 / 2 has corner range [-1.5, 0.5] (maximum 1) and
        # [-0.5, 1.5] (minimum -1)
        linear = ([1.0, 0.0, 0.0], [[0.0] * 3] * 3)
        concave = ([1.0, 0.0, 0.0], [[0.0] * 3, [0.0, -1.0, 0.0], [0.0] * 3])
        convex = ([1.0, 0.0, 0.0], [[0.0] * 3, [0.0, 1.0, 0.0], [0.0] * 3])
        cases = [(linear, 0.0, 0), (linear, 0.5, 0), (linear, 1.0 - 1e-6, 0),
                 (linear, 1.0 - 1e-10, 1), (linear, -1.0 + 1e-10, 1),
                 (concave, -1.2, 0), (concave, 0.3, 0), (concave, 0.8, 1),
                 (convex, 1.2, 0), (convex, -0.3, 0), (convex, -0.8, 1)]
        for (b, h), d, calls in cases:
            got, want, got_calls = _one_plane_vs_kernel_only(b, h, d, [1.0] * 3, mode,
                                                             kernel_calls)
            assert (got, got_calls) == (want, calls), (h, d)
            if not calls:
                assert got == (Classification.INTERSECT, 1), (h, d)

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_non_finite_terms_reach_kernel(self, mode, kernel_calls):
        zero = [[0.0] * 3 for _ in range(3)]
        h01_inf = [[0.0, math.inf, 0.0], [math.inf, 0.0, 0.0], [0.0] * 3]
        h00_nan = [[math.nan, 0.0, 0.0], [0.0] * 3, [0.0] * 3]
        cases = [([math.nan, 0.0, 0.0], zero, 0.0), ([0.0, math.inf, 0.0], zero, 0.0),
                 ([1.0, 0.0, 0.0], h01_inf, 0.0), ([1.0, 0.0, 0.0], h00_nan, 0.0),
                 ([1.0, 0.0, 0.0], zero, math.inf), ([1.0, 0.0, 0.0], zero, -math.inf)]
        for b, h, d in cases:
            got, want, calls = _one_plane_vs_kernel_only(b, h, d, [1.0] * 3, mode,
                                                         kernel_calls)
            assert (got, calls) == (want, 1), (b, h, d)

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_d_at_corner_values_matches_kernel_only(self, mode, rng, kernel_calls):
        # d at each corner value of s and a few ulps either side: the bracket
        # decides the corners strictly inside the range, the kernel the rest,
        # and every verdict and straddle mask is the kernel's own
        tests = decided = 0
        for k in range(150):
            q = dataclasses.replace(random_quadratic(rng), constant=0.0)
            half = rng.uniform(0.05, 3.0, size=3)
            if k % 3 == 0:
                half[rng.integers(0, 3)] = 0.0
            b, h = q.linear.tolist(), q.hessian.tolist()
            for v in q.value(Box3(-half, half).corners()).tolist():
                for d in (v, *(_ulps(v, n) for n in (-3, -1, 1, 3))):
                    got, want, calls = _one_plane_vs_kernel_only(b, h, d, half.tolist(),
                                                                 mode, kernel_calls)
                    assert got == want, (k, d)
                    tests += 1
                    decided += calls == 0
        assert 0 < decided < tests

    def test_uncentred_box_reaches_kernel(self, canonical_frustum, kernel_calls):
        jet = identity_jet([0.0, 0.0, -50.0])
        centred = classify_bin(jet, Box3([-0.5] * 3, [0.5] * 3), canonical_frustum)
        assert (centred, kernel_calls[ExtremaMode.EXACT]) == (Classification.INSIDE, 0)
        shifted = classify_bin(jet, Box3([-0.5, -0.5, -0.25], [0.5, 0.5, 0.75]),
                               canonical_frustum)
        assert (shifted, kernel_calls[ExtremaMode.EXACT]) == (Classification.INSIDE, 6)


def _screen_one(b, h, d, half):
    """(screened, reach, threshold) for the one-plane stand-in of
    ``_one_plane_frustum`` over the centred box with half-widths half."""
    (value, *jet), frustum = _one_plane_frustum(b, h, d)
    w0, w1, w2 = half
    reach = _reach(*jet, w0, w1, w2, w0 * w1, w0 * w2, w1 * w2,
                   0.5 * w0 * w0, 0.5 * w1 * w1, 0.5 * w2 * w2)
    screened = _screened_bins(*([v] for v in value), np.array([reach]), frustum)
    # the stand-in's normal is e_x, so ||n|| = 1 and d is exactly ``d``
    return bool(screened[0]), float(reach), (1.0 + 1e-6) * float(reach)


class TestReachScreen:
    """``cull._screened_bins``: a screened box is OUTSIDE for the scalar path."""

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_threshold_at_the_tight_case(self, mode, rng, kernel_calls):
        # with every Jacobian column and Hessian vector along the normal and
        # h_ii >= 0, the interval bound UB equals ||n|| R: the screen's margin
        # is all that separates them.  One ulp above the threshold screens,
        # and the bound alone then finds the plane separating; the threshold
        # itself does not screen
        for _ in range(200):
            b = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 7, size=3)
            h = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 7)
            h = h + h.T
            np.fill_diagonal(h, np.abs(np.diag(h)))
            half = rng.uniform(1e-4, 2.0, size=3).tolist()
            b, h = b.tolist(), h.tolist()
            _, reach, threshold = _screen_one(b, h, 0.0, half)
            assert reach > 0.0
            above = math.nextafter(threshold, math.inf)
            screened, _, _ = _screen_one(b, h, above, half)
            rows, frustum = _one_plane_frustum(b, h, above)
            before = kernel_calls[mode]
            got = _classify_bin_scalars(*rows, *(-w for w in half), *half, frustum, mode,
                                        ALL_PLANES)
            assert screened and got == (Classification.OUTSIDE, 0)
            assert kernel_calls[mode] == before
            assert not _screen_one(b, h, threshold, half)[0]
            assert not _screen_one(b, h, math.nextafter(threshold, 0.0), half)[0]

    def test_non_finite_d_or_reach_never_screens(self):
        b, h, half = [1.0, -2.0, 3.0], [[0.5, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, 1.0]], \
            [0.1, 0.2, 0.3]
        assert _screen_one(b, h, 1e6, half)[0]
        for d in (math.inf, -math.inf, math.nan):
            assert not _screen_one(b, h, d, half)[0], d
        # a NaN entry makes R NaN; a square that overflows, or an infinite
        # width, makes it infinite
        h_nan = [[math.nan, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, 1.0]]
        for b_, h_, half_ in (([math.nan, 0.0, 0.0], h, half), (b, h_nan, half),
                              ([1e200, 0.0, 0.0], h, half),
                              (b, h, [math.inf, 0.2, 0.3])):
            screened, reach, _ = _screen_one(b_, h_, 1e300, half_)
            assert not math.isfinite(reach) and not screened, (b_, h_, half_)
