import itertools
import math

import numpy as np
import pytest

from abincull import (
    Box3,
    CameraPose,
    Classification,
    ClassificationRun,
    Frustum,
    GeodeticParams,
    Method,
    Plane,
    build_minmax_pyramid,
    classify_aabb8,
    compare_classifications,
    frustum_from_camera,
    identity_point,
    sample_oracle,
    sphere_point,
    traverse,
    world_aabb_of_bin,
)
from abincull import terrain
from abincull.cli import random_pose
from abincull.mapping import _sphere_point_rows
from abincull.scenario import load_scenario

PARAMS = GeodeticParams()
R = PARAMS.radius_m
PI = math.pi
SPHERE = lambda pts: sphere_point(PARAMS, pts)

OUT = Classification.OUTSIDE
IN = Classification.INSIDE
X = Classification.INTERSECT


class TestWorldAabb:
    def test_identity_map(self):
        box = world_aabb_of_bin(identity_point, [0.0, 0.0, 0.0],
                                Box3([-1.0] * 3, [1.0] * 3))
        assert np.allclose(box.lo, [-1.0] * 3)
        assert np.allclose(box.hi, [1.0] * 3)

    def test_equatorial_bulge_escapes_hull(self):
        # tile straddling lat 0 and lon 0: the mid-surface point pokes out
        # of the corner hull radially
        h = 2000.0
        half = np.array([0.0, 0.03125 * PI, 0.03125 * PI])
        center = np.array([R + h, 0.0, 0.0])
        hull = world_aabb_of_bin(SPHERE, center, Box3(-half, half))
        apex = sphere_point(PARAMS, center)
        assert hull.hi[2] < apex[2]
        # the gap is tens of kilometers at this tile span
        assert apex[2] - hull.hi[2] > 1e4

    def test_degenerate_height_four_distinct_corners(self):
        half = np.array([0.0, 0.01, 0.01])
        corners = Box3(-half, half).corners()
        world = sphere_point(PARAMS, np.array([R, 0.2, 0.3]) + corners)
        assert len({tuple(np.round(p, 6)) for p in world}) == 4


class TestClassifyAabb8:
    def test_beyond_far(self, canonical_frustum):
        box = Box3([-0.5, -0.5, -150.5], [0.5, 0.5, -149.5])
        assert classify_aabb8(box, canonical_frustum) is OUT

    def test_interior(self, canonical_frustum):
        box = Box3([-0.5, -0.5, -50.5], [0.5, 0.5, -49.5])
        assert classify_aabb8(box, canonical_frustum) is IN

    def test_straddles_near(self, canonical_frustum):
        box = Box3([-0.5, -0.5, -1.5], [0.5, 0.5, -0.5])
        assert classify_aabb8(box, canonical_frustum) is X


def corner_reference(box, frustum):
    """The 8-corner test in numpy: every corner's signed distance to every
    plane, OUTSIDE if some plane's least is > 0, INSIDE if all are <= 0."""
    dists = frustum.signed_distances(box.corners())  # (8, 6)
    if bool(np.any(dists.min(axis=0) > 0.0)):
        return OUT
    if bool(np.all(dists.max(axis=0) <= 0.0)):
        return IN
    return X


def slab_frustum():
    """Axis-aligned planes -1 <= x <= 2, -2 <= y <= 1, -3 <= z <= 0: integer
    corners get exact signed distances."""
    bounds = ((-1.0, 2.0), (-2.0, 1.0), (-3.0, 0.0))
    planes = []
    for axis, (lo, hi) in enumerate(bounds):
        e = np.eye(3)[axis]
        planes += [Plane(e, hi * e), Plane(-e, lo * e)]
    return Frustum(planes, [0.0, 0.0, -1.0])


class TestCornerTestDifferential:
    """classify_aabb8's p/n-vertex core against the numpy 8-corner test."""

    def test_bundled_aabb8_tiles(self, scenarios_dir, monkeypatch):
        # every AABB8 tile of the bundled frames: same verdict as the 8-corner
        # reference, and the same hull bits as under numpy's sphere_point
        real_hull, real_test = terrain.world_aabb_of_bin, terrain.classify_aabb8
        seen = {"hull": 0, "test": 0}

        def hull(map_fn, center, offsets):
            box = real_hull(map_fn, center, offsets)
            want = real_hull(SPHERE, center, offsets)
            assert (box.lo.tobytes(), box.hi.tobytes()) == (want.lo.tobytes(),
                                                            want.hi.tobytes())
            seen["hull"] += 1
            return box

        def corner_test(box, frustum):
            got = real_test(box, frustum)
            assert got is corner_reference(box, frustum), (box, got)
            seen["test"] += 1
            return got
        monkeypatch.setattr(terrain, "world_aabb_of_bin", hull)
        monkeypatch.setattr(terrain, "classify_aabb8", corner_test)
        visited = 0
        for name, frames in (("orbit_sinusoidal", range(0, 97, 8)), ("peak_orbit", (3, 12))):
            sc = load_scenario(scenarios_dir / f"{name}.json")
            pyramid = build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
            for frame in frames:
                frustum = frustum_from_camera(sc.cameras[frame])
                _, stats = traverse(frustum, sc.terrain, pyramid, sc.geodetic, Method.AABB8)
                visited += stats.visited
        assert seen == {"hull": visited, "test": visited} and visited > 0

    def test_integer_boxes_touching_planes(self):
        # lo/hi run over every integer interval in [-3, 3], so many corners
        # lie exactly on a plane and decide through > 0 / <= 0 alone
        frustum = slab_frustum()
        intervals = [(a, b) for a in range(-3, 4) for b in range(a, 4)]
        seen = set()
        for (l0, h0), (l1, h1), (l2, h2) in itertools.product(intervals, repeat=3):
            box = Box3([l0, l1, l2], [h0, h1, h2])
            got = classify_aabb8(box, frustum)
            assert got is corner_reference(box, frustum), (box.lo, box.hi)
            seen.add(got)
        assert seen == {OUT, IN, X}
        # n-vertex on a plane is not outside; p-vertex on a plane is inside
        assert classify_aabb8(Box3([2, 0, -1], [3, 1, 0]), frustum) is X
        assert classify_aabb8(Box3([-1, -2, -3], [2, 1, 0]), frustum) is IN
        assert classify_aabb8(Box3([3, 0, -1], [3, 1, 0]), frustum) is OUT

    def test_normals_with_zero_components(self, rng, canonical_frustum):
        # the canonical frustum's planes each have a zero normal component
        assert all(0.0 in (n0, n1, n2)
                   for n0, n1, n2, _ in canonical_frustum.plane_offsets)
        frusta = [canonical_frustum] + [frustum_from_camera(random_pose(rng))
                                        for _ in range(20)]
        seen = set()
        for frustum in frusta:
            for _ in range(300):
                center = rng.uniform(-150.0, 150.0, 3)
                half = rng.uniform(0.0, 40.0, 3)
                half[rng.integers(0, 3)] *= rng.integers(0, 2)  # some flat boxes
                box = Box3(center - half, center + half)
                got = classify_aabb8(box, frustum)
                assert got is corner_reference(box, frustum)
                seen.add(got)
        assert seen == {OUT, IN, X}

    @pytest.mark.parametrize("lo, hi", [
        ([math.nan] * 3, [math.nan] * 3),
        ([-0.5, -0.5, -200.0], [math.nan, 0.5, -150.0]),  # else beyond far
        ([-0.5, -0.5, -51.0], [0.5, math.nan, -50.0]),     # else interior
    ])
    def test_nan_box_intersects(self, canonical_frustum, lo, hi):
        box = Box3(lo, hi)
        assert classify_aabb8(box, canonical_frustum) is X
        assert corner_reference(box, canonical_frustum) is X

    def test_plain_corner_map_matches_sphere_point(self, rng):
        for _ in range(500):
            center = (R + rng.uniform(-500.0, 9000.0), rng.uniform(-1.57, 1.57),
                      rng.uniform(-3.14, 3.14))
            half = [rng.uniform(0.0, 4000.0) * rng.integers(0, 2),
                    rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)]
            offsets = Box3([-w for w in half], half)
            got = world_aabb_of_bin(_sphere_point_rows, center, offsets)
            want = world_aabb_of_bin(SPHERE, center, offsets)
            assert (got.lo.tobytes(), got.hi.tobytes()) == (want.lo.tobytes(),
                                                            want.hi.tobytes())


class TestSampleOracle:
    def globe_frustum(self):
        pose = CameraPose([0.0, 0.0, 5 * R], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                          2.8, 1.0, 1.0, 12 * R)
        return frustum_from_camera(pose)

    def tile_bins(self, n=8):
        rng = np.random.default_rng(2)
        for _ in range(n):
            center = np.array([R + rng.uniform(0, 5000),
                               rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0)])
            half = np.array([rng.uniform(0, 2000), 0.05, 0.05])
            yield center, Box3(-half, half)

    def test_globe_enclosing_frustum_all_inside(self):
        frustum = self.globe_frustum()
        for center, offsets in self.tile_bins():
            assert sample_oracle(SPHERE, center, offsets, frustum, (9, 9, 3)) is IN

    def test_everything_behind_camera_outside(self):
        pose = CameraPose([0.0, 0.0, R + 5e5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                          0.8, 1.0, 1e3, 1e6)
        frustum = frustum_from_camera(pose)
        for center, offsets in self.tile_bins():
            assert sample_oracle(SPHERE, center, offsets, frustum, (9, 9, 3)) is OUT

    def test_mixed_containment_intersects(self, canonical_frustum):
        offsets = Box3([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5])
        assert sample_oracle(identity_point, [0.0, 0.0, -1.0], offsets,
                             canonical_frustum, (3, 3, 3)) is X

    def test_monotone_refinement_never_flips_inside_to_outside(self):
        frustum = self.globe_frustum()
        for center, offsets in self.tile_bins():
            coarse = sample_oracle(SPHERE, center, offsets, frustum, (3, 3, 2))
            if coarse is IN:
                fine = sample_oracle(SPHERE, center, offsets, frustum, (17, 17, 5))
                assert fine in (IN, X)

    def test_degenerate_radial_axis_allowed(self, canonical_frustum):
        offsets = Box3([0.0, -0.5, -0.5], [0.0, 0.5, 0.5])
        verdict = sample_oracle(identity_point, [0.0, 0.0, -50.0], offsets,
                                canonical_frustum, (5, 5, 1))
        assert verdict is IN

    def test_rejects_tiny_lattice_on_wide_axis(self, canonical_frustum):
        offsets = Box3([-1.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError):
            sample_oracle(identity_point, [0.0, 0.0, -50.0], offsets,
                          canonical_frustum, (1, 5, 5))


def run(method, frames):
    return ClassificationRun(method, frames)


class TestCompareClassifications:
    def test_identical_runs_diagonal(self):
        frames = {0: {"a": OUT, "b": IN, "c": X}}
        report = compare_classifications(run("m1", frames), run("m2", frames),
                                         run("oracle", frames))
        assert report.aggregate_pairs == {("OUTSIDE", "OUTSIDE"): 1,
                                          ("INSIDE", "INSIDE"): 1,
                                          ("INTERSECT", "INTERSECT"): 1}
        assert report.intersect_ratio(0) == 1.0
        assert not report.unsound

    def test_unsound_prune_flagged(self):
        frames_a = {0: {"t": OUT}}
        frames_b = {0: {"t": X}}
        oracle = {0: {"t": IN}}
        report = compare_classifications(run("m1", frames_a), run("m2", frames_b),
                                         run("oracle", oracle))
        assert len(report.unsound) == 1
        flag = report.unsound[0]
        assert flag.method == "m1" and flag.tile == "t"
        assert report.unsound_count("m1") == 1
        assert report.unsound_count("m2") == 0

    def test_sound_prune_not_flagged(self):
        frames = {0: {"t": OUT}}
        oracle = {0: {"t": OUT}}
        report = compare_classifications(run("m1", frames), run("m2", frames),
                                         run("oracle", oracle))
        assert not report.unsound

    def test_mismatched_tiles_rejected(self):
        with pytest.raises(ValueError):
            compare_classifications(run("m1", {0: {"t": OUT}}),
                                    run("m2", {0: {"u": OUT}}),
                                    run("oracle", {0: {"t": OUT}}))
        with pytest.raises(ValueError):
            compare_classifications(run("m1", {0: {"t": OUT}}),
                                    run("m2", {0: {"t": OUT}, 1: {"t": OUT}}),
                                    run("oracle", {0: {"t": OUT}}))

    def test_pair_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        states = [OUT, IN, X]
        frames_a, frames_b, frames_o = {}, {}, {}
        total = 0
        for f in range(3):
            tiles = {f"t{k}": states[rng.integers(0, 3)] for k in range(20)}
            frames_a[f] = tiles
            frames_b[f] = {k: states[rng.integers(0, 3)] for k in tiles}
            frames_o[f] = {k: states[rng.integers(0, 3)] for k in tiles}
            total += len(tiles)
        report = compare_classifications(run("m1", frames_a), run("m2", frames_b),
                                         run("oracle", frames_o))
        assert sum(report.aggregate_pairs.values()) == total

    def test_serialization(self):
        import json

        frames = {0: {"t": OUT, "u": X}}
        oracle = {0: {"t": IN, "u": X}}
        report = compare_classifications(run("m1", frames), run("m2", frames),
                                         run("oracle", oracle))
        report.set_traversal_intersects("m1", 0, 4)
        report.set_traversal_intersects("m2", 0, 8)
        doc = json.loads(report.to_json())
        assert doc["frames"]["0"]["traversal_ratio"] == 0.5
        assert doc["unsound_counts"] == {"m1": 1, "m2": 1}
        lines = report.to_csv().splitlines()
        assert lines[0] == "frame,tile,m1,m2,oracle,unsound"
        assert len(lines) == 3
        assert "m1;m2" in lines[1]

    def test_json_deterministic_across_builds(self):
        frames = {0: {"t": OUT, "u": X}, 1: {"t": IN, "u": IN}}
        oracle = {0: {"t": OUT, "u": X}, 1: {"t": IN, "u": IN}}
        a = compare_classifications(run("m1", frames), run("m2", frames),
                                    run("oracle", oracle)).to_json()
        b = compare_classifications(run("m1", frames), run("m2", frames),
                                    run("oracle", oracle)).to_json()
        assert a == b

    def test_cross_consistency_identity_vs_aabb8(self, rng, canonical_frustum):
        # classify_aabb8 agrees with the curved-bin test under the identity
        # map (cross-module sanity, detail covered in test_cull)
        from abincull import CullConfig, classify_bin, identity_jet
        for _ in range(50):
            center = rng.uniform(-120, 120, 3)
            half = rng.uniform(0.1, 30.0, 3)
            got = classify_bin(identity_jet(center), Box3(-half, half),
                               canonical_frustum, CullConfig(1.0))
            want = classify_aabb8(Box3(center - half, center + half),
                                  canonical_frustum)
            assert got is want
