import math

import numpy as np
import pytest

from abincull import (
    Box3,
    CameraPose,
    Classification,
    ClassificationRun,
    GeodeticParams,
    classify_aabb8,
    compare_classifications,
    frustum_from_camera,
    identity_point,
    sample_oracle,
    sphere_point,
    world_aabb_of_bin,
)

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
