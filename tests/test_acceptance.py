"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  The orbit and peak scenarios are executed once per
session; their comparison reports and per-plane mode-parity counters feed
criteria 4 through 7.
"""

import math
import time

import numpy as np
import pytest

from abincull import (
    Box3,
    CullConfig,
    ExtremaMode,
    GeodeticParams,
    PlaneState,
    box_extrema_exact,
    box_extrema_grid,
    box_extrema_nine_point,
    classify_aabb8,
    classify_against_plane,
    classify_bin,
    frustum_from_camera,
    identity_jet,
    inflate_bin,
    plane_quadratic,
    sphere_fd_error,
    sphere_jet,
    tile_bin,
)
from abincull.cli import (
    main,
    random_box,
    random_pose,
    random_quadratic,
    run_compare,
)
from abincull.scenario import load_scenario

from conftest import repo_root

RESULTS = []


def report(criterion, name, ok, detail):
    line = f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print("\n" + line, flush=True)
    return ok


@pytest.fixture(scope="module")
def scenario_runs():
    """Compare runs for the orbit and peak scenarios, plus mode-parity
    counters collected over every plane test of the analytic traversals."""
    runs = {}
    for name in ("orbit_sinusoidal", "peak_orbit"):
        scenario = load_scenario(repo_root() / "scenarios" / f"{name}.json")
        parity = {"total": 0, "diff": 0, "bad_direction": 0}
        collector = _parity_collector(scenario, parity)
        t0 = time.perf_counter()
        report_obj, stats = run_compare(scenario, None,
                                        frame_callback=collector)
        elapsed = time.perf_counter() - t0
        runs[name] = {
            "scenario": scenario,
            "report": report_obj,
            "stats": stats,
            "parity": parity,
            "elapsed": elapsed,
        }
    return runs


def _parity_collector(scenario, acc):
    params = scenario.geodetic
    inflation = scenario.terrain.cull.inflation

    def callback(frame, frustum, classified_by_method):
        for tile, _cls in classified_by_method["ANALYTIC_BIN_EXACT"]:
            center, offsets = tile_bin(tile, params)
            jet = sphere_jet(params, center)
            inflated = inflate_bin(offsets, inflation)
            for plane in frustum.planes:
                q, d = plane_quadratic(jet, plane)
                exact = classify_against_plane(q, d, inflated, ExtremaMode.EXACT)
                nine = classify_against_plane(q, d, inflated, ExtremaMode.NINE_POINT)
                acc["total"] += 1
                if exact is not nine:
                    acc["diff"] += 1
                    ok_direction = (exact is PlaneState.STRADDLES
                                    and nine is not PlaneState.STRADDLES)
                    if not ok_direction:
                        acc["bad_direction"] += 1

    return callback


def test_criterion_1_sphere_derivatives():
    params = GeodeticParams()
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        point = np.array([params.radius_m + rng.uniform(0.0, 9000.0),
                          rng.uniform(-math.pi / 2, math.pi / 2),
                          rng.uniform(-math.pi, math.pi)])
        worst = max(worst, sphere_fd_error(params, point, 1e-4))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(1, "sphere-derivative-correctness", ok,
                  f"worst rel err {worst:.3e} over 1000 points, {elapsed:.2f}s")


def test_criterion_2_extrema_oracle_agreement():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst_gap = 0.0
    dominance_violations = 0
    for k in range(500):
        q = random_quadratic(rng)
        box = random_box(rng, degenerate=(k % 25 == 0))
        exact = box_extrema_exact(q, box)
        grid = box_extrema_grid(q, box, 101)
        nine = box_extrema_nine_point(q, box)
        span = max(exact.max_val - exact.min_val, 1e-12)
        gap = max(abs(exact.min_val - grid.min_val),
                  abs(exact.max_val - grid.max_val)) / span
        worst_gap = max(worst_gap, gap)
        eps = 1e-12 * span + 1e-12
        if nine.min_val < exact.min_val - eps or nine.max_val > exact.max_val + eps:
            dominance_violations += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-4 and dominance_violations == 0 and elapsed < 60.0
    assert report(2, "extrema-oracle-agreement", ok,
                  f"worst grid gap {worst_gap:.2e} of range, "
                  f"{dominance_violations} dominance violations, {elapsed:.1f}s")


def test_criterion_3_linear_case_equivalence():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    mismatches = 0
    cfg = CullConfig(inflation=1.0, extrema_mode=ExtremaMode.EXACT)
    for _ in range(1000):
        frustum = frustum_from_camera(random_pose(rng))
        center = rng.uniform(-300.0, 300.0, size=3)
        half = rng.uniform(0.1, 50.0, size=3)
        got = classify_bin(identity_jet(center), Box3(-half, half), frustum, cfg)
        want = classify_aabb8(Box3(center - half, center + half), frustum)
        if got is not want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(3, "linear-case-equivalence", ok,
                  f"{mismatches} mismatches over 1000 pairs, {elapsed:.1f}s")


def test_criterion_4_analytic_soundness(scenario_runs):
    total_elapsed = sum(r["elapsed"] for r in scenario_runs.values())
    flags = {name: r["report"].unsound_count("ANALYTIC_BIN_EXACT")
             for name, r in scenario_runs.items()}
    frames = sum(len(r["scenario"].cameras) for r in scenario_runs.values())
    ok = all(n == 0 for n in flags.values()) and total_elapsed < 300.0
    assert report(4, "analytic-bin-soundness", ok,
                  f"unsound={flags}, {frames} frames, runs took {total_elapsed:.0f}s")


def test_criterion_5_baseline_failure_reproduced(scenario_runs):
    flags = {name: r["report"].unsound_count("AABB8")
             for name, r in scenario_runs.items()}
    frames_hit = {name: len({f.frame for f in r["report"].unsound
                             if f.method == "AABB8"})
                  for name, r in scenario_runs.items()}
    ok = all(n >= 1 for n in flags.values())
    assert report(5, "corner-hull-failure-reproduced", ok,
                  f"AABB8 unsound flags {flags} on frames {frames_hit}")


def test_criterion_6_block_reduction(scenario_runs):
    ratios = []
    per_scenario = {}
    for name, r in scenario_runs.items():
        stats = r["stats"]
        local = []
        for frame in range(len(r["scenario"].cameras)):
            a = stats["ANALYTIC_BIN_EXACT"][frame]
            b = stats["AABB8"][frame]
            partial = (b.outside > 0 and (b.inside + b.intersect) > 0
                       and b.intersect > 0)
            if partial:
                local.append(a.intersect / b.intersect)
        per_scenario[name] = sum(local) / len(local) if local else None
        ratios.extend(local)
    mean = sum(ratios) / len(ratios)
    ok = mean <= 0.75
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in per_scenario.items())
    assert report(6, "intersect-block-reduction", ok,
                  f"mean ratio {mean:.3f} over {len(ratios)} partial frames "
                  f"({detail})")


def test_criterion_7_nine_point_vs_exact_gap(scenario_runs):
    total = sum(r["parity"]["total"] for r in scenario_runs.values())
    diff = sum(r["parity"]["diff"] for r in scenario_runs.values())
    bad = sum(r["parity"]["bad_direction"] for r in scenario_runs.values())
    fraction = diff / total if total else 0.0
    ok = fraction < 0.05 and bad == 0 and total > 0
    assert report(7, "nine-point-vs-exact-gap", ok,
                  f"{diff}/{total} plane tests disagree ({fraction:.4%}), "
                  f"{bad} in a forbidden direction")


def test_criterion_8_determinism(tmp_path):
    scenario = str(repo_root() / "scenarios" / "smoke.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["run", scenario, "-o", str(out_a)])
    rc_b = main(["run", scenario, "-o", str(out_b)])
    same = (out_a / "stats.csv").read_bytes() == (out_b / "stats.csv").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and same
    assert report(8, "stats-byte-determinism", ok,
                  f"exit codes ({rc_a}, {rc_b}), byte-identical={same}")
