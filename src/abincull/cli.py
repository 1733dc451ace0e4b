"""Benchmark harness: run scenarios, compare methods, self-test invariants.

``run`` and ``compare`` loop over one frame generator: per frame, one frustum
and one traversal per distinct method name.  ``run`` writes stats.csv plus one
visible-tile JSON per (method, frame).  stats.csv is byte-stable across
repeated runs, so its elapsed_ns column is a fixed 0 placeholder; measured
wall times go to timings.csv, which is host-dependent.

``compare`` walks each method's classification map once per frame; the
sampling oracle classifies every start-level tile and every pruned tile, each
once per frame.  It writes a comparison report
with per-frame INTERSECT ratios and UNSOUND flags (tiles claimed OUTSIDE
that provably contain visible surface).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .baseline import (
    ClassificationRun,
    classify_aabb8,
    compare_classifications,
    sample_oracle,
)
from .cull import Classification, CullConfig, ExtremaMode, classify_bin
from .frustum import CameraPose, frustum_corners, frustum_from_camera
from .mapping import (
    GeodeticParams,
    identity_jet,
    sphere_fd_error,
    sphere_point,
)
from .quadratic import (
    Box3,
    ScalarQuadratic,
    box_extrema_exact,
    box_extrema_grid,
    box_extrema_nine_point,
    stationary_point,
)
from .scenario import METHOD_NAMES, Scenario, ScenarioError, _at, load_scenario
from .terrain import (
    IngestError,
    build_minmax_pyramid,
    synth_heightfield,
    tile_bin,
    traverse,
)

STATS_COLUMNS = ("frame", "method", "visited", "outside", "inside", "intersect",
                 "leaves_rendered", "max_depth", "elapsed_ns")


def _frames(scenario: Scenario, base_dir, keep_classified=False):
    """Yield ``(frame, frustum, results)`` per camera, where
    ``results[name] = (visible, stats, classified)`` for each distinct method
    name, traversed once; ``classified`` maps tile_id -> (tile,
    classification), filled only if ``keep_classified``.  ``visible`` and
    ``classified`` are emptied when the next frame is requested.
    """
    pyramid = build_minmax_pyramid(scenario.build_heightfield(base_dir), scenario.terrain)
    configs = {}
    for name in scenario.methods:
        method, mode = METHOD_NAMES[name]
        cull = scenario.terrain.cull
        if mode is not None:
            cull = dataclasses.replace(cull, extrema_mode=mode)
        configs[name] = method, dataclasses.replace(scenario.terrain, cull=cull)

    for frame, pose in enumerate(scenario.cameras):
        frustum = frustum_from_camera(pose)
        results = {}
        for name, (method, cfg) in configs.items():
            classified = {}
            record = lambda tile, cls: classified.__setitem__(tile.tile_id, (tile, cls))
            visible, stats = traverse(frustum, cfg, pyramid, scenario.geodetic, method,
                                      sink=record if keep_classified else None)
            results[name] = visible, stats, classified
        yield frame, frustum, results
        # the caller's loop variables still hold this frame; empty it so that
        # two frames' tiles are never alive at once
        for visible, _, classified in results.values():
            visible.clear()
            classified.clear()


def run_scenario(scenario: Scenario, out_dir, base_dir=None) -> list[dict]:
    """Execute every (frame, method) traversal and write run artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    timing_rows = []
    for frame, _, results in _frames(scenario, base_dir):
        for method_name, (visible, stats, _) in results.items():
            row = {
                "frame": frame, "method": method_name,
                "visited": stats.visited, "outside": stats.outside,
                "inside": stats.inside, "intersect": stats.intersect,
                "leaves_rendered": stats.leaves_rendered,
                "max_depth": stats.max_depth_reached,
                "elapsed_ns": 0,
            }
            rows.append(row)
            timing_rows.append({**row, "elapsed_ns": stats.elapsed_ns})
            tiles = sorted(t.tile_id for t in visible)
            doc = {"frame": frame, "method": method_name, "tiles": tiles}
            path = out / f"visible_{method_name}_{frame}.json"
            path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    for name, data in (("stats.csv", rows), ("timings.csv", timing_rows)):
        with open(out / name, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=STATS_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(data)
    return rows


def run_compare(scenario: Scenario, out_dir=None, base_dir=None,
                frame_callback=None):
    """Run all methods plus the oracle; build the comparison report.

    Per frame: every distinct method traverses once (stats feed the
    INTERSECT ratio).  ``traverse`` classifies the whole start-level grid
    first, so each method's grid verdicts are read back from its
    classification map in the same single walk that oracle-checks every tile
    it pruned, so unsound prunes at any depth are flagged.  A start-level or
    pruned tile gets its oracle verdict the first time the frame needs it,
    memoised across methods; the start grid's verdicts fill the oracle side
    of the identical-tile-set pair table.
    ``frame_callback(frame, frustum, classified_by_method)`` sees each
    frame's full classification maps before they are discarded.
    """
    if len(scenario.methods) < 2:
        raise ScenarioError("$.methods: compare needs at least 2 methods")
    if not scenario.oracle_enabled:
        raise ScenarioError("$.oracle.enabled: compare needs the oracle enabled")

    params = scenario.geodetic
    map_fn = lambda pts: sphere_point(params, pts)
    start_level = scenario.terrain.start_level

    grid_runs = {name: {} for name in scenario.methods}
    oracle_grid = {}
    stats_by_method = {name: [] for name in scenario.methods}
    pruned_flags = []  # (frame, tile_id, method, oracle_state)

    for frame, frustum, results in _frames(scenario, base_dir, keep_classified=True):
        oracle_states = {}
        for method_name, (_, stats, classified) in results.items():
            stats_by_method[method_name].append(stats)
            # in row order: the traversal visits the start grid that way
            grid = grid_runs[method_name][frame] = {}
            for tile_id, (tile, cls) in classified.items():
                pruned = cls is Classification.OUTSIDE
                if tile.level == start_level:
                    grid[tile_id] = cls
                elif not pruned:
                    continue
                if tile_id not in oracle_states:
                    center, offsets = tile_bin(tile, params)
                    oracle_states[tile_id] = sample_oracle(map_fn, center, offsets,
                                                           frustum, scenario.oracle_lattice)
                verdict = oracle_states[tile_id]
                if pruned and verdict is not Classification.OUTSIDE:
                    pruned_flags.append((frame, tile_id, method_name, verdict.value))
        # every method's grid holds the same ids in the same order
        oracle_grid[frame] = {tile_id: oracle_states[tile_id] for tile_id in grid}
        if frame_callback is not None:
            frame_callback(frame, frustum, {name: r[2] for name, r in results.items()})

    name_a, name_b = scenario.methods[0], scenario.methods[1]
    report = compare_classifications(
        ClassificationRun(name_a, grid_runs[name_a]),
        ClassificationRun(name_b, grid_runs[name_b]),
        ClassificationRun("oracle", oracle_grid),
    )
    for frame, tile_id, method_name, verdict in pruned_flags:
        report.add_unsound(frame, tile_id, method_name, "OUTSIDE", verdict)
    for method_name, stats_list in stats_by_method.items():
        for frame, stats in enumerate(stats_list):
            report.set_traversal_intersects(method_name, frame, stats.intersect)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "compare_report.json").write_text(report.to_json() + "\n")
        (out / "compare_report.csv").write_text(report.to_csv())
    return report, stats_by_method


def cmd_run(args) -> int:
    scenario = _load_with_overrides(args)
    run_scenario(scenario, args.output, base_dir=Path(args.scenario).parent)
    print(f"wrote stats.csv and visible-tile files to {args.output}")
    return 0


def cmd_compare(args) -> int:
    scenario = _load_with_overrides(args)
    report, _ = run_compare(scenario, args.output, base_dir=Path(args.scenario).parent)
    ratios = []
    for frame in sorted(report.frame_pairs):
        ratio = report.traversal_ratio(frame)
        shown = "n/a" if ratio is None else f"{ratio:.3f}"
        print(f"frame {frame}: intersect ratio "
              f"{report.method_a}/{report.method_b} = {shown}")
        if ratio is not None:
            ratios.append(ratio)
    if ratios:
        print(f"mean intersect ratio over {len(ratios)} frames: "
              f"{sum(ratios) / len(ratios):.3f}")
    total_unsound = len(report.unsound)
    print(f"total UNSOUND flags: {total_unsound}")
    for method in sorted({f.method for f in report.unsound}):
        print(f"  {method}: {report.unsound_count(method)}")

    exact_unsound = report.unsound_count("ANALYTIC_BIN_EXACT")
    if exact_unsound:
        print(f"error: ANALYTIC_BIN_EXACT flagged UNSOUND {exact_unsound} times",
              file=sys.stderr)
        return 1
    return 0


def _load_with_overrides(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    terrain = scenario.terrain
    if args.inflation is not None:
        with _at("--inflation"):
            terrain = dataclasses.replace(
                terrain, cull=dataclasses.replace(terrain.cull, inflation=args.inflation))
    # both levels in one replace, so raising one above the other's old value works
    levels = {key: getattr(args, key) for key in ("start_level", "max_level")
              if getattr(args, key) is not None}
    with _at(", ".join("--" + key.replace("_", "-") for key in levels)):
        terrain = dataclasses.replace(terrain, **levels)
    return dataclasses.replace(scenario, terrain=terrain)


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def random_quadratic(rng, scale=3.0):
    m = rng.normal(size=(3, 3))
    return ScalarQuadratic(rng.normal() * 2.0, rng.normal(size=3) * scale,
                           0.5 * (m + m.T))


def random_box(rng, degenerate=False):
    center = rng.uniform(-5.0, 5.0, size=3)
    half = rng.uniform(0.05, 3.0, size=3)
    if degenerate:
        half[rng.integers(0, 3)] = 0.0
    return Box3(center - half, center + half)


def random_pose(rng):
    while True:
        look = rng.normal(size=3)
        if np.linalg.norm(look) > 1e-6:
            look /= np.linalg.norm(look)
            break
    while True:
        up = rng.normal(size=3)
        n = np.linalg.norm(up)
        if n > 1e-6 and abs(up @ look) / n < 0.9:
            break
    near = rng.uniform(0.1, 10.0)
    return CameraPose(rng.uniform(-100, 100, 3), look, up,
                      rng.uniform(0.3, 2.5), rng.uniform(0.5, 2.5),
                      near, near * rng.uniform(2.0, 100.0))


def _suite_sphere_fd(rng) -> tuple[bool, str]:
    params = GeodeticParams()
    worst = 0.0
    for _ in range(200):
        point = np.array([params.radius_m + rng.uniform(0.0, 9000.0),
                          rng.uniform(-np.pi / 2, np.pi / 2),
                          rng.uniform(-np.pi, np.pi)])
        worst = max(worst, sphere_fd_error(params, point))
    return worst <= 1e-6, f"worst relative error {worst:.3e}"


def _suite_extrema(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(60):
        q = random_quadratic(rng)
        box = random_box(rng, degenerate=rng.random() < 0.1)
        exact = box_extrema_exact(q, box)
        nine = box_extrema_nine_point(q, box)
        grid = box_extrema_grid(q, box, 41)
        if nine.min_val < exact.min_val - 1e-9 or nine.max_val > exact.max_val + 1e-9:
            return False, "nine-point extrema escaped the exact bracket"
        if grid.min_val < exact.min_val - 1e-9 or grid.max_val > exact.max_val + 1e-9:
            return False, "grid extrema escaped the exact bracket"
        rng_span = max(exact.max_val - exact.min_val, 1e-9)
        gap = max(grid.min_val - exact.min_val, exact.max_val - grid.max_val)
        worst = max(worst, gap / rng_span)
        x_star = stationary_point(q)
        if x_star is not None:
            g = np.linalg.norm(q.gradient(x_star))
            scale = (np.linalg.norm(q.linear)
                     + np.linalg.norm(q.hessian) * np.linalg.norm(x_star) + 1e-30)
            if g > 1e-9 * scale:
                return False, f"stationary point gradient too large: {g:.3e}"
    return worst <= 1e-2, f"worst grid/exact relative gap {worst:.3e}"


def _suite_identity_equivalence(rng) -> tuple[bool, str]:
    cfg = CullConfig(inflation=1.0, extrema_mode=ExtremaMode.EXACT)
    for _ in range(200):
        frustum = frustum_from_camera(random_pose(rng))
        center = rng.uniform(-300.0, 300.0, size=3)
        half = rng.uniform(0.1, 50.0, size=3)
        offsets = Box3(-half, half)
        jet = identity_jet(center)
        got = classify_bin(jet, offsets, frustum, cfg)
        want = classify_aabb8(Box3(center - half, center + half), frustum)
        if got is not want:
            return False, f"mismatch at center {center}: {got} vs {want}"
    return True, "200 random frustum/box pairs agree"


def _suite_frustum_geometry(rng) -> tuple[bool, str]:
    for _ in range(50):
        pose = random_pose(rng)
        frustum = frustum_from_camera(pose)
        corners = frustum_corners(pose)
        if not frustum.contains(corners.mean(axis=0)):
            return False, "frustum centroid not contained"
        dists = frustum.signed_distances(corners)
        tol = 1e-6 * pose.far
        # every corner sits on its three incident planes and inside the rest
        if np.any(np.sum(np.abs(dists) <= tol, axis=1) < 3):
            return False, "corner not incident to three planes"
        if np.any(dists > tol):
            return False, "frustum corner lies outside a plane"
    return True, "corner containment holds on 50 random poses"


def _suite_pyramid(rng) -> tuple[bool, str]:
    from .terrain import TerrainConfig, _edges, _grid_shape
    cfg = TerrainConfig(start_level=2, max_level=5)
    hf = synth_heightfield("SINUSOIDAL", rows=97, cols=193, amplitude=3000.0,
                           frequency=5.0)
    pyramid = build_minmax_pyramid(hf, cfg)
    lats = hf.sample_lats()
    lons = hf.sample_lons()
    for level in range(cfg.max_level + 1):
        n_lat, n_lon = _grid_shape(level)
        lat_edges = _edges(cfg.lat_range[0], cfg.lat_range[1], n_lat)
        lon_edges = _edges(cfg.lon_range[0], cfg.lon_range[1], n_lon)
        i = np.clip(np.searchsorted(lat_edges, lats, side="right") - 1, 0, n_lat - 1)
        j = np.clip(np.searchsorted(lon_edges, lons, side="right") - 1, 0, n_lon - 1)
        hmin, hmax = pyramid.levels[level]
        sample_min = hmin[i][:, j]
        sample_max = hmax[i][:, j]
        if np.any(hf.samples < sample_min - 1e-9) or np.any(hf.samples > sample_max + 1e-9):
            return False, f"sample escapes its tile interval at level {level}"
    return True, "all samples inside their tile intervals at every level"


def _orbit_pose(rng, params: GeodeticParams) -> CameraPose:
    """Nadir-ish pose at a random point above the globe."""
    altitude = rng.uniform(2e5, 8e6)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    eye = (params.radius_m + altitude) * direction
    up = rng.normal(size=3)
    up -= (up @ direction) * direction
    up /= np.linalg.norm(up)
    return CameraPose(eye, -direction, up, rng.uniform(0.4, 1.8),
                      rng.uniform(0.6, 2.0), altitude / 100.0, 4.0 * altitude)


def _suite_inflation_monotonic(rng) -> tuple[bool, str]:
    from .mapping import sphere_jet
    params = GeodeticParams()
    for _ in range(100):
        center = np.array([params.radius_m + rng.uniform(0.0, 9000.0),
                           rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0)])
        half = np.array([rng.uniform(0.0, 4500.0),
                         rng.uniform(0.01, 0.1), rng.uniform(0.01, 0.1)])
        offsets = Box3(-half, half)
        jet = sphere_jet(params, center)
        frustum = frustum_from_camera(_orbit_pose(rng, params))
        tight = classify_bin(jet, offsets, frustum, CullConfig(1.0, ExtremaMode.EXACT))
        loose = classify_bin(jet, offsets, frustum, CullConfig(1.1, ExtremaMode.EXACT))
        if loose is Classification.OUTSIDE and tight is Classification.INSIDE:
            return False, "OUTSIDE at 1.1 but INSIDE at 1.0"
        if loose is Classification.INSIDE and tight is not Classification.INSIDE:
            return False, "INSIDE at 1.1 must stay INSIDE at 1.0"
    return True, "inflation monotonicity holds on 100 random bins"


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    suites = (
        ("sphere-jet-finite-difference", _suite_sphere_fd),
        ("quadratic-extrema-bracketing", _suite_extrema),
        ("identity-linear-equivalence", _suite_identity_equivalence),
        ("frustum-geometry", _suite_frustum_geometry),
        ("pyramid-soundness", _suite_pyramid),
        ("inflation-monotonicity", _suite_inflation_monotonic),
    )
    failures = 0
    for name, fn in suites:
        ok, detail = fn(rng)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    print(f"{len(suites)} suites, {failures} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abincull",
        description="Curved-bin view-frustum culling benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("-o", "--output", required=True, help="output directory")
        p.add_argument("--inflation", type=float, default=None)
        p.add_argument("--start-level", type=int, default=None)
        p.add_argument("--max-level", type=int, default=None)

    p_run = sub.add_parser("run", help="run traversals, write stats")
    add_overrides(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare methods against the oracle")
    add_overrides(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_self = sub.add_parser("selftest", help="run embedded invariant suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IngestError, ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
