import dataclasses
import json
import math

import numpy as np
import pytest

from abincull import (
    Classification,
    ScenarioError,
    build_minmax_pyramid,
    classify_tile,
    frustum_from_camera,
    orbit_cameras,
    parse_scenario,
    root_tiles,
    sample_oracle,
    sphere_point,
    tile_bin,
)
from abincull import cli, terrain
from abincull.cli import main, run_compare, run_scenario
from abincull.scenario import METHOD_NAMES, load_scenario
from conftest import repo_root

MINIMAL = {
    "name": "minimal",
    "cameras": [{"eye": [0, 0, 7e6], "look_dir": [0, 0, -1],
                 "fov_y": 1.0, "near": 1e3, "far": 1e7}],
    "methods": ["ANALYTIC_BIN_EXACT"],
}


class TestParseScenario:
    def test_minimal_defaults(self):
        sc = parse_scenario(json.dumps(MINIMAL))
        assert sc.name == "minimal"
        assert sc.seed == 0
        assert sc.geodetic.radius_m == 6_371_000.0
        assert sc.terrain.start_level == 4
        assert sc.terrain.cull.inflation == 1.1
        assert sc.terrain.lat_range == (-math.pi / 2, math.pi / 2)
        assert sc.heightfield_spec == {"kind": "FLAT"}
        assert len(sc.cameras) == 1
        assert sc.oracle_lattice == (33, 33, 5)
        assert not sc.oracle_enabled

    def test_inflation_default_applied(self):
        doc = dict(MINIMAL, terrain={"start_level": 2})
        sc = parse_scenario(json.dumps(doc))
        assert sc.terrain.cull.inflation == 1.1

    def test_unknown_method_names_field(self):
        doc = dict(MINIMAL, methods=["BOUNDING_SPHERE"])
        with pytest.raises(ScenarioError, match=r"methods\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ScenarioError, match="malformed"):
            parse_scenario("{not json")

    def test_missing_cameras_path_reported(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "cameras"}
        with pytest.raises(ScenarioError, match="cameras"):
            parse_scenario(json.dumps(doc))

    def test_bad_pose_field_path(self):
        doc = dict(MINIMAL, cameras=[{"eye": [0, 0, 1], "look_dir": [0, 0, -1],
                                      "fov_y": "wide", "near": 1, "far": 2}])
        with pytest.raises(ScenarioError, match=r"cameras\[0\].fov_y"):
            parse_scenario(json.dumps(doc))

    def test_orbit_expansion(self):
        doc = dict(MINIMAL, cameras=[{"orbit": {"frames": 6, "altitude_m": 5e5}}])
        sc = parse_scenario(json.dumps(doc))
        assert len(sc.cameras) == 6
        for pose in sc.cameras:
            assert np.linalg.norm(pose.eye) == pytest.approx(6_371_000.0 + 5e5)

    def test_orbit_unknown_field(self):
        doc = dict(MINIMAL, cameras=[{"orbit": {"frames": 2, "altitude_m": 1e5,
                                                "tilt": 0.2}}])
        with pytest.raises(ScenarioError, match="tilt"):
            parse_scenario(json.dumps(doc))

    def test_heightfield_unknown_field(self):
        doc = dict(MINIMAL, terrain={"heightfield": {"kind": "FLAT", "bogus": 1}})
        with pytest.raises(ScenarioError, match="bogus"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "huge_int"])
    @pytest.mark.parametrize("path, doc", [
        (r"\$\.cameras\[0\]\.eye\[2\]",
         {"cameras": [{"eye": [0, 0, "X"], "look_dir": [0, 0, -1],
                       "fov_y": 1.0, "near": 1e3, "far": 1e7}]}),
        (r"\$\.cameras\[0\]\.look_dir\[0\]",
         {"cameras": [{"eye": [0, 0, 7e6], "look_dir": ["X", 0, -1],
                       "fov_y": 1.0, "near": 1e3, "far": 1e7}]}),
        (r"\$\.terrain\.start_level", {"terrain": {"start_level": "X"}}),
        (r"\$\.cameras\[0\]\.orbit\.frames",
         {"cameras": [{"orbit": {"frames": "X", "altitude_m": 5e5}}]}),
        (r"\$\.cameras\[0\]\.orbit\.far_m",
         {"cameras": [{"orbit": {"frames": 2, "altitude_m": 5e5, "far_m": "X"}}]}),
        (r"\$\.oracle\.lattice\[1\]", {"oracle": {"lattice": [9, "X", 3]}}),
    ], ids=["eye", "look_dir", "start_level", "orbit_frames", "orbit_far_m",
         "oracle_lattice"])
    def test_non_finite_number_names_path(self, path, doc, bad):
        text = json.dumps(dict(MINIMAL, **doc)).replace('"X"', bad)
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(text)

    @pytest.mark.parametrize("path, doc", [
        (r"\$\.oracle\.lattice\[0\]", {"oracle": {"lattice": [1, 9, 3]}}),
        (r"\$\.oracle\.lattice\[1\]", {"oracle": {"lattice": [9, 1.7, 3]}}),
        (r"\$\.seed", {"seed": 0.5}),
        (r"\$\.terrain\.start_level", {"terrain": {"start_level": 2.7}}),
        (r"\$\.terrain\.max_level", {"terrain": {"max_level": 4.5}}),
        (r"\$\.cameras\[0\]\.orbit\.frames",
         {"cameras": [{"orbit": {"frames": 2.9, "altitude_m": 5e5}}]}),
        (r"\$\.terrain\.heightfield\.rows",
         {"terrain": {"heightfield": {"kind": "FLAT", "rows": 16.5}}}),
        (r"\$\.terrain\.heightfield\.cols",
         {"terrain": {"heightfield": {"kind": "FLAT", "cols": 1}}}),
        (r"\$\.oracle\.enabled", {"oracle": {"enabled": "no"}}),
        (r"\$\.oracle\.enabled", {"oracle": {"enabled": 1}}),
        (r"\$\.terrain\.max_levl", {"terrain": {"max_levl": 6}}),
        (r"\$\.terrain\.altitude_range", {"terrain": {"altitude_range": [0, 9000]}}),
        (r"\$\.oracle: expected an object", {"oracle": True}),
        (r"\$\.geodetic: expected an object", {"geodetic": 5}),
        (r"\$\.cameras\[0\]\.up: unknown field",
         {"cameras": [dict(MINIMAL["cameras"][0], up=[1, 0, 0])]}),
        (r"\$\.cameras\[0\]\.eye: unknown field",
         {"cameras": [{"orbit": {"frames": 2, "altitude_m": 5e5}, "eye": [0, 0, 7e6]}]}),
        (r"\$\.cameras\[0\]: expected an object", {"cameras": [5]}),
        (r"\$\.orcale: unknown field", {"orcale": {"enabled": True}}),
        (r"\$\.terrain: need .* <= 12", {"terrain": {"max_level": 13}}),
        (r"\$\.terrain: .*positive width", {"terrain": {"lat_range": [1.0, -1.0]}}),
        (r"\$\.terrain: .*positive width", {"terrain": {"lon_range": [0.5, 0.5]}}),
        (r"\$\.terrain: latitude range outside", {"terrain": {"lat_range": [-3.0, 1.0]}}),
        (r"\$\.terrain\.heightfield\.path: expected a non-empty string",
         {"terrain": {"heightfield": {"path": 5}}}),
        (r"\$\.terrain\.heightfield\.path: expected a non-empty string",
         {"terrain": {"heightfield": {"path": ""}}}),
        (r"\$\.terrain\.heightfield\.amplitude: not allowed alongside path",
         {"terrain": {"heightfield": {"path": "x.dem", "amplitude": 5}}}),
        (r"\$\.methods\[0\]: unknown method", {"methods": [["AABB8"]]}),
        (r"\$\.methods\[1\]: unknown method", {"methods": ["AABB8", {"m": 1}]}),
        (r"\$\.name: expected a string", {"name": 5}),
    ], ids=["lattice_below_2", "lattice_fraction", "seed", "start_level",
         "max_level", "orbit_frames", "heightfield_rows", "heightfield_cols_below_2",
         "enabled_string", "enabled_number", "terrain_typo", "terrain_altitude_range",
         "oracle_not_object", "geodetic_not_object", "pose_typo", "orbit_entry_extra",
         "camera_not_object", "top_level_typo", "max_level_above_12",
         "inverted_lat_range", "zero_width_lon_range", "lat_range_beyond_pole",
         "heightfield_path_number", "heightfield_path_empty",
         "heightfield_path_with_synthetic_key", "method_list_entry",
         "method_object_entry", "name_number"])
    def test_rejects_bad_field_with_path(self, path, doc):
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(json.dumps(dict(MINIMAL, **doc)))

    def test_integral_floats_accepted(self):
        doc = dict(MINIMAL, seed=3.0, terrain={"start_level": 2.0},
                   oracle={"lattice": [9.0, 9, 3]})
        sc = parse_scenario(json.dumps(doc))
        assert (sc.seed, sc.terrain.start_level, sc.oracle_lattice) == (3, 2, (9, 9, 3))
        assert type(sc.terrain.start_level) is int

    def test_bad_terrain_levels(self):
        doc = dict(MINIMAL, terrain={"start_level": 5, "max_level": 3})
        with pytest.raises(ScenarioError, match="terrain"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ({"geodetic": {"radius_m": -1}},
         "$.geodetic: radius_m must be positive and finite, got -1.0"),
        ({"terrain": {"start_level": 3, "max_level": 2}},
         "$.terrain: need 0 <= start_level <= max_level <= 12, got 3..2"),
        ({"cameras": [dict(MINIMAL["cameras"][0], fov_y=4.0)]},
         "$.cameras[0]: fov_y must be in (0, pi), got 4.0"),
        ({"cameras": [dict(MINIMAL["cameras"][0], fov_y="x")]},
         "$.cameras[0].fov_y: expected a number, got 'x'"),
        ({"cameras": [{"orbit": {"frames": 2, "altitude_m": 5e5, "plane": "tilt"}}]},
         "$.cameras[0].orbit: plane must be 'equatorial' or 'polar', got 'tilt'"),
    ], ids=["geodetic", "terrain", "pose", "pose_field_not_prefixed_twice", "orbit"])
    def test_constructor_error_names_its_path_once(self, doc, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(json.dumps(dict(MINIMAL, **doc)))
        assert str(info.value) == message

    def test_heightfield_build_error_names_its_path(self):
        doc = dict(MINIMAL, terrain={"heightfield": {"kind": "SINUSOIDAL",
                                                     "amplitude": 12000}})
        sc = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError) as info:
            sc.build_heightfield()
        assert str(info.value) == ("$.terrain.heightfield: amplitude must be in "
                                   "[0, 9000], got 12000.0")


class TestOrbitCameras:
    def test_nadir_look(self):
        for pose in orbit_cameras(8, 5e5, plane="polar"):
            assert pose.look_dir @ (pose.eye / np.linalg.norm(pose.eye)) == pytest.approx(-1.0)

    def test_rejects_bad_plane(self):
        with pytest.raises(ValueError):
            orbit_cameras(4, 5e5, plane="diagonal")


class TestCliRun:
    def test_stats_csv_deterministic(self, tmp_path, scenarios_dir):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        scenario = str(scenarios_dir / "smoke.json")
        assert main(["run", scenario, "-o", str(out1)]) == 0
        assert main(["run", scenario, "-o", str(out2)]) == 0
        assert (out1 / "stats.csv").read_bytes() == (out2 / "stats.csv").read_bytes()

    def test_stats_rows_consistent(self, tmp_path, scenarios_dir):
        out = tmp_path / "run"
        sc = load_scenario(scenarios_dir / "smoke.json")
        rows = run_scenario(sc, out)
        assert len(rows) == len(sc.cameras) * len(sc.methods)
        for row in rows:
            assert row["visited"] == row["outside"] + row["inside"] + row["intersect"]
        header = (out / "stats.csv").read_text().splitlines()[0]
        assert header == ("frame,method,visited,outside,inside,intersect,"
                          "leaves_rendered,max_depth,elapsed_ns")
        # measured wall times live in timings.csv instead
        timing_rows = (out / "timings.csv").read_text().splitlines()[1:]
        assert any(int(r.rsplit(",", 1)[1]) > 0 for r in timing_rows)

    def test_visible_tiles_sorted_and_complete(self, tmp_path, scenarios_dir):
        out = tmp_path / "run"
        sc = load_scenario(scenarios_dir / "smoke.json")
        rows = run_scenario(sc, out)
        doc = json.loads((out / "visible_ANALYTIC_BIN_EXACT_0.json").read_text())
        assert doc["frame"] == 0
        assert doc["tiles"] == sorted(doc["tiles"])
        row = next(r for r in rows
                   if r["frame"] == 0 and r["method"] == "ANALYTIC_BIN_EXACT")
        assert len(doc["tiles"]) == row["leaves_rendered"]

    def test_missing_scenario_file_fails(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "-o", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("option, value", [
        ("--start-level", "5"), ("--inflation", "3.0"), ("--max-level", "25"),
        ("--max-level", "13")])
    def test_out_of_range_override_exits_2(self, tmp_path, scenarios_dir, capsys,
                                           command, option, value):
        # smoke.json has max_level 3; each override breaks a config invariant
        rc = main([command, str(scenarios_dir / "smoke.json"), "-o", str(tmp_path),
                   option, value])
        assert rc == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        (["--inflation", "3.0"], "--inflation: inflation must be in [1, 2], got 3.0"),
        (["--start-level", "5"],
         "--start-level: need 0 <= start_level <= max_level <= 12, got 5..3"),
        (["--start-level", "5", "--max-level", "4"],
         "--start-level, --max-level: need 0 <= start_level <= max_level <= 12, "
         "got 5..4"),
    ], ids=["inflation", "start_level", "both_levels"])
    def test_override_error_names_its_options(self, tmp_path, scenarios_dir, capsys,
                                              options, message):
        rc = main(["run", str(scenarios_dir / "smoke.json"), "-o", str(tmp_path)]
                  + options)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_bad_synthetic_spec_exits_2(self, tmp_path, scenarios_dir, capsys, command):
        # parse_scenario accepts any finite amplitude; synth_heightfield caps it
        doc = json.loads((scenarios_dir / "smoke.json").read_text())
        doc["terrain"]["heightfield"] = {"kind": "SINUSOIDAL", "amplitude": 12000}
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: $.terrain.heightfield: amplitude")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_string_heightfield_path_exits_2(self, tmp_path, scenarios_dir, capsys,
                                                 command):
        doc = json.loads((scenarios_dir / "smoke.json").read_text())
        doc["terrain"]["heightfield"] = {"path": 5}
        path = tmp_path / "bad_path.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: $.terrain.heightfield.path:")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_string_method_exits_2(self, tmp_path, scenarios_dir, capsys, command):
        doc = json.loads((scenarios_dir / "smoke.json").read_text())
        doc["methods"] = [["AABB8"], "ANALYTIC_BIN_EXACT"]
        path = tmp_path / "bad_method.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: $.methods[0]: unknown method")

    def test_overrides_apply(self, tmp_path, scenarios_dir):
        sc = load_scenario(scenarios_dir / "smoke.json")
        out1 = tmp_path / "deep"
        main(["run", str(scenarios_dir / "smoke.json"), "-o", str(out1),
              "--max-level", "4"])
        rows = (out1 / "stats.csv").read_text().splitlines()[1:]
        max_depth = max(int(r.split(",")[7]) for r in rows)
        assert max_depth == 4 > sc.terrain.max_level

    def test_level_overrides_apply_together(self, tmp_path, scenarios_dir):
        # a start level above the scenario's max_level is fine when
        # --max-level raises it too
        out = tmp_path / "both"
        rc = main(["run", str(scenarios_dir / "smoke.json"), "-o", str(out),
                   "--start-level", "4", "--max-level", "4"])
        assert rc == 0
        rows = (out / "stats.csv").read_text().splitlines()[1:]
        assert {int(r.split(",")[7]) for r in rows} == {4}


class TestCliCompare:
    def test_compare_smoke(self, tmp_path, scenarios_dir, capsys):
        rc = main(["compare", str(scenarios_dir / "smoke.json"),
                   "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "intersect ratio" in captured.out
        assert "UNSOUND" in captured.out
        assert (tmp_path / "compare_report.json").exists()
        assert (tmp_path / "compare_report.csv").exists()

    def test_compare_needs_two_methods(self, tmp_path):
        doc = dict(MINIMAL, oracle={"enabled": True})
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", str(path), "-o", str(tmp_path / "out")]) == 2

    def test_compare_needs_oracle(self, tmp_path):
        doc = dict(MINIMAL, methods=["ANALYTIC_BIN_EXACT", "AABB8"])
        path = tmp_path / "no_oracle.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", str(path), "-o", str(tmp_path / "out")]) == 2

    def test_identical_methods_ratio_one(self, tmp_path, scenarios_dir):
        doc = json.loads((scenarios_dir / "smoke.json").read_text())
        doc["methods"] = ["ANALYTIC_BIN_EXACT", "ANALYTIC_BIN_EXACT"]
        sc = parse_scenario(json.dumps(doc))
        report, _ = run_compare(sc, None)
        for frame in report.frame_pairs:
            assert report.intersect_ratio(frame) in (1.0, None)
            assert report.traversal_ratio(frame) in (1.0, None)
        off_diagonal = [k for k in report.aggregate_pairs if k[0] != k[1]]
        assert not off_diagonal


class TestFrameLoop:
    @pytest.fixture
    def repeated(self, scenarios_dir):
        doc = json.loads((scenarios_dir / "smoke.json").read_text())
        doc["methods"] = ["ANALYTIC_BIN_EXACT", "ANALYTIC_BIN_EXACT"]
        return parse_scenario(json.dumps(doc))

    def test_repeated_method_compares_once_per_frame(self, repeated):
        report, stats_by_method = run_compare(repeated, None)
        assert sorted(report.traversal_intersects["ANALYTIC_BIN_EXACT"]) == [0, 1, 2]
        assert len(stats_by_method["ANALYTIC_BIN_EXACT"]) == 3

    def test_repeated_method_runs_once_per_frame(self, repeated, tmp_path):
        rows = run_scenario(repeated, tmp_path)
        assert [(r["frame"], r["method"]) for r in rows] == [
            (frame, "ANALYTIC_BIN_EXACT") for frame in range(3)]
        assert len((tmp_path / "stats.csv").read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_benchmark_call_contract(self, tmp_path, scenarios_dir, monkeypatch, command):
        # perfbench wraps these abincull.cli globals and reads the k-th
        # traversal as frame k // len(methods), method k % len(methods)
        calls = []

        def count(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                calls.append((name, args, result))
                return result
            monkeypatch.setattr(cli, name, wrapper)

        for name in ("build_minmax_pyramid", "frustum_from_camera", "traverse"):
            count(name)
        path = scenarios_dir / "smoke.json"
        assert main([command, str(path), "-o", str(tmp_path)]) == 0

        sc = load_scenario(path)
        assert calls[0][0] == "build_minmax_pyramid"
        assert sum(name == "build_minmax_pyramid" for name, _, _ in calls) == 1
        traversals = []
        frusta = []
        for name, args, result in calls[1:]:
            if name == "frustum_from_camera":
                frusta.append(result)
            elif name == "traverse":
                frustum, cfg, _, _, method = args
                assert frustum is frusta[-1]
                traversals.append((len(frusta) - 1, method, cfg.cull.extrema_mode))
        assert len(frusta) == len(sc.cameras)
        want = []
        for frame in range(len(sc.cameras)):
            for name in sc.methods:
                method, mode = METHOD_NAMES[name]
                want.append((frame, method, mode or sc.terrain.cull.extrema_mode))
        assert traversals == want

    def test_one_oracle_call_per_tile_per_frame(self, scenarios_dir, monkeypatch):
        # compare asks the oracle once per frame for each distinct tile that is
        # start-level or OUTSIDE in some method's classification map
        sc = load_scenario(scenarios_dir / "smoke.json")
        frusta = []
        real = cli.sample_oracle

        def counting(*args, **kwargs):
            frusta.append(args[3])
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "sample_oracle", counting)
        frames = []

        def check(frame, frustum, classified_by_method):
            wanted = {tile_id for classified in classified_by_method.values()
                      for tile_id, (tile, cls) in classified.items()
                      if tile.level == sc.terrain.start_level
                      or cls is Classification.OUTSIDE}
            assert len(frusta) == len(wanted) > 0, frame
            assert all(f is frustum for f in frusta), frame
            frames.append(frame)
            frusta.clear()
        run_compare(sc, frame_callback=check)
        assert frames == list(range(len(sc.cameras)))

    def test_frames_hold_one_frame_of_tiles(self, scenarios_dir):
        # run and compare keep their loop variables across frames, so the
        # generator empties a frame's tile containers before the next one
        sc = load_scenario(scenarios_dir / "smoke.json")
        frames = cli._frames(sc, None, keep_classified=True)
        _, _, first = next(frames)
        held = list(first.values())
        assert all(visible and classified for visible, _, classified in held)
        next(frames)
        assert all(not visible and not classified for visible, _, classified in held)

    def test_classify_tile_probe_contract(self, tmp_path, scenarios_dir, monkeypatch):
        # perfbench times each abincull.terrain.classify_tile call as one
        # tile's classification and replays sampled calls by unpacking five
        # positional arguments
        calls = []
        real = terrain.classify_tile

        def wrapper(*args, **kwargs):
            calls.append(len(args))
            return real(*args, **kwargs)
        monkeypatch.setattr(terrain, "classify_tile", wrapper)
        sc = load_scenario(scenarios_dir / "smoke.json")
        for name in sc.methods:
            calls.clear()
            rows = run_scenario(dataclasses.replace(sc, methods=(name,)), tmp_path)
            assert len(calls) == sum(row["visited"] for row in rows) > 0, name
            assert set(calls) == {5}, name

    def test_corner_spans_probe_contract(self, tmp_path, scenarios_dir, monkeypatch):
        # perfbench times abincull.terrain.world_aabb_of_bin and
        # abincull.terrain.classify_aabb8 as the AABB8 corner map and corner
        # test, so the traversal calls each once per AABB8 tile
        calls = {"world_aabb_of_bin": 0, "classify_aabb8": 0}

        def counting(name):
            real = getattr(terrain, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(terrain, name, counting(name))
        sc = load_scenario(scenarios_dir / "smoke.json")
        rows = run_scenario(dataclasses.replace(sc, methods=("AABB8",)), tmp_path)
        visited = sum(row["visited"] for row in rows)
        assert visited > 0
        assert calls == {"world_aabb_of_bin": visited, "classify_aabb8": visited}

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_trace_targets_probe_contract(self, tmp_path, scenarios_dir, monkeypatch,
                                          command):
        # a traced benchmark run wraps every name in perfbench's TRACE_TARGETS,
        # reads the spans of its command and replays sampled classify_tile
        # calls through tile_bin, plane_quadratic and box_extrema_*
        monkeypatch.syspath_prepend(str(repo_root()))
        from perfbench import harness, tracing
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS["orbit-compare" if command == "compare" else "orbit-run"]
        recorder = harness.Recorder(tracing.SpanLog(), workload, 1)
        recorder.enable_layers()
        with tracing.patched(recorder.log, harness.TRACE_TARGETS) as missing:
            assert main([command, str(scenarios_dir / "smoke.json"), "-o", str(tmp_path)]) == 0
        # cli.start_grid still names abincull.cli.classify_tile, which cli
        # has not imported since the start grid moved into the traversal
        assert set(missing) == {"abincull.cli.classify_tile"}
        other_command = {
            "run": {"cli.compare", "baseline.oracle", "baseline.compare",
                    "baseline.to_json", "baseline.to_csv"},
            "compare": {"cli.run"},
        }[command]
        table = recorder.log.table()
        uncalled = [t.span for t in harness.TRACE_TARGETS
                    if t.span not in other_command | {"cli.start_grid"}
                    and table.count(t.span) == 0]
        assert uncalled == []
        kernels = harness.replay(recorder.samples)
        assert len(kernels) == 3
        assert all(math.isfinite(v) for v in kernels.values()), kernels


class TestCompareStartGrid:
    def test_pair_table_matches_independent_classification(self, scenarios_dir):
        # every method's start-grid verdicts and the oracle column must agree
        # with a fresh classification of each start tile at pyramid heights
        sc = load_scenario(scenarios_dir / "smoke.json")
        params = sc.geodetic
        map_fn = lambda pts: sphere_point(params, pts)
        pyramid = build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
        start_tiles = [dataclasses.replace(t, height_range=pyramid.interval(t.level, t.i, t.j))
                       for t in root_tiles(sc.terrain)]
        for name in sc.methods:
            report, _ = run_compare(dataclasses.replace(sc, methods=(name, sc.methods[0])))
            method, mode = METHOD_NAMES[name]
            cull = sc.terrain.cull
            if mode is not None:
                cull = dataclasses.replace(cull, extrema_mode=mode)
            assert sorted(report.frame_states) == list(range(len(sc.cameras)))
            for frame, pose in enumerate(sc.cameras):
                frustum = frustum_from_camera(pose)
                states = report.frame_states[frame]
                assert set(states) == {t.tile_id for t in start_tiles}
                for tile in start_tiles:
                    got, _, got_oracle = states[tile.tile_id]
                    want = classify_tile(tile, frustum, params, method, cull)
                    assert got == want.value, (name, frame, tile.tile_id)
                    center, offsets = tile_bin(tile, params)
                    want = sample_oracle(map_fn, center, offsets, frustum,
                                         sc.oracle_lattice)
                    assert got_oracle == want.value, (name, frame, tile.tile_id)


class TestCliSelftest:
    def test_selftest_passes(self, capsys):
        rc = main(["selftest", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if ": PASS" in l or ": FAIL" in l]
        assert len(lines) >= 5
        assert all(": PASS" in l for l in lines)

    def test_selftest_deterministic_output(self, capsys):
        main(["selftest", "--seed", "9"])
        first = capsys.readouterr().out
        main(["selftest", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second
