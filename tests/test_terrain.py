import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from abincull import (
    CameraPose,
    Classification,
    CullConfig,
    ExtremaMode,
    GeodeticParams,
    GeoTile,
    HeightField,
    IngestError,
    Method,
    TerrainConfig,
    build_minmax_pyramid,
    classify_tile,
    frustum_from_camera,
    load_heightfield,
    root_tiles,
    sample_oracle,
    sphere_point,
    subdivide,
    synth_heightfield,
    tile_bin,
    tile_from_indices,
    traverse,
    write_heightfield,
)
from abincull.cli import _orbit_pose
from abincull.scenario import load_scenario
from abincull.terrain import _edges, _grid_shape

PARAMS = GeodeticParams()
R = PARAMS.radius_m
PI = math.pi


def flat_pyramid(cfg, value=0.0):
    hf = synth_heightfield("FLAT", rows=33, cols=65, value=value)
    return build_minmax_pyramid(hf, cfg)


class TestRootTiles:
    def test_level_zero_two_hemitiles(self):
        tiles = root_tiles(TerrainConfig(start_level=0, max_level=0))
        assert len(tiles) == 2
        for t in tiles:
            assert t.lat_range[1] - t.lat_range[0] == pytest.approx(PI)
            assert t.lon_range[1] - t.lon_range[0] == pytest.approx(PI)

    def test_level_four_grid(self):
        tiles = root_tiles(TerrainConfig(start_level=4, max_level=4))
        assert len(tiles) == 512
        span = 0.0625 * PI
        for t in tiles[:40]:
            assert t.lat_range[1] - t.lat_range[0] == pytest.approx(span)
            assert t.lon_range[1] - t.lon_range[0] == pytest.approx(span)

    def test_level_one_octants(self):
        assert len(root_tiles(TerrainConfig(start_level=1, max_level=1))) == 8

    def test_partition_no_gaps_or_overlap(self):
        cfg = TerrainConfig(start_level=3, max_level=3)
        tiles = root_tiles(cfg)
        n_lat, n_lon = _grid_shape(3)
        lat_edges = _edges(cfg.lat_range[0], cfg.lat_range[1], n_lat)
        lon_edges = _edges(cfg.lon_range[0], cfg.lon_range[1], n_lon)
        seen = set()
        for t in tiles:
            assert t.lat_range == (lat_edges[t.i], lat_edges[t.i + 1])
            assert t.lon_range == (lon_edges[t.j], lon_edges[t.j + 1])
            seen.add((t.i, t.j))
        assert len(seen) == n_lat * n_lon


class TestGeoTile:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            GeoTile(0, 0, 0, (0.5, 0.1), (0.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            GeoTile(0, 0, 0, (0.0, 2.0), (0.0, 1.0), (0.0, 0.0))  # lat beyond pole
        with pytest.raises(ValueError):
            GeoTile(0, 0, 0, (0.0, 1.0), (0.0, 1.0), (5.0, 1.0))

    def test_tile_id(self):
        assert tile_from_indices(4, 7, 12).tile_id == "4/7/12"

    @pytest.mark.parametrize("height_range", [
        (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (5.0, 1.0)],
        ids=["nan_lo", "nan_hi", "nan_both", "inverted"])
    def test_height_range_must_be_ordered_numbers(self, height_range):
        with pytest.raises(ValueError, match="height_range"):
            GeoTile(0, 0, 0, (-1.0, 1.0), (-1.0, 1.0), height_range)


class TestSubdivide:
    def test_quarters_with_shared_midpoint(self):
        cfg = TerrainConfig(start_level=2, max_level=3)
        pyramid = flat_pyramid(cfg)
        tile = tile_from_indices(2, 2, 4, height_range=(0.0, 0.0))
        assert tile.lat_range == pytest.approx((0.0, 0.25 * PI))
        assert tile.lon_range == pytest.approx((0.0, 0.25 * PI))
        kids = subdivide(tile, pyramid)
        assert len(kids) == 4
        for k in kids:
            assert k.level == 3
            assert k.lat_range[1] - k.lat_range[0] == pytest.approx(0.125 * PI)
            assert k.lon_range[1] - k.lon_range[0] == pytest.approx(0.125 * PI)
        # all four children touch the shared center corner
        lat_mid, lon_mid = 0.125 * PI, 0.125 * PI
        for k in kids:
            assert lat_mid in (pytest.approx(k.lat_range[0]), pytest.approx(k.lat_range[1]))
            assert lon_mid in (pytest.approx(k.lon_range[0]), pytest.approx(k.lon_range[1]))

    def test_union_equals_parent_exactly(self):
        cfg = TerrainConfig(start_level=1, max_level=2)
        pyramid = flat_pyramid(cfg)
        for tile in root_tiles(cfg):
            kids = subdivide(tile, pyramid)
            assert min(k.lat_range[0] for k in kids) == tile.lat_range[0]
            assert max(k.lat_range[1] for k in kids) == tile.lat_range[1]
            assert min(k.lon_range[0] for k in kids) == tile.lon_range[0]
            assert max(k.lon_range[1] for k in kids) == tile.lon_range[1]
            assert {(k.i, k.j) for k in kids} == {
                (2 * tile.i + a, 2 * tile.j + b) for a in (0, 1) for b in (0, 1)}

    def test_child_heights_within_parent(self):
        cfg = TerrainConfig(start_level=2, max_level=5)
        hf = synth_heightfield("SINUSOIDAL", rows=129, cols=257,
                               amplitude=4000.0, frequency=6.0)
        pyramid = build_minmax_pyramid(hf, cfg)
        for tile in root_tiles(cfg):
            tile = pyramid.tile(tile.level, tile.i, tile.j)
            for kid in subdivide(tile, pyramid):
                assert kid.height_range[0] >= tile.height_range[0] - 1e-9
                assert kid.height_range[1] <= tile.height_range[1] + 1e-9

    def test_refuses_at_max_level(self):
        cfg = TerrainConfig(start_level=0, max_level=1)
        pyramid = flat_pyramid(cfg)
        tile = tile_from_indices(1, 0, 0)
        with pytest.raises(ValueError):
            subdivide(tile, pyramid)

    @pytest.mark.parametrize("max_level", [0, 3])
    def test_max_level_tile_error_names_max_level(self, max_level):
        pyramid = flat_pyramid(TerrainConfig(start_level=0, max_level=max_level))
        tile = pyramid.tile(max_level, 0, 0)
        with pytest.raises(ValueError, match=f"max.level {max_level}"):
            subdivide(tile, pyramid)


def tile_bits(tile):
    """A tile's indices and the exact bits of its ranges and heights."""
    return (tile.level, tile.i, tile.j,
            *(v.hex() for v in (*tile.lat_range, *tile.lon_range, *tile.height_range)))


class TestPyramidBlock:
    @pytest.fixture(params=["orbit_sinusoidal", "full_globe"])
    def pyramid(self, request, scenarios_dir):
        if request.param == "orbit_sinusoidal":  # offset lat/lon ranges
            sc = load_scenario(scenarios_dir / "orbit_sinusoidal.json")
            return build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
        cfg = TerrainConfig(start_level=2, max_level=6)
        hf = synth_heightfield("SINUSOIDAL", rows=129, cols=257,
                               amplitude=4000.0, frequency=6.0)
        return build_minmax_pyramid(hf, cfg)

    def test_every_tile_bit_equal_to_its_index_formula(self, pyramid):
        # the reference is the per-tile construction: bounds from
        # tile_from_indices, heights from pyramid.interval
        for level in range(pyramid.max_level + 1):
            n_lat, n_lon = _grid_shape(level)
            got = pyramid.block(level, 0, 0, n_lat, n_lon)
            assert [(t.i, t.j) for t in got] == [
                (i, j) for i in range(n_lat) for j in range(n_lon)]
            for t in got:
                want = tile_from_indices(level, t.i, t.j, pyramid.lat_range,
                                         pyramid.lon_range,
                                         pyramid.interval(level, t.i, t.j))
                assert t == want and tile_bits(t) == tile_bits(want), t.tile_id
                assert tile_bits(pyramid.tile(level, t.i, t.j)) == tile_bits(t)

    def test_sub_blocks_and_children_match_the_whole_level(self, pyramid, rng):
        level = pyramid.max_level
        n_lat, n_lon = _grid_shape(level)
        whole = {(t.i, t.j): t for t in pyramid.block(level, 0, 0, n_lat, n_lon)}
        for _ in range(50):
            rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
            i = int(rng.integers(0, n_lat - rows + 1))
            j = int(rng.integers(0, n_lon - cols + 1))
            got = pyramid.block(level, i, j, rows, cols)
            assert [tile_bits(t) for t in got] == [
                tile_bits(whole[a, b]) for a in range(i, i + rows)
                for b in range(j, j + cols)]
            parent = pyramid.tile(level - 1, i // 2, j // 2)
            assert [tile_bits(t) for t in subdivide(parent, pyramid)] == [
                tile_bits(whole[2 * parent.i + a, 2 * parent.j + b])
                for a in (0, 1) for b in (0, 1)]

    def test_out_of_range_blocks_rejected(self, pyramid):
        n_lat, n_lon = _grid_shape(2)
        for i, j, rows, cols in ((-1, 0, 1, 1), (0, -1, 1, 1), (n_lat - 1, 0, 2, 1),
                                 (0, n_lon - 1, 1, 2), (0, 0, 0, 1), (0, 0, 1, 0)):
            with pytest.raises(ValueError):
                pyramid.block(2, i, j, rows, cols)

    def test_levels_beyond_the_pyramid_rejected(self, pyramid):
        # above max_level the level list used to raise IndexError
        for level in (pyramid.max_level + 1, -1):
            with pytest.raises(ValueError, match=f"level {level} .*max_level {pyramid.max_level}"):
                pyramid.block(level, 0, 0, 1, 1)
            with pytest.raises(ValueError, match=f"max_level {pyramid.max_level}"):
                pyramid.tile(level, 0, 0)

    def test_interval_outside_the_pyramid_rejected(self, pyramid):
        # negative indices used to answer for other tiles, and a level above
        # max_level raised IndexError
        for level, i, j in ((-1, 3, 5), (2, -1, 0), (pyramid.max_level + 1, 0, 0)):
            with pytest.raises(ValueError):
                pyramid.interval(level, i, j)

    def test_traversal_visits_the_start_grid_in_row_order(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "orbit_sinusoidal.json")
        pyramid = build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
        for method in Method:
            seen = []
            traverse(frustum_from_camera(sc.cameras[0]), sc.terrain, pyramid,
                     sc.geodetic, method, sink=lambda t, c: seen.append(t))
            start = [t for t in seen if t.level == sc.terrain.start_level]
            n_lat, n_lon = _grid_shape(sc.terrain.start_level)
            assert [tile_bits(t) for t in start] == [
                tile_bits(pyramid.tile(sc.terrain.start_level, i, j))
                for i in range(n_lat) for j in range(n_lon)]


class TestStartGrid:
    """``MinMaxPyramid.start_grid``: one cached grid per pyramid and level."""

    def test_one_tuple_for_every_traversal_and_method(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "orbit_sinusoidal.json")
        pyramid = build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
        level = sc.terrain.start_level
        grid = pyramid.start_grid(level)
        n_lat, n_lon = _grid_shape(level)
        assert type(grid) is tuple
        assert [tile_bits(t) for t in grid] == [
            tile_bits(t) for t in pyramid.block(level, 0, 0, n_lat, n_lon)]
        for method in Method:
            for frame in (0, 40):
                seen = []
                traverse(frustum_from_camera(sc.cameras[frame]), sc.terrain, pyramid,
                         sc.geodetic, method, sink=lambda t, c: seen.append(t))
                start = [t for t in seen if t.level == level]
                assert len(start) == len(grid)
                assert all(a is b for a, b in zip(start, grid)), (method, frame)
        assert pyramid.start_grid(level) is grid

    def test_level_arrays_are_read_only(self):
        pyramid = flat_pyramid(TerrainConfig(start_level=1, max_level=3), 100.0)
        pyramid.start_grid(1)
        assert len(pyramid.levels) == 4
        for pair in pyramid.levels:
            for heights in pair:
                with pytest.raises(ValueError, match="read-only"):
                    heights[0, 0] = 5000.0
        assert all(t.height_range == (100.0, 100.0) for t in pyramid.start_grid(1))


class TestTileBin:
    def test_reference_equatorial_tile(self):
        tile = GeoTile(4, 0, 0, (-0.03125 * PI, 0.03125 * PI),
                       (-0.03125 * PI, 0.03125 * PI), (0.0, 9000.0))
        center, offsets = tile_bin(tile, PARAMS)
        assert np.allclose(center, [R + 4500.0, 0.0, 0.0])
        assert np.allclose(offsets.half_widths,
                           [4500.0, 0.03125 * PI, 0.03125 * PI])
        assert np.allclose(offsets.center, 0.0)

    def test_flat_sea_tile_degenerate_radius(self):
        tile = GeoTile(2, 1, 1, (0.1, 0.2), (0.3, 0.5), (0.0, 0.0))
        _, offsets = tile_bin(tile, PARAMS)
        assert offsets.half_widths[0] == 0.0

    def test_center_maps_to_mid_surface_point(self):
        tile = GeoTile(3, 2, 5, (0.2, 0.3), (-1.0, -0.8), (100.0, 500.0))
        center, _ = tile_bin(tile, PARAMS)
        p = sphere_point(PARAMS, center)
        assert np.linalg.norm(p) == pytest.approx(R + 300.0, rel=1e-12)


class TestSynthHeightfield:
    def test_flat_zeros(self):
        hf = synth_heightfield("FLAT", rows=5, cols=7, value=0.0)
        assert hf.samples.shape == (5, 7)
        assert np.all(hf.samples == 0.0)

    def test_single_peak_at_nearest_node(self):
        hf = synth_heightfield("SINGLE_PEAK", rows=181, cols=361,
                               peak_height=8848.0, peak_lat=0.1, peak_lon=0.1)
        assert hf.samples.max() == 8848.0
        r, c = np.unravel_index(np.argmax(hf.samples), hf.samples.shape)
        assert abs(hf.sample_lats()[r] - 0.1) <= PI / (181 - 1)
        assert abs(hf.sample_lons()[c] - 0.1) <= 2 * PI / (361 - 1)
        assert np.count_nonzero(hf.samples) == 1

    def test_sinusoidal_range(self):
        hf = synth_heightfield("SINUSOIDAL", rows=64, cols=64,
                               amplitude=2000.0, frequency=8.0)
        assert hf.samples.min() >= 0.0
        assert hf.samples.max() <= 2000.0

    def test_sinusoidal_amplitude_cap(self):
        with pytest.raises(ValueError):
            synth_heightfield("SINUSOIDAL", amplitude=9500.0)


class TestMinMaxPyramid:
    def test_constant_field(self):
        cfg = TerrainConfig(start_level=1, max_level=4)
        pyramid = build_minmax_pyramid(
            synth_heightfield("FLAT", rows=65, cols=129, value=500.0), cfg)
        for level in range(5):
            hmin, hmax = pyramid.levels[level]
            assert np.all(hmin == 500.0)
            assert np.all(hmax == 500.0)

    def test_single_spike_propagates_up(self):
        cfg = TerrainConfig(start_level=0, max_level=5)
        hf = synth_heightfield("SINGLE_PEAK", rows=129, cols=257,
                               peak_height=8848.0, peak_lat=0.7, peak_lon=-1.3)
        pyramid = build_minmax_pyramid(hf, cfg)
        for level in range(6):
            hmin, hmax = pyramid.levels[level]
            assert hmax.max() == 8848.0
            assert (hmax == 8848.0).sum() >= 1

    def test_parent_is_hull_of_children(self):
        cfg = TerrainConfig(start_level=0, max_level=5)
        rng = np.random.default_rng(5)
        grid = rng.uniform(0.0, 3000.0, size=(65, 129))
        hf = HeightField(grid, (-PI / 2, PI / 2), (-PI, PI))
        pyramid = build_minmax_pyramid(hf, cfg)
        for level in range(5):
            n_lat, n_lon = _grid_shape(level)
            hmin, hmax = pyramid.levels[level]
            cmin, cmax = pyramid.levels[level + 1]
            assert np.array_equal(hmin, cmin.reshape(n_lat, 2, n_lon, 2).min(axis=(1, 3)))
            assert np.array_equal(hmax, cmax.reshape(n_lat, 2, n_lon, 2).max(axis=(1, 3)))

    def test_every_sample_within_its_tile_interval(self):
        # closed-rectangle membership recomputed directly from the samples
        cfg = TerrainConfig(start_level=0, max_level=4)
        rng = np.random.default_rng(11)
        grid = rng.uniform(-400.0, 6000.0, size=(33, 65))
        hf = HeightField(grid, (-PI / 2, PI / 2), (-PI, PI))
        pyramid = build_minmax_pyramid(hf, cfg)
        lats, lons = hf.sample_lats(), hf.sample_lons()
        for level in (2, 4):
            n_lat, n_lon = _grid_shape(level)
            lat_edges = _edges(-PI / 2, PI / 2, n_lat)
            lon_edges = _edges(-PI, PI, n_lon)
            hmin, hmax = pyramid.levels[level]
            for i in range(n_lat):
                row_mask = (lats >= lat_edges[i]) & (lats <= lat_edges[i + 1])
                for j in range(0, n_lon, 3):
                    col_mask = (lons >= lon_edges[j]) & (lons <= lon_edges[j + 1])
                    block = grid[np.ix_(row_mask, col_mask)]
                    if block.size:
                        assert hmin[i, j] <= block.min() + 1e-12
                        assert hmax[i, j] >= block.max() - 1e-12

    def test_empty_tiles_get_zero_interval(self):
        cfg = TerrainConfig(start_level=0, max_level=3)
        hf = HeightField(np.full((9, 9), 777.0), (0.30, 0.40), (0.10, 0.20))
        pyramid = build_minmax_pyramid(hf, cfg)
        assert pyramid.empty_tiles > 0
        hmin, hmax = pyramid.levels[3]
        assert hmin.min() == 0.0
        assert hmax.max() == 777.0

    @pytest.mark.parametrize("case", ["on_edges", "partial", "one_row", "one_col",
                                      "orbit_sinusoidal", "long_runs"])
    def test_finest_level_equals_closed_rectangle_rule(self, rng, scenarios_dir, case):
        # brute force: each tile's min/max over the samples whose latitude
        # and longitude lie in its closed intervals; [0, 0] and counted
        # empty when there is none
        for _ in range(4):
            level = int(rng.integers(1, 5))
            cfg = TerrainConfig(start_level=0, max_level=level)
            rows, cols = (int(n) for n in rng.integers(1, 40, size=2))
            lat_range, lon_range = (-PI / 2, PI / 2), (-PI, PI)
            if case == "on_edges":
                rows, cols = 2 ** level + 1, 2 ** (level + 1) + 1
            elif case == "partial":
                lat_range = tuple(np.sort(rng.uniform(-PI / 2, PI / 2, size=2)))
                lon_range = tuple(np.sort(rng.uniform(-PI, PI, size=2)))
            elif case == "one_row":
                rows = 1
            elif case == "one_col":
                cols = 1
            elif case == "long_runs":
                # 13-48 samples per tile along each axis
                level = int(rng.integers(0, 3))
                cfg = TerrainConfig(start_level=0, max_level=level)
                rows = int(rng.integers(12, 48)) * 2 ** level + 1
                cols = int(rng.integers(12, 48)) * 2 ** (level + 1) + 1
            else:
                terrain = load_scenario(scenarios_dir / "orbit_sinusoidal.json").terrain
                cfg = TerrainConfig(0, level, terrain.lat_range, terrain.lon_range)
                rows, cols = 2 ** level + 1, 2 ** (level + 1) + 1
            # rounded heights make ties between neighbouring samples common
            grid = np.round(rng.uniform(-500.0, 9000.0, size=(rows, cols)), -2)
            hf = HeightField(grid, lat_range, lon_range)
            pyramid = build_minmax_pyramid(hf, cfg)

            n_lat, n_lon = _grid_shape(level)
            lat_edges = _edges(cfg.lat_range[0], cfg.lat_range[1], n_lat)
            lon_edges = _edges(cfg.lon_range[0], cfg.lon_range[1], n_lon)
            lats, lons = hf.sample_lats(), hf.sample_lons()
            want_min, want_max = np.zeros((n_lat, n_lon)), np.zeros((n_lat, n_lon))
            empty = 0
            for i in range(n_lat):
                row_mask = (lats >= lat_edges[i]) & (lats <= lat_edges[i + 1])
                for j in range(n_lon):
                    col_mask = (lons >= lon_edges[j]) & (lons <= lon_edges[j + 1])
                    block = grid[np.ix_(row_mask, col_mask)]
                    if block.size:
                        want_min[i, j], want_max[i, j] = block.min(), block.max()
                    else:
                        empty += 1
            hmin, hmax = pyramid.levels[level]
            assert np.array_equal(hmin, want_min)
            assert np.array_equal(hmax, want_max)
            assert pyramid.empty_tiles == empty


class TestHeightFieldIO:
    def test_raw_dem_decode(self, tmp_path):
        # 2x2 big-endian int16 grid: 0, 100, -100, -9999 (nodata)
        payload = struct.pack(">4h", 0, 100, -100, -9999)
        dem = tmp_path / "patch.dem"
        dem.write_bytes(payload)
        (tmp_path / "patch.hdr").write_text(
            "nrows=2\nncols=2\nulxmap=10.0\nulymap=50.0\n"
            "xdim=0.5\nydim=0.5\nnodata=-9999\n")
        hf = load_heightfield(dem)
        assert hf.samples.shape == (2, 2)
        assert list(hf.samples.ravel()) == [0.0, 100.0, -100.0, 0.0]
        assert hf.lat_range[1] == pytest.approx(math.radians(50.0))
        assert hf.lon_range[0] == pytest.approx(math.radians(10.0))

    def test_raw_dem_whitespace_header(self, tmp_path):
        dem = tmp_path / "p.dem"
        dem.write_bytes(struct.pack(">2h", 5, 6))
        (tmp_path / "p.hdr").write_text(
            "NROWS 1\nNCOLS 2\nULXMAP 0\nULYMAP 0\nXDIM 1\nYDIM 1\nBYTEORDER M\n")
        hf = load_heightfield(dem)
        assert list(hf.samples.ravel()) == [5.0, 6.0]

    def test_size_mismatch_rejected(self, tmp_path):
        dem = tmp_path / "bad.dem"
        dem.write_bytes(struct.pack(">6h", *range(6)))
        (tmp_path / "bad.hdr").write_text(
            "nrows=2\nncols=2\nulxmap=0\nulymap=0\nxdim=1\nydim=1\n")
        with pytest.raises(IngestError, match="nrows"):
            load_heightfield(dem)

    def test_missing_header_field(self, tmp_path):
        dem = tmp_path / "nohdr.dem"
        dem.write_bytes(struct.pack(">1h", 3))
        (tmp_path / "nohdr.hdr").write_text("nrows=1\nncols=1\nulxmap=0\n")
        with pytest.raises(IngestError, match="ulymap"):
            load_heightfield(dem)

    def test_unparseable_field(self, tmp_path):
        dem = tmp_path / "junk.dem"
        dem.write_bytes(struct.pack(">1h", 3))
        (tmp_path / "junk.hdr").write_text(
            "nrows=1\nncols=1\nulxmap=zero\nulymap=0\nxdim=1\nydim=1\n")
        with pytest.raises(IngestError, match="ulxmap"):
            load_heightfield(dem)

    def test_clamping(self, tmp_path):
        dem = tmp_path / "clamp.dem"
        dem.write_bytes(struct.pack(">2h", -2000, 9500))
        (tmp_path / "clamp.hdr").write_text(
            "nrows=1\nncols=2\nulxmap=0\nulymap=0\nxdim=1\nydim=1\n")
        hf = load_heightfield(dem)
        assert list(hf.samples.ravel()) == [-500.0, 9000.0]

    def test_portable_roundtrip(self, tmp_path):
        hf = synth_heightfield("SINUSOIDAL", rows=17, cols=33,
                               amplitude=1234.0, frequency=3.0)
        path = tmp_path / "field.abhf"
        write_heightfield(hf, path)
        assert path.read_bytes()[:8] == b"ABINHF01"
        back = load_heightfield(path)
        assert back.samples.shape == hf.samples.shape
        assert np.allclose(back.samples, hf.samples)
        assert back.lat_range == pytest.approx(hf.lat_range)
        assert back.lon_range == pytest.approx(hf.lon_range)

    @pytest.mark.parametrize("field, value", [
        ("nrows", "nan"), ("nrows", "3.5"), ("ncols", "inf"), ("xdim", "nan"),
        ("xdim", "-0.5"), ("ydim", "-0.5"), ("ulymap", "inf"),
        ("nodata", "nan"), ("nodata", "none"), ("xdim", "0"), ("ydim", "0")])
    def test_bad_header_value_rejected(self, tmp_path, field, value):
        header = {"nrows": "3", "ncols": "5", "ulxmap": "10", "ulymap": "50",
                  "xdim": "0.5", "ydim": "0.5", "nodata": "-9999", field: value}
        dem = tmp_path / "bad.dem"
        dem.write_bytes(struct.pack(">15h", *range(15)))
        (tmp_path / "bad.hdr").write_text(
            "".join(f"{key} {val}\n" for key, val in header.items()))
        with pytest.raises(IngestError, match=f"'{field}'"):
            load_heightfield(dem)

    def test_one_sample_axis_with_zero_spacing_roundtrips(self, tmp_path):
        hf = HeightField(np.array([[1.0, 2.0, 3.0]]), (0.25, 0.25), (0.1, 0.3))
        path = tmp_path / "row.abhf"
        write_heightfield(hf, path)
        back = load_heightfield(path)
        assert back.samples.tolist() == [[1.0, 2.0, 3.0]]
        assert back.lat_range == pytest.approx((0.25, 0.25))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (1, 1)])
    def test_one_sample_axis_keeps_its_sample_coordinate(self, tmp_path, shape):
        # a one-sample axis has its sample in the middle of its range, and the
        # header's ulymap/ulxmap name the first sample, not the range's edge
        samples = np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape)
        hf = HeightField(samples, (0.0, 0.2), (0.0, 0.4))
        path = tmp_path / "thin.abhf"
        write_heightfield(hf, path)
        back = load_heightfield(path)
        assert back.samples.tolist() == samples.tolist()
        np.testing.assert_allclose(back.sample_lats(), hf.sample_lats(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.sample_lons(), hf.sample_lons(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_names_file_and_position(self, tmp_path, value):
        # checked before the clamp, so +-inf is rejected rather than read as 9000 / -500
        hf = synth_heightfield("FLAT", rows=9, cols=17, value=3000.0)
        path = tmp_path / "hole.abhf"
        write_heightfield(hf, path)
        blob = bytearray(path.read_bytes())
        offset = len(blob) - 8 * (9 * 17 - (4 * 17 + 6))
        blob[offset:offset + 8] = struct.pack("<d", float(value))
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestError,
                           match=rf"hole\.abhf: sample at row 4, column 6 is not finite: {value}"):
            load_heightfield(path)

    def test_raw_dem_read_once(self, tmp_path, monkeypatch):
        dem = tmp_path / "once.dem"
        dem.write_bytes(struct.pack(">2h", 5, 6))
        (tmp_path / "once.hdr").write_text(
            "nrows=1\nncols=2\nulxmap=0\nulymap=0\nxdim=1\nydim=1\n")
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        assert load_heightfield(dem).samples.tolist() == [[5.0, 6.0]]
        assert reads.count(dem) == 1

    @pytest.mark.parametrize("container", ["raw", "portable"])
    def test_non_utf8_header_rejected(self, tmp_path, container):
        header = b"nrows=1\nncols=1\nulxmap=0\nulymap=0\nxdim=1\nydim=1\n\xff\n"
        if container == "raw":
            path = tmp_path / "latin.dem"
            path.write_bytes(struct.pack(">h", 5))
            (tmp_path / "latin.hdr").write_bytes(header)
        else:
            path = tmp_path / "latin.abhf"
            path.write_bytes(b"ABINHF01" + struct.pack("<I", len(header)) + header
                             + struct.pack("<d", 5.0))
        with pytest.raises(IngestError, match=r"latin\.(hdr|abhf): header is not UTF-8"):
            load_heightfield(path)

    @pytest.mark.parametrize("samples, lat_range, lon_range", [
        ([[1.0, float("nan")]], (-1.0, 1.0), (-1.0, 1.0)),
        ([[1.0, float("inf")]], (-1.0, 1.0), (-1.0, 1.0)),
        ([[1.0, 2.0]], (1.0, -1.0), (-1.0, 1.0)),
        ([[1.0, 2.0]], (-1.0, 1.0), (float("nan"), 1.0)),
        ([[1.0, 2.0]], (-1.0, float("inf")), (-1.0, 1.0)),
    ], ids=["nan_sample", "inf_sample", "inverted_lat", "nan_lon", "inf_lat"])
    def test_heightfield_rejects_bad_values(self, samples, lat_range, lon_range):
        with pytest.raises(ValueError):
            HeightField(np.array(samples), lat_range, lon_range)

    @pytest.mark.parametrize("lat_range, lon_range, name", [
        ((0.1, 0.1), (0.1, 0.3), "lat_range"),
        ((0.1, 0.3), (0.2, 0.2), "lon_range"),
    ])
    def test_zero_width_range_over_several_samples_rejected(self, lat_range, lon_range,
                                                            name):
        # write_heightfield would store spacing 0, which load_heightfield rejects
        with pytest.raises(ValueError, match=name):
            HeightField(np.zeros((3, 4)), lat_range, lon_range)

    def test_portable_corrupt_payload(self, tmp_path):
        hf = synth_heightfield("FLAT", rows=4, cols=4, value=1.0)
        path = tmp_path / "short.abhf"
        write_heightfield(hf, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(IngestError):
            load_heightfield(path)


class TestTraverse:
    CFG = TerrainConfig(start_level=4, max_level=5)

    def whole_globe_frustum(self):
        pose = CameraPose([0.0, 0.0, 5 * R], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                          2.8, 1.0, 1.0, 12 * R)
        return frustum_from_camera(pose)

    def zenith_frustum(self):
        pose = CameraPose([0.0, 0.0, R + 5e5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                          1.0, 1.2, 5e3, 1.5e6)
        return frustum_from_camera(pose)

    def test_whole_globe_all_inside(self):
        pyramid = flat_pyramid(self.CFG, 100.0)
        visible, stats = traverse(self.whole_globe_frustum(), self.CFG, pyramid,
                                  PARAMS, Method.ANALYTIC_BIN)
        assert stats.visited == 512
        assert stats.inside == 512
        assert stats.intersect == 0
        assert stats.leaves_rendered == 512
        assert len(visible) == 512

    def test_everything_behind_camera_all_outside(self):
        pyramid = flat_pyramid(self.CFG, 100.0)
        frustum = self.zenith_frustum()
        pruned = []
        sink = lambda t, c: pruned.append(t) if c is Classification.OUTSIDE else None
        visible, stats = traverse(frustum, self.CFG, pyramid, PARAMS,
                                  Method.ANALYTIC_BIN, sink=sink)
        assert stats.visited == 512
        assert stats.outside == 512
        assert stats.intersect == 0
        assert not visible
        # sampled surface of every pruned tile stays out of the frustum
        map_fn = lambda pts: sphere_point(PARAMS, pts)
        for tile in pruned[::17]:
            center, offsets = tile_bin(tile, PARAMS)
            verdict = sample_oracle(map_fn, center, offsets, frustum, (9, 9, 3))
            assert verdict is Classification.OUTSIDE

    def test_stats_identity(self):
        cfg = TerrainConfig(start_level=3, max_level=6)
        hf = synth_heightfield("SINUSOIDAL", rows=129, cols=257,
                               amplitude=2000.0, frequency=8.0)
        pyramid = build_minmax_pyramid(hf, cfg)
        alt = 8e5
        pose = CameraPose([0.0, 0.0, R + alt], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                          1.8, 1.2, alt / 100, 3 * alt)
        for method in (Method.ANALYTIC_BIN, Method.AABB8):
            _, stats = traverse(frustum_from_camera(pose), cfg, pyramid,
                                PARAMS, method)
            assert stats.visited == stats.outside + stats.inside + stats.intersect
            assert stats.visited > 0
            assert stats.max_depth_reached <= cfg.max_level

    def test_inside_shortcircuit_covers_same_area(self):
        # recursing into INSIDE tiles by hand covers exactly the leaf cells
        # the emitted set covers
        from abincull import classify_tile
        cfg = TerrainConfig(start_level=3, max_level=5)
        hf = synth_heightfield("SINUSOIDAL", rows=129, cols=257,
                               amplitude=2000.0, frequency=8.0)
        pyramid = build_minmax_pyramid(hf, cfg)
        alt = 2e6
        pose = CameraPose([0.0, 0.0, R + alt], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                          1.4, 1.0, alt / 100, 3 * alt)
        frustum = frustum_from_camera(pose)
        visible, _ = traverse(frustum, cfg, pyramid, PARAMS, Method.ANALYTIC_BIN)

        def leaf_cells(tile):
            shift = cfg.max_level - tile.level
            base_i, base_j = tile.i << shift, tile.j << shift
            return {(base_i + a, base_j + b)
                    for a in range(1 << shift) for b in range(1 << shift)}

        emitted = set()
        for t in visible:
            emitted |= leaf_cells(t)

        expanded = set()
        stack = [pyramid.tile(t.level, t.i, t.j) for t in root_tiles(cfg)]
        while stack:
            tile = stack.pop()
            cls = classify_tile(tile, frustum, PARAMS, Method.ANALYTIC_BIN, cfg.cull)
            if cls is Classification.OUTSIDE:
                continue
            if tile.level < cfg.max_level:
                stack.extend(subdivide(tile, pyramid))
            else:
                expanded.add((tile.i, tile.j))
        assert emitted == expanded

    def test_deterministic_visible_set(self):
        cfg = TerrainConfig(start_level=3, max_level=5)
        pyramid = flat_pyramid(cfg, 50.0)
        alt = 1e6
        pose = CameraPose([0.0, 0.0, R + alt], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                          1.6, 1.0, alt / 100, 3 * alt)
        frustum = frustum_from_camera(pose)
        a, _ = traverse(frustum, cfg, pyramid, PARAMS, Method.ANALYTIC_BIN)
        b, _ = traverse(frustum, cfg, pyramid, PARAMS, Method.ANALYTIC_BIN)
        assert [t.tile_id for t in a] == [t.tile_id for t in b]

    def test_each_start_level_has_its_own_start_grid(self):
        pyramid = flat_pyramid(TerrainConfig(start_level=2, max_level=4), 100.0)
        frustum = self.whole_globe_frustum()
        for level in (3, 2, 4):
            cfg = TerrainConfig(start_level=level, max_level=4)
            # every start tile is INSIDE, so the visible tiles are the grid
            visible, stats = traverse(frustum, cfg, pyramid, PARAMS, Method.AABB8)
            grid = pyramid.start_grid(level)
            assert stats.visited == stats.inside == len(grid) == math.prod(_grid_shape(level))
            assert all(a is b for a, b in zip(visible, grid))
            assert {t.level for t in grid} == {level}
        assert len({id(pyramid.start_grid(level)) for level in (2, 3, 4)}) == 3

    @pytest.mark.parametrize("method", ["ANALYTIC_BIN", "AABB8", None])
    def test_method_that_is_no_method_rejected(self, method):
        # classify_tile took every method but Method.ANALYTIC_BIN as AABB8,
        # so the string "ANALYTIC_BIN" used to run AABB8
        pyramid = flat_pyramid(self.CFG, 100.0)
        frustum = self.whole_globe_frustum()
        with pytest.raises(ValueError, match="method"):
            traverse(frustum, self.CFG, pyramid, PARAMS, method)
        with pytest.raises(ValueError, match="method"):
            classify_tile(pyramid.tile(4, 3, 5), frustum, PARAMS, method, CullConfig())

    def test_shallow_pyramid_rejected(self):
        cfg = TerrainConfig(start_level=2, max_level=5)
        pyramid = flat_pyramid(TerrainConfig(start_level=2, max_level=3))
        with pytest.raises(ValueError):
            traverse(self.whole_globe_frustum(), cfg, pyramid, PARAMS,
                     Method.ANALYTIC_BIN)

    def test_pyramid_over_other_ranges_rejected(self):
        cfg = TerrainConfig(start_level=2, max_level=3)
        pyramid = flat_pyramid(TerrainConfig(start_level=2, max_level=3,
                                             lat_range=(-1.5, 1.5)))
        with pytest.raises(ValueError, match="ranges"):
            traverse(self.whole_globe_frustum(), cfg, pyramid, PARAMS,
                     Method.ANALYTIC_BIN)

    @pytest.mark.parametrize("method", list(Method))
    def test_every_tile_built_from_its_indices(self, method, scenarios_dir):
        # on the offset ranges of orbit_sinusoidal, a parent's midpoint is an
        # ulp off the index formula on many child edges; traversal must hand
        # out exactly the tile its (level, i, j) names
        sc = load_scenario(scenarios_dir / "orbit_sinusoidal.json")
        pyramid = build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
        seen = []
        for frame in (0, 97):
            traverse(frustum_from_camera(sc.cameras[frame]), sc.terrain, pyramid,
                     sc.geodetic, method, sink=lambda t, c: seen.append(t))
        assert max(t.level for t in seen) == sc.terrain.max_level
        for t in seen:
            assert t == pyramid.tile(t.level, t.i, t.j), t.tile_id


class TestExpandedInsideEquivalence:
    def test_inside_children_remain_covered(self):
        # children of an INSIDE tile never classify OUTSIDE on this scene
        from abincull import classify_tile
        cfg = TerrainConfig(start_level=4, max_level=6)
        hf = synth_heightfield("SINUSOIDAL", rows=129, cols=257,
                               amplitude=2000.0, frequency=8.0)
        pyramid = build_minmax_pyramid(hf, cfg)
        alt = 5e6
        pose = CameraPose([0.0, 0.0, R + alt], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                          1.2, 1.0, alt / 100, 3 * alt)
        frustum = frustum_from_camera(pose)
        visible, _ = traverse(frustum, cfg, pyramid, PARAMS, Method.ANALYTIC_BIN)
        inside_parents = [t for t in visible if t.level < cfg.max_level]
        checked = 0
        for parent in inside_parents[:10]:
            for kid in subdivide(parent, pyramid):
                cls = classify_tile(kid, frustum, PARAMS, Method.ANALYTIC_BIN,
                                    cfg.cull)
                assert cls is not Classification.OUTSIDE
                checked += 1
        assert checked > 0 or not inside_parents


class TestPoleAndSeamTiles:
    """Tiles touching a pole (cos lat = 0) or the +-pi seam, seen from close by."""

    def edge_tile_and_pose(self, rng, edge):
        level = int(rng.integers(2, 8))
        n_lat, n_lon = _grid_shape(level)
        width = PI / n_lat
        h_lo = rng.uniform(-500.0, 3000.0)
        h_range = (h_lo, h_lo + rng.uniform(0.0, 3000.0))
        if edge == "pole":
            i, j = (0, n_lat - 1)[rng.integers(2)], int(rng.integers(n_lon))
            tile = tile_from_indices(level, i, j, height_range=h_range)
            lat = tile.lat_range[0] if i == 0 else tile.lat_range[1]
            lon = rng.uniform(-PI, PI)
        else:
            i, j = int(rng.integers(n_lat)), (0, n_lon - 1)[rng.integers(2)]
            tile = tile_from_indices(level, i, j, height_range=h_range)
            lat = rng.uniform(*tile.lat_range)
            lon = (-PI, PI)[rng.integers(2)]
        # eye above a point within a tile width of that edge point, looking
        # at a jittered point near it
        alt = R * width * rng.uniform(0.05, 1.5)
        jitter = lambda: rng.uniform(-1.0, 1.0) * width
        eye = sphere_point(PARAMS, [R + h_range[1] + alt,
                                    np.clip(lat + jitter(), -PI / 2, PI / 2),
                                    lon + jitter()])
        target = sphere_point(PARAMS, [R + rng.uniform(*h_range),
                                       lat + jitter(), lon + jitter()])
        pose = CameraPose(eye, target - eye, rng.normal(size=3),
                          rng.uniform(0.2, 1.2), rng.uniform(0.7, 1.6),
                          alt / 100.0, 3.0 * alt)
        return tile, frustum_from_camera(pose)

    @pytest.mark.parametrize("edge", ["pole", "seam"])
    def test_no_outside_verdict_over_a_contained_sample(self, rng, edge):
        map_fn = lambda pts: sphere_point(PARAMS, pts)
        prunes = {mode: 0 for mode in ExtremaMode}
        for _ in range(400):
            tile, frustum = self.edge_tile_and_pose(rng, edge)
            oracle = None
            for mode in ExtremaMode:
                cls = classify_tile(tile, frustum, PARAMS, Method.ANALYTIC_BIN,
                                    CullConfig(1.1, mode))
                if cls is not Classification.OUTSIDE:
                    continue
                prunes[mode] += 1
                if oracle is None:
                    oracle = sample_oracle(map_fn, *tile_bin(tile, PARAMS), frustum)
                assert oracle is Classification.OUTSIDE, (tile.tile_id, mode)
        # the poses come close enough to the edge for prunes to be tested
        assert min(prunes.values()) >= 40, prunes

    @pytest.mark.parametrize("edge", ["pole", "seam"])
    def test_plane_mask_contract(self, rng, edge):
        separated_by_one = 0
        for _ in range(200):
            tile, frustum = self.edge_tile_and_pose(rng, edge)
            for mode in ExtremaMode:
                cull = CullConfig(1.1, mode)
                plain = classify_tile(tile, frustum, PARAMS, Method.ANALYTIC_BIN, cull)
                cls, straddled = classify_tile(tile, frustum, PARAMS, Method.ANALYTIC_BIN,
                                               cull, planes=0b111111)
                assert cls is plain, (tile.tile_id, mode)
                assert (straddled != 0) == (plain is Classification.INTERSECT)
                assert classify_tile(tile, frustum, PARAMS, Method.ANALYTIC_BIN, cull,
                                     planes=0) == (Classification.INSIDE, 0)
                separating = [k for k in range(6) if classify_tile(
                    tile, frustum, PARAMS, Method.ANALYTIC_BIN, cull,
                    planes=1 << k)[0] is Classification.OUTSIDE]
                assert bool(separating) == (plain is Classification.OUTSIDE)
                if len(separating) == 1:
                    separated_by_one += 1
                    cls, _ = classify_tile(tile, frustum, PARAMS, Method.ANALYTIC_BIN,
                                           cull, planes=0b111111 & ~(1 << separating[0]))
                    assert cls is not Classification.OUTSIDE, (tile.tile_id, mode)
            plain = classify_tile(tile, frustum, PARAMS, Method.AABB8, CullConfig())
            for mask in (0, 1 << int(rng.integers(6)), 0b111111):
                assert classify_tile(tile, frustum, PARAMS, Method.AABB8, CullConfig(),
                                     planes=mask) == (plain, 0b111111)
        assert separated_by_one >= 40, separated_by_one


class TestPlaneMask:
    """Traversal with per-tile plane masks against plain classify_tile."""

    @pytest.fixture(scope="class")
    def scenes(self):
        root = Path(__file__).resolve().parents[1] / "scenarios"
        scenes = {}
        for name in ("orbit_sinusoidal", "peak_orbit"):
            sc = load_scenario(root / f"{name}.json")
            scenes[name] = sc, build_minmax_pyramid(sc.build_heightfield(), sc.terrain)
        return scenes

    @staticmethod
    def reference(frustum, cfg, pyramid, params, method):
        """Depth-first traversal with the plain five-argument classify_tile:
        every tile's verdict and the visible tiles."""
        verdicts, visible = {}, []
        stack = [pyramid.tile(t.level, t.i, t.j) for t in root_tiles(cfg)]
        while stack:
            tile = stack.pop()
            cls = classify_tile(tile, frustum, params, method, cfg.cull)
            verdicts[tile.tile_id] = cls
            if cls is Classification.INTERSECT and tile.level < cfg.max_level:
                stack.extend(subdivide(tile, pyramid))
            elif cls is not Classification.OUTSIDE:
                visible.append(tile)
        return verdicts, visible

    @staticmethod
    def leaf_cells(tiles, max_level):
        cells = set()
        for t in tiles:
            shift = max_level - t.level
            cells |= {((t.i << shift) + a, (t.j << shift) + b)
                      for a in range(1 << shift) for b in range(1 << shift)}
        return cells

    def frusta(self, scenes):
        orbit, _ = scenes["orbit_sinusoidal"]
        peak, _ = scenes["peak_orbit"]
        for frame in (0, 33, 97):
            yield "orbit_sinusoidal", frustum_from_camera(orbit.cameras[frame])
        for frame in (3, len(peak.cameras) - 1):
            yield "peak_orbit", frustum_from_camera(peak.cameras[frame])
        rng = np.random.default_rng(12)
        for _ in range(20):
            yield "orbit_sinusoidal", frustum_from_camera(_orbit_pose(rng, PARAMS))

    @pytest.mark.parametrize("mode", list(ExtremaMode))
    def test_masked_traversal_matches_unmasked(self, scenes, mode):
        seen = 0
        for name, frustum in self.frusta(scenes):
            sc, pyramid = scenes[name]
            cfg = dataclasses.replace(
                sc.terrain, cull=dataclasses.replace(sc.terrain.cull, extrema_mode=mode))
            verdicts = {}
            visible, _ = traverse(frustum, cfg, pyramid, sc.geodetic, Method.ANALYTIC_BIN,
                                  sink=lambda t, c: verdicts.__setitem__(t.tile_id, c))
            want, want_visible = self.reference(frustum, cfg, pyramid, sc.geodetic,
                                                Method.ANALYTIC_BIN)
            assert verdicts == want, name
            # masking only skips plane tests: it can turn INTERSECT into
            # INSIDE but never adds an OUTSIDE, so no leaf cell is lost
            assert (self.leaf_cells(visible, cfg.max_level)
                    >= self.leaf_cells(want_visible, cfg.max_level))
            seen += len(verdicts)
        assert seen > 10_000

    def test_full_mask_gives_plain_verdict(self, scenes):
        sc, pyramid = scenes["orbit_sinusoidal"]
        frustum = frustum_from_camera(sc.cameras[33])
        tiles = []
        traverse(frustum, sc.terrain, pyramid, PARAMS, Method.ANALYTIC_BIN,
                 sink=lambda t, c: tiles.append(t))
        for method in Method:
            for mode in ExtremaMode:
                cull = CullConfig(1.1, mode)
                for tile in tiles:
                    plain = classify_tile(tile, frustum, PARAMS, method, cull)
                    cls, _ = classify_tile(tile, frustum, PARAMS, method, cull,
                                           planes=0b111111)
                    assert cls is plain, (method, mode, tile.tile_id)
