"""Geodetic tile quadtree over a heightfield, with visibility traversal.

The globe is tiled by a 2^L x 2^(L+1) grid of latitude/longitude rectangles
per level L (square in angle for the default full ranges), each carrying the
min/max terrain height inside it.  A tile maps to a parameter-space bin
(radius, latitude, longitude) whose curved image is classified against the
frustum either with the quadratic bin test or with the 8-corner world-box
baseline; traversal recurses only into tiles that straddle the frustum
boundary.
"""

from __future__ import annotations

import enum
import math
import struct
import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from pathlib import Path

import numpy as np

from .baseline import classify_aabb8, world_aabb_of_bin
from .cull import ALL_PLANES, Classification, CullConfig, _classify_bin_scalars
from .frustum import Frustum
from .mapping import GeodeticParams, _sphere_jet_rows, _sphere_point_rows
from .quadratic import Box3

__all__ = [
    "GeoTile",
    "HeightField",
    "TerrainConfig",
    "TraversalStats",
    "MinMaxPyramid",
    "Method",
    "SynthKind",
    "IngestError",
    "tile_from_indices",
    "root_tiles",
    "subdivide",
    "tile_bin",
    "build_minmax_pyramid",
    "load_heightfield",
    "write_heightfield",
    "synth_heightfield",
    "classify_tile",
    "traverse",
]

FULL_LAT_RANGE = (-math.pi / 2, math.pi / 2)
FULL_LON_RANGE = (-math.pi, math.pi)

# Ingestion clamp: keeps below-sea-level land (Dead Sea) without letting
# corrupt samples blow up bin extents.
HEIGHT_CLAMP = (-500.0, 9000.0)

PORTABLE_MAGIC = b"ABINHF01"


class Method(enum.Enum):
    ANALYTIC_BIN = "ANALYTIC_BIN"
    AABB8 = "AABB8"


class SynthKind(enum.Enum):
    FLAT = "FLAT"
    SINGLE_PEAK = "SINGLE_PEAK"
    SINUSOIDAL = "SINUSOIDAL"


class IngestError(ValueError):
    """Heightfield ingestion failure; message names the offending field."""


def _check_angle_ranges(lat_range: tuple[float, float],
                        lon_range: tuple[float, float]) -> None:
    """Both intervals increasing and on the globe, up to 1e-12 rad of slack."""
    lat_lo, lat_hi = lat_range
    lon_lo, lon_hi = lon_range
    if not lat_lo < lat_hi or not lon_lo < lon_hi:
        raise ValueError("lat and lon intervals must have positive width")
    eps = 1e-12
    if lat_lo < -math.pi / 2 - eps or lat_hi > math.pi / 2 + eps:
        raise ValueError(f"latitude range outside [-pi/2, pi/2]: {lat_range}")
    if lon_lo < -math.pi - eps or lon_hi > math.pi + eps:
        raise ValueError(f"longitude range outside [-pi, pi]: {lon_range}")


@dataclass(frozen=True, init=False)
class GeoTile:
    """Quadtree tile: angular rectangle plus its height interval."""

    level: int
    i: int
    j: int
    lat_range: tuple[float, float]
    lon_range: tuple[float, float]
    height_range: tuple[float, float]

    def __init__(self, level: int, i: int, j: int, lat_range: tuple[float, float],
                 lon_range: tuple[float, float], height_range: tuple[float, float]):
        if level < 0 or i < 0 or j < 0:
            raise ValueError("level and indices must be non-negative")
        _check_angle_ranges(lat_range, lon_range)
        h_lo, h_hi = height_range
        if not h_lo <= h_hi:  # also false for a NaN bound
            raise ValueError(f"height_range must have lo <= hi, got {height_range}")
        # every visited tile is built here: item stores into __dict__ skip
        # the frozen __setattr__, cost far less than six object.__setattr__
        # calls and, unlike assigning a dict literal, keep the keys shared
        fields = self.__dict__
        fields["level"], fields["i"], fields["j"] = level, i, j
        fields["lat_range"], fields["lon_range"] = lat_range, lon_range
        fields["height_range"] = height_range

    @property
    def tile_id(self) -> str:
        return f"{self.level}/{self.i}/{self.j}"


@dataclass(frozen=True)
class HeightField:
    """Uniform lat/lon grid of terrain heights, row 0 at the north edge."""

    samples: np.ndarray
    lat_range: tuple[float, float]
    lon_range: tuple[float, float]
    nodata: float = -9999.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.size == 0:
            raise ValueError("samples must be a non-empty 2D grid")
        finite = np.isfinite(s)
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise ValueError(f"sample at row {r}, column {c} is not finite: {s[r, c]}")
        # the pyramid's sorted search needs ascending sample coordinates
        for name, count in (("lat_range", s.shape[0]), ("lon_range", s.shape[1])):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"{name} must be finite with lo <= hi, got {(lo, hi)}")
            # the file header stores a spacing, which must be nonzero here
            if lo == hi and count > 1:
                raise ValueError(f"{name} has zero width over {count} samples: {(lo, hi)}")
        object.__setattr__(self, "samples", s)

    @property
    def rows(self) -> int:
        return self.samples.shape[0]

    @property
    def cols(self) -> int:
        return self.samples.shape[1]

    def sample_lats(self) -> np.ndarray:
        lo, hi = self.lat_range
        if self.rows == 1:
            return np.array([0.5 * (lo + hi)])
        return np.linspace(hi, lo, self.rows)

    def sample_lons(self) -> np.ndarray:
        lo, hi = self.lon_range
        if self.cols == 1:
            return np.array([0.5 * (lo + hi)])
        return np.linspace(lo, hi, self.cols)


@dataclass(frozen=True)
class TerrainConfig:
    """Quadtree extents and the culling configuration used per tile."""

    start_level: int = 4
    max_level: int = 4
    lat_range: tuple[float, float] = FULL_LAT_RANGE
    lon_range: tuple[float, float] = FULL_LON_RANGE
    cull: CullConfig = field(default_factory=CullConfig)

    def __post_init__(self):
        # each level is a dense float64 (min, max) pair: 512 MiB at level 12
        if not 0 <= self.start_level <= self.max_level <= 12:
            raise ValueError(
                f"need 0 <= start_level <= max_level <= 12, got "
                f"{self.start_level}..{self.max_level}")
        _check_angle_ranges(self.lat_range, self.lon_range)


@dataclass
class TraversalStats:
    visited: int = 0
    outside: int = 0
    inside: int = 0
    intersect: int = 0
    leaves_rendered: int = 0
    max_depth_reached: int = 0
    elapsed_ns: int = 0


def _grid_shape(level: int) -> tuple[int, int]:
    # twice as many longitude bins keeps tiles square in angle
    return 2 ** level, 2 ** (level + 1)


def _edges(lo: float, hi: float, count: int) -> np.ndarray:
    # _interval's formula (k / count is exact for power-of-two counts), so the
    # pyramid bins samples against exactly the bounds of tile_from_indices
    k = np.arange(count + 1, dtype=float)
    return lo + (k / count) * (hi - lo)


def _interval(lo: float, hi: float, count: int, k: int) -> tuple[float, float]:
    w = hi - lo
    return lo + (k / count) * w, lo + ((k + 1) / count) * w


def tile_from_indices(level: int, i: int, j: int,
                      lat_range: tuple[float, float] = FULL_LAT_RANGE,
                      lon_range: tuple[float, float] = FULL_LON_RANGE,
                      height_range: tuple[float, float] = (0.0, 0.0)) -> GeoTile:
    """Tile with canonical bounds derived from its grid indices."""
    n_lat, n_lon = _grid_shape(level)
    if not (0 <= i < n_lat and 0 <= j < n_lon):
        raise ValueError(f"indices ({i}, {j}) out of range for level {level}")
    return GeoTile(level, i, j,
                   _interval(lat_range[0], lat_range[1], n_lat, i),
                   _interval(lon_range[0], lon_range[1], n_lon, j),
                   height_range)


def root_tiles(cfg: TerrainConfig) -> list[GeoTile]:
    """The full start-level grid in traversal order, with heights [0, 0];
    ``MinMaxPyramid.tile`` gives the same tiles with terrain heights."""
    n_lat, n_lon = _grid_shape(cfg.start_level)
    return [tile_from_indices(cfg.start_level, i, j, cfg.lat_range, cfg.lon_range)
            for i in range(n_lat) for j in range(n_lon)]


class MinMaxPyramid:
    """Per-level, per-tile terrain height intervals over fixed lat/lon ranges.

    Levels 0..max_level are stored as read-only (h_min, h_max) array pairs
    of the level's grid shape.  Finest-level intervals span the samples in
    each tile's closed rectangle, so an on-edge sample counts for every tile
    on that edge; coarser intervals are the hull of the four children.  Tiles
    with no samples get [0, 0] and are counted in ``empty_tiles``.

    ``build_minmax_pyramid`` reduces the samples one axis at a time,
    longitude first, each by one gather of every tile column's (then row's)
    run of samples and one min/max reduce over the run (``_closed_minmax``);
    a stage's gather holds at most (longest run x non-empty intervals)
    slices.  Each coarser level is the elementwise min/max of the finer
    level's four strided quarters.
    """

    def __init__(self, levels, empty_tiles: int,
                 lat_range: tuple[float, float], lon_range: tuple[float, float]):
        # read-only, so that the cached start grids cannot go stale
        for pair in levels:
            for heights in pair:
                heights.flags.writeable = False
        self.levels = tuple(levels)
        self.empty_tiles = empty_tiles
        self.lat_range = lat_range
        self.lon_range = lon_range
        self.max_level = len(levels) - 1
        self._start_grids: dict[int, tuple[GeoTile, ...]] = {}

    def _check_block(self, level: int, i: int, j: int, rows: int,
                     cols: int) -> tuple[int, int]:
        """Level ``level``'s grid shape, once tiles (level, i + a, j + b) for
        a < rows and b < cols are known to exist; ``ValueError`` otherwise."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} is outside 0..max_level "
                             f"(max_level {self.max_level})")
        n_lat, n_lon = _grid_shape(level)
        if not (0 <= i and 0 < rows and i + rows <= n_lat
                and 0 <= j and 0 < cols and j + cols <= n_lon):
            raise ValueError(f"block of {rows}x{cols} tiles at ({i}, {j}) is out "
                             f"of range for level {level}")
        return n_lat, n_lon

    def interval(self, level: int, i: int, j: int) -> tuple[float, float]:
        self._check_block(level, i, j, 1, 1)
        hmin, hmax = self.levels[level]
        return float(hmin[i, j]), float(hmax[i, j])

    def block(self, level: int, i: int, j: int, rows: int, cols: int) -> list[GeoTile]:
        """Tiles (level, i + a, j + b) for a < rows and b < cols, row by row.

        Bounds come from the indices by ``tile_from_indices``' formula, one
        ``_interval`` per row and per column; heights come from here.
        """
        n_lat, n_lon = self._check_block(level, i, j, rows, cols)
        lat_lo, lat_hi = self.lat_range
        lon_lo, lon_hi = self.lon_range
        lons = [(b, _interval(lon_lo, lon_hi, n_lon, b)) for b in range(j, j + cols)]
        hmin, hmax = self.levels[level]
        tiles = []
        for a in range(i, i + rows):
            lat = _interval(lat_lo, lat_hi, n_lat, a)
            for b, lon in lons:
                tiles.append(GeoTile(level, a, b, lat, lon,
                                     (hmin.item(a, b), hmax.item(a, b))))
        return tiles

    def tile(self, level: int, i: int, j: int) -> GeoTile:
        """Tile (level, i, j): bounds from its indices, heights from here."""
        return self.block(level, i, j, 1, 1)[0]

    def start_grid(self, level: int) -> tuple[GeoTile, ...]:
        """Level ``level``'s whole grid, ``block(level, 0, 0, n_lat, n_lon)``,
        built on the first call for that level and then shared by every
        traversal that starts there."""
        grid = self._start_grids.get(level)
        if grid is None:
            grid = tuple(self.block(level, 0, 0, *_grid_shape(level)))
            self._start_grids[level] = grid
        return grid


def _closed_minmax(h_min: np.ndarray, h_max: np.ndarray, coords: np.ndarray,
                   edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min of ``h_min`` and max of ``h_max`` (2D) along axis 0 over the rows
    whose ascending ``coords`` lie in each closed interval
    [edges[k], edges[k+1]] that holds at least one, and the indices k of
    those intervals.

    One gather and one reduce per array: ``idx[k, t] = min(start_k + t,
    stop_k - 1)`` for ``t`` below the longest run, so a shorter run repeats
    its last row, and ``a[idx]`` is reduced over ``t``.  Empty intervals are
    left out, so the gather holds at most (longest run x non-empty
    intervals) rows however many empty intervals lie off the field.
    """
    start = np.searchsorted(coords, edges[:-1], side="left")
    stop = np.searchsorted(coords, edges[1:], side="right")
    full = np.flatnonzero(start < stop)
    span = (stop - start).max(initial=1)
    idx = np.minimum(start[full, None] + np.arange(span), stop[full, None] - 1)
    # reducing one array both ways (the first stage) needs one gather
    runs_min = h_min[idx]
    runs_max = runs_min if h_max is h_min else h_max[idx]
    return np.minimum.reduce(runs_min, axis=1), np.maximum.reduce(runs_max, axis=1), full


def build_minmax_pyramid(hf: HeightField, cfg: TerrainConfig) -> MinMaxPyramid:
    n_lat, n_lon = _grid_shape(cfg.max_level)
    lat_edges = _edges(cfg.lat_range[0], cfg.lat_range[1], n_lat)
    lon_edges = _edges(cfg.lon_range[0], cfg.lon_range[1], n_lon)
    # separable: a sample is in tile (i, j)'s closed rectangle exactly when
    # its latitude is in row i's interval and its longitude in column j's.
    # Longitude first, so the first stage keeps (longitude tiles x sample rows)
    columns = hf.samples.T
    col_min, col_max, lon_full = _closed_minmax(columns, columns, hf.sample_lons(), lon_edges)
    # rows run north to south, so latitudes ascend over the reversed rows
    tile_min, tile_max, lat_full = _closed_minmax(col_min.T[::-1], col_max.T[::-1],
                                                  hf.sample_lats()[::-1], lat_edges)
    # by the same separability a tile holds a sample exactly when its row
    # and its column do; the others get [0, 0] and are counted as empty
    hmin, hmax = np.zeros((2, n_lat, n_lon))
    hmin[np.ix_(lat_full, lon_full)] = tile_min
    hmax[np.ix_(lat_full, lon_full)] = tile_max

    levels = [(hmin, hmax)]
    for _ in range(cfg.max_level):
        # a parent is the hull of its four children, the strided quarters
        # [a::2, b::2] of the finer level
        levels.insert(0, tuple(
            reduce(ufunc, (child[a::2, b::2] for a in (0, 1) for b in (0, 1)))
            for ufunc, child in zip((np.minimum, np.maximum), levels[0])))
    return MinMaxPyramid(levels, hmin.size - tile_min.size, cfg.lat_range, cfg.lon_range)


def subdivide(tile: GeoTile, pyramid: MinMaxPyramid) -> list[GeoTile]:
    """The four children of a tile as one 2x2 ``pyramid.block``, row by row;
    ``ValueError`` naming ``max_level`` for a tile at the pyramid's max level."""
    return pyramid.block(tile.level + 1, 2 * tile.i, 2 * tile.j, 2, 2)


def tile_bin(tile: GeoTile, params: GeodeticParams) -> tuple[np.ndarray, Box3]:
    """Parameter bin of a tile: center point and centered offset box.

    The radial axis spans radius + [h_min, h_max]; a flat tile yields a
    zero-width radial axis.
    """
    h_lo, h_hi = tile.height_range
    lat_lo, lat_hi = tile.lat_range
    lon_lo, lon_hi = tile.lon_range
    center = np.array([params.radius_m + 0.5 * (h_lo + h_hi),
                       0.5 * (lat_lo + lat_hi),
                       0.5 * (lon_lo + lon_hi)])
    hw0 = 0.5 * (h_hi - h_lo)
    hw1 = 0.5 * (lat_hi - lat_lo)
    hw2 = 0.5 * (lon_hi - lon_lo)
    return center, Box3((-hw0, -hw1, -hw2), (hw0, hw1, hw2))


def synth_heightfield(kind: SynthKind | str, rows: int = 257, cols: int = 513,
                      lat_range: tuple[float, float] = FULL_LAT_RANGE,
                      lon_range: tuple[float, float] = FULL_LON_RANGE,
                      value: float = 0.0,
                      peak_height: float = 8848.0,
                      peak_lat: float = 0.0, peak_lon: float = 0.0,
                      amplitude: float = 2000.0,
                      frequency: float = 8.0) -> HeightField:
    """Deterministic procedural heightfields for desk-scale experiments.

    FLAT: constant ``value``.  SINGLE_PEAK: zeros except ``peak_height`` at
    the node nearest (peak_lat, peak_lon).  SINUSOIDAL:
    ``amplitude * (1 + sin(f * lat) * cos(f * lon)) / 2``.
    """
    kind = SynthKind(kind)
    if rows < 2 or cols < 2:
        raise ValueError("need at least a 2x2 grid")
    hf = HeightField(np.zeros((rows, cols)), lat_range, lon_range)
    lats = hf.sample_lats()
    lons = hf.sample_lons()
    if kind is SynthKind.FLAT:
        grid = np.full((rows, cols), float(value))
    elif kind is SynthKind.SINGLE_PEAK:
        grid = np.zeros((rows, cols))
        r = int(np.argmin(np.abs(lats - peak_lat)))
        c = int(np.argmin(np.abs(lons - peak_lon)))
        grid[r, c] = float(peak_height)
    else:
        if not 0.0 <= amplitude <= 9000.0:
            raise ValueError(f"amplitude must be in [0, 9000], got {amplitude}")
        lat_g, lon_g = np.meshgrid(lats, lons, indexing="ij")
        grid = amplitude * (1.0 + np.sin(frequency * lat_g) * np.cos(frequency * lon_g)) / 2.0
    return _clamped_field(grid, lat_range, lon_range)


def _clamped_field(grid: np.ndarray, lat_range: tuple[float, float],
                   lon_range: tuple[float, float], nodata: float = -9999.0) -> HeightField:
    """HeightField over ``grid``, a float array the caller owns, with its
    samples clamped in place to HEIGHT_CLAMP once HeightField has checked
    that they are finite (so +-inf is rejected, not clamped)."""
    hf = HeightField(grid, lat_range, lon_range, nodata)
    np.clip(hf.samples, *HEIGHT_CLAMP, out=hf.samples)
    return hf


def _parse_header_text(text: str, source: str) -> dict:
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                continue
            key, val = parts
        values[key.strip().lower()] = val.strip()
    values.setdefault("nodata", "-9999")

    def invalid(key, why):
        return IngestError(f"{source}: header field '{key}' = {values[key]!r} {why}")

    parsed = {}
    for key in ("nrows", "ncols", "ulxmap", "ulymap", "xdim", "ydim", "nodata"):
        if key not in values:
            raise IngestError(f"{source}: missing header field '{key}'")
        try:
            parsed[key] = float(values[key])
        except ValueError:
            raise invalid(key, "is not a number") from None
        if not math.isfinite(parsed[key]):
            raise invalid(key, "is not finite")
    for key in ("nrows", "ncols"):
        if parsed[key] < 1 or not parsed[key].is_integer():
            raise invalid(key, "is not a positive integer")
        parsed[key] = int(parsed[key])
    # only a one-sample axis may have spacing 0 (write_heightfield writes that)
    for key, count in (("xdim", "ncols"), ("ydim", "nrows")):
        if parsed[key] < 0:
            raise invalid(key, "is negative")
        if parsed[key] == 0 and parsed[count] > 1:
            raise invalid(key, f"is zero with {count} = {parsed[count]}")
    return parsed


def load_heightfield(path) -> HeightField:
    """Read a heightfield: either the portable container (8-byte magic,
    length-prefixed text header, little-endian float64 samples) or a raw
    big-endian int16 grid with a text sidecar header.  Nodata samples map to
    sea level, non-finite samples are rejected and heights are clamped to
    [-500, 9000]."""
    path = Path(path)
    blob = path.read_bytes()
    if blob.startswith(PORTABLE_MAGIC):
        off = len(PORTABLE_MAGIC)
        if len(blob) < off + 4:
            raise IngestError(f"{path}: truncated header length")
        (hdr_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        if len(blob) < off + hdr_len:
            raise IngestError(f"{path}: truncated header ({hdr_len} bytes declared)")
        header, header_path = blob[off:off + hdr_len], path
        off += hdr_len
        dtype = np.dtype("<f8")
    else:
        header_path = next((candidate for candidate in
                            (path.with_suffix(".hdr"), path.with_suffix(".HDR"))
                            if candidate.exists()), None)
        if header_path is None:
            raise IngestError(f"{path}: no sidecar header ({path.with_suffix('.hdr')})")
        header = header_path.read_bytes()
        off = 0
        dtype = np.dtype(">i2")
    try:
        header = header.decode("utf-8")
    except UnicodeDecodeError:
        raise IngestError(f"{header_path}: header is not UTF-8 text") from None
    hdr = _parse_header_text(header, str(header_path))

    shape = hdr["nrows"], hdr["ncols"]
    expected = shape[0] * shape[1] * dtype.itemsize
    if len(blob) - off != expected:
        raise IngestError(
            f"{path}: payload is {len(blob) - off} bytes but header field "
            f"'nrows' x 'ncols' implies {expected}")
    grid = np.frombuffer(blob, dtype=dtype, offset=off).astype(float).reshape(shape)
    grid[grid == hdr["nodata"]] = 0.0
    # ulymap/ulxmap locate the first (north-west) sample; spacing in degrees
    lat_range = (math.radians(hdr["ulymap"] - (shape[0] - 1) * hdr["ydim"]),
                 math.radians(hdr["ulymap"]))
    lon_range = (math.radians(hdr["ulxmap"]),
                 math.radians(hdr["ulxmap"] + (shape[1] - 1) * hdr["xdim"]))
    try:
        return _clamped_field(grid, lat_range, lon_range, hdr["nodata"])
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


def write_heightfield(hf: HeightField, path) -> None:
    """Write the portable container format."""
    path = Path(path)
    lat_lo, lat_hi = hf.lat_range
    lon_lo, lon_hi = hf.lon_range
    ydim = math.degrees((lat_hi - lat_lo) / (hf.rows - 1)) if hf.rows > 1 else 0.0
    xdim = math.degrees((lon_hi - lon_lo) / (hf.cols - 1)) if hf.cols > 1 else 0.0
    # the first (north-west) sample, which is lat_hi/lon_lo unless its axis
    # has one sample, in the middle of its range
    ulx = math.degrees(hf.sample_lons()[0])
    uly = math.degrees(hf.sample_lats()[0])
    header = (f"nrows={hf.rows}\nncols={hf.cols}\n"
              f"ulxmap={ulx!r}\nulymap={uly!r}\n"
              f"xdim={xdim!r}\nydim={ydim!r}\nnodata={hf.nodata!r}\n").encode()
    with open(path, "wb") as fh:
        fh.write(PORTABLE_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(hf.samples, dtype="<f8").tobytes())


def classify_tile(tile: GeoTile, frustum: Frustum, params: GeodeticParams,
                  method: Method, cull: CullConfig, *, planes: int | None = None
                  ) -> Classification | tuple[Classification, int]:
    """Classify one tile with the chosen method.

    Without ``planes`` the result is the tile's ``Classification``.  With a
    plane mask (bit k for ``frustum.planes[k]``) the result is
    ``(classification, straddled)``: the analytic test runs only the planes
    whose bit is set and reports which of them the image straddles.  AABB8
    ignores the mask and reports all six planes, because the corner hull of a
    child tile is not nested in its parent's.
    """
    h_lo, h_hi = tile.height_range
    lat_lo, lat_hi = tile.lat_range
    lon_lo, lon_hi = tile.lon_range
    c0 = params.radius_m + 0.5 * (h_lo + h_hi)
    c1 = 0.5 * (lat_lo + lat_hi)
    c2 = 0.5 * (lon_lo + lon_hi)
    hw0 = 0.5 * (h_hi - h_lo)
    hw1 = 0.5 * (lat_hi - lat_lo)
    hw2 = 0.5 * (lon_hi - lon_lo)
    if method is Method.ANALYTIC_BIN:
        f = cull.inflation
        hw0, hw1, hw2 = f * hw0, f * hw1, f * hw2
        value, jac, h_x, h_y, h_z = _sphere_jet_rows(c0, c1, c2)
        result = _classify_bin_scalars(value, jac, h_x, h_y, h_z,
                                       -hw0, -hw1, -hw2, hw0, hw1, hw2,
                                       frustum, cull.extrema_mode,
                                       ALL_PLANES if planes is None else planes)
    elif method is Method.AABB8:
        box = world_aabb_of_bin(_sphere_point_rows, (c0, c1, c2),
                                Box3._from_floats(-hw0, -hw1, -hw2, hw0, hw1, hw2))
        result = classify_aabb8(box, frustum), ALL_PLANES
    else:
        raise ValueError(f"method must be a Method, got {method!r}")
    return result[0] if planes is None else result


def traverse(frustum: Frustum, cfg: TerrainConfig, pyramid: MinMaxPyramid,
             params: GeodeticParams, method: Method,
             sink=None) -> tuple[list[GeoTile], TraversalStats]:
    """Depth-first visibility traversal from the start-level grid.

    The grid is ``pyramid.start_grid(cfg.start_level)``, built once per
    pyramid and level; ``method`` must be a ``Method``.  OUTSIDE tiles are
    pruned; INSIDE tiles are emitted without visiting their subtree;
    straddling tiles recurse until max_level, where they are emitted as
    visible leaves.  ``sink(tile, classification)``, when given,
    observes every classified tile.

    Each stacked tile carries a plane mask (Assarsson & Moeller's plane
    masking): start-grid tiles test all six planes, and the children of an
    INTERSECT tile test only the planes it straddled, since a child's
    parameter bin lies inside its parent's.  The analytic test skips the
    other planes; AABB8 always tests all six.
    """
    if pyramid.max_level < cfg.max_level:
        raise ValueError("pyramid is shallower than cfg.max_level")
    if (pyramid.lat_range, pyramid.lon_range) != (cfg.lat_range, cfg.lon_range):
        raise ValueError("pyramid was built over other lat/lon ranges than cfg")
    if not isinstance(method, Method):
        raise ValueError(f"method must be a Method, got {method!r}")
    t0 = time.perf_counter_ns()
    max_level = cfg.max_level
    cull = cfg.cull
    visible: list[GeoTile] = []
    outside = inside = intersect = leaves = depth = 0
    outside_cls, inside_cls = Classification.OUTSIDE, Classification.INSIDE
    stack = list(zip(reversed(pyramid.start_grid(cfg.start_level)), repeat(ALL_PLANES)))
    # classify_tile and subdivide are looked up per call, so that wrappers
    # installed on the module see every tile
    while stack:
        tile, planes = stack.pop()
        cls, straddled = classify_tile(tile, frustum, params, method, cull,
                                       planes=planes)
        level = tile.level
        if level > depth:
            depth = level
        if sink is not None:
            sink(tile, cls)
        if cls is outside_cls:
            outside += 1
        elif cls is inside_cls:
            inside += 1
            visible.append(tile)
        else:
            intersect += 1
            if level < max_level:
                a, b, c, d = subdivide(tile, pyramid)
                stack += ((d, straddled), (c, straddled), (b, straddled), (a, straddled))
            else:
                leaves += 1
                visible.append(tile)
    stats = TraversalStats(visited=outside + inside + intersect, outside=outside,
                           inside=inside, intersect=intersect,
                           leaves_rendered=inside + leaves, max_depth_reached=depth,
                           elapsed_ns=time.perf_counter_ns() - t0)
    return visible, stats
