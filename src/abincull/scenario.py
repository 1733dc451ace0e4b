"""Scenario files: JSON descriptions of a benchmark run.

A scenario bundles the terrain configuration, a heightfield source (file
path or synthetic spec), the geodetic parameters, an ordered camera list
(one pose per frame, either explicit poses or compact orbit generator
specs that are expanded at parse time), the methods to run, and the oracle
settings.  Validation errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import DEFAULT_ORACLE_LATTICE
from .cull import CullConfig, ExtremaMode
from .frustum import CameraPose
from .mapping import EARTH_RADIUS_M, GeodeticParams
from .terrain import (
    FULL_LAT_RANGE,
    FULL_LON_RANGE,
    HeightField,
    Method,
    SynthKind,
    TerrainConfig,
    load_heightfield,
    synth_heightfield,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "METHOD_NAMES",
    "parse_scenario",
    "load_scenario",
    "orbit_cameras",
]

# CLI-facing method names and their (traversal method, extrema mode) meaning.
METHOD_NAMES = {
    "ANALYTIC_BIN_NINE_POINT": (Method.ANALYTIC_BIN, ExtremaMode.NINE_POINT),
    "ANALYTIC_BIN_EXACT": (Method.ANALYTIC_BIN, ExtremaMode.EXACT),
    "AABB8": (Method.AABB8, None),
}


class ScenarioError(ValueError):
    """Invalid scenario; the message names the JSON path at fault."""


@contextmanager
def _at(path):
    """Re-raise a ``ValueError`` from the block as a ``ScenarioError``
    prefixed with ``path``; a ``ScenarioError`` already names its path."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    geodetic: GeodeticParams
    terrain: TerrainConfig
    heightfield_spec: dict
    cameras: tuple[CameraPose, ...]
    methods: tuple[str, ...]
    oracle_enabled: bool
    oracle_lattice: tuple[int, int, int]

    def build_heightfield(self, base_dir=None) -> HeightField:
        spec = self.heightfield_spec
        if "path" in spec:
            path = spec["path"]
            if base_dir is not None:
                path = Path(base_dir) / path
            return load_heightfield(path)
        with _at("$.terrain.heightfield"):
            return synth_heightfield(**spec)


def orbit_cameras(frames: int, altitude_m: float, radius_m: float = EARTH_RADIUS_M,
                  plane: str = "equatorial", fov_y: float = 1.0,
                  aspect: float = 1.2, near_m: float | None = None,
                  far_m: float | None = None, phase: float = 0.0) -> list[CameraPose]:
    """Nadir-looking cameras evenly spaced along a circular orbit.

    The orbit lies in the equatorial (x-z) or polar (y-z) plane; the up
    hint is the orbit plane normal, so poses vary smoothly along the ring.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if plane not in ("equatorial", "polar"):
        raise ValueError(f"plane must be 'equatorial' or 'polar', got {plane!r}")
    orbit_r = radius_m + altitude_m
    near = near_m if near_m is not None else max(1.0, altitude_m / 100.0)
    far = far_m if far_m is not None else 3.0 * altitude_m
    poses = []
    for k in range(frames):
        ang = phase + 2.0 * math.pi * k / frames
        if plane == "equatorial":
            eye = np.array([orbit_r * math.sin(ang), 0.0, orbit_r * math.cos(ang)])
            up_hint = np.array([0.0, 1.0, 0.0])
        else:
            eye = np.array([0.0, orbit_r * math.sin(ang), orbit_r * math.cos(ang)])
            up_hint = np.array([1.0, 0.0, 0.0])
        look = -eye / np.linalg.norm(eye)
        poses.append(CameraPose(eye, look, up_hint, fov_y, aspect, near, far))
    return poses


def _expect(obj, key, path, default=None, required=False):
    if key not in obj:
        if required:
            raise ScenarioError(f"{path}: missing required field '{key}'")
        return default
    return obj[key]


def _as_object(value, path, fields):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in value:
        if key not in fields:
            raise ScenarioError(f"{path}.{key}: unknown field")
    return value


def _as_number(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_int(value, path, minimum=None):
    if not _as_number(value, path).is_integer():
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}: expected at least {minimum}, got {value!r}")
    return int(value)


def _as_list(value, path, names, item=_as_number):
    if not isinstance(value, (list, tuple)) or len(value) != len(names):
        raise ScenarioError(f"{path}: expected [{', '.join(names)}]")
    return [item(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _parse_pose(obj, path) -> CameraPose:
    _as_object(obj, path, ("eye", "look_dir", "up_hint", "fov_y", "aspect", "near", "far"))
    with _at(path):
        return CameraPose(
            eye=_as_list(_expect(obj, "eye", path, required=True), f"{path}.eye", "xyz"),
            look_dir=_as_list(_expect(obj, "look_dir", path, required=True),
                              f"{path}.look_dir", "xyz"),
            up_hint=_as_list(_expect(obj, "up_hint", path, default=[0, 1, 0]),
                             f"{path}.up_hint", "xyz"),
            fov_y=_as_number(_expect(obj, "fov_y", path, required=True), f"{path}.fov_y"),
            aspect=_as_number(_expect(obj, "aspect", path, default=1.0), f"{path}.aspect"),
            near=_as_number(_expect(obj, "near", path, required=True), f"{path}.near"),
            far=_as_number(_expect(obj, "far", path, required=True), f"{path}.far"),
        )


def _parse_orbit(obj, path, radius_m) -> list[CameraPose]:
    _as_object(obj, path, ("frames", "altitude_m", "plane", "fov_y", "aspect",
                           "near_m", "far_m", "phase"))
    with _at(path):
        return orbit_cameras(
            frames=_as_int(_expect(obj, "frames", path, required=True), f"{path}.frames"),
            altitude_m=_as_number(_expect(obj, "altitude_m", path, required=True), f"{path}.altitude_m"),
            radius_m=radius_m,
            plane=_expect(obj, "plane", path, default="equatorial"),
            fov_y=_as_number(_expect(obj, "fov_y", path, default=1.0), f"{path}.fov_y"),
            aspect=_as_number(_expect(obj, "aspect", path, default=1.2), f"{path}.aspect"),
            **{key: _as_number(obj[key], f"{path}.{key}")
               for key in ("near_m", "far_m") if obj.get(key) is not None},
            phase=_as_number(_expect(obj, "phase", path, default=0.0), f"{path}.phase"),
        )


def _parse_heightfield(obj, path) -> dict:
    _as_object(obj, path, ("path", "kind", "rows", "cols", "value", "peak_height",
                           "peak_lat", "peak_lon", "amplitude", "frequency"))
    if "path" in obj:
        for key in obj:
            if key != "path":
                raise ScenarioError(f"{path}.{key}: not allowed alongside path")
        if not isinstance(obj["path"], str) or not obj["path"]:
            raise ScenarioError(f"{path}.path: expected a non-empty string, got {obj['path']!r}")
        return {"path": obj["path"]}
    kind = _expect(obj, "kind", path, required=True)
    if kind not in [k.value for k in SynthKind]:
        raise ScenarioError(f"{path}.kind: unknown synthetic kind {kind!r}")
    spec = {"kind": kind}
    for key in obj:
        if key in ("rows", "cols"):
            spec[key] = _as_int(obj[key], f"{path}.{key}", minimum=2)
        elif key != "kind":
            spec[key] = _as_number(obj[key], f"{path}.{key}")
    return spec


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON, applying documented defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"$: malformed JSON: {exc}") from None
    _as_object(doc, "$", ("name", "seed", "geodetic", "terrain", "cameras", "methods",
                          "oracle"))

    name = _expect(doc, "name", "$", required=True)
    if not isinstance(name, str):
        raise ScenarioError(f"$.name: expected a string, got {name!r}")
    seed = _as_int(_expect(doc, "seed", "$", default=0), "$.seed")

    geo_obj = _as_object(_expect(doc, "geodetic", "$", default={}), "$.geodetic",
                         ("radius_m",))
    radius = _as_number(_expect(geo_obj, "radius_m", "$.geodetic",
                                default=EARTH_RADIUS_M), "$.geodetic.radius_m")
    with _at("$.geodetic"):
        geodetic = GeodeticParams(radius)

    terr = _as_object(_expect(doc, "terrain", "$", default={}), "$.terrain",
                      ("start_level", "max_level", "inflation", "lat_range",
                       "lon_range", "heightfield"))
    start_level = _as_int(_expect(terr, "start_level", "$.terrain", default=4),
                          "$.terrain.start_level")
    max_level = _as_int(_expect(terr, "max_level", "$.terrain", default=start_level),
                        "$.terrain.max_level")
    inflation = _as_number(_expect(terr, "inflation", "$.terrain", default=1.1),
                           "$.terrain.inflation")
    lat_range = tuple(_as_list(_expect(terr, "lat_range", "$.terrain", default=FULL_LAT_RANGE),
                               "$.terrain.lat_range", ("lo", "hi")))
    lon_range = tuple(_as_list(_expect(terr, "lon_range", "$.terrain", default=FULL_LON_RANGE),
                               "$.terrain.lon_range", ("lo", "hi")))
    with _at("$.terrain"):
        terrain = TerrainConfig(start_level, max_level, lat_range, lon_range,
                                CullConfig(inflation=inflation))

    hf_spec = _parse_heightfield(
        _expect(terr, "heightfield", "$.terrain", default={"kind": "FLAT"}),
        "$.terrain.heightfield")

    cam_list = _expect(doc, "cameras", "$", required=True)
    if not isinstance(cam_list, list) or not cam_list:
        raise ScenarioError("$.cameras: expected a non-empty list")
    cameras: list[CameraPose] = []
    for k, obj in enumerate(cam_list):
        path = f"$.cameras[{k}]"
        if isinstance(obj, dict) and "orbit" in obj:
            _as_object(obj, path, ("orbit",))
            cameras.extend(_parse_orbit(obj["orbit"], path + ".orbit", radius))
        else:
            cameras.append(_parse_pose(obj, path))

    methods = _expect(doc, "methods", "$", required=True)
    if not isinstance(methods, list) or not methods:
        raise ScenarioError("$.methods: expected a non-empty list")
    for k, m in enumerate(methods):
        if not isinstance(m, str) or m not in METHOD_NAMES:
            raise ScenarioError(f"$.methods[{k}]: unknown method {m!r}; "
                                f"expected one of {sorted(METHOD_NAMES)}")

    oracle = _as_object(_expect(doc, "oracle", "$", default={}), "$.oracle",
                        ("enabled", "lattice"))
    oracle_enabled = _expect(oracle, "enabled", "$.oracle", default=False)
    if not isinstance(oracle_enabled, bool):
        raise ScenarioError(f"$.oracle.enabled: expected true or false, got {oracle_enabled!r}")
    lattice_raw = _expect(oracle, "lattice", "$.oracle", default=DEFAULT_ORACLE_LATTICE)
    lattice = tuple(_as_list(lattice_raw, "$.oracle.lattice", ("n_lat", "n_lon", "n_height"),
                             lambda v, path: _as_int(v, path, minimum=2)))

    return Scenario(name=name, seed=seed, geodetic=geodetic, terrain=terrain,
                    heightfield_spec=hf_spec, cameras=tuple(cameras),
                    methods=tuple(methods), oracle_enabled=oracle_enabled,
                    oracle_lattice=lattice)


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())
