"""Scenario files: JSON descriptions of a benchmark run.

A scenario bundles the terrain configuration, a heightfield source (file
path or synthetic spec), the geodetic parameters, an ordered camera list
(one pose per frame, either explicit poses or compact orbit generator
specs that are expanded at parse time), the methods to run, and the oracle
settings.  Validation errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .baseline import DEFAULT_ORACLE_LATTICE
from .cull import CullConfig, ExtremaMode
from .frustum import CameraPose
from .mapping import EARTH_RADIUS_M, GeodeticParams
from .terrain import (
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
    "MAX_ORBIT_FRAMES",
    "MAX_FRAMES",
    "MAX_SAMPLES",
    "MAX_LATTICE_POINTS",
]

# CLI-facing method names and their (traversal method, extrema mode) meaning.
METHOD_NAMES = {
    "ANALYTIC_BIN_NINE_POINT": (Method.ANALYTIC_BIN, ExtremaMode.NINE_POINT),
    "ANALYTIC_BIN_EXACT": (Method.ANALYTIC_BIN, ExtremaMode.EXACT),
    "AABB8": (Method.AABB8, None),
}


# The size budget of a scenario, so that every scenario that parses runs in
# bounded time and memory.  Each frame is one pose held in memory and one
# traversal per method: MAX_ORBIT_FRAMES bounds one orbit entry and
# MAX_FRAMES all camera entries together.  A synthetic heightfield holds
# rows x cols float64 samples (MAX_SAMPLES is 32 MiB of them), and each
# oracle call maps n_lat x n_lon x n_height lattice points.
MAX_ORBIT_FRAMES = 10_000
MAX_FRAMES = 10_000
MAX_SAMPLES = 2048 * 2048
MAX_LATTICE_POINTS = 2 ** 20


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


def _required(obj, key, path):
    if key not in obj:
        raise ScenarioError(f"{path}: missing required field '{key}'")
    return obj[key]


def _as_object(value, path, fields):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in value:
        if key not in fields:
            raise ScenarioError(f"{path}.{key}: unknown field")


def _fields(obj, path, table) -> dict:
    """Check ``obj`` against ``table`` and convert its fields in table order."""
    _as_object(obj, path, table)
    fields = {}
    for key, (convert, default) in table.items():
        value = _required(obj, key, path) if default is _REQUIRED else obj.get(key, default)
        if value is not _OMIT:
            fields[key] = convert(value, f"{path}.{key}")
    return fields


def _as_is(value, path):
    return value


def _as_number(value, path):
    if type(value) is float and math.isfinite(value):  # the common case, checked first
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_number_or_null(value, path):
    return None if value is None else _as_number(value, path)


def _as_int(value, path, minimum=None, maximum=None):
    if not _as_number(value, path).is_integer():
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}: expected at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{path}: expected at most {maximum}, got {value!r}")
    return int(value)


def _as_bool(value, path):
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_list(names, item=_as_number):
    def convert(value, path):
        if not isinstance(value, (list, tuple)) or len(value) != len(names):
            raise ScenarioError(f"{path}: expected [{', '.join(names)}]")
        return tuple([item(v, f"{path}[{k}]") for k, v in enumerate(value)])
    return convert


def _as_kind(value, path):
    if value not in [k.value for k in SynthKind]:
        raise ScenarioError(f"{path}: unknown synthetic kind {value!r}")
    return value


# Tables map a field name to (converter, default).  The default is _REQUIRED, a value
# the parser owns, or _OMIT: a field left out then takes its constructor's default.
_REQUIRED = object()
_OMIT = object()
_AT_LEAST_2 = partial(_as_int, minimum=2)
_FRAMES = partial(_as_int, maximum=MAX_ORBIT_FRAMES)
_POSE = {  # CameraPose, which has no defaults
    "eye": (_as_list("xyz"), _REQUIRED), "look_dir": (_as_list("xyz"), _REQUIRED),
    "up_hint": (_as_list("xyz"), (0, 1, 0)), "fov_y": (_as_number, _REQUIRED),
    "aspect": (_as_number, 1.0), "near": (_as_number, _REQUIRED), "far": (_as_number, _REQUIRED),
}
_ORBIT = {  # orbit_cameras; a null near_m or far_m is derived from the altitude
    "frames": (_FRAMES, _REQUIRED), "altitude_m": (_as_number, _REQUIRED),
    "plane": (_as_is, _OMIT), "fov_y": (_as_number, _OMIT), "aspect": (_as_number, _OMIT),
    "near_m": (_as_number_or_null, _OMIT), "far_m": (_as_number_or_null, _OMIT),
    "phase": (_as_number, _OMIT),
}
_GEODETIC = {"radius_m": (_as_number, _OMIT)}
_TERRAIN = {  # TerrainConfig and its CullConfig; the heightfield is parsed after them
    "start_level": (_as_int, _OMIT), "max_level": (_as_int, _OMIT),
    "inflation": (_as_number, _OMIT), "lat_range": (_as_list(("lo", "hi")), _OMIT),
    "lon_range": (_as_list(("lo", "hi")), _OMIT), "heightfield": (_as_is, {"kind": "FLAT"}),
}
_ORACLE = {"enabled": (_as_bool, False), "lattice": (
    _as_list(("n_lat", "n_lon", "n_height"), _AT_LEAST_2), DEFAULT_ORACLE_LATTICE)}
_SYNTHETIC = {  # synth_heightfield
    "kind": (_as_kind, _REQUIRED), "rows": (_AT_LEAST_2, _OMIT), "cols": (_AT_LEAST_2, _OMIT),
    **dict.fromkeys(("value", "peak_height", "peak_lat", "peak_lon", "amplitude",
                     "frequency"), (_as_number, _OMIT)),
}


_SYNTHETIC_DEFAULTS = inspect.signature(synth_heightfield).parameters


def _within(count, budget, what, path):
    if count > budget:
        raise ScenarioError(f"{path}: {what} is {count}, more than the {budget} allowed")


def _parse_heightfield(obj, path) -> dict:
    if not (isinstance(obj, dict) and "path" in obj):
        spec = _fields(obj, path, _SYNTHETIC)
        rows, cols = (spec.get(key, _SYNTHETIC_DEFAULTS[key].default)
                      for key in ("rows", "cols"))
        _within(rows * cols, MAX_SAMPLES, "rows x cols", path)
        return spec
    _as_object(obj, path, ("path", *_SYNTHETIC))
    for key in obj:
        if key != "path":
            raise ScenarioError(f"{path}.{key}: not allowed alongside path")
    if not isinstance(obj["path"], str) or not obj["path"]:
        raise ScenarioError(f"{path}.path: expected a non-empty string, got {obj['path']!r}")
    return {"path": obj["path"]}


def _frame_count(cam_list) -> int:
    """The poses ``cam_list`` asks for, read from the JSON before any is
    built: each orbit entry's ``frames`` (checked against MAX_ORBIT_FRAMES)
    and one per other entry.  A malformed entry counts once and is rejected
    when it is parsed."""
    count = 0
    for k, obj in enumerate(cam_list):
        orbit = obj.get("orbit") if isinstance(obj, dict) else None
        if isinstance(orbit, dict) and "frames" in orbit:
            count += max(1, _FRAMES(orbit["frames"], f"$.cameras[{k}].orbit.frames"))
        else:
            count += 1
    return count


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON, applying documented defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"$: malformed JSON: {exc}") from None
    _as_object(doc, "$", ("name", "seed", "geodetic", "terrain", "cameras", "methods",
                          "oracle"))

    name = _required(doc, "name", "$")
    if not isinstance(name, str):
        raise ScenarioError(f"$.name: expected a string, got {name!r}")
    seed = _as_int(doc.get("seed", 0), "$.seed")

    with _at("$.geodetic"):
        geodetic = GeodeticParams(**_fields(doc.get("geodetic", {}), "$.geodetic", _GEODETIC))

    terr = _fields(doc.get("terrain", {}), "$.terrain", _TERRAIN)
    if "start_level" in terr:
        terr.setdefault("max_level", terr["start_level"])
    heightfield = terr.pop("heightfield")
    cull = {"inflation": terr.pop("inflation")} if "inflation" in terr else {}
    with _at("$.terrain"):
        terrain = TerrainConfig(**terr, cull=CullConfig(**cull))
    hf_spec = _parse_heightfield(heightfield, "$.terrain.heightfield")

    cam_list = _required(doc, "cameras", "$")
    if not isinstance(cam_list, list) or not cam_list:
        raise ScenarioError("$.cameras: expected a non-empty list")
    _within(_frame_count(cam_list), MAX_FRAMES, "the number of frames", "$.cameras")
    cameras: list[CameraPose] = []
    for k, obj in enumerate(cam_list):
        path = f"$.cameras[{k}]"
        if isinstance(obj, dict) and "orbit" in obj:
            _as_object(obj, path, ("orbit",))
            path += ".orbit"
            with _at(path):
                cameras.extend(orbit_cameras(radius_m=geodetic.radius_m,
                                             **_fields(obj["orbit"], path, _ORBIT)))
        else:
            with _at(path):
                cameras.append(CameraPose(**_fields(obj, path, _POSE)))

    methods = _required(doc, "methods", "$")
    if not isinstance(methods, list) or not methods:
        raise ScenarioError("$.methods: expected a non-empty list")
    for k, m in enumerate(methods):
        if not isinstance(m, str) or m not in METHOD_NAMES:
            raise ScenarioError(f"$.methods[{k}]: unknown method {m!r}; "
                                f"expected one of {sorted(METHOD_NAMES)}")

    oracle = _fields(doc.get("oracle", {}), "$.oracle", _ORACLE)
    _within(math.prod(oracle["lattice"]), MAX_LATTICE_POINTS, "n_lat x n_lon x n_height",
            "$.oracle.lattice")
    return Scenario(name=name, seed=seed, geodetic=geodetic, terrain=terrain,
                    heightfield_spec=hf_spec, cameras=tuple(cameras),
                    methods=tuple(methods), oracle_enabled=oracle["enabled"],
                    oracle_lattice=oracle["lattice"])


def load_scenario(path) -> Scenario:
    try:  # JSON text is UTF-8, whatever the locale's encoding
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"$: not UTF-8 text: {exc}") from None
    return parse_scenario(text)
