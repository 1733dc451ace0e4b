"""Seeded workload inputs: scenario files and, for dem-zoom, a raw DEM.

A run is a sequence of passes.  Each pass is one ``abincull run`` or
``abincull compare`` call on its own scenario file, written before the call
is timed.  Within a pass every pose family is spread evenly around its
orbit; across passes the orbit offsets follow a golden-ratio sequence from
a seeded start, so any prefix of passes covers the orbit evenly and the
per-pass cost barely depends on the seed.  The program only ever sees the
generated files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXACT = "ANALYTIC_BIN_EXACT"
NINE_POINT = "ANALYTIC_BIN_NINE_POINT"
AABB8 = "AABB8"

EARTH_RADIUS_M = 6371000.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The geometry of scenarios/orbit_sinusoidal.json: root ranges offset from
# the cardinal angles so tiles straddle latitude 0 and the cardinal
# longitudes, where the corner hull misses the surface bulge.
ORBIT_TERRAIN = {
    "start_level": 4,
    "max_level": 7,
    "lat_range": [-1.5707963267948966, 1.3744467859455345],
    "lon_range": [-3.141592653589793, 2.945243112740431],
    "inflation": 1.1,
    "heightfield": {"kind": "SINUSOIDAL", "rows": 257, "cols": 513,
                    "amplitude": 2000.0, "frequency": 8.0},
}

# Pose families of the bundled orbit scenario: a wide equatorial orbit at
# 500 km, a polar orbit at 5000 km whose side planes graze the horizon, and
# nadir "skim" poses whose far plane sits just below the terrain.
EQUATORIAL = {"altitude_m": 500000.0, "plane": "equatorial", "fov_y": 2.3589,
              "aspect": 1.0, "near_m": 5000.0, "far_m": 3473726.025466027}
POLAR = {"altitude_m": 5000000.0, "plane": "polar", "fov_y": 1.18524,
         "aspect": 1.0, "near_m": 50000.0, "far_m": 12715108.139532277}
SKIM = {"altitude_m": 500000.0, "plane": "equatorial", "fov_y": 1.2,
        "aspect": 1.0, "near_m": 5000.0, "far_m": 515000.0}

DEM_ROWS, DEM_COLS = 1025, 2049
DEM_NODATA = -9999
DEM_NAME = "terrain.dem"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                     # "run" or "compare"
    methods: tuple[str, ...]
    families: tuple[tuple[dict, int], ...]   # (orbit spec, frames per pass)
    why: str
    stream: int                   # separates the seed streams of workloads
    dem: bool = False

    @property
    def frames_per_pass(self) -> int:
        if self.dem:
            return DEM_FRAMES_PER_PASS
        return sum(n for _, n in self.families)

    def offsets(self, seed: int) -> np.ndarray:
        """Seeded start offset in [0, 1) per pose family."""
        rng = np.random.default_rng([seed, self.stream, 0])
        return rng.random(max(len(self.families), 1))

    def prepare(self, seed: int, directory: Path) -> None:
        """Write the inputs shared by every pass (the DEM, if any)."""
        if self.dem:
            write_dem(seed, directory)

    def scenario(self, seed: int, pass_index: int) -> dict:
        """Scenario document of one pass."""
        if self.dem:
            return dem_scenario(self, seed, pass_index)
        cameras = []
        for (spec, frames), u in zip(self.families, self.offsets(seed)):
            # the n frames of a family are 2*pi/n apart; the pass offset
            # walks the first 1/n of the orbit
            offset = math.fmod(u + pass_index * GOLDEN, 1.0) / frames
            cameras.append({"orbit": {**spec, "frames": frames,
                                      "phase": 2.0 * math.pi * offset}})
        return {
            "name": f"{self.name}-pass{pass_index}",
            "seed": seed,
            "geodetic": {"radius_m": EARTH_RADIUS_M},
            "terrain": ORBIT_TERRAIN,
            "cameras": cameras,
            "methods": list(self.methods),
            "oracle": {"enabled": self.mode == "compare", "lattice": [33, 33, 5]},
        }

    def write_pass(self, seed: int, pass_index: int, directory: Path) -> Path:
        path = Path(directory) / f"pass{pass_index}.json"
        path.write_text(json.dumps(self.scenario(seed, pass_index),
                                   sort_keys=True, indent=2) + "\n")
        return path


DEM_FRAMES_PER_PASS = 32


def dem_scenario(workload: Workload, seed: int, pass_index: int) -> dict:
    """Low-altitude, narrow poses scattered over the DEM."""
    rng = np.random.default_rng([seed, workload.stream, 1, pass_index])
    cameras = []
    for _ in range(DEM_FRAMES_PER_PASS):
        lat = rng.uniform(-1.2, 1.2)
        lon = rng.uniform(-math.pi, math.pi)
        altitude = 9000.0 + rng.uniform(1000.0, 10000.0)
        up_dir = np.array([math.cos(lat) * math.sin(lon), math.sin(lat),
                           math.cos(lat) * math.cos(lon)])
        # tilt the view up to ~0.4 rad off nadir in a random direction
        north = np.array([-math.sin(lat) * math.sin(lon), math.cos(lat),
                          -math.sin(lat) * math.cos(lon)])
        east = np.cross(north, up_dir)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        tilt = rng.uniform(0.0, 0.4)
        across = math.cos(heading) * north + math.sin(heading) * east
        look = -math.cos(tilt) * up_dir + math.sin(tilt) * across
        eye = (EARTH_RADIUS_M + altitude) * up_dir
        cameras.append({
            "eye": [float(v) for v in eye],
            "look_dir": [float(v) for v in look],
            "up_hint": [float(v) for v in across],
            "fov_y": float(rng.uniform(0.15, 0.4)),
            "aspect": 1.5,
            "near": 100.0,
            "far": 60000.0,
        })
    return {
        "name": f"{workload.name}-pass{pass_index}",
        "seed": seed,
        "geodetic": {"radius_m": EARTH_RADIUS_M},
        "terrain": {"start_level": 4, "max_level": 9, "inflation": 1.1,
                    "heightfield": {"path": DEM_NAME}},
        "cameras": cameras,
        "methods": list(workload.methods),
        "oracle": {"enabled": False},
    }


def dem_samples(seed: int) -> np.ndarray:
    """Seeded int16 global terrain with scattered and clustered nodata."""
    rng = np.random.default_rng([seed, 0xDE])
    lat = np.linspace(math.pi / 2, -math.pi / 2, DEM_ROWS)[:, None]
    lon = np.linspace(-math.pi, math.pi, DEM_COLS)[None, :]
    height = np.zeros((DEM_ROWS, DEM_COLS))
    for _ in range(8):
        f_lat, f_lon = rng.integers(1, 24, size=2)
        p_lat, p_lon = rng.uniform(0.0, 2.0 * math.pi, size=2)
        height += rng.uniform(0.3, 1.0) * np.sin(f_lat * lat + p_lat) * np.cos(f_lon * lon + p_lon)
    height = (height - height.min()) / (height.max() - height.min())
    height = -400.0 + 9200.0 * height ** 2 + rng.normal(0.0, 40.0, height.shape)
    samples = np.clip(np.rint(height), -500, 9000).astype(np.int16)
    samples[rng.random(samples.shape) < 0.002] = DEM_NODATA
    r0 = int(rng.integers(0, DEM_ROWS - 64))
    c0 = int(rng.integers(0, DEM_COLS - 128))
    samples[r0:r0 + 64, c0:c0 + 128] = DEM_NODATA
    return samples


def write_dem(seed: int, directory: Path) -> Path:
    """Raw big-endian int16 DEM plus text header covering the whole globe."""
    directory = Path(directory)
    path = directory / DEM_NAME
    path.write_bytes(dem_samples(seed).astype(">i2").tobytes())
    spacing = 360.0 / (DEM_COLS - 1)
    path.with_suffix(".hdr").write_text(
        f"nrows {DEM_ROWS}\nncols {DEM_COLS}\nulxmap -180.0\nulymap 90.0\n"
        f"xdim {spacing!r}\nydim {180.0 / (DEM_ROWS - 1)!r}\nnodata {DEM_NODATA}\n")
    return path


WORKLOADS = {w.name: w for w in (
    Workload(
        name="orbit-run", mode="run", methods=(EXACT, NINE_POINT, AABB8),
        families=((EQUATORIAL, 3), (POLAR, 3), (SKIM, 1)), stream=1,
        why="renderer use: deep orbit traversals where the cull and AABB8 "
            "classification kernels do almost all the work"),
    Workload(
        name="orbit-compare", mode="compare", methods=(EXACT, AABB8),
        families=((EQUATORIAL, 1), (POLAR, 1)), stream=2,
        why="research use: the sampling oracle and the start-grid "
            "re-classification dominate; checks soundness"),
    Workload(
        name="dem-zoom", mode="run", methods=(EXACT, AABB8), families=(),
        stream=3, dem=True,
        why="DEM ingestion and pyramid build dominate set-up; narrow deep "
            "frames where per-call overhead beats kernel throughput"),
)}
