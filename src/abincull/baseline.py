"""The 8-corner world-box baseline and ground-truth sampling oracles.

The baseline maps the 8 parameter-space corners of a bin through the true
mapping and classifies their axis-aligned hull against the frustum by the
signed distances of its corners, of which the p/n-vertex test evaluates the
two that decide each plane.  For curved mappings that hull does not
necessarily enclose the whole image: the bulge between corners can escape
it, which is exactly the failure mode the comparison report flags as
UNSOUND whenever a method claims OUTSIDE for a tile in which the sampling
oracle finds a frustum-contained point.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cull import Classification
from .frustum import Frustum
from .quadratic import Box3

__all__ = [
    "ClassificationRun",
    "UnsoundFlag",
    "ComparisonReport",
    "world_aabb_of_bin",
    "classify_aabb8",
    "sample_oracle",
    "compare_classifications",
]

DEFAULT_ORACLE_LATTICE = (33, 33, 5)


def world_aabb_of_bin(map_fn, center, bin_offsets: Box3) -> Box3:
    """Hull of the true-mapped corners of an (uninflated) bin.

    map_fn receives a sequence of 8 points, the bin's parameter-space corners
    as (r, lat, lon) 3-tuples in ``Box3.corners()`` order, and returns their 8
    world points (an (8, 3) array or a sequence of 3-sequences).  Only the 8
    corners are mapped, so for curved mappings the interior of the image may
    stick out of the returned box.
    """
    c0, c1, c2 = center
    lo0, lo1, lo2, hi0, hi1, hi2 = bin_offsets.bounds
    corners = [(a, b, c) for a in (c0 + lo0, c0 + hi0)
               for b in (c1 + lo1, c1 + hi1) for c in (c2 + lo2, c2 + hi2)]
    xs, ys, zs = zip(*map_fn(corners))
    return Box3((min(xs), min(ys), min(zs)), (max(xs), max(ys), max(zs)))


def classify_aabb8(box: Box3, frustum: Frustum) -> Classification:
    """Corner test of an axis-aligned box against the frustum's six planes.

    Per plane only two corners decide (Greene, "Detecting intersection of a
    rectangular solid and a convex polyhedron", Graphics Gems IV, 1994): the
    n-vertex, which takes ``lo`` on the axes where the normal is >= 0 and
    ``hi`` elsewhere, and the opposite p-vertex.  The box is OUTSIDE when some
    plane's n-vertex distance is > 0 and INSIDE when every p-vertex distance
    is <= 0.  Each distance is x.n - n.p in plain floats; rounding is
    monotone, so the two equal the least and greatest of the 8 corner
    distances computed the same way.  A NaN bound or distance gives
    INTERSECT, as it does in the 8-corner test.
    """
    lo0, lo1, lo2, hi0, hi1, hi2 = box.bounds
    if not (lo0 <= hi0 and lo1 <= hi1 and lo2 <= hi2):  # a NaN bound
        return Classification.INTERSECT
    inside = True
    for n0, n1, n2, off in frustum.plane_offsets:
        if n0 >= 0.0:
            a0, b0 = lo0, hi0
        else:
            a0, b0 = hi0, lo0
        if n1 >= 0.0:
            a1, b1 = lo1, hi1
        else:
            a1, b1 = hi1, lo1
        if n2 >= 0.0:
            a2, b2 = lo2, hi2
        else:
            a2, b2 = hi2, lo2
        if a0 * n0 + a1 * n1 + a2 * n2 - off > 0.0:
            return Classification.OUTSIDE
        if not (b0 * n0 + b1 * n1 + b2 * n2 - off <= 0.0):
            inside = False
    return Classification.INSIDE if inside else Classification.INTERSECT


@lru_cache(maxsize=64)
def _unit_lattice(dims: tuple[int, int, int]) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5]) for n in dims]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


def _oracle_dims(widths, lattice) -> tuple[int, int, int]:
    n_lat, n_lon, n_h = lattice
    dims = []
    for n, w in zip((n_h, n_lat, n_lon), widths):  # bin axes are (r, lat, lon)
        if w == 0.0:
            dims.append(1)
        else:
            if n < 2:
                raise ValueError(
                    f"lattice dims must be >= 2 on non-degenerate axes, got {lattice}")
            dims.append(int(n))
    return tuple(dims)


def sample_oracle(map_fn, center, bin_offsets: Box3, frustum: Frustum,
                  lattice: tuple[int, int, int] = DEFAULT_ORACLE_LATTICE) -> Classification:
    """Classify a bin by densely sampling its true image.

    ``lattice`` gives (n_lat, n_lon, n_height) counts; axes with zero width
    collapse to a single sample.  One-sided by construction: a sampled point
    inside the frustum proves the bin is not fully outside, while an all-out
    sample is strong evidence, not proof, of OUTSIDE.
    """
    lo = bin_offsets.lo
    widths = bin_offsets.hi - lo
    unit = _unit_lattice(_oracle_dims(widths, lattice))
    pts = np.asarray(center, dtype=float) + lo + unit * widths
    inside = frustum.contains_points(np.asarray(map_fn(pts), dtype=float))
    if bool(inside.all()):
        return Classification.INSIDE
    if not bool(inside.any()):
        return Classification.OUTSIDE
    return Classification.INTERSECT


@dataclass(frozen=True)
class ClassificationRun:
    """Per-frame tile classifications produced by one method (or the oracle)."""

    method: str
    frames: dict  # frame index -> {tile_id: Classification}


@dataclass(frozen=True)
class UnsoundFlag:
    frame: int
    tile: str
    method: str
    claimed: str
    oracle: str


@dataclass
class ComparisonReport:
    """Pairwise state table between two methods plus oracle disagreements."""

    method_a: str
    method_b: str
    frame_pairs: dict = field(default_factory=dict)     # frame -> Counter[(sa, sb)]
    aggregate_pairs: Counter = field(default_factory=Counter)
    frame_states: dict = field(default_factory=dict)    # frame -> {tile: (sa, sb, oracle)}
    unsound: list = field(default_factory=list)
    traversal_intersects: dict = field(default_factory=dict)  # method -> {frame: n}

    def add_unsound(self, frame: int, tile: str, method: str,
                    claimed: str, oracle: str) -> None:
        flag = UnsoundFlag(frame, tile, method, claimed, oracle)
        if flag not in self.unsound:
            self.unsound.append(flag)

    def unsound_count(self, method: str) -> int:
        return sum(1 for f in self.unsound if f.method == method)

    def intersect_counts(self, frame: int) -> tuple[int, int]:
        counter = self.frame_pairs[frame]
        a = sum(n for (sa, _), n in counter.items() if sa == "INTERSECT")
        b = sum(n for (_, sb), n in counter.items() if sb == "INTERSECT")
        return a, b

    def intersect_ratio(self, frame: int):
        """INTERSECT count of method A over method B for one frame."""
        a, b = self.intersect_counts(frame)
        return a / b if b else None

    def set_traversal_intersects(self, method: str, frame: int, count: int) -> None:
        self.traversal_intersects.setdefault(method, {})[frame] = count

    def traversal_ratio(self, frame: int):
        a = self.traversal_intersects.get(self.method_a, {}).get(frame)
        b = self.traversal_intersects.get(self.method_b, {}).get(frame)
        if a is None or b is None or b == 0:
            return None
        return a / b

    def to_json(self) -> str:
        frames = {}
        for frame in sorted(self.frame_pairs):
            counter = self.frame_pairs[frame]
            a, b = self.intersect_counts(frame)
            frames[str(frame)] = {
                "pairs": {f"{sa}|{sb}": n for (sa, sb), n in sorted(counter.items())},
                "intersect_a": a,
                "intersect_b": b,
                "intersect_ratio": self.intersect_ratio(frame),
                "traversal_ratio": self.traversal_ratio(frame),
            }
        doc = {
            "method_a": self.method_a,
            "method_b": self.method_b,
            "frames": frames,
            "aggregate_pairs": {f"{sa}|{sb}": n
                                for (sa, sb), n in sorted(self.aggregate_pairs.items())},
            "traversal_intersects": {m: {str(k): v for k, v in sorted(d.items())}
                                     for m, d in sorted(self.traversal_intersects.items())},
            "unsound": [vars(f) for f in self.unsound],
            "unsound_counts": {m: self.unsound_count(m)
                               for m in sorted({f.method for f in self.unsound})},
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["frame", "tile", self.method_a, self.method_b,
                         "oracle", "unsound"])
        flagged = {(f.frame, f.tile, f.method) for f in self.unsound}
        for frame in sorted(self.frame_states):
            for tile in sorted(self.frame_states[frame]):
                sa, sb, so = self.frame_states[frame][tile]
                marks = [m for m in (self.method_a, self.method_b)
                         if (frame, tile, m) in flagged]
                writer.writerow([frame, tile, sa, sb, so, ";".join(marks)])
        return out.getvalue()


def compare_classifications(run_a: ClassificationRun, run_b: ClassificationRun,
                            oracle: ClassificationRun) -> ComparisonReport:
    """Tabulate per-tile state pairs and oracle disagreements.

    All runs must cover identical frames and tile sets; a mismatch means the
    harness fed inconsistent runs and raises.  A method claiming OUTSIDE for
    a tile where the oracle found a contained point is flagged UNSOUND.
    """
    if set(run_a.frames) != set(run_b.frames) or set(run_a.frames) != set(oracle.frames):
        raise ValueError("runs cover different frame sets")
    report = ComparisonReport(run_a.method, run_b.method)
    for frame in sorted(run_a.frames):
        tiles_a = run_a.frames[frame]
        tiles_b = run_b.frames[frame]
        tiles_o = oracle.frames[frame]
        if set(tiles_a) != set(tiles_b) or set(tiles_a) != set(tiles_o):
            raise ValueError(f"tile sets differ at frame {frame}")
        counter = Counter()
        states = {}
        for tile, state_a in tiles_a.items():
            state_b = tiles_b[tile]
            state_o = tiles_o[tile]
            counter[(state_a.value, state_b.value)] += 1
            states[tile] = (state_a.value, state_b.value, state_o.value)
            for method, state in ((run_a.method, state_a), (run_b.method, state_b)):
                if state is Classification.OUTSIDE and state_o is not Classification.OUTSIDE:
                    report.add_unsound(frame, tile, method,
                                       state.value, state_o.value)
        report.frame_pairs[frame] = counter
        report.frame_states[frame] = states
        report.aggregate_pairs.update(counter)
    return report
