"""Metric names, units and the small statistics the benchmark reports.

Every metric the benchmark can print is declared here once.  A metric
applies to a workload when the workload's mode (``run``/``compare``) is in
``modes`` and, for a per-method metric, when the workload runs that method;
otherwise it is reported absent with the reason.  ``BENCHMARK.json`` lists
the metrics that apply to every workload and are ``gated``.

Bulk timings (medians, means, rates) are printed and recorded but not
gated: this host switches between a fast and a slow state for tens of
seconds at a time, so whichever state holds most of a 40 s run decides a
run's median, and ten-seed spreads reached 0.27 (``wall_s``) and 0.37
(``frame_ms_p50``).  The tails sit in the slow state, which nearly every
run visits, and stayed within 0.15.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from .workloads import AABB8, EXACT, NINE_POINT

BOTH = ("run", "compare")
ANALYTIC = (EXACT, NINE_POINT)
ALL_METHODS = (EXACT, NINE_POINT, AABB8)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    modes: tuple[str, ...] = BOTH
    method: str | None = None
    gated: bool = True


@dataclass(frozen=True)
class Absent:
    reason: str


def _per_method(prefix, unit, better, methods):
    return [Metric(f"{prefix}.{m}", unit, better, BOTH, m) for m in methods]


END_TO_END = [
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower", gated=False),
    *[metric for m in ALL_METHODS for metric in (
        Metric(f"frame_ms_p50.{m}", "ms", "lower", BOTH, m, gated=False),
        Metric(f"frame_ms_tail.{m}", "ms", "lower", BOTH, m))],
    Metric("tiles_per_s", "1/s", "higher", gated=False),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("intersect_ratio", "ratio", "lower"),
]

PER_LAYER = [
    Metric("terrain.heightfield_s", "s", "lower"),
    Metric("terrain.pyramid_s", "s", "lower"),
    Metric("terrain.pyramid_cells", "count", "lower"),
    Metric("terrain.pyramid_empty_tiles", "count", "lower"),
    Metric("terrain.traverse_self_s", "s", "lower"),
    Metric("terrain.subdivide_s", "s", "lower"),
    Metric("terrain.subdivide_calls", "count", "lower"),
    *_per_method("terrain.visited", "tiles/frame", "lower", ALL_METHODS),
    *_per_method("terrain.intersect", "tiles/frame", "lower", ALL_METHODS),
    *_per_method("terrain.useful_ratio", "ratio", "higher", ALL_METHODS),
    *_per_method("cull.classify_s", "s", "lower", ANALYTIC),
    *_per_method("cull.us_per_tile", "us", "lower", ANALYTIC),
    Metric("mapping.sphere_jet_us", "us", "lower"),
    Metric("quadratic.extrema_exact_us", "us", "lower"),
    Metric("quadratic.extrema_nine_point_us", "us", "lower"),
    Metric("baseline.corner_map_s", "s", "lower"),
    Metric("baseline.corner_test_s", "s", "lower"),
    Metric("baseline.us_per_tile.AABB8", "us", "lower", BOTH, AABB8),
    Metric("baseline.oracle_s", "s", "lower", ("compare",)),
    Metric("baseline.oracle_calls", "count", "lower", ("compare",)),
    Metric("baseline.oracle_us_per_call", "us", "lower", ("compare",)),
    Metric("baseline.oracle_outside_ratio", "ratio", "higher", ("compare",)),
    Metric("baseline.report_s", "s", "lower", ("compare",)),
    Metric("cli.start_grid_s", "s", "lower", ("compare",)),
    Metric("cli.start_grid_calls", "count", "lower", ("compare",)),
    Metric("cli.write_s", "s", "lower"),
    Metric("cli.load_s", "s", "lower"),
    Metric("frustum.build_s", "s", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
]


def applies(metric: Metric, workload) -> Absent | None:
    """None when the metric applies to the workload, else why it does not."""
    if workload.mode not in metric.modes:
        return Absent(f"{workload.name} does not use `abincull {metric.modes[0]}`")
    if metric.method is not None and metric.method not in workload.methods:
        return Absent(f"{workload.name} does not run {metric.method}")
    return None


def listed(metrics, workloads) -> list[Metric]:
    """The gated metrics that apply to every workload: those in BENCHMARK.json."""
    return [m for m in metrics
            if m.gated and all(applies(m, w) is None for w in workloads)]


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample; returns (value, percentile), where the
    percentile is the share of samples at or below the value.  Needs at
    least 11 samples.
    """
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(samples) -> float:
    return statistics.median(samples)
