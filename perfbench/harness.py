"""One benchmark run: set-up timing, closed-loop passes, checks, metrics.

The load is one closed-loop client in one thread: each pass is one
``abincull run`` or ``abincull compare`` call through ``abincull.cli.main``,
and its frames traverse one after another.  A trace-0 run wraps only
``abincull.cli.traverse``, to read each traversal's time and counts; a
trace-1 run first repeats pass 0 untraced, then wraps every layer boundary
in ``TRACE_TARGETS`` and reports per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics as M
from .tracing import SpanLog, Target, patched
from .workloads import AABB8, EXACT, WORKLOADS, Workload

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 2
SETUP_FIRST_REPS = 3
SETUP_SHARE = 0.1     # of the measuring window spent on set-up repetitions
REPLAY_SAMPLES = 1000

TRAVERSE = Target("abincull.cli", "traverse", "terrain.traverse")
TRACE_TARGETS = (
    Target("abincull.cli", "run_scenario", "cli.run"),
    Target("abincull.cli", "run_compare", "cli.compare"),
    Target("abincull.cli", "load_scenario", "cli.load_scenario"),
    Target("abincull.scenario:Scenario", "build_heightfield", "terrain.heightfield"),
    Target("abincull.cli", "build_minmax_pyramid", "terrain.pyramid"),
    Target("abincull.cli", "frustum_from_camera", "frustum.build"),
    TRAVERSE,
    Target("abincull.terrain", "classify_tile", "terrain.classify_tile"),
    Target("abincull.terrain", "subdivide", "terrain.subdivide"),
    Target("abincull.terrain", "world_aabb_of_bin", "baseline.corner_map"),
    Target("abincull.terrain", "classify_aabb8", "baseline.corner_test"),
    Target("abincull.cli", "classify_tile", "cli.start_grid"),
    Target("abincull.cli", "sample_oracle", "baseline.oracle"),
    Target("abincull.cli", "compare_classifications", "baseline.compare"),
    Target("abincull.baseline:ComparisonReport", "to_json", "baseline.to_json"),
    Target("abincull.baseline:ComparisonReport", "to_csv", "baseline.to_csv"),
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot measure this checkout."""


@dataclass
class Traversal:
    frame: int
    method: str
    seconds: float
    visited: int
    outside: int
    inside: int
    intersect: int
    leaves: int


@dataclass
class Pass:
    index: int
    traced: bool
    wall_s: float = 0.0
    traversals: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    unsound: dict = field(default_factory=dict)


class Recorder:
    """Hooks that turn spans into per-traversal records and replay samples."""

    def __init__(self, log: SpanLog, workload: Workload, seed: int):
        self.log = log
        self.methods = workload.methods
        self.traverse_calls = 0
        self.stats = []           # traversal stats in call order
        self.pyramid = None       # the last pyramid a traced pass built
        self.oracle_outside = 0
        self.samples = []         # classify_tile arguments for the replay
        self._seen = 0
        self._rng = random.Random(seed)
        log.before["terrain.traverse"] = self._before_traverse
        log.after["terrain.traverse"] = self._after_traverse

    def enable_layers(self) -> None:
        self.log.before["frustum.build"] = self._next_frame
        self.log.after["terrain.pyramid"] = self._after_pyramid
        self.log.after["baseline.oracle"] = self._after_oracle
        self.log.before["terrain.classify_tile"] = self._sample_tile

    def _before_traverse(self, args, kwargs):
        self.log.current_tag = self.traverse_calls % len(self.methods)
        self.traverse_calls += 1

    def _after_traverse(self, args, kwargs, result):
        self.log.current_tag = -1
        self.stats.append(result[1])

    def _next_frame(self, args, kwargs):
        self.log.frame_id += 1

    def _after_pyramid(self, args, kwargs, result):
        self.pyramid = result

    def _after_oracle(self, args, kwargs, result):
        if getattr(result, "value", result) == "OUTSIDE":
            self.oracle_outside += 1

    def _sample_tile(self, args, kwargs):
        # reservoir sample, so the replay draws evenly from the whole run
        self._seen += 1
        if len(self.samples) < REPLAY_SAMPLES:
            self.samples.append(args)
        else:
            k = self._rng.randrange(self._seen)
            if k < REPLAY_SAMPLES:
                self.samples[k] = args


# ---------------------------------------------------------------------------
# host facts and digests
# ---------------------------------------------------------------------------

def host_facts(root: Path) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def output_digests(out: Path) -> dict:
    """SHA-256 of stats.csv, of the visible sets and of compare_report.json."""
    def digest(paths):
        if not paths:
            return "absent"
        h = hashlib.sha256()
        for p in paths:
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    return {
        "stats.csv": digest([p for p in [out / "stats.csv"] if p.exists()]),
        "visible": digest(sorted(out.glob("visible_*.json"))),
        "compare_report.json": digest([p for p in [out / "compare_report.json"]
                                       if p.exists()]),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _check_pass(p: Pass, workload: Workload, out: Path, rc: int,
                new_stats, durations) -> None:
    """Attribute traversals to (frame, method) and count failed operations.

    An operation is one (frame, method) traversal or one oracle check (the
    soundness check of one tile a traversal pruned, per method).
    """
    methods = workload.methods
    expected = workload.frames_per_pass * len(methods)
    p.attempted = expected
    if rc not in (0, 1) or (rc == 1 and workload.mode != "compare"):
        p.failed = p.attempted
        p.problems.append(f"exit status {rc}")
        return
    if len(new_stats) != expected or len(durations) != expected:
        raise BenchmarkError(
            f"pass {p.index}: saw {len(new_stats)} traversals, expected "
            f"{expected}; the frame probe on abincull.cli.traverse no longer "
            f"matches the program")
    for k, (st, seconds) in enumerate(zip(new_stats, durations)):
        t = Traversal(k // len(methods), methods[k % len(methods)], seconds,
                      st.visited, st.outside, st.inside, st.intersect,
                      st.leaves_rendered)
        p.traversals.append(t)
        if t.visited != t.outside + t.inside + t.intersect:
            p.failed += 1
            p.problems.append(f"frame {t.frame} {t.method}: visited != "
                              f"outside + inside + intersect")
    if workload.mode == "run":
        _check_run_outputs(p, out)
    else:
        _check_compare_outputs(p, out)


def _check_run_outputs(p: Pass, out: Path) -> None:
    with open(out / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(p.traversals):
        p.failed = p.attempted
        p.problems.append(f"stats.csv has {len(rows)} rows, expected "
                          f"{len(p.traversals)}")
        return
    for row, t in zip(rows, p.traversals):
        got = (int(row["frame"]), row["method"], int(row["visited"]),
               int(row["outside"]), int(row["inside"]), int(row["intersect"]),
               int(row["leaves_rendered"]))
        want = (t.frame, t.method, t.visited, t.outside, t.inside,
                t.intersect, t.leaves)
        visible = out / f"visible_{t.method}_{t.frame}.json"
        tiles = json.loads(visible.read_text())["tiles"] if visible.exists() else None
        if got != want or tiles is None or len(tiles) != t.leaves:
            p.failed += 1
            p.problems.append(f"frame {t.frame} {t.method}: stats.csv or "
                              f"visible set disagrees with the traversal")


def _check_compare_outputs(p: Pass, out: Path) -> None:
    report = json.loads((out / "compare_report.json").read_text())
    intersects = report.get("traversal_intersects", {})
    for t in p.traversals:
        if intersects.get(t.method, {}).get(str(t.frame)) != t.intersect:
            p.failed += 1
            p.problems.append(f"frame {t.frame} {t.method}: report INTERSECT "
                              f"count disagrees with the traversal")
    checks = sum(t.outside for t in p.traversals)
    p.attempted += checks
    counts = report.get("unsound_counts", {})
    p.unsound = dict(counts)
    exact_unsound = counts.get(EXACT, 0)
    if exact_unsound:
        p.failed += exact_unsound
        p.problems.append(f"{EXACT} flagged UNSOUND {exact_unsound} times")


def run_pass(workload: Workload, seed: int, index: int, inputs: Path,
             work: Path, recorder: Recorder, traced: bool) -> Pass:
    from abincull import cli

    scenario = workload.write_pass(seed, index, inputs)
    out = work / f"out{index}{'t' if traced else ''}"
    log = recorder.log
    first_span = len(log.start)
    first_stat = len(recorder.stats)
    recorder.traverse_calls = 0
    argv = [workload.mode, str(scenario), "-o", str(out)]
    gc.collect()
    p = Pass(index, traced)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # the program failed; count it, keep measuring
        p.wall_s = time.perf_counter() - t0
        p.attempted = workload.frames_per_pass * len(workload.methods)
        p.failed = p.attempted
        p.problems.append(f"raised {type(exc).__name__}: {exc}")
        return p
    p.wall_s = time.perf_counter() - t0

    durations = log.durations_s("terrain.traverse", since=first_span)
    _check_pass(p, workload, out, rc, recorder.stats[first_stat:], durations)
    if rc != 0 and not p.problems:
        p.problems.append(sink.getvalue().strip()[-500:])
    p.digests = output_digests(out)
    shutil.rmtree(out, ignore_errors=True)
    return p


class SetupTimer:
    """Times set-up: load the scenario, build the heightfield and pyramid.

    The repetitions are spread over the run instead of done in one burst,
    so their median sees the same drift in host speed as the passes do.
    """

    def __init__(self, scenario_path: Path, inputs: Path):
        self.path = scenario_path
        self.inputs = inputs
        self.times: list[float] = []
        self.in_window = 0.0

    def rep(self) -> float:
        from abincull.scenario import load_scenario
        from abincull.terrain import build_minmax_pyramid

        gc.collect()
        t0 = time.perf_counter()
        scenario = load_scenario(self.path)
        heightfield = scenario.build_heightfield(self.inputs)
        build_minmax_pyramid(heightfield, scenario.terrain)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def keep_up(self, elapsed: float) -> None:
        """Repeat until set-up has used its share of the measuring window."""
        while self.in_window < SETUP_SHARE * elapsed:
            self.in_window += self.rep()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: Workload, setup_times, passes) -> tuple[dict, dict]:
    """End-to-end metric values plus extra facts (tail percentiles)."""
    values, info = {}, {}
    values["setup_s"] = M.median(setup_times)
    values["wall_s"] = M.median([p.wall_s for p in passes])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traversals = [t for p in passes for t in p.traversals]
    if not traversals:
        return values, info   # every pass failed; the rest is absent
    for method in workload.methods:
        ms = [t.seconds * 1e3 for t in traversals if t.method == method]
        values[f"frame_ms_p50.{method}"] = M.median(ms)
        if len(ms) >= 11:
            value, pct = M.tail(ms)
            values[f"frame_ms_tail.{method}"] = value
            info[f"frame_ms_tail.{method}"] = f"p{pct:.1f} of {len(ms)} frames"
        else:
            values[f"frame_ms_tail.{method}"] = M.Absent(
                f"only {len(ms)} frames; a tail needs 11")
    seconds = sum(t.seconds for t in traversals)
    values["tiles_per_s"] = sum(t.visited for t in traversals) / seconds
    inter = {m: sum(t.intersect for t in traversals if t.method == m)
             for m in (EXACT, AABB8)}
    if inter[AABB8]:
        values["intersect_ratio"] = inter[EXACT] / inter[AABB8]
    ratios = []
    for p in passes:
        by = {(t.frame, t.method): t.intersect for t in p.traversals}
        for f in range(workload.frames_per_pass):
            a, b = by.get((f, EXACT)), by.get((f, AABB8))
            if a is not None and b:
                ratios.append(a / b)
    if ratios:
        info["intersect_ratio"] = (f"mean of per-frame ratios "
                                   f"{sum(ratios) / len(ratios):.4f} over "
                                   f"{len(ratios)} frames with AABB8 INTERSECT > 0")
    return values, info


def replay(samples) -> dict:
    """Per-call cost of the single-bin kernels on the run's own tiles."""
    from abincull.cull import inflate_bin, plane_quadratic
    from abincull.mapping import sphere_jet
    from abincull.quadratic import box_extrema_exact, box_extrema_nine_point
    from abincull.terrain import tile_bin

    jets_in, extrema_in = [], []
    for tile, frustum, params, _method, cull in samples:
        center, offsets = tile_bin(tile, params)
        box = inflate_bin(offsets, cull.inflation)
        jets_in.append((params, center))
        jet = sphere_jet(params, center)
        for plane in frustum.planes:
            q, _ = plane_quadratic(jet, plane)
            extrema_in.append((q, box))

    def per_call_us(fn, items):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for args in items:
                fn(*args)
            runs.append((time.perf_counter_ns() - t0) / len(items) / 1e3)
        return M.median(runs)

    return {
        "mapping.sphere_jet_us": per_call_us(sphere_jet, jets_in),
        "quadratic.extrema_exact_us": per_call_us(box_extrema_exact, extrema_in),
        "quadratic.extrema_nine_point_us": per_call_us(box_extrema_nine_point,
                                                      extrema_in),
    }


def per_layer(workload: Workload, recorder: Recorder, missing: dict,
              traced, overhead: float) -> dict:
    table = recorder.log.table()
    calls = len(traced)
    values = {}
    labels = {t.span: t.label for t in TRACE_TARGETS}

    def absent_reason(*spans):
        for span in spans:
            label = labels[span]
            if label in missing:
                return M.Absent(f"{label}: {missing[label]}")
            if table.count(span) == 0:
                return M.Absent(f"{label} never called")
        return None

    def per_call(name, *spans, self_time=False, count=False):
        reason = absent_reason(*spans)
        if reason is not None:
            values[name] = reason
        elif count:
            values[name] = sum(table.count(s) for s in spans) / calls
        else:
            values[name] = sum(table.total_s(s, self_time=self_time)
                               for s in spans) / calls

    per_call("terrain.heightfield_s", "terrain.heightfield")
    per_call("terrain.pyramid_s", "terrain.pyramid")
    pyramid_reason = absent_reason("terrain.pyramid")
    for name, read in (
            ("terrain.pyramid_cells",
             lambda pyr: sum(int(lv[0].size) for lv in pyr.levels)),
            ("terrain.pyramid_empty_tiles", lambda pyr: int(pyr.empty_tiles))):
        try:
            values[name] = pyramid_reason or read(recorder.pyramid)
        except (AttributeError, TypeError) as exc:
            values[name] = M.Absent(f"pyramid result unreadable: {exc}")
    per_call("terrain.traverse_self_s", "terrain.traverse", self_time=True)
    per_call("terrain.subdivide_s", "terrain.subdivide")
    per_call("terrain.subdivide_calls", "terrain.subdivide", count=True)

    traversals = [t for p in traced for t in p.traversals]
    for tag, method in enumerate(workload.methods):
        mine = [t for t in traversals if t.method == method]
        visited = sum(t.visited for t in mine)
        if visited:
            values[f"terrain.visited.{method}"] = visited / len(mine)
            values[f"terrain.intersect.{method}"] = (
                sum(t.intersect for t in mine) / len(mine))
            values[f"terrain.useful_ratio.{method}"] = (
                sum(t.leaves for t in mine) / visited)
        reason = absent_reason("terrain.classify_tile")
        count = table.count("terrain.classify_tile", tag)
        total = table.total_s("terrain.classify_tile", tag)
        if reason is None and count == 0:
            reason = M.Absent(f"no classify_tile spans inside {method} traversals")
        if method == AABB8:
            values["baseline.us_per_tile.AABB8"] = reason or total / count * 1e6
        else:
            values[f"cull.classify_s.{method}"] = reason or total / calls
            values[f"cull.us_per_tile.{method}"] = reason or total / count * 1e6

    try:
        values.update(replay(recorder.samples))
    except (ImportError, AttributeError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        for name in ("mapping.sphere_jet_us", "quadratic.extrema_exact_us",
                     "quadratic.extrema_nine_point_us"):
            values[name] = M.Absent(f"replay failed: {type(exc).__name__}: {exc}")

    per_call("baseline.corner_map_s", "baseline.corner_map")
    per_call("baseline.corner_test_s", "baseline.corner_test")
    if workload.mode == "compare":
        per_call("baseline.oracle_s", "baseline.oracle")
        per_call("baseline.oracle_calls", "baseline.oracle", count=True)
        reason = absent_reason("baseline.oracle")
        n = table.count("baseline.oracle")
        values["baseline.oracle_us_per_call"] = reason or (
            table.total_s("baseline.oracle") / n * 1e6)
        values["baseline.oracle_outside_ratio"] = reason or recorder.oracle_outside / n
        per_call("baseline.report_s", "baseline.compare", "baseline.to_json",
                 "baseline.to_csv")
        per_call("cli.start_grid_s", "cli.start_grid")
        per_call("cli.start_grid_calls", "cli.start_grid", count=True)
        per_call("cli.write_s", "cli.compare", self_time=True)
    else:
        per_call("cli.write_s", "cli.run", self_time=True)
    per_call("cli.load_s", "cli.load_scenario")
    per_call("frustum.build_s", "frustum.build")
    values["trace.overhead"] = overhead
    return values


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(root: Path, workload_name: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """Run one workload and return the full result record."""
    workload = WORKLOADS[workload_name]
    scratch = root / "perfbench" / "_work"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=scratch))
    try:
        return _run(root, workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(root, workload, seed, seconds, trace, work) -> dict:
    inputs = work / "inputs"
    inputs.mkdir()
    workload.prepare(seed, inputs)
    setup = SetupTimer(workload.write_pass(seed, 0, inputs), inputs)
    for _ in range(SETUP_FIRST_REPS):
        setup.rep()
    begin = time.perf_counter()
    deadline = begin + seconds

    def fits(done):
        typical = M.median([p.wall_s for p in done])
        return time.perf_counter() + typical <= deadline

    probe = Recorder(SpanLog(), workload, seed)
    passes, traced, missing = [], [], {}
    with patched(probe.log, [TRAVERSE]) as probe_missing:
        if probe_missing:
            raise BenchmarkError(f"cannot probe traversals: {probe_missing}")
        passes.append(run_pass(workload, seed, 0, inputs, work, probe, False))
        while not trace and (len(passes) < MIN_PASSES or fits(passes)):
            setup.keep_up(time.perf_counter() - begin)
            passes.append(run_pass(workload, seed, len(passes), inputs, work,
                                   probe, False))
    if trace:
        layers = Recorder(SpanLog(), workload, seed)
        layers.enable_layers()
        with patched(layers.log, TRACE_TARGETS) as missing:
            traced.append(run_pass(workload, seed, 0, inputs, work, layers, True))
            while fits(traced):
                traced.append(run_pass(workload, seed, len(traced), inputs,
                                       work, layers, True))

    measured = passes + traced
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_facts(root),
        "passes": len(measured),
        "frames_per_pass": workload.frames_per_pass,
        "methods": list(workload.methods),
        "attempted": sum(p.attempted for p in measured),
        "failed": sum(p.failed for p in measured),
        "problems": [f"pass {p.index}{' traced' if p.traced else ''}: {msg}"
                     for p in measured for msg in p.problems],
        "digests": {"pass0": passes[0].digests,
                    "all": [dict(p.digests, index=p.index, traced=p.traced)
                            for p in measured]},
        "unsound_counts": passes[0].unsound,
        "setup_times_s": setup.times,
        "pass_walls_s": [p.wall_s for p in measured],
    }
    if trace:
        if traced[0].digests != passes[0].digests:
            record["failed"] += traced[0].attempted
            record["problems"].append("traced and untraced pass 0 outputs differ")
        overhead = traced[0].wall_s / passes[0].wall_s
        values = per_layer(workload, layers, missing, traced, overhead)
        catalogue, info = M.PER_LAYER, {}
        record["missing_targets"] = missing
    else:
        values, info = end_to_end(workload, setup.times, passes)
        catalogue = M.END_TO_END
    record["metrics"] = {}
    for metric in catalogue:
        value = M.applies(metric, workload) or values.get(
            metric.name, M.Absent("not measured"))
        entry = {"unit": metric.unit, "better": metric.better}
        if isinstance(value, M.Absent):
            entry["absent"] = value.reason
        else:
            entry["value"] = value
        if metric.name in info:
            entry["note"] = info[metric.name]
        record["metrics"][metric.name] = entry
    return record
