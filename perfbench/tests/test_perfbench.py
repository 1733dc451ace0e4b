"""Tests of the benchmark's own code (not of abincull).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, metrics, tracing, workloads  # noqa: E402


# -- tail percentile --------------------------------------------------------

def test_tail_is_eleventh_largest_sample():
    samples = list(range(1, 101))
    value, pct = metrics.tail(list(reversed(samples)))
    assert value == 90
    assert pct == 90.0
    # exactly ten samples lie beyond the tail value
    assert sum(s > value for s in samples) == 10


def test_tail_with_few_samples():
    value, pct = metrics.tail([5.0] * 3 + [1.0] * 8)
    assert value == 1.0
    assert pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        metrics.tail(list(range(10)))


# -- spans and self time ----------------------------------------------------

def test_self_time_subtracts_nested_children(monkeypatch):
    clock = iter([0, 10, 30, 40, 45, 60, 70, 100])
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(clock))
    log = tracing.SpanLog()
    outer, a, b, c = (log.name_id(n) for n in ("outer", "a", "b", "c"))
    i_outer = log.begin(outer)      # [0, 100]
    i_a = log.begin(a)              #   [10, 30]
    log.finish(i_a)
    i_b = log.begin(b)              #   [40, 70]
    i_c = log.begin(c)              #     [45, 60]
    log.finish(i_c)
    log.finish(i_b)
    log.finish(i_outer)
    table = log.table()
    assert list(table.parent) == [-1, i_outer, i_outer, i_b]
    assert list(table.duration) == [100, 20, 30, 15]
    assert list(table.self_time) == [50, 20, 15, 15]
    assert table.total_s("outer", self_time=True) == pytest.approx(50e-9)
    assert table.count("b") == 1 and table.count("missing") == 0


def test_wrapper_records_span_and_hooks():
    log = tracing.SpanLog()
    seen = []
    log.before["f"] = lambda args, kwargs: setattr(log, "current_tag", args[0])
    log.after["f"] = lambda args, kwargs, result: seen.append(result)
    f = log.wrap(lambda x: x * 2, "f")
    assert f(3) == 6 and f(4) == 8
    table = log.table()
    assert table.count("f") == 2 and table.count("f", tag=4) == 1
    assert seen == [6, 8]


def test_wrapper_closes_span_when_call_raises():
    log = tracing.SpanLog()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        log.wrap(boom, "boom")()
    assert log.table().count("boom") == 1
    assert log._open == []


# -- install and restore ----------------------------------------------------

def _owners():
    import abincull.baseline
    import abincull.cli
    import abincull.scenario
    import abincull.terrain
    return (abincull.cli, abincull.terrain, abincull.scenario.Scenario,
            abincull.baseline.ComparisonReport)


def test_patched_restores_every_attribute():
    before = [dict(vars(owner)) for owner in _owners()]
    log = tracing.SpanLog()
    targets = harness.TRACE_TARGETS + (
        tracing.Target("abincull.cli", "no_such_function", "x.missing"),
        tracing.Target("abincull.no_such_module", "f", "x.module"),
    )
    with tracing.patched(log, targets) as missing:
        assert set(missing) == {"abincull.cli.no_such_function",
                                "abincull.no_such_module.f"}
        for t in harness.TRACE_TARGETS:
            owner = tracing._resolve_owner(t.owner)
            assert hasattr(getattr(owner, t.attr), "__wrapped__"), t.label
    after = [dict(vars(owner)) for owner in _owners()]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for key in old:
            assert new[key] is old[key], key


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    pass


def test_patched_removes_wrapper_of_inherited_method():
    log = tracing.SpanLog()
    target = tracing.Target(f"{__name__}:_Child", "method", "child.method")
    with pytest.raises(RuntimeError):
        with tracing.patched(log, [target]):
            assert _Child().method() == "base"
            assert "method" in vars(_Child)
            raise RuntimeError("restore must still happen")
    assert "method" not in vars(_Child)
    assert _Child.method is _Base.method
    assert log.table().count("child.method") == 1


# -- generated inputs -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_per_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    blobs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        wl.prepare(7, d)
        for k in range(3):
            wl.write_pass(7, k, d)
        blobs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert blobs[0] == blobs[1]
    if wl.dem:
        assert {"terrain.dem", "terrain.hdr"} <= blobs[0].keys()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_poses(name):
    wl = workloads.WORKLOADS[name]
    for k in range(3):
        assert wl.scenario(7, k)["cameras"] != wl.scenario(8, k)["cameras"]
    assert wl.scenario(7, 0)["cameras"] != wl.scenario(7, 1)["cameras"]


def test_generated_inputs_parse_and_dem_has_nodata(tmp_path):
    from abincull.scenario import load_scenario
    from abincull.terrain import load_heightfield

    samples = workloads.dem_samples(3)
    assert (samples == workloads.DEM_NODATA).any()
    wl = workloads.WORKLOADS["dem-zoom"]
    wl.prepare(3, tmp_path)
    scenario = load_scenario(wl.write_pass(3, 0, tmp_path))
    assert scenario.terrain.max_level >= 9
    assert len(scenario.cameras) == wl.frames_per_pass
    hf = load_heightfield(tmp_path / workloads.DEM_NAME)
    assert hf.samples.shape == (workloads.DEM_ROWS, workloads.DEM_COLS)
    for name in ("orbit-run", "orbit-compare"):
        wl = workloads.WORKLOADS[name]
        scenario = load_scenario(wl.write_pass(3, 0, tmp_path))
        assert len(scenario.cameras) == wl.frames_per_pass
        assert scenario.methods == wl.methods


# -- the benchmark description ----------------------------------------------

def test_benchmark_json_lists_the_gated_universal_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    every = workloads.WORKLOADS.values()
    for key, catalogue in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        want = [(m.name, m.unit, m.better) for m in metrics.listed(catalogue, every)]
        assert listed == want
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


# -- a traced run survives a renamed layer -----------------------------------

def test_traced_run_reports_renamed_layer_absent(monkeypatch):
    renamed = tuple(
        tracing.Target(t.owner, "subdivide_renamed", t.span)
        if t.span == "terrain.subdivide" else t
        for t in harness.TRACE_TARGETS)
    monkeypatch.setattr(harness, "TRACE_TARGETS", renamed)
    record = harness.run(ROOT, "orbit-run", seed=5, seconds=0, trace=True)
    assert record["failed"] == 0 and record["attempted"] > 0
    entry = record["metrics"]["terrain.subdivide_s"]
    assert "abincull.terrain.subdivide_renamed" in entry["absent"]
    assert "value" in record["metrics"]["cull.classify_s.ANALYTIC_BIN_EXACT"]
    assert record["digests"]["all"][0]["visible"] == record["digests"]["all"][1]["visible"]
