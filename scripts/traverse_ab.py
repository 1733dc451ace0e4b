"""Alternate two checkouts' traversals in one process and compare them.

Usage::

    python3 scripts/traverse_ab.py PARENT CHANGE [--workload dem-zoom]
        [--seed 1] [--passes 1] [--rounds 10]

PARENT and CHANGE are checkout roots, each holding ``src/abincull``.  Both
packages are loaded side by side under the names ``abincull_parent`` and
``abincull_change``, so each one's relative imports resolve inside its own
tree.  The frames are those of a perfbench workload's first ``--passes``
passes for ``--seed``, written to a temporary directory.  Each side builds
its own heightfield, pyramid (one per pass) and frusta once, untimed, and
traverses every frame and method once, so that lazy set-up is done.  Of that
warm-up only each pyramid's first traversal per method is timed: it pays the
lazy per-pyramid set-up that every benchmark pass pays, and is reported on
its own, as each side's median over pyramids; their ratio needs at least 5
pyramids (``--passes 5``) and reads ``n/a`` below that, since one pass gives
one sample per side.

Then each round traverses every frame with every method on both sides, one
traversal of each side after the other per (frame, method), the parent first
in even rounds and the change first in odd ones.  A workload whose mode is
``compare`` traverses with a sink that records every (tile, verdict) pair in
visit order, as ``abincull compare`` does
(``cli._frames(keep_classified=True)``), and formats the tile ids after the
timer stops; other workloads traverse without one, as ``abincull run``
does.  Every traversal's stats (visited, outside, inside, intersect, leaves,
depth), visible tile ids and, with the sink, classification map (tile ids
and verdicts, in order) must be equal on the two sides, or the script stops
with an error.  It prints, per method, each side's median over rounds of ms
per frame, their ratio and the number of rounds the change was faster.
Last, per method and side, it prints the tail by the benchmark's rule
(``perfbench.metrics.tail``, the 11th-largest sample) over every timed
traversal, each pyramid's first included, so that the comparison speaks to
the benchmark's gated ``frame_ms_tail``; it needs at least 11 timed
traversals per method.
Running both sides in one process puts both under the same host load at the
same moments, which separate benchmark runs on a busy host cannot.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_package(root: Path, name: str):
    """``root/src/abincull`` imported as the package ``name``."""
    init = root / "src" / "abincull" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{root}: no src/abincull/__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout's traversal inputs for a list of scenario files, and
    whether its traversals record every classified tile."""

    def __init__(self, root: Path, name: str, scenario_paths: list[Path],
                 keep_classified: bool):
        self.keep_classified = keep_classified
        load_package(root, name)
        self.scenario = importlib.import_module(f"{name}.scenario")
        self.terrain = importlib.import_module(f"{name}.terrain")
        frustum = importlib.import_module(f"{name}.frustum")
        self.frames = []      # (pyramid, params, frustum, {method name: (Method, cfg)})
        for path in scenario_paths:
            sc = self.scenario.load_scenario(path)
            pyramid = self.terrain.build_minmax_pyramid(
                sc.build_heightfield(path.parent), sc.terrain)
            configs = {}
            for method_name in sc.methods:
                method, mode = self.scenario.METHOD_NAMES[method_name]
                cull = sc.terrain.cull
                if mode is not None:
                    cull = dataclasses.replace(cull, extrema_mode=mode)
                configs[method_name] = method, dataclasses.replace(sc.terrain, cull=cull)
            for pose in sc.cameras:
                self.frames.append((pyramid, sc.geodetic,
                                    frustum.frustum_from_camera(pose), configs))

    def traverse(self, frame: int, method_name: str):
        """(seconds, stats tuple, visible ids, classified) of one traversal,
        where ``classified`` lists (tile id, verdict name) in the order the
        sink saw them, or is empty without ``keep_classified``."""
        pyramid, params, frustum, configs = self.frames[frame]
        method, cfg = configs[method_name]
        classified = []
        record = lambda tile, cls: classified.append((tile, cls))
        t0 = time.perf_counter()
        visible, stats = self.terrain.traverse(frustum, cfg, pyramid, params, method,
                                               sink=record if self.keep_classified else None)
        seconds = time.perf_counter() - t0
        return seconds, (stats.visited, stats.outside, stats.inside, stats.intersect,
                         stats.leaves_rendered, stats.max_depth_reached), \
            [tile.tile_id for tile in visible], \
            [(tile.tile_id, cls.name) for tile, cls in classified]


def main(argv=None) -> int:
    from perfbench.metrics import tail
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout root of the parent")
    ap.add_argument("change", type=Path, help="checkout root of the change")
    ap.add_argument("--workload", default="dem-zoom", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.passes < 1 or args.rounds < 1:
        ap.error("--passes and --rounds must be at least 1")

    workload = WORKLOADS[args.workload]
    keep_classified = workload.mode == "compare"
    with tempfile.TemporaryDirectory(prefix="traverse_ab_") as tmp:
        directory = Path(tmp)
        workload.prepare(args.seed, directory)
        paths = [workload.write_pass(args.seed, k, directory) for k in range(args.passes)]
        sides = {side: Side(root, f"abincull_{side}", paths, keep_classified)
                 for side, root in zip(SIDES, (args.parent, args.change))}
    methods = list(sides["parent"].frames[0][3])
    frames = range(len(sides["parent"].frames))
    pyramids = [pyramid for pyramid, *_ in sides["parent"].frames]
    first = {method: {side: [] for side in SIDES} for method in methods}
    timed = {method: {side: [] for side in SIDES} for method in methods}   # ms
    for frame in frames:          # warm-up, which also checks the outputs
        order = SIDES if frame % 2 == 0 else SIDES[::-1]
        for method in methods:
            results = {side: sides[side].traverse(frame, method) for side in order}
            check(frame, method, *(results[side][1:] for side in SIDES))
            if frame == 0 or pyramids[frame] is not pyramids[frame - 1]:
                for side in SIDES:
                    first[method][side].append(1e3 * results[side][0])
                    timed[method][side].append(1e3 * results[side][0])

    per_round = {method: {side: [] for side in SIDES} for method in methods}
    for k in range(args.rounds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        total = {method: dict.fromkeys(SIDES, 0.0) for method in methods}
        for frame in frames:
            for method in methods:
                results = {side: sides[side].traverse(frame, method) for side in order}
                check(frame, method, *(results[side][1:] for side in SIDES))
                for side in SIDES:
                    total[method][side] += results[side][0]
                    timed[method][side].append(1e3 * results[side][0])
        for method in methods:
            for side in SIDES:
                per_round[method][side].append(1e3 * total[method][side] / len(frames))

    compared = ("stats, visible ids and classification maps"
                if keep_classified else "stats and visible ids")
    print(f"{args.workload} seed {args.seed}: {len(frames)} frames x {args.rounds} "
          f"rounds, {compared} equal on every traversal")
    print(f"{'method':<26}{'parent ms/frame':>16}{'change ms/frame':>16}"
          f"{'ratio':>8}  change faster")
    for method in methods:
        parent, change = per_round[method]["parent"], per_round[method]["change"]
        p, c = statistics.median(parent), statistics.median(change)
        wins = sum(b < a for a, b in zip(parent, change))
        print(f"{method:<26}{p:>16.3f}{c:>16.3f}{c / p:>8.3f}  "
              f"{wins} of {args.rounds}")
    count = len(first[methods[0]]["parent"])
    print(f"first traversal per pyramid, lazy set-up included (ms, median of {count}):")
    for method in methods:
        p, c = (statistics.median(first[method][side]) for side in SIDES)
        ratio = f"{c / p:.3f}" if count >= 5 else "n/a"
        print(f"{method:<26}{p:>16.3f}{c:>16.3f}{ratio:>8}")
    count = len(timed[methods[0]]["parent"])
    if count < 11:
        print(f"tail by perfbench's rule: needs 11 timed traversals per method, "
              f"got {count}")
        return 0
    print(f"tail by perfbench's rule over all {count} timed traversals per method, "
          f"first ones included (ms, p{tail(range(count))[1]:.1f}):")
    for method in methods:
        p, c = (tail(timed[method][side])[0] for side in SIDES)
        print(f"{method:<26}{p:>16.3f}{c:>16.3f}{c / p:>8.3f}")
    return 0


def check(frame: int, method: str, parent, change) -> None:
    if parent != change:
        (p_stats, p_ids, p_map), (c_stats, c_ids, c_map) = parent, change
        raise SystemExit(f"frame {frame} {method}: outputs differ; stats "
                         f"{p_stats} vs {c_stats}, {len(p_ids)} vs {len(c_ids)} "
                         f"visible tiles, {len(p_map)} vs {len(c_map)} classified "
                         f"tiles")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO))   # for perfbench
    sys.exit(main())
