"""Run one abincull benchmark workload and print its metrics.

    python3 perfbench/run.py --workload orbit-run --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is the ``src/abincull`` package
of the checkout this file sits in.  Human-readable lines (host facts, output
digests, every metric including the ones absent on this workload) come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` listed in ``BENCHMARK.json``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The full record
is also written to ``perfbench/results/``.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported: the measured load is one
# client in one thread.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "abincull" / "__init__.py"
    if not package.is_file():
        print(f"error: no abincull package at {package.parent}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, metrics, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import abincull
    if Path(abincull.__file__).resolve().parent != package.parent:
        print(f"error: imported abincull from {abincull.__file__}, not from "
              f"{package.parent}", file=sys.stderr)
        return 2

    try:
        record = harness.run(ROOT, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = ROOT / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print_report(record)
    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    visible = metrics.listed(catalogue, workloads.WORKLOADS.values())
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m.name: {"value": record["metrics"][m.name]["value"],
                             "unit": m.unit}
                    for m in visible if "value" in record["metrics"][m.name]},
    }
    print(json.dumps(line))
    return 0


def print_report(record: dict) -> None:
    host = record["host"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']} "
          f"frames/pass={record['frames_per_pass']} "
          f"methods={','.join(record['methods'])}")
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']} "
          f"commit={host['commit']} src={host['source_sha256'][:16]}")
    for name, digest in sorted(record["digests"]["pass0"].items()):
        print(f"digest pass0 {name}: {digest}")
    if record["unsound_counts"]:
        print(f"UNSOUND flags in pass 0: {record['unsound_counts']}")
    print(f"operations: {record['failed']} failed of {record['attempted']}")
    for problem in record["problems"][:20]:
        print(f"  failed: {problem}")
    for name, entry in record["metrics"].items():
        if "value" in entry:
            shown = f"{entry['value']:.6g} {entry['unit']}"
        else:
            shown = f"absent: {entry['absent']}"
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"  {name:38s} {shown}{note}")


if __name__ == "__main__":
    sys.exit(main())
