"""Print sha256 digests of the byte-deterministic outputs of the bundled scenarios.

Runs ``abincull run`` and ``abincull compare`` on smoke, peak_orbit and
orbit_sinusoidal into a temporary directory, then
prints one sha256 per output file (``timings.csv`` excluded: it holds measured
wall times) and one combined digest over all of them.  Each compare's stdout
is digested as ``compare_<scenario>/stdout.txt``.  Two checkouts whose
combined digests agree produce byte-identical outputs.

Before the combined line it prints one ``pyramid_<scenario>`` line per
scenario: the sha256 of every level's ``hmin`` then ``hmax`` as ``<f8``
bytes, level 0 first, and the pyramid's ``empty_tiles``.  These lines are
not part of the combined digest.

    python scripts/output_digests.py              # this checkout
    python scripts/output_digests.py OTHER_CHECKOUT   # its src/ and scenarios/
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

RUNS = (
    ("run", "smoke"),
    ("run", "peak_orbit"),
    ("run", "orbit_sinusoidal"),
    ("compare", "smoke"),
    ("compare", "peak_orbit"),
    ("compare", "orbit_sinusoidal"),
)
UNSTABLE = ("timings.csv",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="repository checkout to run (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout / "src"))
    from abincull.cli import main as abincull_main
    from abincull.scenario import load_scenario
    from abincull.terrain import build_minmax_pyramid

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for command, name in RUNS:
            out = root / f"{command}_{name}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = abincull_main([command, str(args.checkout / "scenarios" / f"{name}.json"),
                                    "-o", str(out)])
            if rc != 0:
                print(f"error: {command} {name} exited {rc}", file=sys.stderr)
                return 1
            if command == "compare":
                (out / "stdout.txt").write_text(stdout.getvalue())

        combined = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.name in UNSTABLE:
                continue
            line = f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}"
            print(line)
            combined.update((line + "\n").encode())

    for name in dict.fromkeys(name for _, name in RUNS):
        path = args.checkout / "scenarios" / f"{name}.json"
        scenario = load_scenario(path)
        pyramid = build_minmax_pyramid(scenario.build_heightfield(path.parent), scenario.terrain)
        levels = hashlib.sha256()
        for hmin, hmax in pyramid.levels:
            levels.update(hmin.astype("<f8").tobytes())
            levels.update(hmax.astype("<f8").tobytes())
        print(f"{levels.hexdigest()}  pyramid_{name}  empty_tiles={pyramid.empty_tiles}")
    print(f"{combined.hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
