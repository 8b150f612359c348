"""Record the reference values the correctness gate compares against.

Runs each workload over its full 64-point contour grids (every point any
seed can pick) and writes bench/reference/<workload>.json with one compact
summary per grid point (see check.summarize).  The run is refused if any
point misses an oracle or an invariant.  Takes about three minutes on two
cores:

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile

import check
import workloads
from zenocool.sweeps import write_results


def record(workload: str) -> dict:
    specs = workloads.sweeps(workload, seed=None)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, _ = write_results(specs, tmp, workers=1)
        points = check.read_points(csv_path)
    expected = sum(len(spec.grid()) for spec in specs)
    if len(points) != expected:
        raise RuntimeError(f"{workload}: {len(points)} points written, {expected} expected")
    summaries = {}
    for key, rows in points.items():
        ora = check.oracle_deviation(rows)
        if ora > check.TOL or not check.invariants_hold(rows):
            raise RuntimeError(f"{workload}: {key} fails its oracle ({ora:.3g}) or invariants")
        summaries[key] = check.summarize(rows)
    return {"workload": workload, "tolerance": check.TOL, "points": summaries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*",
                        help=f"any of {', '.join(workloads.NAMES)} (default: all)")
    args = parser.parse_args()
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workloads or workloads.NAMES:
        doc = record(name)
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(doc['points'])} points -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
