#!/usr/bin/env python3
"""Check a results.csv: python3 scripts/check_rows.py CSV ROWS.

Exits 0 when the file has ROWS data rows and every fidelity and step
probability in it is a finite number in [0, 1], and 1 otherwise.
"""
import csv
import math
import sys


def main(path: str, rows: str) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.DictReader(fh))
    values = [float(r[c]) for r in records for c in ("fidelity", "step_probability")]
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if len(records) != int(rows) or bad:
        print(f"{path}: {len(records)} rows (want {rows}), {len(bad)} fidelities or step "
              "probabilities outside [0, 1]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
