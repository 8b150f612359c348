#!/usr/bin/env python3
"""Check a results.csv: python3 scripts/check_rows.py CSV ROWS.

Exits 0 when the file has ROWS data rows, every fidelity and step
probability in it is a finite number in [0, 1], and every field of the
float columns (J to tau, fidelity to log_cum_probability) is the text that
'%.17g' % float(field) gives, and 1 otherwise.  Delta_or_theta may be empty:
the spin star has neither parameter.
"""
import csv
import math
import sys

FLOAT_COLUMNS = ("J", "Delta_or_theta", "tau", "fidelity", "step_probability",
                 "cum_probability", "log_cum_probability")


def _is_g17(field: str) -> bool:
    try:
        return "%.17g" % float(field) == field
    except ValueError:
        return False


def main(path: str, rows: str) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.DictReader(fh))
    values = [float(r[c]) for r in records for c in ("fidelity", "step_probability")]
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    text = [r[c] for r in records for c in FLOAT_COLUMNS
            if not (_is_g17(r[c]) or (c == "Delta_or_theta" and r[c] == ""))]
    if len(records) != int(rows) or bad or text:
        print(f"{path}: {len(records)} rows (want {rows}), {len(bad)} fidelities or step "
              f"probabilities outside [0, 1], {len(text)} float fields not in '%.17g' form"
              + (f" (first {text[0]!r})" if text else ""), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
