"""Correctness gate for a workload's results.csv.

Every grid point is checked three ways:

- against the compact reference values recorded for the workload's full
  contour grids (bench/reference/<workload>.json, written by
  make_reference.py), so any seed is covered;
- rank-1 XX (d = 2..5) and rank-1 bilinear-biquadratic d=3 single-target
  points against the closed forms in zenocool.oracles, row by row;
- invariants: 0 <= F <= 1, 0 < p <= 1, and cum_probability equal to the
  product of the step probabilities (to exp(log_cum_probability) where the
  CSV records only some rounds).

All comparisons use TOL = 1e-8, relative to magnitudes above one.  A point
that misses any check counts as failed.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from zenocool.oracles import fidelity_bbh_rank1_d3, fidelity_xx_rank1
from zenocool.sweeps import COLUMNS

TOL = 1e-8
KEY_COLUMNS = COLUMNS[:COLUMNS.index("N_step")]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    worst_reference_dev: float = 0.0
    worst_oracle_dev: float = 0.0
    failures: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.worst_reference_dev = max(self.worst_reference_dev, other.worst_reference_dev)
        self.worst_oracle_dev = max(self.worst_oracle_dev, other.worst_oracle_dev)
        self.failures.extend(other.failures)


def read_points(csv_path) -> dict[str, list[dict]]:
    """Rows of results.csv grouped by grid point, in file order."""
    points: dict[str, list[dict]] = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = "|".join(row[c] for c in KEY_COLUMNS)
            points.setdefault(key, []).append(row)
    return points


def summarize(rows: list[dict]) -> dict:
    """Compact per-point values: final-round fidelities and log probability, and means."""
    live = [r for r in rows if r["extinct"] == "0"]
    dead = [int(r["N_step"]) for r in rows if r["extinct"] == "1"]
    last = max((int(r["N_step"]) for r in live), default=0)
    final = [r for r in live if int(r["N_step"]) == last]

    def mean(column):
        return sum(float(r[column]) for r in live) / len(live) if live else 0.0

    return {
        "rows": len(rows),
        "last_step": last,
        "extinct_step": dead[0] if dead else 0,
        "final_fidelity": [float(r["fidelity"]) for r in final],
        "final_log_cum": float(final[0]["log_cum_probability"]) if final else 0.0,
        "mean_fidelity": mean("fidelity"),
        "mean_step_probability": mean("step_probability"),
        "mean_log_cum": mean("log_cum_probability"),
    }


def _dev(value: float, ref: float) -> float:
    if math.isnan(value) or math.isnan(ref):
        return 0.0 if math.isnan(value) and math.isnan(ref) else math.inf
    return abs(value - ref) / max(1.0, abs(ref))


def reference_deviation(summary: dict, ref: dict) -> float:
    """Largest scaled deviation between two summaries; inf when counts differ."""
    worst = 0.0
    for name, want in ref.items():
        got = summary.get(name)
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                return math.inf
            worst = max([worst] + [_dev(g, w) for g, w in zip(got, want)])
        elif isinstance(want, int):
            if got != want:
                return math.inf
        else:
            worst = max(worst, _dev(got, want))
    return worst


def oracle_deviation(rows: list[dict]) -> float:
    """Largest |F - closed form| over the rows, or 0.0 when no closed form applies."""
    first = rows[0]
    model, d, L, k = first["model"], int(first["d"]), int(first["L"]), int(first["k"])
    if L != 1 or k != 1:
        return 0.0
    jtau = float(first["J"]) * float(first["tau"])
    if model == "xxz" and float(first["Delta_or_theta"]) == 0.0 and 2 <= d <= 5:
        exact = lambda n: fidelity_xx_rank1(d, n, jtau)
    elif model == "bbh" and d == 3:
        theta = float(first["Delta_or_theta"])
        exact = lambda n: fidelity_bbh_rank1_d3(n, theta, jtau)
    else:
        return 0.0
    return max((abs(float(r["fidelity"]) - exact(int(r["N_step"])))
                for r in rows if r["extinct"] == "0"), default=0.0)


def invariants_hold(rows: list[dict]) -> bool:
    live = [r for r in rows if r["extinct"] == "0"]
    for r in live:
        f, p, cum = (float(r["fidelity"]), float(r["step_probability"]),
                     float(r["cum_probability"]))
        if not (0.0 <= f <= 1.0 + TOL and 0.0 < p <= 1.0 + TOL and 0.0 <= cum <= 1.0 + TOL):
            return False
        if abs(math.exp(float(r["log_cum_probability"])) - cum) > TOL * cum:
            return False
    steps = sorted({int(r["N_step"]) for r in live} - {0})
    if steps != list(range(1, len(steps) + 1)):
        return True                     # only some rounds recorded: no running product
    product, by_step = 1.0, {int(r["N_step"]): r for r in live}
    for n in steps:
        product *= float(by_step[n]["step_probability"])
        if abs(product - float(by_step[n]["cum_probability"])) > TOL * product:
            return False
    return True


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))["points"]


def check_points(points: dict[str, list[dict]], reference: dict, expected: int) -> CheckResult:
    """Check every point; points the sweep should have written but did not count as failed."""
    result = CheckResult(attempted=max(expected, len(points)))
    result.failed = max(0, expected - len(points))
    if result.failed:
        result.failures.append(f"{result.failed} grid points missing from results.csv")
    for key, rows in points.items():
        ref = reference.get(key)
        ref_dev = math.inf if ref is None else reference_deviation(summarize(rows), ref)
        ora_dev = oracle_deviation(rows)
        result.worst_reference_dev = max(result.worst_reference_dev, ref_dev)
        result.worst_oracle_dev = max(result.worst_oracle_dev, ora_dev)
        ok = invariants_hold(rows)
        if not (ref_dev <= TOL and ora_dev <= TOL and ok):
            result.failed += 1
            result.failures.append(f"{key}: reference dev {ref_dev:.3g}, oracle dev "
                                   f"{ora_dev:.3g}, invariants {'hold' if ok else 'broken'}")
    return result
