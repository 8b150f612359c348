"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""
import copy
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zenocool.sweeps import write_results  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    # samples n..1: the k-th smallest is k, so n - value samples lie beyond it
    for n, pct, value in ((1000, 99.0, 990), (100, 90.0, 90), (42, 75.0, 32), (20, 50.0, 10)):
        assert spans.tail_percentile([float(x) for x in range(n, 0, -1)]) == (pct, value)


def test_tail_falls_back_to_median_below_twenty_samples():
    assert spans.tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)


def _span(i, name, start, end, parent=None, point=None, **extra):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "point": point, **extra}


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, "sweeps.write_results", 0.0, 10.0),
        _span(1, "sweeps.run_sweep", 1.0, 9.0, parent=0, rows=3),
        _span(2, "protocol.zeno_run", 2.0, 5.0, parent=1, point=0, closed=True, rounds=4,
              extinct=False),
        _span(3, "hamiltonians.build", 2.5, 3.0, parent=2, point=0),
        _span(4, "protocol.zeno_run", 6.0, 8.0, parent=1, point=1, closed=True, rounds=4,
              extinct=False),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 2.0, 1: 3.0, 2: 2.5, 3: 0.5, 4: 2.0}
    assert sum(selfs.values()) == 10.0

    m = spans.sweep_metrics(tree)
    assert m["sweeps.emit_s"] == 2.0
    assert m["sweeps.self_s"] == 5.0
    assert m["protocol.zeno_run_s"] == 5.0
    assert m["protocol.self_s"] == 4.5
    assert m["protocol.eig_reuse"] == 0.5               # one build for two closed points
    assert m["sweeps.self_s"] + m["protocol.self_s"] + m["hamiltonians.build_s"] == 10.0


def test_overlapping_children_are_not_subtracted_twice():
    tree = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 4.0, parent=0),
            _span(2, "c", 3.0, 6.0, parent=0), _span(3, "d", 9.0, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == 10.0 - 5.0 - 1.0


def test_tracer_gives_one_point_id_to_a_call_and_its_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("hamiltonians.build", lambda: None)
    outer = tracer.wrap("protocol.zeno_run", lambda: inner(), new_point=True)
    outer()
    outer()
    assert [(s["name"], s["point"], s["parent"]) for s in tracer.spans] == [
        ("protocol.zeno_run", 0, None), ("hamiltonians.build", 0, 0),
        ("protocol.zeno_run", 1, None), ("hamiltonians.build", 1, 2)]


def _fig2_points(tmp_path):
    """Rows of the rank-1 XX sweep (8 points), which have a closed form."""
    specs = [s for s in workloads.sweeps("closed_small", seed=0) if s.preset_id == "fig2"]
    csv_path, _ = write_results(specs, tmp_path, workers=1)
    return check.read_points(csv_path)


def test_reference_comparison_counts_a_perturbed_value_as_failed(tmp_path):
    points = _fig2_points(tmp_path)
    reference = {key: check.summarize(rows) for key, rows in points.items()}
    clean = check.check_points(points, reference, expected=len(points))
    assert (clean.attempted, clean.failed) == (8, 0)
    assert clean.worst_oracle_dev < 1e-10

    key = next(iter(points))
    perturbed = copy.deepcopy(points)
    row = perturbed[key][-1]
    row["log_cum_probability"] = repr(float(row["log_cum_probability"]) * (1 + 1e-6))
    result = check.check_points(perturbed, reference, expected=len(points))
    assert result.failed == 1 and key in result.failures[0]
    assert result.worst_reference_dev > check.TOL

    tiny = copy.deepcopy(points)
    tiny[key][-1]["fidelity"] = repr(float(tiny[key][-1]["fidelity"]) + 1e-12)
    assert check.check_points(tiny, reference, expected=len(points)).failed == 0


def test_oracle_and_invariants_catch_what_the_reference_would_miss(tmp_path):
    points = _fig2_points(tmp_path)
    key = next(iter(points))
    rows = copy.deepcopy(points[key])
    rows[5]["fidelity"] = repr(float(rows[5]["fidelity"]) + 1e-6)
    assert check.oracle_deviation(rows) > check.TOL

    rows = copy.deepcopy(points[key])
    rows[5]["cum_probability"] = repr(float(rows[5]["cum_probability"]) * (1 + 1e-6))
    assert not check.invariants_hold(rows)
    assert check.invariants_hold(points[key])


def test_missing_and_unknown_points_fail(tmp_path):
    points = _fig2_points(tmp_path)
    reference = {key: check.summarize(rows) for key, rows in points.items()}
    missing = dict(list(points.items())[1:])
    assert check.check_points(missing, reference, expected=8).failed == 1
    unknown = check.check_points(points, dict(list(reference.items())[1:]), expected=8)
    assert unknown.failed == 1 and math.isinf(unknown.worst_reference_dev)


def test_seed_picks_one_contour_value_per_stratum():
    for name in workloads.NAMES:
        a, b = workloads.sweeps(name, 1), workloads.sweeps(name, 2)
        assert [len(s.grid()) for s in a] == [len(s.grid()) for s in b]
        assert workloads.requested_rounds(a) == workloads.requested_rounds(b)
        assert workloads.sweeps(name, 1) == a
    xxz = workloads.sweeps("closed_large", 7)[0].jtau_axis
    assert all(16 * i <= round(x / (2 * math.pi / 63)) < 16 * (i + 1) for i, x in enumerate(xxz))


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = json.loads((BENCH / "metrics.json").read_text())
    for part in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in declared[part]}
        assert list(listed) == list(metrics[part])
        for name, spec in metrics[part].items():
            assert listed[name]["unit"] == spec["unit"]
            assert listed[name]["better"] == spec["better"]
            if part == "end_to_end":
                assert listed[name]["bound"] == spec["bound"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in declared["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
