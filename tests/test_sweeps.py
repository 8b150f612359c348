import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenocool import (
    ConfigError,
    ExtinctionError,
    ProtocolConfig,
    SweepSpec,
    SystemLayout,
    XXZSpec,
    classify_regions,
    fidelity_xx_rank1,
    run_sweep,
    write_results,
    zeno_run,
)
from zenocool.cli import main
from zenocool.presets import PRESETS, preset_sweeps
from zenocool.sweeps import COLUMNS, load_config, parse_config, spec_manifest

MINIMAL = {
    "base": {"topology": "chain", "model": "xxz", "d": 3, "L": 1,
             "J": 1.0, "h": 1.0, "Delta": 0.0, "tau": 1.2, "N": 10, "k": 1},
}


def write_json(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_rows(csv_path):
    with open(csv_path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_minimal_config_rows_and_oracle(tmp_path):
    path = write_json(tmp_path, MINIMAL)
    csv_path, manifest_path = write_results([load_config(path)], tmp_path / "out")
    rows = read_rows(csv_path)
    assert len(rows) == 10
    final = float(rows[-1]["fidelity"])
    assert final == pytest.approx(fidelity_xx_rank1(3, 10, 1.2), abs=1e-8)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["rows"] == 10
    assert manifest["columns"] == list(COLUMNS)
    assert manifest["sweeps"][0]["base"]["model"] == "xxz"


def test_empty_axis_names_the_axis(tmp_path):
    doc = dict(MINIMAL, axes={"Jtau": []})
    with pytest.raises(ConfigError, match="axes.Jtau"):
        load_config(write_json(tmp_path, doc))


def test_schema_violations_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="base.model"):
        parse_config({"base": dict(MINIMAL["base"], model="xy")})
    with pytest.raises(ConfigError, match="base.N"):
        parse_config({"base": {k: v for k, v in MINIMAL["base"].items() if k != "N"}})
    with pytest.raises(ConfigError, match="axes.bogus"):
        parse_config(dict(MINIMAL, axes={"bogus": [1]}))
    with pytest.raises(ConfigError, match="base"):
        parse_config({"base": dict(MINIMAL["base"], k=7)})
    with pytest.raises(ConfigError, match="theta"):
        parse_config(dict(MINIMAL, axes={"theta": [0.1]}))


def test_rerun_is_byte_identical(tmp_path):
    path = write_json(tmp_path, dict(MINIMAL, axes={"Jtau": [0.4, 1.2], "N": [3, 7]}))
    csv1, _ = write_results([load_config(path)], tmp_path / "a")
    csv2, _ = write_results([load_config(path)], tmp_path / "b")
    assert csv1.read_bytes() == csv2.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    spec = parse_config(dict(MINIMAL, axes={"Jtau": [0.4, 0.9, 1.7], "N": [2, 5]}))
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=3)
    assert serial == parallel


def test_run_sweep_caps_workers_at_grid_points(monkeypatch):
    """A pool starts one process per grid point at most, each on one BLAS thread; one point
    runs in-process."""
    import zenocool.sweeps as sweeps

    opened = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            assert initializer is sweeps._one_blas_thread
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    two = parse_config(dict(MINIMAL, axes={"Jtau": [0.4, 1.2]}))
    assert run_sweep(two, workers=64) == run_sweep(two, workers=1)
    assert opened == [2]
    run_sweep(parse_config(MINIMAL), workers=64)
    assert opened == [2]


def test_theta_sweep_keeps_one_eigendecomposition():
    from zenocool.protocol import _sector_eigh

    base = {key: value for key, value in MINIMAL["base"].items() if key != "Delta"}
    doc = {"base": dict(base, model="bbh", N=2), "axes": {"theta": [0.1, 0.2, 0.3]}}
    run_sweep(parse_config(doc))
    assert _sector_eigh.cache_info().currsize == 1


def test_jtau_line_runs_one_sector_eigh():
    from zenocool.protocol import _sector_eigh

    _sector_eigh.cache_clear()
    run_sweep(parse_config(dict(MINIMAL, axes={"Jtau": [0.4, 0.8, 1.2, 1.6]})))
    assert _sector_eigh.cache_info().misses == 1


def test_bath_jtau_line_builds_one_generator():
    from zenocool.protocol import _open_generator

    _open_generator.cache_clear()
    bath = {"temperature": 1.0, "gamma": 0.05, "omega": 1.0}
    run_sweep(parse_config({"base": dict(MINIMAL["base"], bath=bath),
                            "axes": {"Jtau": [0.4, 0.8, 1.2]}}))
    assert _open_generator.cache_info().misses == 1


def test_n_axis_selects_recorded_steps(tmp_path):
    path = write_json(tmp_path, dict(MINIMAL, axes={"N": [2, 5]}))
    csv_path, _ = write_results([load_config(path)], tmp_path / "out")
    rows = read_rows(csv_path)
    assert [int(r["N_step"]) for r in rows] == [2, 5]


def test_zero_round_run_emits_initial_row(tmp_path):
    doc = {"base": dict(MINIMAL["base"], N=0)}
    csv_path, _ = write_results([load_config(write_json(tmp_path, doc))], tmp_path / "out")
    rows = read_rows(csv_path)
    assert len(rows) == 1
    assert rows[0]["N_step"] == "0"
    assert float(rows[0]["fidelity"]) == pytest.approx(1 / 3, abs=1e-12)
    assert float(rows[0]["cum_probability"]) == 1.0


def test_multi_site_rows_ordered_by_site(tmp_path):
    doc = {"base": dict(MINIMAL["base"], L=3, N=2, k=2, Delta=1.0)}
    csv_path, _ = write_results([load_config(write_json(tmp_path, doc))], tmp_path / "out")
    rows = read_rows(csv_path)
    assert [(int(r["N_step"]), int(r["site"])) for r in rows] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


def test_extinction_rows_flagged_not_fatal(tmp_path, monkeypatch):
    # raise the threshold so the very first round dies, then check the flag row
    import zenocool.protocol as protocol

    monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", 0.9)
    csv_path, _ = write_results([load_config(write_json(tmp_path, MINIMAL))], tmp_path / "out")
    rows = read_rows(csv_path)
    assert len(rows) == 1
    assert rows[0]["extinct"] == "1"
    assert rows[0]["fidelity"] == "nan"
    assert float(rows[0]["step_probability"]) == pytest.approx(0.4408, abs=1e-3)


def _per_field_csv(spec: SweepSpec) -> str:
    """The sweep's rows rendered field by field through csv.writer: the emitter's oracle."""
    fmt = lambda x: f"{float(x):.17g}"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for point in spec.grid():
        config = spec.config_at(point)
        ham, sites = config.hamiltonian, range(1, config.layout.L + 1)
        params = asdict(ham)
        dort = params.get("Delta", params.get("theta"))
        meta = (spec.preset_id, config.layout.topology, ham.model, config.layout.d,
                config.layout.L, config.rank, fmt(ham.J), "" if dort is None else fmt(dort),
                fmt(config.tau))
        try:
            record, extinction = zeno_run(config), None
        except ExtinctionError as err:
            record, extinction = err.partial, err
        cum = record.cumulative_probabilities
        for n in spec.steps_for(config):
            if n == 0:
                writer.writerows(meta + (0, j, fmt(record.initial_fidelities[j - 1]), fmt(1.0),
                                         fmt(1.0), fmt(0.0), 0) for j in sites)
            elif n <= len(record.steps):
                writer.writerows(meta + (n, j, fmt(record.fidelities[n - 1, j - 1]),
                                         fmt(record.step_probabilities[n - 1]), fmt(cum[n - 1]),
                                         fmt(record.log_cumulative[n - 1]), 0) for j in sites)
        if extinction is not None:
            log_prev = record.log_cumulative[-1] if len(record.steps) else 0.0
            dead_log = log_prev + (math.log(extinction.probability)
                                   if extinction.probability > 0 else -math.inf)
            writer.writerows(meta + (extinction.step, j, fmt(math.nan),
                                     fmt(extinction.probability),
                                     fmt(math.exp(dead_log) if math.isfinite(dead_log) else 0.0),
                                     fmt(dead_log), 1) for j in sites)
    return out.getvalue()


# p = 1 - O(tau^2): every log_cum_probability (down to -3.3e-12) prints as scientific text
SCIENTIFIC = {"base": dict(MINIMAL["base"], N=5), "axes": {"Jtau": [1e-3, 1e-6]}}


@pytest.mark.parametrize("doc, threshold, workers", [
    ({"base": dict(MINIMAL["base"], N=0)}, None, 1),
    (dict(MINIMAL, axes={"Jtau": [0.0, 0.9], "N": [0, 2, 5]}), None, 2),
    (MINIMAL, 0.9, 1),
    ({"base": dict(MINIMAL["base"], L=4, k=2, Delta=1.0, N=3), "axes": {"Jtau": [0.7, 2.1]}},
     None, 1),
    ({"base": {"model": "bbh", "d": 3, "N": 4}, "axes": {"theta": [-1.9, 0.0, 2.3]}}, None, 1),
    (dict(MINIMAL, preset_id='a,b "c"\nd %s 100%'), None, 1),
    (SCIENTIFIC, None, 1),
], ids=["N0", "N-axis", "extinct", "chain-L4", "theta", "preset-id-quoted", "scientific"])
def test_row_template_writes_the_per_field_bytes(tmp_path, monkeypatch, doc, threshold, workers):
    import zenocool.protocol as protocol

    if threshold is not None:       # the first round dies, as in the extinction test above
        monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", threshold)
    spec = parse_config(doc)
    expected = _per_field_csv(spec)
    assert "".join(run_sweep(spec, workers=workers)) == expected
    csv_path, _ = write_results([spec, spec], tmp_path / "out")
    header = ",".join(COLUMNS) + "\n"
    assert csv_path.read_bytes() == (header + 2 * expected).encode("utf-8")
    if doc is SCIENTIFIC:
        assert all("e-" in line.split(",")[-2] for line in expected.splitlines())


def _src_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def _g17_text(x) -> bytes:
    """`sweeps._g17`'s text of x, each value after a comma."""
    from zenocool.sweeps import _g17

    return _g17(np.asarray(x, dtype=float)).T.tobytes().translate(None, b"\0")


def _percent_text(x) -> bytes:
    return ("," + ",".join("%.17g" % v for v in np.asarray(x, dtype=float).tolist())).encode()


def _assert_g17_matches_percent(x):
    got, want = _g17_text(x), _percent_text(x)
    if got != want:
        pairs = zip(got.split(b","), want.split(b","))
        raise AssertionError([(g, w) for g, w in pairs if g != w][:5])


def test_g17_writes_percent_17g_of_random_bit_patterns():
    """10**6 seeded float64 bit patterns: both signs, subnormals, nan payloads, every exponent."""
    bits = np.random.default_rng(20231).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    values = bits.view(np.float64)
    for start in range(0, len(values), 1 << 16):
        _assert_g17_matches_percent(values[start:start + (1 << 16)])


def _halfway_cases() -> list[float]:
    """Doubles whose exact decimal value has 18 significant digits, the last a 5: '%.17g'
    rounds them half to even.  r * 2**-s is 5**s * r * 10**-s, so an odd r with
    5**s * r in [1e17, 1e18) and r < 2**53 gives one, for s = 2 .. 25."""
    rng = np.random.default_rng(5)
    cases = []
    for s in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** s), min(10 ** 18 // 5 ** s, 2 ** 53)
        for r in {lo, hi - 1, *(int(v) for v in rng.integers(lo, hi, 20))}:
            r |= 1
            if r < hi and 10 ** 17 <= 5 ** s * r < 10 ** 18:
                cases.append(r * 2.0 ** -s)
    return cases


def test_g17_writes_percent_17g_at_the_edges():
    edges = [0.0, math.nan, math.inf, 5e-324]
    for k in range(-323, 309):                              # every power of ten, both sides
        ten = float(f"1e{k}")
        edges += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, math.inf)]
    edges += [2.0 ** k for k in range(-1074, 1024)]
    edges += [float(2 ** 53 + k) for k in range(-40, 41)]
    for center in (1e16, 1e17, 1e-5, 1e-4):   # integers near 1e16, 1e17; %g's layout switches
        below = above = center
        for _ in range(40):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            edges += [below, above]
    halfway = _halfway_cases()                  # 2**-25 and 1000000000000000.25 among them
    assert len(halfway) > 400
    for x in halfway:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    edges = np.array(edges + halfway)
    _assert_g17_matches_percent(np.concatenate([edges, -edges]))


def test_g17_takes_percent_for_an_exponent_one_off(monkeypatch):
    """A log10 one too high or too low leaves the 17 digits out of [1e16, 1e17): those
    values take Python's '%.17g', so the text is unchanged."""
    values = np.random.default_rng(3).random(4000) * 10.0 ** np.arange(-40, 40).repeat(50)
    log10 = np.log10
    shifts = np.tile([-1.0, 0.0, 1.0], 1334)[:4000]
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shifts[:len(a)])
    _assert_g17_matches_percent(values)


def test_import_loads_no_process_pool_and_no_power_of_ten():
    """The pool's modules load when a sweep runs on two or more workers, the formatter's
    powers of ten when it first writes a float."""
    code = ("import sys, zenocool, zenocool.sweeps as sweeps; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)), "
            "sweeps._pow10.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_src_env())
    assert out.stdout.split() == ["[]", "0"]


def test_check_rows_rejects_float_text_that_is_not_percent_17g(tmp_path):
    """scripts/check_rows.py passes a written CSV (the star's Delta_or_theta is empty) and
    fails it once one fidelity carries a trailing zero."""
    star = {"base": {"model": "spin_star", "d": 2, "L": 2, "N": 3}}
    specs = [parse_config(SCIENTIFIC), parse_config(star)]
    csv_path, _ = write_results(specs, tmp_path / "out")
    script = Path(__file__).resolve().parents[1] / "scripts" / "check_rows.py"

    def check(path):
        return subprocess.run([sys.executable, str(script), str(path), "16"],
                              capture_output=True, text=True, timeout=60)

    assert check(csv_path).returncode == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[11] += "0"
    lines[1] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines), encoding="utf-8")
    done = check(bad)
    assert done.returncode == 1
    assert "1 float fields not in '%.17g' form" in done.stderr


def test_classify_regions_threshold_zero_flags_nothing():
    spec = parse_config(dict(MINIMAL, axes={"Jtau": [0.5, 1.2]}))
    rows = csv.DictReader(run_sweep(spec), fieldnames=COLUMNS)
    for summary in classify_regions(rows, threshold=0.0):
        assert summary.imperfect == []


def test_classify_regions_finds_frozen_point():
    spec = parse_config(dict(MINIMAL, axes={"Jtau": [0.0, 1.2]}))
    rows = csv.DictReader(run_sweep(spec), fieldnames=COLUMNS)
    (summary,) = classify_regions(rows, threshold=0.96)
    assert summary.imperfect == [0.0]  # J*tau = 0 never cools
    assert summary.jtau == [0.0, pytest.approx(1.2)]


def test_classify_rejects_non_grid_input():
    with pytest.raises(ConfigError):
        classify_regions([{"model": "xxz"}])
    with pytest.raises(ConfigError):
        classify_regions([])


def test_classify_rejects_a_malformed_row_and_skips_an_extinct_one(tmp_path, capsys):
    spec = parse_config(dict(MINIMAL, axes={"Jtau": [1.2]}))
    rows = list(csv.DictReader(run_sweep(spec), fieldnames=COLUMNS))
    extinct = dict(rows[0], fidelity="nan", extinct="1")
    (summary,) = classify_regions(rows + [extinct])
    assert summary.jtau == [pytest.approx(1.2)]
    path = tmp_path / "results.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows[:2] + [extinct, dict(rows[0], fidelity="abc")])
    assert main(["classify", "--in", str(path)]) == 1
    assert "row 4: fidelity = 'abc' is not a number" in capsys.readouterr().err


def test_preset_registry_and_unknown_id():
    assert set(PRESETS) == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                            "fig_chain", "fig_star", "fig8"}
    with pytest.raises(ConfigError):
        preset_sweeps("fig99")
    # fig4 d=5 panel sits behind the flag
    assert preset_sweeps("fig4")[0].d_axis == (2, 3, 4)
    assert preset_sweeps("fig4", include_d5=True)[0].d_axis == (2, 3, 4, 5)


def test_each_grid_point_is_configured_once(monkeypatch):
    """parse_config builds and gates every point's config, and run_sweep reads those."""
    calls = []
    config_at = SweepSpec.config_at

    def counted(self, point):
        calls.append(point)
        return config_at(self, point)

    monkeypatch.setattr(SweepSpec, "config_at", counted)
    spec = parse_config({**MINIMAL, "axes": {"d": [2, 3], "Jtau": [0.5, 1.0, 1.5]}})
    run_sweep(spec)
    assert sorted(calls) == sorted(spec.grid())


def test_preset_specs_validate():
    for preset_id in PRESETS:
        for spec in preset_sweeps(preset_id):
            points = spec.grid()
            assert points
            spec.config_at(points[0])  # construction validates


def test_star_preset_ring_columns_identical(tmp_path):
    spec = preset_sweeps("fig_star")[0]
    trimmed = SweepSpec(base=spec.base, preset_id="fig_star",
                        jtau_axis=(1.5,), recorded_steps=(5, 25))
    rows = csv.DictReader(run_sweep(trimmed), fieldnames=COLUMNS)
    by_step = {}
    for row in rows:
        by_step.setdefault(int(row["N_step"]), []).append(float(row["fidelity"]))
    for fids in by_step.values():
        assert len(fids) == 4
        assert max(fids) - min(fids) < 1e-10


# ---- CLI -------------------------------------------------------------------

def test_topology_defaults_to_the_models(tmp_path):
    config = write_json(tmp_path, {"base": {"model": "spin_star", "d": 3, "N": 1}})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    (row,) = read_rows(tmp_path / "o" / "results.csv")
    assert row["topology"] == "star"
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["sweeps"][0]["base"]["topology"] == "star"


def test_cli_run_and_exit_codes(tmp_path):
    config = write_json(tmp_path, MINIMAL)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "results.csv").exists()
    bad = write_json(tmp_path, {"base": dict(MINIMAL["base"], model="nope")}, "bad.json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 1
    assert main(["preset", "fig99", "--out", str(tmp_path / "o3")]) == 1


BATH = {"temperature": 1.0, "gamma": 1e-3}


@pytest.mark.parametrize("doc, message", [
    ({"base": {"tau": math.nan}}, "tau"),
    ({"base": {"tau": math.inf}}, "tau"),
    ({"base": {"J": math.nan}}, "J"),
    ({"base": {"bath": {"temperature": math.nan, "gamma": 1e-3}}}, "bath.temperature"),
    ({"base": {"bath": {"temperature": -1.0, "gamma": 0.0}}}, "bath.temperature"),
    ({"base": {"bath": {"temperature": 1.0, "gamma": math.nan}}}, "bath.gamma"),
    ({"base": {"bath": dict(BATH, site=7)}}, "bath.site"),
    ({"base": {"bath": dict(BATH, omega=math.inf)}}, "bath.omega"),
    ({"axes": {"k": [1, 9]}}, "axes.k = 9"),
    ({"axes": {"d": [1]}}, "axes.d = 1"),
    ({"axes": {"Jtau": [math.nan]}}, "axes.Jtau = nan"),
    ({"axes": {"N": [-2]}}, "axes.N"),
    ({"base": {"L": 8, "d": 3, "k": 2, "bath": BATH}}, r"D=19683 needs about [\d,]+ bytes"),
    ({"base": {"L": 9, "d": 3}}, r"closed run at D=59049 needs about [\d,]+ bytes"),
    ({"base": {"L": 200, "d": 3, "k": 2, "bath": BATH}}, r"D=3\^201 needs more than 2\^64 bytes"),
    ({"base": {"L": 2 ** 40}}, r"D=3\^1099511627777 needs more than 2\^64 bytes"),
    ({"base": {"N": True}}, "base.N: expected int, got bool"),
    ({"axes": {"d": [2.7]}}, "axes.d: expected int, got float"),
    ({"axes": {"N": [1.5]}}, "axes.N: expected int, got float"),
    ({"axes": {"Jtau": [True]}}, "axes.Jtau: expected float, got bool"),
    ({"base": {"J": 1e308, "tau": 1e308}}, r"tau \* \|H\| must be finite"),
    ({"base": {"h": 0.0}}, "h must be nonzero"),
    ({"base": {"h": -1.0, "bath": BATH}}, r"base\.h: an omitted bath\.omega defaults to h"),
    ({"base": {"bath": {"temperature": 1.0, "gamma": 1e300}}}, r"bath\.gamma = 1e\+300"),
    ({"base": {"bath": {"temperature": 1e300, "gamma": 0.1, "omega": 1e-10}}},
     r"occupancy n = inf from bath\.temperature = 1e\+300, bath\.omega = 1e-10"),
    ({"base": {"bath": {"temperature": 1e300, "gamma": 0.0, "omega": 1e-10}}},
     r"occupancy n = inf from bath\.temperature = 1e\+300, bath\.omega = 1e-10"),
    ({"base": {"J": 1e300, "bath": BATH}},
     r"tau \* \(2\|H\| \+ 2\|A\|\^2 \* gamma \* \(2n \+ 1\)\)"),
    ({"base": {"J": 1e30, "tau": 1.0, "N": 3, "bath": {"temperature": 1.0, "gamma": 0.1}}},
     r"would take too long: .* tau = 1\.0, J = 1e\+30 or bath\.gamma = 0\.1"),
    ({"base": {"bath": {"temperature": 1.0, "gamma": 1e20}}},
     r"would take too long: .* bath\.gamma = 1e\+20"),
    ({"base": {"k": 2, "N": 200, "bath": {"temperature": 1.0, "gamma": 2e9, "omega": 1.0}}},
     r"D=9 would take too long: .* bath\.gamma = 2000000000\.0"),
    ({"base": {"tau": -3.0, "L": 1, "k": 2, "N": 50, "bath": BATH}},
     r"tau must be >= 0 with a bath, got tau = -3\.0"),
    ({"argv": ["preset", "fig2", "--workers", "0", "--out", "{out}"]}, "--workers"),
    ({"argv": ["run", "--config", "{config}", "--out", "{out}", "--workers", "-3"]},
     "--workers"),
    ({"base": {"L": 7, "d": 3}, "axes": {"Jtau": [0.001 * i for i in range(1, 1001)]},
      "argv": ["run", "--config", "{config}", "--out", "{out}", "--workers", "1000"]},
     r"workers \(--workers\) 1000 would run 1000 points at once in about [\d,]+ bytes"),
    ({"argv": ["classify", "--in", "{config}", "--threshold", "nan"]}, "--threshold"),
    ({"argv": ["classify", "--in", "{config}", "--threshold", "inf"]}, "--threshold"),
    ({"base": {"Jtua": 1.0}}, r"base\.Jtua: unknown field"),
    ({"preset": "fig2"}, r"config\.preset: unknown field"),
    ({"base": {"bath": dict(BATH, sight=1)}}, r"base\.bath\.sight: unknown field"),
    ({"base": {"model": "bbh"}}, r"base\.Delta: unknown field"),
    ({"base": {"topology": "star", "model": "spin_star"}}, r"base\.Delta: unknown field"),
    ({"base": {"theta": 0.3}}, r"base\.theta: unknown field"),
    ({"base": {"topology": "star"}}, r"base\.topology: the xxz model runs on the chain"),
    ({"argv": ["preset", "fig2", "--include-d5", "--out", "{out}"]}, "--include-d5"),
    ({"axes": {"N": [3]}, "argv": ["spectrum", "--config", "{config}"]}, r"axes\.N"),
], ids=["tau-nan", "tau-inf", "J-nan", "temperature-nan", "temperature-negative", "gamma-nan",
        "site-7", "omega-inf", "axes-k-9", "axes-d-1", "axes-Jtau-nan", "axes-N-negative",
        "bath-D19683-memory", "closed-D59049-memory", "bath-L200-memory", "closed-L2e40-memory",
        "N-bool",
        "axes-d-non-integral", "axes-N-non-integral", "axes-Jtau-bool", "phase-overflow",
        "h-zero", "h-negative-omega-default", "gamma-huge", "occupancy-overflow",
        "occupancy-overflow-gamma-zero", "bath-phase-overflow", "bath-J-cost", "bath-gamma-cost",
        "bath-D9-gamma-2e9-cost", "bath-negative-tau",
        "preset-workers-0",
        "run-workers-negative", "run-workers-memory", "classify-threshold-nan",
        "classify-threshold-inf", "base-unknown-key", "root-unknown-key", "bath-unknown-key",
        "bbh-Delta", "spin_star-Delta", "xxz-theta", "xxz-on-star",
        "preset-include-d5-off-fig4", "spectrum-N-axis"])
def test_cli_rejects_non_finite_and_out_of_range_fields(tmp_path, capsys, monkeypatch, doc,
                                                       message):
    """Each input exits 1 at once, allocating little and starting no worker process, with a
    message naming the field.

    `argv`, when given, replaces the `run` command line ({config} and {out} are filled in).
    """
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected input started a worker pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    doc = dict(doc)
    argv = doc.pop("argv", ["run", "--config", "{config}", "--out", "{out}"])
    config = write_json(tmp_path, {**MINIMAL, **doc,
                                   "base": dict(MINIMAL["base"], **doc.get("base", {}))})
    argv = [arg.format(config=config, out=tmp_path / "o") for arg in argv]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**24
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "o" / "results.csv").exists()


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 12),
    st.integers(-2**1100, 2**1100), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 1.5, 2.0, 2.7, 1e308, -1e308]))
_BASE_KEYS = ("topology", "model", "d", "L", "J", "h", "Delta", "theta", "tau", "N", "k",
              "regulator_prep", "target_betas", "bath")


_OVERRIDES = st.dictionaries(st.sampled_from(_BASE_KEYS), _JSON_VALUES, max_size=2)
_BATHS = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["temperature", "gamma", "omega", "site"]),
    st.one_of(st.floats(0.1, 2.0), _JSON_VALUES), max_size=4))
_AXES = st.dictionaries(
    st.sampled_from(["d", "k", "theta", "Jtau", "N", "bogus"]),
    st.one_of(_JSON_VALUES, st.lists(st.one_of(st.integers(0, 4), _JSON_VALUES), max_size=3)),
    max_size=2)


@given(overrides=_OVERRIDES, bath=_BATHS, axes=_AXES)
@settings(max_examples=300)
def test_parse_config_returns_a_spec_or_raises_config_error(overrides, bath, axes):
    """Arbitrary JSON values in a config either give a SweepSpec or a ConfigError."""
    base = {**MINIMAL["base"], "bath": bath, **overrides}
    try:
        spec = parse_config({"base": base, "axes": axes})
    except ConfigError:
        return
    assert isinstance(spec, SweepSpec)


def _clamped(value, cap):
    if isinstance(value, list):
        return [_clamped(v, cap) for v in value]
    if cap is not None and isinstance(value, int) and not isinstance(value, bool):
        return min(value, cap)
    return value


@given(overrides=_OVERRIDES, bath=_BATHS, axes=_AXES, command=st.sampled_from(["run", "spectrum"]))
@settings(max_examples=200, deadline=None)
def test_cli_exits_with_a_known_code(overrides, bath, axes, command):
    """The same arbitrary configs through `zenocool run` and `spectrum` end in exit code 0-3.

    Sizes are clamped to d <= 4, L <= 2 and N <= 5 (as integers, in base and axes) so that
    the accepted configs run at once; the rejection tests above cover the large ones.
    """
    caps = {"d": 4, "L": 2, "N": 5}
    base = {**MINIMAL["base"], "bath": bath, **overrides}
    doc = {"base": {key: _clamped(value, caps.get(key)) for key, value in base.items()},
           "axes": {name: _clamped(values, caps.get(name)) for name, values in axes.items()}}
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(config), "--out", out] if command == "run" \
            else ["spectrum", "--config", str(config)]
        assert main(argv) in (0, 1, 2, 3)


def test_schema_names_the_parsers_fields():
    """docs/config_schema.json lists, level by level, exactly the keys `parse_config` reads."""
    from dataclasses import fields

    from zenocool.hamiltonians import MODELS
    from zenocool.sweeps import _BASE, _BATH, _ROOT, AXES

    schema = json.loads((Path(__file__).parents[1] / "docs" / "config_schema.json")
                        .read_text(encoding="utf-8"))
    base = schema["properties"]["base"]
    params = {f.name for spec in MODELS.values() for f in fields(spec)}
    assert set(schema["properties"]) == set(_ROOT)
    assert set(base["properties"]) == set(_BASE) | params
    assert set(base["properties"]["bath"]["properties"]) == set(_BATH)
    assert list(schema["properties"]["axes"]["properties"]) == [label for label, _, _ in AXES]
    assert base["properties"]["model"]["enum"] == list(MODELS)
    forbidden = {rule["if"]["properties"]["model"]["const"]: set(rule["then"]["properties"])
                 for rule in base["allOf"]}
    for model, spec in MODELS.items():
        own = {f.name for f in fields(spec)}
        assert forbidden[model] == params - own
        for f in fields(spec):
            assert base["properties"][f.name]["default"] == f.default


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_manifest_sweep_is_a_config(preset_id):
    """Each manifest.json sweep entry reads back, through parse_config, to the same entry."""
    for spec in preset_sweeps(preset_id):
        manifest = json.loads(json.dumps(spec_manifest(spec)))
        assert spec_manifest(parse_config(manifest)) == manifest


@pytest.mark.parametrize("args, message", [
    (["--only", "fig99"], "config error: unknown preset id 'fig99'"),
    (["--only", "fig2", "--workers", "0"], "validation error: workers (--workers) must be"),
], ids=["unknown-preset", "no-workers"])
def test_run_all_presets_reports_bad_input_in_one_line(tmp_path, args, message):
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "scripts" / "run_all_presets.py"), *args,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith(message)
    assert len(done.stderr.splitlines()) == 1


def test_cli_spectrum_json(tmp_path, capsys):
    config = write_json(tmp_path, MINIMAL)
    assert main(["spectrum", "--config", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    moduli = [math.hypot(re, im) for re, im in doc["eigenvalues"]]
    assert moduli == sorted(moduli, reverse=True)
    assert moduli[0] <= 1 + 1e-10
    assert doc["dominant_is_simple"] is True


def test_cli_spectrum_rejects_axes(tmp_path):
    config = write_json(tmp_path, dict(MINIMAL, axes={"Jtau": [1.0, 2.0]}))
    assert main(["spectrum", "--config", str(config)]) == 1


def test_cli_classify_roundtrip(tmp_path, capsys):
    config = write_json(tmp_path, dict(MINIMAL, axes={"Jtau": [0.0, 1.2]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["classify", "--in", str(tmp_path / "o" / "results.csv")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["groups"][0]["imperfect"] == [0.0]
    assert main(["classify", "--in", str(tmp_path / "missing.csv")]) == 1


@pytest.mark.parametrize("argv, flag, path", [
    (["run", "--config", "{missing}", "--out", "{out}"], "--config", "{missing}"),
    (["spectrum", "--config", "{missing}"], "--config", "{missing}"),
    (["run", "--config", "{dir}", "--out", "{out}"], "--config", "{dir}"),
    (["run", "--config", "{latin1}", "--out", "{out}"], "--config", "{latin1}"),
    (["spectrum", "--config", "{latin1}"], "--config", "{latin1}"),
    (["classify", "--in", "{dir}"], "--in", "{dir}"),
    (["classify", "--in", "{missing}"], "--in", "{missing}"),
    (["classify", "--in", "{latin1}"], "--in", "{latin1}"),
    (["run", "--config", "{config}", "--out", "{file}"], "--out", "{file}"),
    (["preset", "fig2", "--out", "{file}"], "--out", "{file}"),
], ids=["run-config-missing", "spectrum-config-missing", "run-config-directory",
        "run-config-not-utf8", "spectrum-config-not-utf8", "classify-in-directory",
        "classify-in-missing", "classify-in-not-utf8", "run-out-is-a-file", "preset-out-is-a-file"])
def test_cli_file_errors_exit_1_naming_the_flag_and_path(tmp_path, capsys, argv, flag, path):
    """A file that cannot be read or written ends in exit code 1 and one line on stderr that
    names its flag and path, not in a traceback."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"base": {"model": "xxz\xff"}}')
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    names = {"missing": tmp_path / "missing.json", "dir": tmp_path / "dir", "latin1": latin1,
             "file": tmp_path / "file", "out": tmp_path / "o",
             "config": write_json(tmp_path, MINIMAL)}
    assert main([arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{flag} {path.format(**names)}" in err


def test_mutation_guard_flipped_basis_detected():
    """Projecting onto the wrong end of the local spectrum must show up large.

    Guards the energy-ordering convention: an engine that projected onto the
    highest-energy eigenstates instead would disagree with the closed forms
    at the 1e-1 level, far beyond the 1e-8 oracle gate.
    """
    from zenocool.oracles import embed_operator, unitary
    from zenocool.protocol import initial_state

    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=XXZSpec(J=1.0, Delta=0.0), tau=1.2,
                            n_measurements=10, rank=1)
    flipped = np.diag([1.0, 0.0, 0.0])  # the highest-energy level, m=+1, for h > 0
    U = unitary(config)
    P = embed_operator(flipped, 0, (3, 3))
    M = P @ U
    rho = initial_state(config).data
    ground = np.zeros((3, 3))
    ground[2, 2] = 1.0  # fidelity against the correct target |m=-1>
    for _ in range(10):
        rho = M @ rho @ M.conj().T
        rho /= np.trace(rho).real
    red = np.einsum("abcb->ac", rho.reshape(3, 3, 3, 3))
    wrong = float(np.real(np.trace(ground @ red)))
    assert abs(wrong - fidelity_xx_rank1(3, 10, 1.2)) > 1e-3


def test_bath_oracle_entry_matches_the_dense_round_map():
    """oracle-check's bath entry: fig8's bath run against the literal round map with a dense
    expm of the full Liouvillian, on one Jtau and 10 rounds."""
    from zenocool.oracles import bath_oracle_deviation

    assert bath_oracle_deviation(jtaus=(1.2,), n_max=10) < 1e-12
