"""Parameter sweeps: JSON configs in, deterministic CSV + manifest out.

Every sweep, a user's config or a preset, is read by `parse_config`, which
takes exactly the keys its tables name: `_ROOT`, `_BASE` and `_BATH` for
the fixed fields, the model's spec dataclass (`hamiltonians.MODELS`) for
its parameters, and `AXES` for the grids; any other key is rejected,
naming its path.  `spec_manifest` writes a sweep back as such a config.

Grid axes are enumerated in the fixed order (d, k, theta, Jtau); an `N`
axis selects which measurement rounds are emitted (the engine always runs
to the largest requested round).  Rows are sorted by (grid index, step,
site) regardless of worker count, floats are written with 17 significant
digits, and reruns of the same config are byte-identical.

A point's rows are CSV text, one line each.  Its fixed fields, preset_id
to tau, go through csv.writer once, so they are quoted as csv.writer
quotes them; each row then appends N_step, site and fidelity from a `%`
template, and the step's probabilities and extinct flag, formatted once
per step ('%.17g' % x equals f'{x:.17g}' for every float, nan and the
infinities included).  `run_sweep` returns these lines, `write_results`
writes them after the header, and `classify_regions` reads them back.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .evolution import BathSpec
from .hamiltonians import MODELS, SystemLayout
from .protocol import (ExtinctionError, ProtocolConfig, _blas_thread_calls, physical_memory,
                       run_bytes, zeno_run)

COLUMNS = (
    "preset_id", "topology", "model", "d", "L", "k", "J", "Delta_or_theta",
    "tau", "N_step", "site", "fidelity", "step_probability",
    "cum_probability", "log_cum_probability", "extinct",
)


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field path."""


# (config name, SweepSpec field, element type); the first four span the grid in this
# order, N selects the recorded rounds
AXES = (("d", "d_axis", int), ("k", "k_axis", int), ("theta", "theta_axis", float),
        ("Jtau", "jtau_axis", float), ("N", "recorded_steps", int))
_GRID_AXES = AXES[:4]


@dataclass(frozen=True)
class SweepSpec:
    """A base protocol configuration plus named parameter grids."""

    base: ProtocolConfig
    preset_id: str = "custom"
    d_axis: Optional[tuple[int, ...]] = None
    k_axis: Optional[tuple[int, ...]] = None
    theta_axis: Optional[tuple[float, ...]] = None
    jtau_axis: Optional[tuple[float, ...]] = None
    recorded_steps: Optional[tuple[int, ...]] = None  # None -> rounds 1..base N
    # every grid point's config, in grid order, built and checked once by __post_init__
    configs: tuple[ProtocolConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for label, name, _ in AXES:
            ax = getattr(self, name)
            if ax is not None and len(ax) == 0:
                raise ConfigError(f"axes.{label}: grid must be non-empty")
        ham = self.base.hamiltonian
        if self.theta_axis is not None and "theta" not in asdict(ham):
            raise ConfigError(f"axes.theta: the {ham.model} model has no theta parameter")
        if self.jtau_axis is not None and self.base.hamiltonian.J == 0:
            raise ConfigError("axes.Jtau: base.J must be nonzero to convert Jtau to tau")
        if self.recorded_steps is not None and min(self.recorded_steps) < 0:
            raise ConfigError(f"axes.N: rounds must be >= 0, got {min(self.recorded_steps)}")
        # build every point's config once, so a bad axis value fails before any point runs
        configs = []
        for point in self.grid():
            try:
                configs.append(self.config_at(point))
            except ValueError as err:
                where = ", ".join(f"axes.{label} = {value}" for (label, _, _), value
                                  in zip(_GRID_AXES, point) if value is not None)
                raise ConfigError(f"{where}: {err}") from err
        object.__setattr__(self, "configs", tuple(configs))

    def grid(self) -> list[tuple]:
        """Every (d, k, theta, Jtau) point; None where the sweep has no such axis."""
        axes = [getattr(self, name) for _, name, _ in _GRID_AXES]
        return list(itertools.product(*(ax if ax is not None else (None,) for ax in axes)))

    def config_at(self, point: tuple) -> ProtocolConfig:
        d, k, theta, jtau = point
        base = self.base
        layout = base.layout
        ham = base.hamiltonian
        if d is not None:
            layout = SystemLayout(layout.topology, layout.L, int(d))
        if theta is not None:
            ham = replace(ham, theta=float(theta))
        tau = base.tau if jtau is None else float(jtau) / ham.J
        n_max = base.n_measurements if self.recorded_steps is None \
            else max(self.recorded_steps)
        rank = base.rank if k is None else int(k)
        return replace(base, layout=layout, hamiltonian=ham, tau=tau,
                       n_measurements=n_max, rank=rank)

    def steps_for(self, config: ProtocolConfig) -> list[int]:
        if self.recorded_steps is not None:
            return sorted(set(int(n) for n in self.recorded_steps))
        if config.n_measurements == 0:
            return [0]
        return list(range(1, config.n_measurements + 1))


# a grid point's fixed fields, rendered once, are the prefix; each row adds these fields
_ROUND = ",%d,%d,%.17g%s"                   # N_step, site, fidelity, the step's _STEP text
_STEP = ",%.17g,%.17g,%.17g,%d\n"           # step_probability .. extinct, once per step


def _row_prefix(preset_id: str, config: ProtocolConfig) -> str:
    """The point's fields preset_id .. tau as CSV text, quoted as csv.writer quotes them."""
    ham = config.hamiltonian
    params = asdict(ham)
    dort = params.get("Delta", params.get("theta"))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        (preset_id, config.layout.topology, ham.model, config.layout.d, config.layout.L,
         config.rank, "%.17g" % ham.J, "" if dort is None else "%.17g" % dort,
         "%.17g" % config.tau))
    return out.getvalue()[:-1]


def _point_rows(preset_id: str, config: ProtocolConfig, recorded: list[int]) -> list[str]:
    """The point's CSV lines, one per recorded step and site, each ending in a newline."""
    round_row = _row_prefix(preset_id, config).replace("%", "%%") + _ROUND
    try:
        record = zeno_run(config)
        extinction = None
    except ExtinctionError as err:
        record = err.partial
        extinction = err
    fids = record.fidelities.tolist()
    probs = record.step_probabilities.tolist()
    cum = record.cumulative_probabilities.tolist()
    log_cum = record.log_cumulative.tolist()
    steps = []          # (N_step, fidelity per site, step_probability .. extinct as text)
    for n in recorded:
        if n == 0:
            steps.append((0, record.initial_fidelities.tolist(), _STEP % (1.0, 1.0, 0.0, 0)))
        elif n <= len(probs):
            steps.append((n, fids[n - 1],
                          _STEP % (probs[n - 1], cum[n - 1], log_cum[n - 1], 0)))
    if extinction is not None:
        log_prev = log_cum[-1] if log_cum else 0.0
        dead_log = log_prev + (math.log(extinction.probability)
                               if extinction.probability > 0 else -math.inf)
        steps.append((extinction.step, [math.nan] * config.layout.L,
                      _STEP % (extinction.probability,
                               math.exp(dead_log) if math.isfinite(dead_log) else 0.0,
                               dead_log, 1)))
    return [round_row % (n, site, f, tail)
            for n, site_fids, tail in steps for site, f in enumerate(site_fids, 1)]


def _one_blas_thread() -> None:
    """Run this process's OpenBLAS on one thread: each worker of a pool takes one core.

    The libraries come from `protocol._blas_thread_calls`; where none is
    found, nothing changes.
    """
    for _, setter in _blas_thread_calls():
        setter(1)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[str]:
    """The sweep's CSV lines, one per result row, in deterministic (grid, step, site) order."""
    if workers < 1:
        raise ValueError(f"workers (--workers) must be at least 1, got {workers}")
    configs = spec.configs
    recorded = [spec.steps_for(config) for config in configs]
    point_rows = functools.partial(_point_rows, spec.preset_id)
    workers = min(workers, len(configs))    # a pool forks all its workers at once
    if workers <= 1:
        chunks = list(map(point_rows, configs, recorded))
    else:       # each worker runs one point at a time; map keeps the order of the configs
        need = workers * max(map(run_bytes, configs))
        if need > physical_memory():
            raise ValueError(f"workers (--workers) {workers} would run {workers} points at once "
                             f"in about {need:,} bytes, more than the {physical_memory():,} "
                             f"bytes of physical memory")
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            chunks = list(pool.map(point_rows, configs, recorded))
    return [row for chunk in chunks for row in chunk]


# ---------------------------------------------------------------------------
# JSON config ingestion
# ---------------------------------------------------------------------------

_REQUIRED = object()    # a table default: the key must be given

# {key: (type, default)} of a config's fixed fields; `base` also takes its model's
# parameters, the fields of `MODELS[model]`, an omitted topology takes the model's and an
# omitted bath omega takes base.h
_ROOT = {"preset_id": (str, "custom"), "base": (dict, _REQUIRED), "axes": (dict, {})}
_BASE = {"topology": (str, None), "model": (str, _REQUIRED), "d": (int, _REQUIRED),
         "L": (int, 1), "tau": (float, 1.0), "N": (int, _REQUIRED), "k": (int, 1),
         "regulator_prep": (int, None), "target_betas": (list, None), "bath": (dict, None)}
_BATH = {"temperature": (float, _REQUIRED), "gamma": (float, _REQUIRED),
         "omega": (float, None), "site": (int, None)}


def _reject_unknown(mapping, known, path):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field (known: {', '.join(known)})")


def _read(mapping, table, path) -> dict:
    """Every key of `table` as its type (or default); a key the table lacks is an error."""
    _reject_unknown(mapping, table, path)
    return {key: _require(mapping, key, kind, path, default)
            for key, (kind, default) in table.items()}


def _require(mapping, key, kind, path, default):
    if mapping.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    return _typed(mapping[key], kind, f"{path}.{key}")


def _typed(value, kind, where):
    """value as JSON Schema's integer (kind int), number (float), string (str), array (list)
    or object (dict)."""
    accepted = (int, float) if kind is float else kind
    # JSON Schema counts true and false as neither integers nor numbers
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ConfigError(f"{where}: out of the floating-point range") from None


def _parse_beta(value, path):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{path}: unrecognized beta {value!r}")
    return _typed(value, float, path)       # ProtocolConfig rejects NaN and negative betas


def parse_config(doc: dict, preset_id: Optional[str] = None) -> SweepSpec:
    """Validate a parsed JSON document and build the SweepSpec."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    root = _read(doc, _ROOT, "config")
    model = _require(root["base"], "model", str, "base", _REQUIRED)
    if model not in MODELS:
        raise ConfigError(f"base.model: must be one of {tuple(MODELS)}, got {model!r}")
    params = {f.name: (float, f.default) for f in fields(MODELS[model])}
    base = _read(root["base"], {**_BASE, **params}, "base")
    topology = MODELS[model].topology
    if base["topology"] not in (None, topology):
        raise ConfigError(f"base.topology: the {model} model runs on the {topology}, got "
                          f"{base['topology']!r}; omit base.topology to take the {topology}")

    try:
        layout = SystemLayout(topology, base["L"], base["d"])
        ham = MODELS[model](**{name: base[name] for name in params})

        betas = base["target_betas"]
        if betas is not None:
            betas = tuple(_parse_beta(b, f"base.target_betas[{i}]") for i, b in enumerate(betas))

        bath = base["bath"]
        if bath is not None:
            bath = _read(bath, _BATH, "base.bath")
            if bath["omega"] is None:
                if not base["h"] > 0:
                    raise ConfigError(f"base.h: an omitted bath.omega defaults to h, "
                                      f"which must then be positive, got {base['h']}")
                bath["omega"] = base["h"]
            bath = BathSpec(**bath)

        axes = root["axes"]
        _reject_unknown(axes, [label for label, _, _ in AXES], "axes")

        def axis(name, kind):
            values = axes.get(name)
            if values is None:
                return None
            if not isinstance(values, list) or len(values) == 0:
                raise ConfigError(f"axes.{name}: grid must be a non-empty list")
            return tuple(_typed(v, kind, f"axes.{name}") for v in values)

        config = ProtocolConfig(layout=layout, hamiltonian=ham, tau=base["tau"],
                                n_measurements=base["N"], rank=base["k"],
                                regulator_prep=base["regulator_prep"],
                                target_betas=betas, bath=bath)
        return SweepSpec(base=config, preset_id=preset_id or root["preset_id"],
                         **{name: axis(label, kind) for label, name, kind in AXES})
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"base: {err}") from err


def load_config(path) -> SweepSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path}: invalid JSON ({err})") from err
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _json_safe(obj):
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def spec_manifest(spec: SweepSpec) -> dict:
    """The sweep as a config document: `parse_config` reads it back to an equal manifest."""
    base = spec.base
    doc = {
        "preset_id": spec.preset_id,
        "base": {
            "topology": base.layout.topology, "model": base.hamiltonian.model,
            "d": base.layout.d, "L": base.layout.L, **asdict(base.hamiltonian),
            "tau": base.tau, "N": base.n_measurements, "k": base.rank,
            "regulator_prep": base.regulator_prep,
            "target_betas": list(base.betas),
        },
        "axes": {label: list(getattr(spec, name)) for label, name, _ in AXES
                 if getattr(spec, name) is not None},
    }
    if base.bath is not None:
        doc["base"]["bath"] = asdict(base.bath)
    return _json_safe(doc)


def write_results(sweeps: Sequence[SweepSpec], out_dir, workers: int = 1) -> tuple[Path, Path]:
    """Run every sweep, write results.csv and manifest.json; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [run_sweep(spec, workers=workers) for spec in sweeps]
    csv_path = out / "results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for sweep_lines in lines:
            fh.writelines(sweep_lines)
    manifest = {
        "engine": "zenocool",
        "version": __version__,
        "columns": list(COLUMNS),
        "rows": sum(len(sweep_lines) for sweep_lines in lines),
        "sweeps": [spec_manifest(s) for s in sweeps],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return csv_path, manifest_path


# ---------------------------------------------------------------------------
# Region classification
# ---------------------------------------------------------------------------

@dataclass
class RegionSummary:
    """Per-(model, d, k) map from Jtau to the best fidelity over the N grid."""

    model: str
    d: int
    k: int
    jtau: list[float]
    max_fidelity: list[float]
    imperfect: list[float] = field(default_factory=list)


def classify_regions(rows: Iterable[dict], threshold: float = 0.96) -> list[RegionSummary]:
    """Split each group's Jtau grid into cooling vs imperfect refrigerating values.

    A Jtau value is imperfect when no recorded round exceeds the fidelity
    threshold.  Rows are mappings with at least the model/d/k/J/tau/fidelity
    columns (e.g. csv.DictReader output).  Extinct rows (nan fidelity) are skipped; a
    field that is not a number raises a ConfigError naming it and its row, counted from 1.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold (--threshold) must be finite, got {threshold}")
    best: dict[tuple, dict[float, float]] = {}
    count = 0
    for number, row in enumerate(rows, 1):
        values = []
        for name, kind in (("model", str), ("d", int), ("k", int), ("J", float), ("tau", float),
                           ("fidelity", float)):
            try:
                values.append(kind(row[name]))
            except (KeyError, TypeError) as err:
                raise ConfigError(f"rows are not a fidelity grid: missing field {err}") from err
            except ValueError:
                raise ConfigError(f"row {number}: {name} = {row[name]!r} is not a number") from None
        model, d, k, J, tau, fid = values
        if math.isnan(fid):
            continue  # extinct rows carry nan fidelity
        count += 1
        group = best.setdefault((model, d, k), {})
        group[J * tau] = max(group.get(J * tau, 0.0), fid)
    if count == 0:
        raise ConfigError("rows are not a fidelity grid: no usable fidelity entries")
    summaries = []
    for (model, d, k) in sorted(best):
        group = best[(model, d, k)]
        jts = sorted(group)
        summary = RegionSummary(model=model, d=d, k=k, jtau=jts,
                                max_fidelity=[group[j] for j in jts])
        summary.imperfect = [j for j in jts if group[j] <= threshold]
        summaries.append(summary)
    return summaries
