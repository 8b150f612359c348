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

A sweep's rows are CSV text, one line each.  A grid point's fixed fields,
preset_id to tau, go through csv.writer once, so they are quoted as
csv.writer quotes them.  The rest of a row is numbers: each point's run
(`zeno_run`, in a pool worker or not) leaves a table of them, and the
sweep's tables are written in passes of a few thousand values: N_step and
site as %d writes them, the four floats by `_g17`, which gives the bytes of
'%.17g' % x (f'{x:.17g}' for every float, nan and the infinities included)
for a whole array at once.  `run_sweep` returns these lines, `write_results`
writes them after the header, and `classify_regions` reads them back.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

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
        if self.theta_axis is not None and "theta" not in {f.name for f in fields(ham)}:
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


def _row_prefix(preset_id: str, config: ProtocolConfig) -> str:
    """The point's fields preset_id .. tau as CSV text, quoted as csv.writer quotes them."""
    ham = config.hamiltonian
    dort = getattr(ham, "Delta", getattr(ham, "theta", None))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        (preset_id, config.layout.topology, ham.model, config.layout.d, config.layout.L,
         config.rank, "%.17g" % ham.J, "" if dort is None else "%.17g" % dort,
         "%.17g" % config.tau))
    return out.getvalue()[:-1]


def _point_table(config: ProtocolConfig, recorded: list[int]) -> np.ndarray:
    """The point's rows as numbers, one per recorded step and site: N_step, site, fidelity,
    step_probability, cum_probability, log_cum_probability and extinct."""
    try:
        record, extinction = zeno_run(config), None
    except ExtinctionError as err:
        record, extinction = err.partial, err
    ran, sites = len(record.steps), config.layout.L
    steps = [n for n in recorded if n <= ran]
    # row n of fids and tail is round n: round 0 is the initial state, round ran + 1 the
    # dying round of an extinct run
    fids = np.empty((ran + 2, sites))
    fids[0], fids[1:-1], fids[-1] = record.initial_fidelities, record.fidelities, math.nan
    tail = np.zeros((ran + 2, 4))
    tail[0, :2] = 1.0
    tail[1:-1, 0] = record.step_probabilities
    tail[1:-1, 1] = record.cumulative_probabilities
    tail[1:-1, 2] = record.log_cumulative
    if extinction is not None:
        log_prev = record.log_cumulative[-1] if ran else 0.0
        dead_log = log_prev + (math.log(extinction.probability)
                               if extinction.probability > 0 else -math.inf)
        tail[-1] = (extinction.probability,
                    math.exp(dead_log) if math.isfinite(dead_log) else 0.0, dead_log, 1.0)
        steps.append(extinction.step)
    steps = np.array(steps, dtype=np.intp)
    table = np.empty((len(steps), sites, 7))
    table[..., 0] = steps[:, None]
    table[..., 1] = np.arange(1, sites + 1)
    table[..., 2] = fids[steps]
    table[..., 3:] = tail[steps, None]
    return table.reshape(-1, 7)


# `_g17` writes a float's text in a column of 30 byte slots: 0 ',', 1 the sign, 2-6 '0.000'
# before a fixed value below 1, 7-24 the 17 digits with a '.' moved in among them, 25-29 'e',
# the exponent's sign and its three digits.  An unused slot holds NUL, and NULs are dropped
# before the text is decoded.
_SLOTS = 30
_VALUES_PER_PASS = 1 << 12     # a pass's buffers stay near 1 MB, below a sweep's peak
_SPLIT = 134217729.0           # 2**27 + 1: Dekker's split of a double into two halves
_PLACE = np.arange(18, dtype=np.uint8)[:, None]     # a digit's place, one row each


@functools.lru_cache(maxsize=None)
def _pow10(n: int) -> tuple[float, float]:
    """10**n as a double-double (hi, lo), both rounded from exact integers; `_g17` asks for
    n in [-264, 297] only, so the cache stays below 562 entries."""
    num, den = (10 ** n, 1) if n >= 0 else (1, 10 ** -n)
    hi = num / den                      # int / int is correctly rounded
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    high = c - (c - v)
    return high, v - high


def _g17(x: np.ndarray) -> np.ndarray:
    """The (30, n) byte slots of ',' + '%.17g' % x[i], one column each.

    |x| times a double-double 10**(16 - E), E = floor(log10 |x|), comes within about 1e-14
    of the exact product, and its rounding gives the 17 digits; %g writes them as fixed
    (-4 <= E < 17) or scientific text without trailing zeros.  Zeros, nan and the
    infinities, and any value within 1e-12 of a rounding tie, whose E is one off next to a
    power of ten, or outside [1e-280, 1e280], take Python's '%.17g' instead.
    """
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    shift = 16 - e
    low = int(shift.min())
    present = np.flatnonzero(np.bincount(shift - low))
    pow_hi, pow_lo = np.zeros((2, present[-1] + 1))
    pow_hi[present], pow_lo[present] = np.array([_pow10(low + int(k)) for k in present]).T
    hi, lo = pow_hi[shift - low], pow_lo[shift - low]
    top = a * hi                            # an integer where E is right: top >= 1e16 > 2**53
    (a1, a2), (h1, h2) = _halves(a), _halves(hi)
    rest = (((a1 * h1 - top) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo
    below = np.floor(rest)
    frac = rest - below
    d = top.astype(np.int64) + below.astype(np.int64)
    ok &= (d >= 10 ** 16) & (np.abs(frac - 0.5) > 1e-12)
    d += frac > 0.5
    ok &= d < 10 ** 17                                      # else E is low, or rounds up

    out = np.zeros((_SLOTS, len(x)), np.uint8)
    out[0] = ord(",")
    out[1] = np.signbit(x) * np.uint8(ord("-"))
    digits = np.zeros((18, len(x)), np.uint8)
    for half, rows in ((d % 10 ** 8, range(16, 8, -1)), (d // 10 ** 8, range(8, 0, -1))):
        half = half.astype(np.int32)
        for j in rows:
            quotient = half // 10
            digits[j] = half - quotient * 10
            half = quotient
    digits[0] = half
    last = ((digits != 0) * _PLACE).max(axis=0)             # the last nonzero digit
    digits += np.uint8(48)
    fixed = (e >= -4) & (e < 17)
    out[2:7] = (np.arange(5)[:, None] < np.where(fixed & (e < 0), 1 - e, 0)) \
        * np.frombuffer(b"0.000", np.uint8)[:, None]
    whole = np.where(fixed, e + 1, 1)                       # digits before the point
    digits *= _PLACE < np.maximum(last + 1, whole).astype(np.uint8)
    out[7:25] = digits
    dot = np.where((last >= whole) & (whole > 0), whole, 18).astype(np.uint8)
    pointed = np.flatnonzero(dot < 18)                      # digits after the point move one on
    out[8:25, pointed] = np.where(_PLACE[1:] < dot[pointed], digits[1:, pointed],
                                  digits[:-1, pointed])
    out[7 + dot[pointed], pointed] = ord(".")
    sci = np.flatnonzero(~fixed)
    mag = np.abs(e[sci])
    out[25, sci] = ord("e")
    out[26, sci] = np.where(e[sci] < 0, ord("-"), ord("+"))
    out[27, sci] = np.where(mag >= 100, mag // 100 + 48, 0)
    out[28, sci] = mag // 10 % 10 + 48
    out[29, sci] = mag % 10 + 48
    odd = np.flatnonzero(~ok)
    if len(odd):
        text = np.array(["%.17g" % v for v in x[odd].tolist()], "S24").view(np.uint8)
        out[1:, odd] = 0
        out[1:25, odd] = text.reshape(-1, 24).T
    return out


def _row_tails(table: np.ndarray, ints: np.ndarray) -> Iterator[str]:
    """Each row's text after its prefix, from N_step to extinct and the newline; `ints`
    holds every N_step and site value of the table, sorted and distinct."""
    # N_step and site are integers that repeat from row to row: each distinct one is
    # written once, as %d writes it
    int_text = np.array([",%d" % n for n in ints.astype(np.int64).tolist()], "S")
    int_text = int_text.view(np.uint8).reshape(len(ints), -1)
    where = np.searchsorted(ints, table[:, :2])
    rows_per_pass = _VALUES_PER_PASS // 4
    for start in range(0, len(table), rows_per_pass):
        block = table[start:start + rows_per_pass]
        count = len(block)
        text = np.empty((count, 2 * int_text.shape[1] + 4 * _SLOTS + 3), np.uint8)
        text[:, :2 * int_text.shape[1]] = int_text[where[start:start + count]].reshape(count, -1)
        floats = _g17(block[:, 2:6].ravel()).reshape(_SLOTS, count, 4)
        text[:, -4 * _SLOTS - 3:-3].reshape(count, 4, _SLOTS)[...] = floats.transpose(1, 2, 0)
        text[:, -3] = ord(",")
        text[:, -2] = block[:, 6] + 48
        text[:, -1] = ord("\n")
        yield from text.tobytes().translate(None, b"\0").decode("ascii").splitlines(keepends=True)


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
    workers = min(workers, len(configs))    # a pool forks all its workers at once
    if workers <= 1:
        tables = list(map(_point_table, configs, recorded))
    else:       # each worker runs one point at a time; map keeps the order of the configs
        need = workers * max(map(run_bytes, configs))
        if need > physical_memory():
            raise ValueError(f"workers (--workers) {workers} would run {workers} points at once "
                             f"in about {need:,} bytes, more than the {physical_memory():,} "
                             f"bytes of physical memory")
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            tables = list(pool.map(_point_table, configs, recorded))
    prefixes = [_row_prefix(spec.preset_id, config) for config in configs]
    per_row = itertools.chain.from_iterable(map(itertools.repeat, prefixes,
                                                [len(table) for table in tables]))
    # the distinct N_step values are each point's steps, which the points of a sweep mostly
    # share, and the sites are 1..L (np.unique would import numpy.ma)
    sites = spec.base.layout.L
    steps = {table[::sites, 0].tobytes(): table[::sites, 0] for table in tables}
    ints = np.array(sorted(set(range(1, sites + 1)).union(*(s.tolist() for s in steps.values()))))
    table = np.concatenate(tables)
    del tables                              # each row's numbers are held once while printed
    return list(map(operator.add, per_row, _row_tails(table, ints)))


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
