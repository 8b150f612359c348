"""Spans recorded around the calls into each zenocool layer, and what they add up to.

A span is a dict with `id`, `name` (`<layer>.<call>`), `start`, `end`,
`parent` (the id of the span open when it started, or None) and `point`
(the grid point it belongs to: every span from a `protocol.zeno_run` call
down shares that call's point id).  Spans live in memory until the traced
sweep ends.  The wrappers are installed from the benchmark, around the
package's public names, so the package itself is not edited.
"""
from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from typing import Callable, Optional

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._point: Optional[int] = None
        self._points = 0

    def wrap(self, name: str, fn: Callable, *, new_point: bool = False,
             note: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `note(args, result, error)` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_point = self._point
            if new_point:
                self._point = self._points
                self._points += 1
            span = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
                    "parent": self._open[-1] if self._open else None, "point": self._point}
            self.spans.append(span)
            self._open.append(span["id"])
            result = error = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                self._point = outer_point
                if note is not None:
                    span.update(note(args, result, error))

        return traced

    def install(self) -> Callable:
        """Wrap the layer boundaries; returns the traced `write_results`."""
        from zenocool import evolution, hamiltonians, sweeps

        sweeps.run_sweep = self.wrap("sweeps.run_sweep", sweeps.run_sweep,
                                     note=lambda a, r, e: {"rows": len(r) if r else 0})
        sweeps.zeno_run = self.wrap("protocol.zeno_run", sweeps.zeno_run, new_point=True,
                                    note=_zeno_run_note)
        for cls in (hamiltonians.XXZSpec, hamiltonians.BBHSpec, hamiltonians.SpinStarSpec):
            cls.build = self.wrap("hamiltonians.build", cls.build)
        prop = evolution.LindbladPropagator
        prop.__init__ = self.wrap("evolution.setup", prop.__init__)
        prop.apply = self.wrap("evolution.apply", prop.apply,
                               note=lambda a, r, e: {"D": a[1].shape[0], "method": a[0].method})
        return self.wrap("sweeps.write_results", sweeps.write_results)


def _zeno_run_note(args, record, error) -> dict:
    config = args[0]
    if record is not None:
        rounds, extinct = len(record.steps), False
    elif hasattr(error, "partial"):           # ExtinctionError: the dying round ran too
        rounds, extinct = error.step, True
    else:
        rounds, extinct = 0, False
    return {"closed": config.bath is None, "rounds": rounds, "extinct": extinct}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile with >= 10 samples beyond it.

    Nearest-rank percentiles: the p-th is the ceil(p*n/100)-th smallest sample,
    and the samples beyond it are the ones ranked after it.  With fewer than
    20 samples no percentile qualifies and the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    rank = max(1, math.ceil(n / 2))
    return 50.0, ordered[rank - 1]


def sweep_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced `write_results` call."""
    selfs = self_times(spans)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def total(name, of=lambda s: s["end"] - s["start"]):
        return float(sum(of(s) for s in named[name]))

    def self_of(name):
        return total(name, lambda s: selfs[s["id"]])

    runs = named["protocol.zeno_run"]
    closed = {s["point"] for s in runs if s["closed"]}
    closed_builds = sum(1 for s in named["hamiltonians.build"] if s["point"] in closed)
    applies = named["evolution.apply"]
    out = {
        "sweeps.emit_s": self_of("sweeps.write_results"),
        "sweeps.self_s": self_of("sweeps.write_results") + self_of("sweeps.run_sweep"),
        "sweeps.rows": float(sum(s["rows"] for s in named["sweeps.run_sweep"])),
        "sweeps.points": float(len(runs)),
        "protocol.zeno_run_s": total("protocol.zeno_run"),
        "protocol.self_s": self_of("protocol.zeno_run"),
        "protocol.rounds": float(sum(s["rounds"] for s in runs)),
        "protocol.extinct_points": float(sum(s["extinct"] for s in runs)),
        "protocol.eig_reuse": 1.0 - closed_builds / len(closed) if closed else 0.0,
        "hamiltonians.build_s": total("hamiltonians.build"),
        "hamiltonians.builds": float(len(named["hamiltonians.build"])),
        "evolution.setup_s": total("evolution.setup"),
        "evolution.setups": float(len(named["evolution.setup"])),
        "evolution.apply_s": total("evolution.apply"),
        "evolution.applies": float(len(applies)),
        "evolution.rk4_applies": float(sum(s["method"] == "rk4" for s in applies)),
        # computed, not measured: one complex superoperator matvec on a D x D state
        "evolution.apply_flops": float(sum(8 * s["D"] ** 4 for s in applies)),
        "evolution.apply_bytes": float(sum(16 * s["D"] ** 4 for s in applies)),
    }
    return out
