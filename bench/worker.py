"""One fresh interpreter of the benchmark: a timed workload sweep, or the reference-point probe.

`run.py` starts this file with the checkout's `src/` on PYTHONPATH.  It prints
`ready` once zenocool is imported and the workload's SweepSpecs are built
(the parent times set-up up to that line), then one JSON line with what it
measured.

    python3 bench/worker.py setup --workload closed_small --seed 1
    python3 bench/worker.py sweep --workload closed_small --seed 1 --out DIR [--trace]
    python3 bench/worker.py probe --workload closed_small
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import warnings

import workloads
from zenocool import (
    low_lying_mixture,
    partial_trace,
    uhlmann_fidelity,
    write_results,
    zeno_run,
    zeno_spectrum,
)

PROBE_ROUNDS = (50, 100, 200)
PROBE_MIN_REPEATS = 5
PROBE_MIN_SECONDS = 1.0


def _ready() -> None:
    print("ready", flush=True)


def sweep(args) -> dict:
    specs = workloads.sweeps(args.workload, args.seed)
    run = write_results
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        run = tracer.install()
    _ready()
    t0 = time.perf_counter()
    run(specs, args.out, workers=1)
    sweep_s = time.perf_counter() - t0
    out = {"sweep_s": sweep_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def _median_time(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < PROBE_MIN_REPEATS or time.perf_counter() - start < PROBE_MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(args) -> dict:
    """Round cost, set-up cost, spectrum and fidelity extraction at the reference point."""
    from host import blas_threads

    config = workloads.reference_point(args.workload)
    _ready()
    zeno_run(config, retain_state=False)          # warm the eigendecomposition cache and BLAS
    seconds = [_median_time(lambda n=n: zeno_run(
        dataclasses.replace(config, n_measurements=n), retain_state=False))
        for n in PROBE_ROUNDS]
    slope, intercept = statistics.linear_regression(PROBE_ROUNDS, seconds)

    # the round map has no spectrum with a bath attached: time its closed counterpart
    closed = dataclasses.replace(config, bath=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # degenerate dominant eigenvalue
        spectrum_s = _median_time(lambda: zeno_spectrum(closed))

    final = zeno_run(config, retain_state=True).final_state
    sigma = low_lying_mixture(config.layout.d, config.prep_rank, config.hamiltonian.h)
    targets = config.layout.target_sites
    fidelity_s = _median_time(
        lambda: [uhlmann_fidelity(partial_trace(final, [j]), sigma) for j in targets])

    d, L = config.layout.d, config.layout.L
    if config.bath is None:
        n = config.rank * d ** L        # the closed round runs on the projector support
        flops = 16 * n ** 3
    else:
        D = d ** (L + 1)                # full-space projection plus one superoperator matvec
        flops = 16 * D ** 3 + 8 * D ** 4
    return {"round_ms": 1e3 * slope, "setup_ms": 1e3 * intercept, "spectrum_ms": 1e3 * spectrum_s,
            "fidelity_ms": 1e3 * fidelity_s, "round_flops": flops, "blas_threads": blas_threads()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "sweep", "probe"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        workloads.sweeps(args.workload, args.seed)
        _ready()
        result = {}
    else:
        result = sweep(args) if args.mode == "sweep" else probe(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
