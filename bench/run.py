"""Benchmark of zenocool's figure sweeps, end to end and layer by layer.

    python3 bench/run.py --workload closed_large --seed 1 --seconds 30 --trace 0

Run from any directory; the checkout is the parent of bench/.  Each sweep
runs `zenocool.sweeps.write_results(specs, out, workers=1)` for the
workload's SweepSpecs (bench/workloads.py) in a fresh interpreter, one
caller waiting for each point (a closed loop), with BLAS at its default
thread count.  Sweeps repeat until --seconds have passed, and at least
MIN_REPS times; timings are medians over them.  Every results.csv is checked
(bench/check.py) and each grid point that raised or missed a check counts
as failed.

--trace 0 reports the end-to-end metrics:
  sweep_s       wall time of write_results, to finished results.csv + manifest.json
  rounds_per_s  measurement rounds the workload asks for / sweep_s
  setup_s       fresh interpreter -> import zenocool -> SweepSpecs built
  peak_rss_mb   peak resident memory of the interpreter that ran a sweep
and prints failed_frac (failed / attempted points) beside them.

--trace 1 alternates untraced and traced sweeps and probes the workload's
reference point (bench/worker.py); it reports the per-layer metrics, which
come from the spans in bench/spans.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with the host,
goes to .bench_out/ in the checkout, and traced runs write their spans there.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3            # untraced sweeps in a --trace 0 run, however short --seconds is
MIN_TRACE_PAIRS = 2     # untraced + traced sweep pairs in a --trace 1 run
SETUP_SAMPLES = 5       # set-up-only interpreters per --trace 0 run, besides the sweeps
DEADLINE_S = 165.0      # start no sweep that would end a run after this
KILL_AT_S = 172.0       # a run must end within 180 s: stop any worker still running then
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
METRICS = json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))


class WorkerFailed(RuntimeError):
    pass


class Run:
    """One benchmark invocation: spawns workers, checks their output, keeps the samples."""

    def __init__(self, workload: str, seed: int, reference: dict, expected_points: int):
        import check

        self.workload, self.seed = workload, seed
        self.reference, self.expected_points = reference, expected_points
        self.start = time.perf_counter()
        self.check = check.CheckResult()
        self.longest_rep = 0.0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def time_left(self) -> bool:
        return self.elapsed() + 1.2 * self.longest_rep < DEADLINE_S

    def spawn(self, mode: str, *extra: str, env_extra: dict | None = None) -> tuple[float, dict]:
        """Run worker.py; returns (seconds until its `ready` line, its JSON result)."""
        env = dict(self.env, **(env_extra or {}))
        args = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", self.workload,
                "--seed", str(self.seed), *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        chunks, ready_at = [], None
        try:
            while True:
                left = self.start + KILL_AT_S - time.perf_counter()
                if left <= 0:
                    raise WorkerFailed(f"worker {mode} still running {KILL_AT_S:.0f} s "
                                       "into the run")
                if not select.select([proc.stdout], [], [], left)[0]:
                    continue
                data = os.read(proc.stdout.fileno(), 1 << 16)
                if not data:
                    break
                if ready_at is None and b"\n" in data:
                    ready_at = time.perf_counter()
                chunks.append(data)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        lines = b"".join(chunks).decode().splitlines()
        if proc.returncode != 0 or not lines or lines[0] != "ready" or len(lines) < 2:
            raise WorkerFailed(f"worker {mode} exited with code {proc.returncode}")
        try:
            return ready_at - t0, json.loads(lines[-1])
        except ValueError as err:
            raise WorkerFailed(f"worker {mode} printed no result: {err}") from err

    def sweep(self, trace: bool) -> dict | None:
        """One checked sweep; returns the worker's result, or None when it failed."""
        import check

        OUT.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="sweep-", dir=OUT)
        t0 = time.perf_counter()
        try:
            setup_s, result = self.spawn("sweep", "--out", tmp, *(["--trace"] if trace else []))
            points = check.read_points(Path(tmp) / "results.csv")
        except (WorkerFailed, OSError, ValueError) as err:
            print(f"# sweep failed: {err}", file=sys.stderr)
            self.check.add(check.CheckResult(attempted=self.expected_points,
                                             failed=self.expected_points))
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            self.longest_rep = max(self.longest_rep, time.perf_counter() - t0)
        self.check.add(check.check_points(points, self.reference, self.expected_points))
        result["setup_s"] = setup_s
        return result


def end_to_end(run: Run, seconds: float, rounds: int) -> tuple[dict, dict]:
    run.spawn("setup")                       # fills the bytecode caches; not a sample
    setups = [run.spawn("setup")[0] for _ in range(SETUP_SAMPLES)]
    reps = []
    while len(reps) < MIN_REPS or run.elapsed() < seconds:
        if not run.time_left():
            break
        rep = run.sweep(trace=False)
        if rep is not None:
            reps.append(rep)
    if not reps:
        raise WorkerFailed("no sweep finished")
    setups += [r["setup_s"] for r in reps]
    sweep_s = statistics.median([r["sweep_s"] for r in reps])
    metrics = {
        "sweep_s": sweep_s,
        "rounds_per_s": rounds / sweep_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
    }
    samples = {"sweep_s": [r["sweep_s"] for r in reps], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps], "rounds": rounds}
    return metrics, samples


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    import spans

    _, probe = run.spawn("probe")
    _, probe_1t = run.spawn("probe", env_extra=ONE_BLAS_THREAD)
    plain, traced = [], []
    while len(traced) < MIN_TRACE_PAIRS or run.elapsed() < seconds:
        if not run.time_left():
            break
        rep = run.sweep(trace=False)
        if rep is not None:
            plain.append(rep)
        rep = run.sweep(trace=True)
        if rep is not None:
            traced.append(rep)
    if not plain or not traced:
        raise WorkerFailed("no traced and untraced sweep pair finished")

    # the traced sweep of median length gives every layer figure, so that they add up
    typical = sorted(traced, key=lambda r: r["sweep_s"])[(len(traced) - 1) // 2]
    metrics = spans.sweep_metrics(typical["spans"])
    zeno_ms = [1e3 * (s["end"] - s["start"]) for r in traced for s in r["spans"]
               if s["name"] == "protocol.zeno_run"]
    tail_pct, tail_ms = spans.tail_percentile(zeno_ms)
    layer_self_s = (metrics["sweeps.self_s"] + metrics["protocol.self_s"]
                    + metrics["hamiltonians.build_s"] + metrics["evolution.setup_s"]
                    + metrics["evolution.apply_s"])
    fit_ms = probe["round_ms"] - probe["fidelity_ms"]
    metrics.update({
        "protocol.zeno_run_ms_p50": statistics.median(zeno_ms),
        "protocol.zeno_run_ms_tail": tail_ms,
        "protocol.zeno_run_tail_pct": tail_pct,
        "protocol.zeno_run_n": float(len(zeno_ms)),
        "protocol.round_ms": probe["round_ms"],
        "protocol.setup_ms": probe["setup_ms"],
        "protocol.spectrum_ms": probe["spectrum_ms"],
        "protocol.round_flops": float(probe["round_flops"]),
        "protocol.round_gflops": probe["round_flops"] / fit_ms / 1e6 if fit_ms > 0 else 0.0,
        "protocol.blas_1t_ratio": probe_1t["round_ms"] / probe["round_ms"],
        "qudit.fidelity_ms": probe["fidelity_ms"],
        "qudit.fidelity_share": probe["fidelity_ms"] / probe["round_ms"],
        "trace.sweep_s": typical["sweep_s"],
        "trace.bench_s": typical["sweep_s"] - layer_self_s,
        "trace.overhead_frac":
            typical["sweep_s"] / statistics.median([r["sweep_s"] for r in plain]) - 1.0,
    })
    samples = {"traced_sweep_s": [r["sweep_s"] for r in traced],
               "untraced_sweep_s": [r["sweep_s"] for r in plain],
               "layer_self_s": layer_self_s, "probe": probe, "probe_1_blas_thread": probe_1t,
               "spans": [r["spans"] for r in traced]}
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="chooses the contour points")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "zenocool" / "__init__.py").is_file():
        print(f"error: no zenocool sources under {SRC}; run from a zenocool checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import host
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    specs = workloads.sweeps(args.workload, args.seed)
    expected = sum(len(spec.grid()) for spec in specs)
    rounds = workloads.requested_rounds(specs)
    run = Run(args.workload, args.seed, check.load_reference(args.workload), expected)
    try:
        if args.trace:
            metrics, samples = per_layer(run, args.seconds)
        else:
            metrics, samples = end_to_end(run, args.seconds, rounds)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = {name: spec["unit"]
             for name, spec in METRICS["per_layer" if args.trace else "end_to_end"].items()}
    metrics = {name: metrics[name] for name in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "points_per_sweep": expected, "rounds_per_sweep": rounds,
              "host": host.host_record(ROOT), "metrics": metrics, "samples": samples,
              "check": vars(run.check)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    ck = run.check
    print(f"# host {json.dumps(record['host'])}")
    if args.trace:
        measured = (f"{len(samples['traced_sweep_s'])} traced and "
                    f"{len(samples['untraced_sweep_s'])} untraced sweeps")
    else:
        measured = f"{len(samples['sweep_s'])} sweeps"
    print(f"# {args.workload} seed {args.seed}: {expected} points and {rounds} rounds per sweep, "
          f"{measured}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':28s} {ck.failed / max(1, ck.attempted):14.6g} ratio "
          f"({ck.failed} of {ck.attempted} points)")
    if args.trace:
        print(f"# layer self times {samples['layer_self_s']:.6f} s + trace.bench_s "
              f"{metrics['trace.bench_s']:.6f} s = trace.sweep_s {metrics['trace.sweep_s']:.6f} s")
    print(f"# worst deviation: reference {ck.worst_reference_dev:.3g}, oracle "
          f"{ck.worst_oracle_dev:.3g} (tolerance {check.TOL:g})")
    for line in ck.failures[:10]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
