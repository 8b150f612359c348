"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 oracle-check failure,
3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict

from .oracles import oracle_check
from .presets import PRESETS, preset_sweeps
from .protocol import zeno_spectrum
from .sweeps import AXES, ConfigError, classify_regions, load_config, write_results

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenocool",
        description="Measurement-based subspace cooling of qudit spin systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSON sweep config")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--out", required=True, help="output directory for CSV + manifest")
    run.add_argument("--workers", type=int, default=1)

    pre = sub.add_parser("preset", help="execute a pinned figure grid")
    pre.add_argument("id", help=f"one of {sorted(PRESETS)}")
    pre.add_argument("--out", required=True)
    pre.add_argument("--workers", type=int, default=1)
    pre.add_argument("--include-d5", action="store_true",
                     help="fig4 only: add the d=5 panel")

    sub.add_parser("oracle-check", help="engine vs closed-form agreement grids")

    spec = sub.add_parser("spectrum", help="dump the round-map spectrum as JSON")
    spec.add_argument("--config", required=True)

    cls = sub.add_parser("classify", help="imperfect refrigerating regions from a results CSV")
    cls.add_argument("--in", dest="input", required=True)
    cls.add_argument("--threshold", type=float, default=0.96)
    return parser


@contextmanager
def _file(flag: str, path):
    """Turn an error in reading or writing `path`, given by `flag`, into a ConfigError that
    names both."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) and err.strerror else err
        raise ConfigError(f"{flag} {path}: {reason}") from None


def _cmd_run(args) -> int:
    with _file("--config", args.config):
        spec = load_config(args.config)
    with _file("--out", args.out):
        csv_path, manifest_path = write_results([spec], args.out, workers=args.workers)
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    sweeps = preset_sweeps(args.id, include_d5=args.include_d5)
    with _file("--out", args.out):
        csv_path, manifest_path = write_results(sweeps, args.out, workers=args.workers)
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def _cmd_oracle_check() -> int:
    report = oracle_check()
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_ORACLE


def _cmd_spectrum(args) -> int:
    with _file("--config", args.config):
        spec = load_config(args.config)
    for label, name, _ in AXES:
        if getattr(spec, name) is not None:
            raise ConfigError(f"axes.{label}: spectrum takes a single-point config (no axes)")
    result = zeno_spectrum(spec.base)
    doc = {
        "eigenvalues": [[v.real, v.imag] for v in result.eigenvalues],
        "dominant_right": [[v.real, v.imag] for v in result.dominant_right],
        "dominant_left": [[v.real, v.imag] for v in result.dominant_left],
        "dominant_is_simple": result.dominant_is_simple,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_classify(args) -> int:
    with _file("--in", args.input), open(args.input, encoding="utf-8", newline="") as fh:
        summaries = classify_regions(csv.DictReader(fh), threshold=args.threshold)
    print(json.dumps({"threshold": args.threshold,
                      "groups": [asdict(s) for s in summaries]}, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "preset":
            code = _cmd_preset(args)
        elif args.command == "oracle-check":
            code = _cmd_oracle_check()
        elif args.command == "spectrum":
            code = _cmd_spectrum(args)
        else:
            code = _cmd_classify(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        code = EXIT_VALIDATION
    except ValueError as err:
        print(f"validation error: {err}", file=sys.stderr)
        code = EXIT_VALIDATION
    except RuntimeError as err:         # ExtinctionError included
        print(f"runtime error: {err}", file=sys.stderr)
        code = EXIT_RUNTIME
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
