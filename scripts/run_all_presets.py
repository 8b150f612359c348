#!/usr/bin/env python3
"""Run every pinned figure preset into out/<preset>/ (results.csv + manifest.json).

All nine presets take 2.4-3.0 s of wall time on one worker, interpreter
start included (2 vCPUs on a shared host; fig_chain and fig_star take three
quarters of it); pass --only to run a subset, --workers to parallelize grid points.
"""
import argparse
import sys
import time

from zenocool.presets import PRESETS, preset_sweeps
from zenocool.sweeps import ConfigError, write_results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root (default ./out)")
    parser.add_argument("--only", nargs="*", default=None, help="subset of preset ids")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--include-d5", action="store_true", help="fig4: add the d=5 panel")
    args = parser.parse_args()

    ids = args.only if args.only else sorted(PRESETS)
    try:    # every preset is read before the first one runs
        sweeps = {preset_id: preset_sweeps(preset_id, include_d5=args.include_d5
                                           and preset_id == "fig4") for preset_id in ids}
        for preset_id, specs in sweeps.items():
            t0 = time.time()
            csv_path, _ = write_results(specs, f"{args.out}/{preset_id}", workers=args.workers)
            print(f"{preset_id}: {csv_path} ({time.time() - t0:.1f}s)")
    except ConfigError as err:      # the one-line messages and exit code of the CLI
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
