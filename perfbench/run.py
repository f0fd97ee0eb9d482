"""verity's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports verity from ``src/`` of the
same checkout. It generates the SF 0.001 fixture, sets it up as
``verity init`` does, runs the workload for about ``--seconds`` and checks
every output. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK_ROOT = os.path.join(HERE, ".work")
TRACE_DIR = os.path.join(HERE, ".out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["read", "write", "cold_start"])
    ap.add_argument("--seed", type=int, required=True, help="statement-stream seed")
    ap.add_argument("--seconds", type=float, required=True, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--fixture-seed", type=int, default=42, help="fixture data seed")
    return ap.parse_args(argv)


def environment() -> str:
    from importlib.metadata import version

    return (f"python {platform.python_version()}, cryptography {version('cryptography')}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("error: --seconds must not be negative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "verity", "__init__.py")):
        print(f"error: verity sources not found at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import run_workload

    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    trace_path = None
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(work_dir)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              work_dir, fixture_seed=args.fixture_seed,
                              trace_path=trace_path)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"environment: {environment()}")
    for line in result.notes:
        print(line)
    for name, value, unit in result.metrics:
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
