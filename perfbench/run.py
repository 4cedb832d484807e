"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed and
in-program telemetry off.  ``--trace 1`` measures the per-layer metrics: it
runs the loop untraced for half the seconds, then again traced from a fresh
set-up, and reports the tracing overhead between the two.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Everything else (host facts, sample counts, every check)
also goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("adhoc", "scan", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src`` and return the seconds taken."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}; run from a full checkout")
    os.environ["REPRO_TELEMETRY"] = "0"
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    import repro
    seconds = time.perf_counter() - began
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    own_import = import_program()  # first: nothing else imported numpy yet

    import measure
    import workloads
    from runner import run_traced, run_untraced

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Sizes(), workdir)
    try:
        if args.trace:
            report = run_traced(workload, args.seconds)
        else:
            report = run_untraced(workload, args.seconds, own_import, str(SRC))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["host"] = measure.host_facts(args.seed)
    report["workload"] = args.workload
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in report:
        report.pop("spans").dump(OUT / f"spans-{stem}.jsonl")
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(json.dumps({"host": report["host"]}))
    for line in report["notes"]:
        print(line)
    for name, entry in report["metrics"].items():
        print(f"{name:34s} {entry['value']:>14.6g} {entry['unit']}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
