"""End-to-end benchmark of the whole system.

Run from the repository root::

    python3 e2ebench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Workloads: ``materialise``, ``lookup``, ``ingest``, ``fanout`` (see
``e2ebench/workloads.json``).  With ``--trace 0`` the program runs with
its telemetry off and the end-to-end metrics are reported; with
``--trace 1`` a traced pass over every layer reports the per-layer
metrics.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import spec

EXIT_NO_PROGRAM = 2
EXIT_LEAKED = 3
UNITS = {**spec.END_TO_END, **spec.PER_LAYER, **spec.FANOUT_PER_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summarise(workload: str, m) -> tuple[dict, dict]:
    """End-to-end metric values, plus notes printed beside them."""
    from client import percentile

    q = spec.TAIL_QUANTILE[workload]
    values = {
        name: statistics.median(m.samples[name])
        for name in ("setup_s", "materialise_s", "first_answer_s",
                     "store_bytes_per_pair", "peak_rss_mb")
    }
    values["ops_per_s"] = m.ops / m.op_seconds
    values["p50_ms"] = statistics.median(m.latencies) * 1e3
    values["tail_ms"] = percentile(m.latencies, q) * 1e3
    beyond = round(len(m.latencies) * (1 - q))
    notes = {
        "tail_ms": f"p{q * 100:g} of {len(m.latencies)} samples ({beyond} beyond it)",
        "setup_s": f"median of {len(m.samples['setup_s'])} set-ups",
    }
    return values, notes


def report(workload: str, values: dict, notes: dict, attempted: int, failed: int) -> None:
    aliases = spec.ALIASES[workload]
    print(f"# e2ebench workload={workload}")
    for name, value in values.items():
        alias = aliases.get(name)
        label = f"{name} ({alias})" if alias and alias != name else name
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{label:52s} {value:14.6g} {UNITS[name]}{note}")
    print(f"{'error_frac':52s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "e2ebench: no program source at src/repro; run from the repository root",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(root / "src"))
    import workloads

    work_root = root / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = workloads.Bench(root, workdir, args.seconds, traced=bool(args.trace))
    try:
        c = workloads.Corpus(args.seed)
        if args.trace:
            import layers

            m, values, notes = layers.traced_pass(bench, c, args.workload)
        else:
            m = workloads.WORKLOADS[args.workload](bench, c)
            values, notes = summarise(args.workload, m)
    finally:
        bench.tracker.stop_all()
        leaks = bench.tracker.check()
        for leak in leaks:
            print(f"e2ebench: leaked after the run: {leak}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if leaks:
        return EXIT_LEAKED
    for problem in m.problems:
        print(f"# problem: {problem}")
    report(args.workload, values, notes, m.attempted, m.failed)
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
