"""Benchmark of sumgraph: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep|verify|queries --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``sumgraph`` from ``src/``.
Every workload runs in fresh worker processes (``worker.py``), one at a
time, so that group caches, import cost and peak memory belong to that
workload alone.  Load is a closed loop with one client in one process.

``--trace 0`` runs three workers in turn.  Each sets the workload up, then
measures whole passes for a third of ``--seconds`` and checks its outputs.
Spreading the measurement over three stretches of the run, and taking
medians over all their passes, keeps a slow spell of the shared machine
from setting a run's figures; ``setup_s`` is the median of the three
set-ups.  ``--trace 1`` runs one worker for ``--seconds`` with spans
recorded around the package's public functions and reports the per-layer
split.

Prints one line per metric, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "verify", "queries")
SEGMENTS = 3
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_self_s": "s/pass",
    "exprs.parse_s": "s/pass",
    "groups.construct_calls": "count/pass",
    "groups.construct_s": "s/pass",
    "groups.validate_s": "s/pass",
    "groups.lattice_calls": "count/pass",
    "groups.lattice_s": "s/pass",
    "groups.subgroups_found": "count/pass",
    "groups.classes_s": "s/pass",
    "groups.generated_calls": "count/pass",
    "groups.generated_s": "s/pass",
    "groups.cosets_calls": "count/pass",
    "groups.cosets_s": "s/pass",
    "codes.decide_calls": "count/pass",
    "codes.decide_self_s": "s/pass",
    "codes.witness_ratio": "ratio",
    "graphs.build_calls": "count/pass",
    "graphs.build_s": "s/pass",
    "graphs.build_oracle_s": "s/pass",
    "graphs.build_decider_s": "s/pass",
    "graphs.components_s": "s/pass",
    "codes.oracle_calls": "count/pass",
    "codes.oracle_self_s": "s/pass",
    "codes.oracle_found_ratio": "ratio",
    "codes.crosscheck_self_s": "s/pass",
    "codes.checks": "count/pass",
    "codes.disagreements": "count/pass",
    "families.calls": "count/pass",
    "families.s": "s/pass",
    "trace.overhead_s": "s/pass",
}


def worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker to completion; it is killed at ``deadline``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sumgraph" / "__init__.py").is_file():
        print(f"error: no sumgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = worker(args.workload, args.seed, args.seconds, "trace", deadline)
        metrics = {name: (result["layers"][name], unit) for name, unit in PER_LAYER.items()}
    else:
        runs = [worker(args.workload, args.seed, args.seconds / SEGMENTS, "measure", deadline) for _ in range(SEGMENTS)]
        latencies = [x for r in runs for x in r["latencies"]]
        rates = [x for r in runs for x in r["rates"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "checks_per_s": statistics.median(rates),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        result = {key: sum(r[key] for r in runs) for key in ("attempted", "failed")}

    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:28s} {value:14.6f} {unit}")
    print(f"{args.workload:8s} {'failed_frac':28s} {failed / attempted:14.6f} ratio")
    if not args.trace:
        print(f"{args.workload:8s} samples: {len(latencies)} operations in {len(rates)} passes")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
