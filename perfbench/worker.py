"""One fresh worker process of the benchmark; ``run.py`` starts it.

Both modes import sumgraph and set the workload up, timing each, then:
  measure  run whole passes for --seconds, check the outputs and report
           each operation's latency and each pass's checks per second
  trace    the same with the tracer installed, then replay the same passes
           untraced to get the tracing overhead; writes the spans and the
           per-layer table under .perfbench/ in the checkout

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_table, write_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_sumgraph():
    """Import the package from this checkout's ``src`` and time it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    sg = importlib.import_module("sumgraph")
    importlib.import_module("sumgraph.cli")
    elapsed = time.perf_counter() - start
    if not Path(sg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sumgraph was imported from {sg.__file__}, not from {src}")
    return sg, elapsed


@dataclass
class Done:
    """What is kept of a pass once its outputs are checked and dropped."""

    latencies: list[float]
    seconds: float
    checks: int
    attempted: int
    failed: int


def run_pass(workload, index: int, tracer: Tracer | None) -> Done | None:
    """One pass, then its checks outside the timed calls and the trace;
    None if the pass raised."""
    try:
        p = workload.run_pass(index)
    except Exception:  # a failed pass is counted, not fatal
        traceback.print_exc()
        return None
    if tracer is not None:
        tracer.recording = False
    try:
        attempted, failed = workload.check(p)
    except Exception:
        traceback.print_exc()
        attempted, failed = workload.pass_checks, workload.pass_checks
    finally:
        if tracer is not None:
            tracer.recording = True
    return Done(p.latencies, p.seconds, p.checks, attempted, failed)


def run_passes(workload, seconds: float, passes: int | None, tracer: Tracer | None = None) -> list[Done | None]:
    """Whole passes until ``seconds`` have gone by (or exactly ``passes``)."""
    done: list[Done | None] = []
    start = time.perf_counter()
    while True:
        if passes is not None:
            if len(done) == passes:
                break
        elif len(done) >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
        done.append(run_pass(workload, len(done), tracer))
    return done


def tally(workload, passes: list[Done | None]) -> tuple[int, int]:
    attempted = failed = 0
    for d in passes:
        attempted += workload.pass_checks if d is None else d.attempted
        failed += workload.pass_checks if d is None else d.failed
    return attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("measure", "trace"))
    args = ap.parse_args()

    sg, import_s = import_sumgraph()
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](sg, random.Random(args.seed))
    result = {"import_s": import_s, "setup_s": import_s + time.perf_counter() - start}

    if args.mode == "measure":
        passes = run_passes(workload, args.seconds, None)
        result["latencies"] = [x for d in passes if d for x in d.latencies]
        result["rates"] = [d.checks / d.seconds for d in passes if d]
        result["attempted"], result["failed"] = tally(workload, passes)
    elif args.mode == "trace":
        with Tracer(sg) as tracer:
            traced = run_passes(workload, args.seconds, None, tracer)
        untraced = run_passes(workload, 0, len(traced))
        spans = tracer.spans
        n = len(traced)
        table = layer_table(spans, n)
        table["cli.import_s"] = import_s
        table["trace.overhead_s"] = (
            sum(d.seconds for d in traced if d) - sum(d.seconds for d in untraced if d)
        ) / n
        meta = {"workload": args.workload, "seed": args.seed, "passes": n, "spans": len(spans)}
        stem = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}"
        write_spans(Path(f"{stem}.spans.jsonl.gz"), spans, meta)
        Path(f"{stem}.layers.json").write_text(json.dumps({"meta": meta, "layers": table}, indent=1) + "\n")
        result["layers"] = table
        result["attempted"], result["failed"] = tally(workload, traced + untraced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
