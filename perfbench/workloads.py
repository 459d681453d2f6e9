"""The three benchmark workloads: ``sweep``, ``verify`` and ``queries``.

Each workload is built from an imported ``sumgraph`` package and a seeded
``random.Random``.  Building it is the workload's set-up (inputs, warm-up);
``run_pass`` then performs one fixed unit of timed work and returns a
:class:`Pass`; ``check`` verifies a pass's outputs outside the timed region.

Functions of the package are looked up through their module at call time
(``self.sg.cross_check``), never bound at import, so that the tracer in
``spans.py`` can swap in its wrappers while a traced run is under way.

See ``README.md`` beside this file for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

EXPECTED_SWEEP = Path(__file__).with_name("expected_sweep.json")

SWEEP_MAX_ORDER = 48
SWEEP_FAMILIES = ("cyclic", "dihedral", "dicyclic", "abelian")

# Orders 32-256 that ``scan`` never covers: many small graphs (the E2^5 and
# Q8 x E2^3 lattices have 374 and 425 normal subgroups) plus a few deep
# order-256 searches.
VERIFY_GROUPS = (
    "Q8 x Z2 x Z2 x Z2",
    "E2^5",
    "D16 x D8",
    "Q8 x Q8",
    "Dic6 x Z4",
    "D24 x Z4",
    "Q8 x Z12",
    "Z2 x Z2 x Z24",
    "D256",
    "Dic48",
)

# Every block of 20 queries asks about each of these groups once.  The small
# groups are 80% of the queries; the six of order 64 sit in the middle of
# the small population so that the median lands inside one cluster of
# similar cost.  The order-256 groups are 15% of the queries, so the 90th
# percentile falls inside their cluster rather than at a gap between
# populations.  The single order-512 group (5%) costs about as much as all
# the other queries of its block together.
QUERY_SMALL = (
    "Q8",
    "D24",
    "Dic6",
    "Z2 x Z2 x Z6",
    "Q8 x Z4",
    "Dic12",
    "D64",
    "E2^6",
    "Z2 x Z4 x Z8",
    "D16 x Z4",
    "Dic8 x Z2",
    "Z8 x Z8",
    "Z96",
    "Z12 x Z10",
    "Z128",
    "D128",
)
QUERY_MID = ("D256", "Dic64", "Z2 x Z2 x Z64")
QUERY_LARGE = ("D512",)
QUERY_BLOCK = len(QUERY_SMALL) + len(QUERY_MID) + len(QUERY_LARGE)
QUERY_STREAM_BLOCKS = 8  # distinct blocks generated; longer runs cycle them
# Per worker; run.py's three workers then make at least 120 requests, so
# the 90th percentile has at least ten beyond it.
QUERY_MIN_BLOCKS = 2


@dataclass
class Pass:
    """One unit of timed work.

    ``latencies`` are the seconds of each operation; ``seconds`` is the time
    spent inside timed calls; ``outputs`` is whatever ``check`` needs.
    """

    latencies: list[float]
    seconds: float
    checks: int
    outputs: Any


def _capture(call, *args):
    """Run ``call(*args)`` with stdout and stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            result = call(*args)
        finally:
            elapsed = time.perf_counter() - start
    return result, elapsed, out.getvalue(), err.getvalue()


class _Recorder:
    """A text stream that timestamps every write, so per-group times of a
    scan can be read off the moments its records came out."""

    def __init__(self):
        self.writes: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), text))
        return len(text)

    def flush(self) -> None:
        pass


def _split_groups(lines: list[str]) -> list[list]:
    """Split scan records into runs of one group each: [last line, records]."""
    runs: list[list] = []
    key = None
    for i, line in enumerate(lines):
        record = json.loads(line)
        if (record["group"], record["order"]) != key:
            key = (record["group"], record["order"])
            runs.append([i, []])
        runs[-1][0] = i
        runs[-1][1].append(record)
    return runs


def group_digest(records: list[dict]) -> str:
    """Digest of one group's records, display names left out."""
    fields = [[r["order"], r["subgroup"], r["decider"], r["verdict"], r["oracle"]] for r in records]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------


class Sweep:
    """``sumgraph scan --max-order 48`` over all four families, in-process.

    One pass is one scan; one operation is one group of it (construction,
    cross-check and family checks), timed from the previous group's last
    record to this group's last record.  The seed orders the families.
    """

    name = "sweep"
    min_passes = 1

    def __init__(self, sg, rng):
        self.sg = sg
        families = list(SWEEP_FAMILIES)
        rng.shuffle(families)
        self.argv = ["scan", "--max-order", str(SWEEP_MAX_ORDER), "--families", ",".join(families), "--out", "-"]
        expected = json.loads(EXPECTED_SWEEP.read_text())
        self.expected = Counter(d for d, _ in expected["groups"])
        self.sizes = {d: n for d, n in expected["groups"]}
        self.expected_records = sum(n for _, n in expected["groups"])
        self.pass_checks = self.expected_records
        _capture(self.sg.cli.main, ["scan", "--max-order", "12", "--out", "-"])  # warm-up

    def run_pass(self, index: int) -> Pass:
        recorder = _Recorder()
        err = io.StringIO()
        with contextlib.redirect_stdout(recorder), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = self.sg.cli.main(self.argv)
            end = time.perf_counter()
        lines = [text for _, text in recorder.writes]
        stamps = [t for t, _ in recorder.writes]
        groups = _split_groups(lines)
        ends = [start] + [stamps[i] for i, _ in groups]
        latencies = [b - a for a, b in zip(ends, ends[1:])]
        return Pass(latencies, end - start, len(lines), (rc, [recs for _, recs in groups]))

    def check(self, p: Pass) -> tuple[int, int]:
        """Attempted and failed checks: every record of a group whose digest
        is not among the expected ones counts as failed."""
        rc, groups = p.outputs
        digests = Counter()
        sizes = dict(self.sizes)
        for records in groups:
            d = group_digest(records)
            digests[d] += 1
            sizes.setdefault(d, len(records))
        missing = sum(k * sizes[d] for d, k in (self.expected - digests).items())
        extra = sum(k * sizes[d] for d, k in (digests - self.expected).items())
        failed = min(self.expected_records, max(missing, extra))
        if rc != 0 and failed == 0:
            failed = 1
        return self.expected_records, failed


class Verify:
    """``cross_check(G, [H])`` for every normal subgroup H of ten groups.

    The groups and their normal subgroups are built at set-up, so the
    subgroup lattice does no work in the timed region.  One pass checks
    every (group, subgroup) pair once; one operation is one pair, i.e. four
    deciders against the oracle.  The seed orders the groups.
    """

    name = "verify"
    min_passes = 1

    def __init__(self, sg, rng):
        self.sg = sg
        self.cases = []
        for text in VERIFY_GROUPS:
            G = sg.build_group(sg.parse_group_expr(text))
            self.cases.append((G, sg.normal_subgroups(G)))
        for G, normals in self.cases:  # warm-up: trivial and whole subgroup
            sg.cross_check(G, [normals[0], normals[-1]])
        self.order = list(range(len(self.cases)))
        rng.shuffle(self.order)
        self.pass_checks = 4 * sum(len(normals) for _, normals in self.cases)
        self._reference = None

    def run_pass(self, index: int) -> Pass:
        latencies, reports = [], []
        for k in self.order:
            G, normals = self.cases[k]
            for H in normals:
                start = time.perf_counter()
                report = self.sg.cross_check(G, [H])
                latencies.append(time.perf_counter() - start)
                reports.append((k, H.members, report))
        checks = sum(len(r.entries) for _, _, r in reports)
        return Pass(latencies, sum(latencies), checks, reports)

    def reference(self) -> dict:
        """Entries of ``cross_check(G)`` by (case, subgroup), computed once."""
        if self._reference is None:
            self._reference = {}
            for k, (G, _) in enumerate(self.cases):
                for entry in self.sg.cross_check(G).entries:
                    self._reference.setdefault((k, entry.subgroup), []).append(entry)
        return self._reference

    def check(self, p: Pass) -> tuple[int, int]:
        """Each pair must agree with the oracle and match ``cross_check(G)``."""
        reference = self.reference()
        failed = 0
        for k, members, report in p.outputs:
            want = reference.get((k, members), [])
            got = list(report.entries)
            if report.all_agree and got == want and len(got) == 4:
                continue
            failed += 4 - sum(1 for a, b in zip(got, want) if a == b and a.agree)
        return self.pass_checks, failed


@dataclass(frozen=True)
class _Request:
    argv: list
    group: Any
    subgroup: Any
    extended: bool
    total: bool
    construct: bool
    exists: bool


class Queries:
    """A seeded stream of ``sumgraph code`` requests through ``cli.main``.

    Each request parses its expression and builds its group afresh, as a
    CLI process would; the groups built at set-up only pick selectors and
    compute the oracle's answers, and never reach the timed calls.  One pass
    is one block of 20 requests; one operation is one request.
    """

    name = "queries"
    min_passes = QUERY_MIN_BLOCKS
    pass_checks = QUERY_BLOCK

    def __init__(self, sg, rng):
        self.sg = sg
        groups = {text: sg.build_group(sg.parse_group_expr(text)) for text in QUERY_SMALL + QUERY_MID + QUERY_LARGE}
        answers: dict = {}
        self.blocks = []
        for _ in range(QUERY_STREAM_BLOCKS):
            texts = list(QUERY_SMALL + QUERY_MID + QUERY_LARGE)
            rng.shuffle(texts)
            self.blocks.append([self._request(text, groups[text], rng, answers) for text in texts])
        _capture(sg.cli.main, ["code", "Z6", "--subgroup", "gen:2", "--construct"])  # warm-up

    def _request(self, text, G, rng, answers) -> _Request:
        sg = self.sg
        while True:
            gens = rng.sample(range(G.order), rng.choice((1, 2)))
            H = sg.subgroup_generated(G, gens)
            if H.is_normal:
                break
        extended, total, construct = (rng.random() < 0.5 for _ in range(3))
        argv = ["code", text, "--subgroup", "gen:" + ",".join(G.labels[g] for g in gens)]
        argv += [flag for flag, on in (("--extended", extended), ("--total", total), ("--construct", construct)) if on]
        key = (text, H.members, extended, total)
        if key not in answers:
            graph = sg.build_graph(G, H, extended=extended)
            finder = sg.find_total_perfect_code_bruteforce if total else sg.find_perfect_code_bruteforce
            answers[key] = finder(graph) is not None
        return _Request(argv, G, H, extended, total, construct, answers[key])

    def run_pass(self, index: int) -> Pass:
        latencies, outputs = [], []
        for request in self.blocks[index % len(self.blocks)]:
            rc, elapsed, out, _ = _capture(self.sg.cli.main, request.argv)
            latencies.append(elapsed)
            outputs.append((request, rc, out))
        return Pass(latencies, sum(latencies), len(outputs), outputs)

    def check(self, p: Pass) -> tuple[int, int]:
        """``exists`` must match the oracle; a witness must be a valid code
        of a freshly built graph."""
        sg = self.sg
        failed = 0
        for request, rc, out in p.outputs:
            try:
                payload = json.loads(out)
            except ValueError:
                failed += 1
                continue
            ok = rc == 0 and payload["exists"] == request.exists
            ok = ok and payload["subgroup"] == list(request.subgroup.members)
            witness = payload["witness"]
            if request.construct and request.exists:
                graph = sg.build_graph(request.group, request.subgroup, extended=request.extended)
                valid = sg.is_total_perfect_code if request.total else sg.is_perfect_code
                ok = ok and witness is not None and valid(graph, witness)
            else:
                ok = ok and witness is None
            failed += not ok
        return len(p.outputs), failed


WORKLOADS = {w.name: w for w in (Sweep, Verify, Queries)}


def write_expected_sweep(sg) -> None:
    """Record the per-group digests of a scan by ``sg`` as the reference."""
    rc, _, out, _ = _capture(sg.cli.main, ["scan", "--max-order", str(SWEEP_MAX_ORDER), "--out", "-"])
    if rc != 0:
        raise SystemExit("the reference scan found disagreements")
    runs = _split_groups(out.splitlines())
    rows = ",\n".join(json.dumps([group_digest(records), len(records)]) for _, records in runs)
    EXPECTED_SWEEP.write_text(
        '{"command": "sumgraph scan --max-order %d",\n "groups": [\n%s\n]}\n' % (SWEEP_MAX_ORDER, rows)
    )


if __name__ == "__main__":
    # Regenerate the sweep reference from the sources of this checkout:
    #   python3 perfbench/workloads.py
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import sumgraph.cli

    write_expected_sweep(sumgraph)
