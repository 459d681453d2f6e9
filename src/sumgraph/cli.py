"""Command-line front end.

Subcommands:

    normals    list the normal subgroups of a group
    graph      export a subgroup sum graph as DOT or JSON
    code       decide (or brute-force) a perfect-code question
    crosscheck run every decider against the brute-force oracle for one group
    scan       sweep whole families of groups, emitting JSON-lines records
    classify   code-perfect test for a whole group

Group expressions follow the grammar in :mod:`sumgraph.exprs` ("Z12",
"D12", "Dic3", "Q8", "E2^4", "Z4 x Z3", ...).  Subgroups are selected with
``gen:<label>[,<label>...]`` (subgroup generated by those elements) or
``index:<k>`` (k-th normal subgroup, 0-based, in canonical order).

Exit status: 0 on success, 1 if a crosscheck/scan found a disagreement,
2 on usage or domain errors and on an output that cannot be written (a
full disk, say), each reported as one ``error:`` line on stderr, 141 when
stdout was closed before the output was written (a pipe into ``head``,
say): the run stops there, silently, as a shell reports a writer SIGPIPE
killed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from typing import Iterable, Iterator, TextIO

from . import __version__
from .codes import (
    Verdict,
    cross_check,
    decide_code,
    find_perfect_code_bruteforce,
    find_total_perfect_code_bruteforce,
    verdict_to_json,
)
from .errors import BadParameterError, SumGraphError, _index, _quoted
from .exprs import CyclicExpr, ProductExpr, build_group, parse_group_expr
from .families import _family_checks, is_code_perfect
from .graphs import build_graph, graph_to_json, to_dot
from .groups import (
    _FAMILIES,
    SUBGROUP_BUDGET,
    SWEEP_FAMILIES,
    Group,
    Subgroup,
    _abelian_subgroup_count,
    _Closure,
    abelian_isomorphism_types,
    normal_subgroups,
    subgroup_generated,
    sweep_groups,
)

DEFAULT_SCAN_MAX_ORDER = 48
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE


def _split_selector_labels(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def resolve_subgroup(G: Group, selector: str) -> Subgroup:
    """Resolve ``gen:<labels>`` or ``index:<k>`` to a subgroup of G."""
    if selector.startswith("gen:"):
        labels = _split_selector_labels(selector[len("gen:"):])
        generators = []
        for label in labels:
            if not label:
                raise BadParameterError(f"empty label in selector {_quoted(selector)}")
            idx = G.label_index.get(label)
            if idx is None:
                raise BadParameterError(
                    f"no element labelled {_quoted(label)} in {G.name} "
                    f"(labels look like {G.labels[min(1, G.order - 1)]!r})"
                )
            generators.append(idx)
        return subgroup_generated(G, generators)
    if selector.startswith("index:"):
        raw = selector[len("index:"):]
        digits = raw.removeprefix("-")
        if not (digits.isascii() and digits.isdecimal()):  # checked before the lattice is listed
            raise BadParameterError(f"subgroup index must be an integer, got {_quoted(raw)}")
        try:
            k = int(raw)
        except ValueError:  # past int()'s digit limit: a stand-in of as many digits
            k = 10 ** (len(digits) - 1) * (1 if raw == digits else -1)
        normals = normal_subgroups(G)
        return normals[_index(k, f"{G.name} subgroup index", 0, len(normals) - 1)]
    raise BadParameterError(
        f"bad subgroup selector {_quoted(selector)}: use gen:<label>[,<label>...] or index:<k>"
    )


def _group_for(text: str) -> Group:
    """Build the group named by the expression ``text``."""
    return build_group(parse_group_expr(text))


def _output(path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """The stream ``--out`` names, stdout for none or ``-``, as a context
    that closes only a file it opened."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise BadParameterError(f"cannot write --out {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_normals(args: argparse.Namespace) -> int:
    G = _group_for(args.expr)
    for k, H in enumerate(normal_subgroups(G)):
        generators = _Closure(G.table, G.identity, H.members).gens  # grown greedily from the least members
        record = {
            "index": k,
            "order": len(H),
            "members": list(H.members),
            "labels": [G.labels[v] for v in H.members],
            "generators": [G.labels[v] for v in generators],
        }
        print(json.dumps(record))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    G = _group_for(args.expr)
    H = resolve_subgroup(G, args.subgroup)
    graph = build_graph(G, H, extended=args.extended)
    if args.format == "dot":
        text = to_dot(graph, color_components=args.color_components)
    else:
        text = json.dumps(graph_to_json(graph), indent=2) + "\n"
    with _output(args.out) as stream:
        stream.write(text)
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    G = _group_for(args.expr)
    H = resolve_subgroup(G, args.subgroup)
    if args.oracle:
        graph = build_graph(G, H, extended=args.extended)
        finder = find_total_perfect_code_bruteforce if args.total else find_perfect_code_bruteforce
        found = finder(graph)
        verdict = Verdict(
            flavor="extended" if args.extended else "plain",
            kind="total" if args.total else "perfect",
            rule="bruteforce-oracle",
            witness=found,
            certificate=None if found is not None else {"reason": "exhaustive-search-found-none"},
        )
    else:
        verdict = decide_code(G, H, extended=args.extended, total=args.total)
    payload = verdict_to_json(G, H, verdict)
    if not args.construct:
        payload["witness"] = None
    print(json.dumps(payload, indent=2))
    return 0


_JSON_BOOL = {True: "true", False: "false"}


def _entry_checks(entries) -> Iterator[tuple]:
    """The checks of a :class:`~sumgraph.codes.CrossCheckReport`'s entries."""
    for entry in entries:
        verdict = entry.verdict
        decider = f"extended_{verdict.kind}" if verdict.flavor == "extended" else verdict.kind
        yield entry.subgroup, decider, verdict.exists, entry.oracle, verdict


def _write_checks(G: Group, checks: Iterable[tuple], stream: TextIO, tally: collections.Counter) -> None:
    """Write each check's record to ``stream`` as one JSON line, and count
    it in ``tally`` under whether it agrees.

    A check is (subgroup members, decider name, verdict, oracle answer,
    ruling), the ruling the :class:`Verdict` whose ``rule`` and
    ``certificate`` the record carries when it disagrees, or None.  The
    record is ``group``, ``order``, ``subgroup``, ``decider``,
    ``verdict``, ``oracle`` and ``agree``, plus those two; the line is
    the bytes of ``json.dumps`` of it, written from a JSON head made once
    per call and a member list made once per subgroup.
    """
    head = f'{{"group": {json.dumps(G.name)}, "order": {G.order}, "subgroup": '
    listed: dict[tuple[int, ...], str] = {}
    for subgroup, decider, verdict, oracle, ruling in checks:
        members = listed.get(subgroup)
        if members is None:
            members = listed[subgroup] = head + json.dumps(list(subgroup))
        agree = verdict == oracle
        line = (
            f'{members}, "decider": "{decider}", "verdict": {_JSON_BOOL[verdict]}, '
            f'"oracle": {_JSON_BOOL[oracle]}, "agree": {_JSON_BOOL[agree]}'
        )
        if not agree and ruling is not None:
            line += f', "rule": {json.dumps(ruling.rule)}, "certificate": {json.dumps(ruling.certificate)}'
        tally[agree] += 1
        stream.write(line + "}\n")


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    G = _group_for(args.expr)
    start = time.perf_counter()
    tally: collections.Counter = collections.Counter()  # agrees -> checks
    for H in normal_subgroups(G):  # each subgroup's records written before the next is checked
        _write_checks(G, _entry_checks(cross_check(G, [H]).entries), sys.stdout, tally)
    print(
        f"crosscheck {G.name}: {tally.total()} checks, "
        f"{tally[False]} disagreements ({time.perf_counter() - start:.2f}s)",
        file=sys.stderr,
    )
    return 1 if tally[False] else 0


def _refuse_over_budget(max_order: int, families: list[str]) -> None:
    """Refuse, before any group is built, a sweep with an abelian type over
    :data:`SUBGROUP_BUDGET`, naming each such type with its count, which
    is exact: every subgroup of an abelian group is normal."""
    # A cyclic, dihedral or dicyclic group of order N has at most d(N) + 3
    # normal subgroups, and Q8 has 6, so only the abelian types need a count.
    if "abelian" not in families:
        return
    counts = ((f, _abelian_subgroup_count(f)) for f in abelian_isomorphism_types(max_order))
    over = ", ".join(f"{ProductExpr(tuple(map(CyclicExpr, f)))} has {n}" for f, n in counts if n > SUBGROUP_BUDGET)
    if over:
        raise BadParameterError(f"scan refused, over the budget of {SUBGROUP_BUDGET} normal subgroups: {over}")


def _cmd_scan(args: argparse.Namespace) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    groups = sweep_groups(args.max_order, families)
    _refuse_over_budget(args.max_order, families)
    groups_seen = 0
    tally: collections.Counter = collections.Counter()  # agrees -> checks
    with _output(args.out) as stream:
        for G in groups:
            groups_seen += 1
            report = cross_check(G)
            oracle = {(e.subgroup, e.verdict.flavor, e.verdict.kind): e.oracle for e in report.entries}
            family = (
                (H.members, name, verdict, oracle[(H.members, "plain", kind)], None)
                for H in normal_subgroups(G)
                for name, verdict, kind in _family_checks(G, H)
            )
            _write_checks(G, itertools.chain(_entry_checks(report.entries), family), stream, tally)
    print(
        f"scan: {groups_seen} groups, {tally.total()} checks, {tally[False]} disagreements",
        file=sys.stderr,
    )
    return 1 if tally[False] else 0


def _cmd_classify(args: argparse.Namespace) -> int:
    G = _group_for(args.expr)
    result = is_code_perfect(G)
    print(json.dumps({"group": G.name, "order": G.order, "method": "normal-closure", "code_perfect": result}))
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every :func:`main`
    call parses into a fresh namespace, so reuse carries no state."""
    parser = argparse.ArgumentParser(
        prog="sumgraph",
        description="Perfect codes in subgroup sum graphs of finite groups.",
        epilog=(
            "exit status: 0 success, 1 a crosscheck/scan disagreement, 2 a usage or domain error "
            f"or an output that cannot be written, {EXIT_CLOSED_PIPE} stdout closed before the output was written"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normals", help="list normal subgroups as JSON lines")
    p.add_argument("expr", help='group expression, e.g. "Z12" or "Z4 x Z3"')
    p.set_defaults(func=_cmd_normals)

    p = sub.add_parser("graph", help="export a subgroup sum graph")
    p.add_argument("expr")
    p.add_argument("--subgroup", required=True, help="gen:<labels> or index:<k>")
    p.add_argument("--extended", action="store_true", help="use the extended graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--color-components", action="store_true", help="color DOT nodes by component")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("code", help="decide whether a perfect code exists")
    p.add_argument("expr")
    p.add_argument("--subgroup", required=True, help="gen:<labels> or index:<k>")
    p.add_argument("--extended", action="store_true", help="use the extended graph")
    p.add_argument("--total", action="store_true", help="ask for a total perfect code")
    p.add_argument("--construct", action="store_true", help="include a witness code if one exists")
    p.add_argument("--oracle", action="store_true", help="bypass the deciders; brute-force search")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("crosscheck", help="deciders vs brute force for one group")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("scan", help="decider-vs-oracle sweep over group families")
    p.add_argument("--max-order", type=int, default=DEFAULT_SCAN_MAX_ORDER)
    p.add_argument(
        "--families",
        default=",".join(SWEEP_FAMILIES),
        help=f"comma-separated subset of: {', '.join(_FAMILIES)} (default: %(default)s)",
    )
    p.add_argument("--out", help="write JSON lines to this file instead of stdout")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("classify", help="whole-group classification")
    p.add_argument("what", choices=("code-perfect",), help="property to test")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_classify)

    return parser


def _discard_stdout() -> None:
    """Point stdout's descriptor at /dev/null, so the exit-time flush of
    what is still buffered prints nothing and raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no real descriptor: nothing is left to flush
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # here, so a reader gone before exit is caught below
        return status
    except SumGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_CLOSED_PIPE
    except OSError as exc:  # a write failed: a full disk, say
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        _discard_stdout()
        return 2


if __name__ == "__main__":
    sys.exit(main())
