"""Command-line interface: output shapes, exit codes, error reporting."""

import argparse
import contextlib
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgraph import (
    SWEEP_FAMILIES, Verdict, build_group, cli, codes, normal_subgroups, parse_group_expr, sweep_groups,
)
from sumgraph import groups as groups_module
from sumgraph.cli import main

from helpers import greedy_generators, sweep, sweep_reports


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_normals_lists_every_normal_subgroup(capsys):
    rc, out, _ = run(capsys, "normals", "Z12")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["order"] for r in records] == [1, 2, 3, 4, 6, 12]
    assert records[0] == {
        "index": 0,
        "order": 1,
        "members": [0],
        "labels": ["0"],
        "generators": [],
    }
    assert records[2]["members"] == [0, 4, 8]
    assert records[2]["generators"] == ["4"]


def test_normals_on_nonabelian_group(capsys):
    rc, out, _ = run(capsys, "normals", "D8")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["order"] for r in records] == [1, 2, 4, 4, 4, 8]
    # every record names generators that are labels of the group
    for r in records:
        assert all(isinstance(g, str) for g in r["generators"])


def test_normals_match_reference_generators(capsys):
    for G in sweep(48):
        rc, out, _ = run(capsys, "normals", G.name)
        assert rc == 0
        expected = [
            {
                "index": k,
                "order": len(H),
                "members": list(H.members),
                "labels": [G.labels[v] for v in H.members],
                "generators": [G.labels[v] for v in greedy_generators(G, H.members)],
            }
            for k, H in enumerate(normal_subgroups(G))
        ]
        assert [json.loads(line) for line in out.splitlines()] == expected, G.name


def test_normals_builds_no_subgroup(capsys, monkeypatch):
    """The lattice has proved every subgroup ``normals`` lists: its
    generators are read from a closure, with no second proof."""
    built = []
    init = groups_module.Subgroup.__init__
    monkeypatch.setattr(groups_module.Subgroup, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    rc, out, _ = run(capsys, "normals", "D16 x D8")
    assert rc == 0 and out.count("\n") == len(normal_subgroups(build_group(parse_group_expr("D16 x D8"))))
    assert built == []


def test_graph_dot_output(capsys):
    rc, out, _ = run(capsys, "graph", "Z6", "--subgroup", "gen:3")
    assert rc == 0
    assert out.startswith("graph sumgraph {")
    assert "n0 -- n3;" in out
    assert "n1 -- n2;" in out
    assert "n4 -- n5;" in out


def test_graph_json_output_and_out_file(capsys, tmp_path):
    target = tmp_path / "graph.json"
    rc, out, _ = run(
        capsys,
        "graph",
        "Z6",
        "--subgroup",
        "gen:3",
        "--extended",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["group"] == "Z6"
    assert payload["order"] == 6
    assert payload["subgroup"] == [0, 3]
    assert payload["extended"] is True
    assert sorted(payload["adjacency"][1]) == [2, 5]


def test_reports_name_q8_and_e2_by_their_expressions(capsys):
    rc, out, _ = run(capsys, "graph", "Q8", "--subgroup", "gen:-1", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["group"] == "Q8"
    assert payload["subgroup"] == [0, 1]

    rc, out, _ = run(capsys, "graph", "Q8 x Z2", "--subgroup", "index:0", "--format", "json")
    assert rc == 0
    assert json.loads(out)["group"] == "Q8 x Z2"

    rc, out, _ = run(capsys, "code", "E2^2", "--subgroup", "index:1")
    assert rc == 0
    assert json.loads(out)["group"] == {"tag": "E2^2", "order": 4}


def test_graph_subgroup_by_index(capsys):
    rc, out, _ = run(capsys, "graph", "Z6", "--subgroup", "index:2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["subgroup"] == [0, 2, 4]


def test_code_negative_verdict(capsys):
    rc, out, _ = run(capsys, "code", "Z60", "--subgroup", "gen:2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["group"] == {"tag": "Z60", "order": 60}
    assert payload["subgroup"] == sorted(range(0, 60, 2))
    assert payload["flavor"] == "plain"
    assert payload["kind"] == "perfect"
    assert payload["exists"] is False
    assert payload["rule"] == "square-coset-without-involution"
    assert payload["witness"] is None
    assert payload["certificate"]["reason"]


def test_code_positive_without_and_with_construct(capsys):
    rc, out, _ = run(capsys, "code", "Z12", "--subgroup", "gen:4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["witness"] is None

    rc, out, _ = run(capsys, "code", "Z12", "--subgroup", "gen:4", "--construct")
    assert rc == 0
    payload = json.loads(out)
    assert payload["witness"] == [0, 1, 6, 11]


def test_code_oracle_mode(capsys):
    rc, out, _ = run(
        capsys, "code", "Z12", "--subgroup", "index:1", "--oracle", "--construct"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["rule"] == "bruteforce-oracle"
    assert payload["exists"] is True
    assert payload["witness"] == [0, 1, 2, 3, 7, 8, 9]

    rc, out, _ = run(capsys, "code", "Z8", "--subgroup", "gen:2", "--oracle")
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["certificate"] == {"reason": "exhaustive-search-found-none"}


def test_code_total_and_extended_flavors(capsys):
    rc, out, _ = run(capsys, "code", "Z4", "--subgroup", "gen:2", "--total")
    payload = json.loads(out)
    assert (payload["flavor"], payload["kind"]) == ("plain", "total")
    assert payload["exists"] is False

    rc, out, _ = run(capsys, "code", "Z4", "--subgroup", "gen:2", "--extended", "--total")
    payload = json.loads(out)
    assert (payload["flavor"], payload["kind"]) == ("extended", "total")
    assert payload["exists"] is True


def test_code_product_group_with_tuple_generators(capsys):
    rc, out, _ = run(
        capsys, "code", "Z2 x Z4", "--subgroup", "gen:(1,0),(0,2)", "--extended"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["group"]["tag"] == "Z2 x Z4"
    assert payload["subgroup"] == [0, 2, 4, 6]
    assert payload["exists"] is True  # squares of Z2 x Z4 all land in this subgroup

    # labels nested two deep are split only at the commas outside them
    rc, out, _ = run(capsys, "code", "(Z2 x Z2) x Z3", "--subgroup", "gen:((1,0),0),((0,0),1)")
    assert rc == 0
    assert json.loads(out)["subgroup"] == [0, 1, 2, 6, 7, 8]


# Whole `code` outputs, byte for byte: the indented JSON is the documented
# stdout, so an encoder change must keep these bytes.  The first selector
# holds two parenthesised labels, split at the comma between them.
_CODE_OUTPUTS = [
    (
        ["Z2 x Z4", "--subgroup", "gen:(1,0),(0,2)", "--construct"],
        """{
  "group": {
    "tag": "Z2 x Z4",
    "order": 8
  },
  "subgroup": [
    0,
    2,
    4,
    6
  ],
  "flavor": "plain",
  "kind": "perfect",
  "exists": false,
  "rule": "square-coset-without-involution",
  "witness": null,
  "certificate": {
    "reason": "square-coset-without-involution",
    "coset_representative": 1
  }
}
""",
    ),
    (
        ["Z2 x Z2 x Z3", "--subgroup", "gen:(0,0,1)", "--total", "--construct"],
        """{
  "group": {
    "tag": "Z2 x Z2 x Z3",
    "order": 12
  },
  "subgroup": [
    0,
    1,
    2
  ],
  "flavor": "plain",
  "kind": "total",
  "exists": true,
  "rule": "elementary-two-times-three",
  "witness": [
    0,
    1,
    3,
    4,
    6,
    7,
    9,
    10
  ],
  "certificate": null
}
""",
    ),
    (
        ["D8", "--subgroup", "gen:a^2", "--extended", "--total", "--construct"],
        """{
  "group": {
    "tag": "D8",
    "order": 8
  },
  "subgroup": [
    0,
    2
  ],
  "flavor": "extended",
  "kind": "total",
  "exists": true,
  "rule": "order-two-subgroup",
  "witness": [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    7
  ],
  "certificate": null
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", _CODE_OUTPUTS, ids=["Z2xZ4", "Z2xZ2xZ3-total", "D8-extended-total"])
def test_code_output_bytes(capsys, argv, expected):
    rc, out, err = run(capsys, "code", *argv)
    assert rc == 0 and err == ""
    assert out == expected


def test_index_selects_the_last_normal_subgroup(capsys):
    for text, order, count in (("D8", 8, 6), ("Z12", 12, 6), ("Q8", 8, 6)):
        rc, out, _ = run(capsys, "code", text, "--subgroup", f"index:{count - 1}")
        assert rc == 0, text
        assert json.loads(out)["subgroup"] == list(range(order))  # the last is G itself
        for k in (count, -1):  # out of range is named once the lattice is listed
            rc, _, err = run(capsys, "code", text, "--subgroup", f"index:{k}")
            assert rc == 2 and f"must be in 0..{count - 1}" in err, text
    rc, _, err = run(capsys, "code", "Z6", "--subgroup", "index:abc")
    assert rc == 2 and "subgroup index must be an integer, got 'abc'" in err


def test_a_malformed_index_fails_before_the_lattice_is_listed(capsys, monkeypatch):
    """E2^7 has 29,212 normal subgroups, seconds of listing: text that is
    not an index is refused first.  int() would read "1_0", "+1" and " 1"."""

    def no_lattice(G):
        raise AssertionError("the lattice was listed")

    monkeypatch.setattr(groups_module, "_lattice", no_lattice)
    for raw in ("x", "1_0", "+1", " 1", "", "-", "1.0"):
        start = time.perf_counter()
        rc, _, err = run(capsys, "code", "E2^7", "--subgroup", f"index:{raw}")
        assert rc == 2 and "subgroup index must be an integer" in err, raw
        assert time.perf_counter() - start < 1, raw


def test_crosscheck_reports_agreement(capsys):
    rc, out, err = run(capsys, "crosscheck", "Q8")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 24  # 6 normal subgroups x 4 flavors
    assert all(r["agree"] for r in records)
    assert all(r["group"] == "Q8" for r in records)
    assert {r["decider"] for r in records} == {
        "perfect",
        "total",
        "extended_perfect",
        "extended_total",
    }
    assert "0 disagreements" in err


def test_crosscheck_writes_each_subgroup_before_checking_the_next(monkeypatch):
    """``crosscheck`` checks one normal subgroup at a time and writes its
    four records before the next is checked, so no group's records are
    all held at once."""
    out = io.StringIO()
    written = []
    check = cli.cross_check
    monkeypatch.setattr(cli, "cross_check", lambda G, subgroups: written.append(len(out.getvalue())) or check(G, subgroups))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["crosscheck", "D12"]) == 0
    records = out.getvalue().splitlines()
    assert len(written) == len(records) // 4 == 7  # D12 has seven normal subgroups
    assert written[0] == 0 and all(a < b for a, b in zip(written, written[1:]))
    assert err.getvalue().startswith("crosscheck D12: 28 checks, 0 disagreements (")


def test_scan_small_sweep(capsys):
    rc, out, err = run(capsys, "scan", "--max-order", "12")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records, "scan should emit at least one record"
    for r in records:
        assert set(r) >= {"group", "order", "subgroup", "decider", "verdict", "oracle", "agree"}
        assert r["agree"] is True
        assert r["order"] <= 12
    deciders = {r["decider"] for r in records}
    assert "family_cyclic" in deciders
    assert "family_dihedral" in deciders
    assert "family_dicyclic" in deciders
    assert "family_abelian_total" in deciders
    assert "scan:" in err and "0 disagreements" in err
    rc, out, err = run(capsys, "scan", "--max-order", "1")  # the least order swept: Z1 alone
    assert (rc, err) == (0, "scan: 1 groups, 6 checks, 0 disagreements\n")
    assert [json.loads(line)["group"] for line in out.splitlines()] == ["Z1"] * 6


def test_scan_reports_a_disagreement(capsys, monkeypatch):
    """A decider that answers wrongly makes scan exit 1, and each record
    that disagrees carries the rule and certificate it gave."""
    decide = codes.decide_code

    def wrong_on_extended_total(G, H, extended=False, total=False):
        verdict = decide(G, H, extended=extended, total=total)
        if extended and total:
            witness = None if verdict.exists else ()
            return Verdict(verdict.flavor, verdict.kind, "flipped", witness, {"reason": "flipped"})
        return verdict

    monkeypatch.setattr(codes, "decide_code", wrong_on_extended_total)
    rc, out, err = run(capsys, "scan", "--max-order", "4", "--families", "cyclic")
    assert rc == 1
    records = [json.loads(line) for line in out.splitlines()]
    bad = [r for r in records if not r["agree"]]
    assert bad and all(r["decider"] == "extended_total" for r in bad)
    assert all(r["rule"] == "flipped" and r["certificate"] == {"reason": "flipped"} for r in bad)
    assert not any("rule" in r or "certificate" in r for r in records if r["agree"])
    assert err == f"scan: 4 groups, {len(records)} checks, {len(bad)} disagreements\n"


def _assert_dumped(out: str) -> list[dict]:
    """Every line of ``out`` is the bytes ``json.dumps`` makes of its record."""
    lines = out.splitlines()
    assert lines and out.endswith("\n")
    for line in lines:
        assert line == json.dumps(json.loads(line)), line
    return [json.loads(line) for line in lines]


def test_scan_and_crosscheck_records_are_json_dumps_bytes(capsys):
    rc, out, _ = run(capsys, "scan", "--max-order", "24", "--families", "cyclic,dihedral,dicyclic,abelian,quaternion")
    assert rc == 0
    records = _assert_dumped(out)
    assert {r["group"] for r in records} >= {"Q8", "Z2 x Z2 x Z2 x Z3", "D24", "Dic6", "Z24"}
    for expr in ("Q8 x Z2", "D12"):
        rc, out, _ = run(capsys, "crosscheck", expr)
        assert rc == 0
        assert {r["group"] for r in _assert_dumped(out)} == {expr}


def test_a_disagreement_record_is_json_dumps_bytes(capsys, monkeypatch):
    """A record that carries a rule and a nested certificate keeps the
    bytes of ``json.dumps``, in scan and in crosscheck."""
    decide = codes.decide_code

    def wrong_on_plain_total(G, H, extended=False, total=False):
        verdict = decide(G, H, extended=extended, total=total)
        if total and not extended:
            witness = None if verdict.exists else ()
            certificate = {"reason": "flipped \"twice\"", "detail": {"order": H.order, "members": list(H.members)}}
            return Verdict(verdict.flavor, verdict.kind, "flipped", witness, certificate)
        return verdict

    monkeypatch.setattr(codes, "decide_code", wrong_on_plain_total)
    for argv in (("scan", "--max-order", "6", "--families", "cyclic,quaternion"), ("crosscheck", "Q8")):
        rc, out, _ = run(capsys, *argv)
        assert rc == 1
        bad = [r for r in _assert_dumped(out) if not r["agree"]]
        assert bad and all(r["rule"] == "flipped" and r["certificate"]["detail"]["members"] for r in bad)


def test_scan_families_filter_and_out_file(capsys, tmp_path):
    target = tmp_path / "scan.jsonl"
    rc, out, _ = run(
        capsys,
        "scan",
        "--max-order",
        "16",
        "--families",
        "cyclic",
        "--out",
        str(target),
    )
    assert rc == 0
    assert out == ""
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert records
    # cyclic sweep: the four generic deciders plus the cyclic family rules
    assert {r["decider"] for r in records} == {
        "perfect",
        "total",
        "extended_perfect",
        "extended_total",
        "family_cyclic",
        "family_abelian_total",
    }

    rc, _, err = run(capsys, "scan", "--families", "klein", "--out", str(tmp_path / "none.jsonl"))
    assert rc == 2
    assert "error:" in err and "klein" in err
    assert not (tmp_path / "none.jsonl").exists()  # checked before the file is opened


def test_scan_above_the_order_cap_fails_before_any_work(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("SUMGRAPH_MAX_ORDER", raising=False)
    target = tmp_path / "scan.jsonl"
    rc, out, err = run(capsys, "scan", "--max-order", "513", "--out", str(target))
    assert rc == 2
    assert out == "" and "error:" in err and "513" in err
    assert not target.exists()


def test_a_cap_past_int16_indices_exits_two(capsys, monkeypatch):
    """Tables are int16, so a cap above 32,767 is refused with one short
    error line."""
    monkeypatch.setenv("SUMGRAPH_MAX_ORDER", "32768")
    rc, out, err = run(capsys, "normals", "Z4")
    assert rc == 2 and out == ""
    assert err == "error: SUMGRAPH_MAX_ORDER 32768 out of range: must be in 1..32767\n"


def test_scan_refuses_an_over_budget_sweep_before_its_first_record(capsys, monkeypatch, tmp_path):
    """Both abelian types of order 256 over the subgroup budget are named,
    with their counts, before any group is built or any record written."""
    monkeypatch.delenv("SUMGRAPH_MAX_ORDER", raising=False)
    built = []
    monkeypatch.setattr(groups_module, "build_group", lambda expr: built.append(expr))
    argv = ["scan", "--max-order", "256", "--families", "abelian"]
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert rc == 2 and out == "" and built == []
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z4 has 55599" in err
    assert "Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z2 has 417199" in err
    target = tmp_path / "scan.jsonl"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2 and out == "" and "55599" in err and "417199" in err
    assert not target.exists() and built == []


def test_classify_code_perfect(capsys):
    rc, out, _ = run(capsys, "classify", "code-perfect", "Z4")
    assert rc == 0
    assert out == '{"group": "Z4", "order": 4, "method": "normal-closure", "code_perfect": true}\n'

    rc, out, _ = run(capsys, "classify", "code-perfect", "Z8")
    assert rc == 0
    assert json.loads(out) == {"group": "Z8", "order": 8, "method": "normal-closure", "code_perfect": False}

    # Q8 x E2^6 has more normal subgroups than the budget lets a listing
    # reach; classify lists none of them
    for text, order in (("Q8 x E2^6", 512), ("Q8 x E2^5", 256)):
        start = time.perf_counter()
        rc, out, _ = run(capsys, "classify", "code-perfect", text)
        assert time.perf_counter() - start < 1, text
        assert rc == 0
        assert json.loads(out) == {"group": text, "order": order, "method": "normal-closure", "code_perfect": False}
    rc, _, err = run(capsys, "normals", "Q8 x E2^6")
    assert rc == 2 and "budget" in err

    # there is one method, so no option chooses it
    for method in ("dedekind", "bruteforce"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "code-perfect", "Z8", "--method", method])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --method {method}" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys, monkeypatch):
    rc, _, err = run(capsys, "normals", "Z4 %")
    assert rc == 2
    assert "error:" in err and "offset" in err

    rc, _, err = run(capsys, "code", "Z6", "--subgroup", "gen:5,oops")
    assert rc == 2
    assert "error:" in err

    rc, _, err = run(capsys, "code", "Z6", "--subgroup", "index:99")
    assert rc == 2
    assert "error:" in err

    rc, _, err = run(capsys, "code", "Z6", "--subgroup", "members:0,3")
    assert rc == 2
    assert "error:" in err

    for selector in ("gen:", "gen:a,,b"):
        rc, _, err = run(capsys, "code", "D6", "--subgroup", selector)
        assert (rc, err) == (2, f"error: empty label in selector '{selector}'\n"), selector

    rc, _, err = run(capsys, "graph", "D8", "--subgroup", "gen:b")
    assert rc == 2  # <b> is not normal in D8
    assert "error:" in err

    rc, _, err = run(capsys, "normals", "(" * 600 + "Z2" + ")" * 600)
    assert rc == 2  # deep nesting is a parse error, not a RecursionError
    assert "error:" in err and "offset 100" in err

    # oversized orders fail before any table, factor list or huge number is
    # built, and the error line stays short however long the number is (an
    # order or a subgroup index)
    for argv in (
        ("normals", "E2^100000000"),
        ("code", "E2^1000000", "--subgroup", "index:0"),
        ("normals", "E2^10000000000"),
        ("code", "Dic" + "9" * 4300, "--subgroup", "index:0"),  # 4n has 4301 digits
        ("normals", "D" + "8" * 4300),
        ("normals", "E2^" + "9" * 4300),
        ("normals", " x ".join(["Z512"] * 1000)),  # rejected at the second factor
        ("normals", " x ".join(["D512"] * 300)),
        ("code", "Z6", "--subgroup", "index:" + "9" * 4000),  # int() reads it; out of range
        ("code", "Z6", "--subgroup", "index:" + "9" * 5000),  # past int()'s digit limit
        ("normals", "Z" + "9" * 5000),
    ):
        start = time.perf_counter()
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv
        assert len(err.splitlines()[0]) < 200, argv
        assert time.perf_counter() - start < 1, argv
    assert "offset 1" in err  # the literal int() refuses is a parse error at its offset

    # text from outside is echoed clipped, on every line of the message
    monkeypatch.setenv("SUMGRAPH_MAX_ORDER", "9" * 5000)  # past int()'s digit limit
    results = [run(capsys, "normals", "Z4")]
    monkeypatch.delenv("SUMGRAPH_MAX_ORDER")
    results += [
        run(capsys, "code", "Z6", "--subgroup", "gen:" + "x" * 5000),
        run(capsys, "code", "Z6", "--subgroup", "y" * 5000),  # neither gen: nor index:
        run(capsys, "scan", "--max-order", "4", "--families", "z" * 5000),
        run(capsys, "normals", "9" * 5000 + "x"),  # a number where an atom belongs
        run(capsys, "normals", "Z4 " + "9" * 5000),  # trailing input
    ]
    for rc, _, err in results:
        assert rc == 2
        assert err.startswith("error:")
        assert max(len(line) for line in err.splitlines()) < 200, err[:300]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    run(capsys, "code", "Z6", "--subgroup", "gen:2")
    tree = len(built)
    assert built.count("sumgraph") == 1
    for _ in range(20):
        run(capsys, "code", "Z6", "--subgroup", "gen:3", "--total")
        run(capsys, "normals", "Z4")
    assert len(built) == tree


def test_reused_parser_carries_no_state_between_calls(capsys):
    cli._build_parser.cache_clear()  # the first call below builds it afresh
    plain = ("code", "Z12", "--subgroup", "gen:4")
    expected = run(capsys, *plain)
    assert expected[0] == 0
    flagged = run(capsys, *plain, "--total", "--extended", "--construct")
    assert flagged[0] == 0 and flagged[1] != expected[1]
    assert run(capsys, *plain) == expected  # no flag leaks into the next call

    with pytest.raises(SystemExit) as exc:  # a usage error argparse reports
        run(capsys, "code", "Z12", "--no-such-flag")
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *plain) == expected


def test_unwritable_out_path_exits_two(capsys, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    for argv in (
        ("graph", "Z6", "--subgroup", "gen:3", "--out", missing),
        ("scan", "--max-order", "4", "--out", missing),
        ("scan", "--max-order", "4", "--out", str(tmp_path)),  # a directory
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith("error:") and "--out" in err


def test_scan_rejects_an_empty_or_repeated_family_list(capsys, tmp_path):
    target = tmp_path / "scan.jsonl"
    for families, wanted in (
        ("", "no family to sweep"),
        (" , ", "no family to sweep"),
        ("cyclic,cyclic", "family 'cyclic' is listed twice"),
        ("dihedral, cyclic ,dihedral", "family 'dihedral' is listed twice"),
    ):
        rc, out, err = run(capsys, "scan", "--max-order", "4", "--families", families, "--out", str(target))
        assert rc == 2, families
        assert out == "" and err.startswith("error:") and wanted in err, (families, err)
        assert not target.exists()  # refused before the file is opened


def test_scan_sweeps_the_default_families_of_sweep_groups(capsys, monkeypatch):
    """``scan``'s default families are ``sweep_groups``'s: the same 198
    groups to order 64, in the same order, Q8 left out; its help lists
    every family and names that default."""
    scanned = []
    monkeypatch.setattr(cli, "cross_check", lambda G: scanned.append(G.name) or SimpleNamespace(entries=()))
    monkeypatch.setattr(cli, "normal_subgroups", lambda G: [])
    rc, out, err = run(capsys, "scan", "--max-order", "64")
    assert (rc, out, err) == (0, "", "scan: 198 groups, 0 checks, 0 disagreements\n")
    assert scanned == [G.name for G in sweep_groups(64)]
    assert "Q8" not in scanned and "Dic2" in scanned
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert "dicyclic, abelian, quaternion (default: " + ",".join(SWEEP_FAMILIES) + ")" in usage


_NO_SPACE = os.strerror(errno.ENOSPC)


class _FailingStdout(io.StringIO):
    """A stdout where writing, or else flushing what was written, fails
    with the OS error ``code``: EPIPE, a ``BrokenPipeError``, when its
    reader has gone; ENOSPC on a full disk."""

    def __init__(self, on, code=errno.EPIPE):
        super().__init__()
        self.on, self.code = on, code

    def write(self, text):
        if self.on == "write":
            raise OSError(self.code, os.strerror(self.code))
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise OSError(self.code, os.strerror(self.code))


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--max-order", "8"),
        ("normals", "E2^3"),
        ("crosscheck", "D6"),
        ("code", "Z12", "--subgroup", "gen:4"),
    ],
    ids=["scan", "normals", "crosscheck", "code"],
)
def test_a_closed_stdout_ends_the_run_with_exit_141(argv, on):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStdout(on)), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc == cli.EXIT_CLOSED_PIPE == 141
    # a failed write stops the run before its summary line; a failed final flush comes after it
    lines = err.getvalue().splitlines()
    assert len(lines) == (on == "flush" and argv[0] in ("scan", "crosscheck")), lines
    assert all(line.startswith(argv[0]) for line in lines)


def _cli_command(*argv: str) -> tuple[list[str], dict[str, str]]:
    """The command line and environment that run ``sumgraph`` from this
    checkout's ``src`` in a child process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return [sys.executable, "-m", "sumgraph.cli", *argv], env


def test_a_pipe_into_head_exits_141_without_a_traceback():
    command, env = _cli_command("normals", "E2^6")  # megabytes, far past a pipe's buffer
    writer = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = subprocess.Popen(["head", "-1"], stdin=writer.stdout, stdout=subprocess.PIPE)
    writer.stdout.close()  # head now holds the only reading end
    first, _ = head.communicate(timeout=60)
    err = writer.stderr.read()
    writer.stderr.close()
    assert writer.wait(timeout=60) == 141
    assert json.loads(first)["index"] == 0
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("normals", "Z6"),
        ("graph", "Z6", "--subgroup", "gen:3"),
        ("code", "Z6", "--subgroup", "gen:3"),
        ("crosscheck", "Z6"),
        ("scan", "--max-order", "6"),
        ("classify", "code-perfect", "Z6"),
    ],
    ids=["normals", "graph", "code", "crosscheck", "scan", "classify"],
)
def test_an_output_that_cannot_be_written_exits_two(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStdout("write", errno.ENOSPC)), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc == 2
    assert err.getvalue() == f"error: cannot write output: {_NO_SPACE}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
def test_a_full_device_exits_two_without_a_traceback(capsys):
    command, env = _cli_command("normals", "Z6")
    with open("/dev/full", "w") as full:
        child = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert (child.returncode, child.stderr) == (2, f"error: cannot write output: {_NO_SPACE}\n".encode())
    for argv in (("graph", "Z6", "--subgroup", "gen:3"), ("scan", "--max-order", "6")):
        rc, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert (rc, out, err) == (2, "", f"error: cannot write output: {_NO_SPACE}\n"), argv


# A small grammar of CLI inputs: group expressions of one or two atoms
# with valid, out-of-range and oversized parameters, junk text, subgroup
# selectors of both kinds, and values of the order cap variable.  Valid
# parameters stay small (Z, D and Dic up to 32, E2^t up to t = 2), so every
# valid input is answered well inside the one-second bound: a large lattice,
# such as the 2825 subgroups of E2^3 x E2^3, is slow to list by its size,
# not by a failure to fail fast.


def _mostly(valid, junk):
    """``valid`` three times in four, else ``junk``."""
    return st.sampled_from([valid, valid, valid, junk]).flatmap(lambda strategy: strategy)


_JUNK_NUMBERS = st.sampled_from(["", "-2", "0", "00", "+6", "1_0", "9" * 60, "8" * 4300, "9" * 5000])
_ATOMS = _mostly(
    st.one_of(
        st.builds("{}{}".format, st.sampled_from(["Z", "D", "Dic"]), st.integers(1, 32)),
        st.builds("E2^{}".format, st.integers(0, 2)),
        st.just("Q8"),
    ),
    st.one_of(
        st.builds("{}{}".format, st.sampled_from(["Z", "D", "Dic", "E2^", "Q", "E3^"]), _JUNK_NUMBERS),
        st.text(alphabet="ZDQEic^x()29 -,%", max_size=8),
    ),
)
_EXPRS = _mostly(st.lists(_ATOMS, min_size=1, max_size=2).map(" x ".join), st.text(max_size=12))
_LABELS = _mostly(
    st.sampled_from(["0", "1", "2", "3", "a", "b", "a^2", "ab", "i", "-1", "(1,0)", "(0,1)", "(1,1)"]),
    st.one_of(st.text(alphabet="ab^()-,0123i", max_size=6), st.just("x" * 5000)),
)
_SELECTORS = _mostly(
    st.one_of(
        st.lists(_LABELS, min_size=1, max_size=3).map(lambda labels: "gen:" + ",".join(labels)),
        st.integers(-2, 40).map("index:{}".format),
    ),
    st.one_of(_JUNK_NUMBERS.map("index:{}".format), st.text(max_size=10), st.just("y" * 5000)),
)
_CAPS = _mostly(
    st.sampled_from([None, "16", "64", "512"]),
    st.sampled_from(["0", "-3", "abc", "", "32768", "9" * 5000]),
)
_FLAGS = st.lists(st.sampled_from(["--extended", "--total", "--construct", "--oracle"]), unique=True)
_FAMILY_LISTS = st.one_of(
    st.just(",".join(SWEEP_FAMILIES)),  # the default, named
    st.just("quaternion"),
    st.lists(st.sampled_from(["cyclic", "dihedral", "dicyclic", "abelian", "quaternion", "", " ", "Q8", "cyclc"]),
             max_size=4).map(",".join),  # empty entries, repeats and unknown names among them
)


@st.composite
def _cli_calls(draw) -> tuple[list[str], str | None]:
    expr = draw(_EXPRS)
    command = draw(st.sampled_from(["normals", "code", "graph", "classify", "scan"]))
    if command == "normals":
        argv = ["normals", expr]
    elif command == "code":
        argv = ["code", expr, "--subgroup", draw(_SELECTORS), *draw(_FLAGS)]
    elif command == "graph":
        argv = ["graph", expr, "--subgroup", draw(_SELECTORS), "--format", draw(st.sampled_from(["dot", "json"]))]
    elif command == "classify":
        argv = ["classify", "code-perfect", expr, *draw(st.sampled_from([[], ["--method", "dedekind"]]))]
    else:
        argv = ["scan", "--max-order", str(draw(st.integers(-1, 12)))]
        families = draw(st.none() | _FAMILY_LISTS)
        argv += [] if families is None else ["--families", families]
    return argv, draw(_CAPS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cli_calls())
def test_cli_fails_fast_and_briefly_on_any_input(call):
    # whatever the input: exit 0, 1 or 2, no traceback, every error line
    # short, and an answer in under a second; main runs in this process
    argv, cap = call
    out, err = io.StringIO(), io.StringIO()
    env = {} if cap is None else {"SUMGRAPH_MAX_ORDER": cap}
    start = time.perf_counter()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if cap is None:
            os.environ.pop("SUMGRAPH_MAX_ORDER", None)
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse reports a usage error
            rc = exc.code
    seconds = time.perf_counter() - start
    assert rc in (0, 1, 2), (argv, cap, rc)
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv
    assert all(len(line) < 200 for line in err.getvalue().splitlines()), (argv, err.getvalue()[:300])
    assert seconds < 1, (argv, cap, seconds)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_command_and_selector_works(capsys, monkeypatch, tmp_path):
    """Each ``sumgraph ...`` line of the README's shell blocks exits 0, run
    in a fresh directory for the files it writes, and each ``gen:``
    selector the prose shows resolves on a group whose labels it uses."""
    monkeypatch.delenv("SUMGRAPH_MAX_ORDER", raising=False)
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("sumgraph ")]
    assert len(commands) == 12
    for line in commands:
        rc, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert rc == 0, (line, err)
    assert (tmp_path / "graph.json").exists() and (tmp_path / "scan.jsonl").exists()

    groups = {"gen:3": "Z6", "gen:(1,0),(0,2)": "Z2 x Z4", "gen:a^2,b": "D12"}
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    assert sorted(re.findall(r"`(gen:[^`]*)`", prose)) == sorted(groups)
    for selector, expr in groups.items():
        G = build_group(parse_group_expr(expr))
        assert len(cli.resolve_subgroup(G, selector)) > 1, selector


def _readme_notes() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("\n## Notes\n") :]


def test_readme_notes_stay_short():
    """The README's Notes, from their heading to the end, state the
    contract in under 800 words; the design lives in the docstrings."""
    assert len(_readme_notes().split()) < 800


_FIGURE = re.compile(r"\b\d+(?:[.,]\d+)*(?:\s?[–-]\s?\d+(?:[.,]\d+)*)?\s?(?:ms|MB|s)\b")


def test_every_readme_figure_names_its_bench_file():
    """Each paragraph or bullet of the README that gives a time or a
    memory figure names a ``BENCH_*.json`` of the repository, the record
    of how it was measured."""
    root = README.parent
    units = re.split(r"\n\s*\n|\n(?=- )", README.read_text(encoding="utf-8"))
    figures = 0
    for unit in units:
        found = _FIGURE.findall(unit)
        if found:
            figures += len(found)
            names = re.findall(r"BENCH_\d+\.json", unit)
            assert names, (found, unit)
            assert all((root / name).is_file() for name in names), names
    assert figures, "the pattern matched no figure"


_DECIDERS = {
    ("plain", "perfect"): "decide_perfect_code",
    ("plain", "total"): "decide_total_perfect_code",
    ("extended", "perfect"): "decide_perfect_code_extended",
    ("extended", "total"): "decide_total_perfect_code_extended",
}


def test_readme_rules_table_lists_the_rules_the_deciders_return():
    """The README's rules table has one row per (decider, rule) pair that
    the four deciders return over the test sweep, and no other, with the
    answer each gives; the CLI's oracle row is the one addition."""
    table = [
        tuple(c.strip().strip("`") for c in re.split(r"(?<!\\)\|", line)[1:4])
        for line in _readme_notes().splitlines()
        if line.startswith("| `")
    ]
    rows = set(table)
    assert len(rows) == len(table)
    rows.remove(("code --oracle", "bruteforce-oracle", "either"))
    returned = {
        (_DECIDERS[e.verdict.flavor, e.verdict.kind], e.verdict.rule, "yes" if e.verdict.exists else "no")
        for _, report in sweep_reports()
        for e in report.entries
    }
    assert rows == returned
