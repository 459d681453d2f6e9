"""``scan --max-order 48`` against the benchmark's recorded reference.

``perfbench/expected_sweep.json`` holds one digest per group of the default
scan (``perfbench/workloads.py`` writes it).  Comparing every group's
records with it, in order, shows that a change kept every verdict and
oracle answer of the sweep.  The digests leave out the group names, so
the whole output's sha256 is pinned as well: the JSONL stays
byte-identical.  The benchmark module is loaded by path and only read.
The summary line on stderr is pinned too.  The family rules are also
checked against the oracle past the default sweep: every cyclic, dihedral
and dicyclic group to order 128 and to the default order cap, 512, and
every abelian group to order 96, with those scans' outputs pinned the same
way.
"""

import hashlib
import importlib.util
import itertools
import json
import sys
from pathlib import Path

from sumgraph import DEFAULT_MAX_ORDER
from sumgraph.cli import main

SCAN_48_SHA256 = "e3d0556c8d2e323f17389f9d09da152755bc0b6f602b1931014f2f46db4c00fa"
ABELIAN_SCAN_96_SHA256 = "43772504cb2a81df44a916ffbc7ea24e983a6998a774f354c1637ba3b2fa083a"
FAMILY_SCAN_128_SHA256 = "567f4378dfb2f6a845c6a625fc8ff33b3b64641f9c186ed3660aa44ec7c4a129"
FAMILY_SCAN_512_SHA256 = "724f273b17896a3f1cc4065b1e4b659fc2139b175a3577d74d690ad208d62cc3"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_scan_matches_the_recorded_sweep(capsys):
    workloads = _workloads()
    expected = json.loads(workloads.EXPECTED_SWEEP.read_text())
    assert expected["command"] == f"sumgraph scan --max-order {workloads.SWEEP_MAX_ORDER}"

    rc = main(["scan", "--max-order", str(workloads.SWEEP_MAX_ORDER)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "scan: 140 groups, 9962 checks, 0 disagreements\n"
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_48_SHA256
    records = [json.loads(line) for line in out.splitlines()]
    got = []
    for _, group in itertools.groupby(records, key=lambda r: (r["group"], r["order"])):
        group = list(group)
        got.append([workloads.group_digest(group), len(group)])
    assert got == expected["groups"]


def test_abelian_scan_to_96_agrees_with_the_oracle(capsys):
    """The abelian family to order 96 holds the deepest lattices of any
    pinned scan: E2^6 has 2,825 normal subgroups."""
    rc = main(["scan", "--max-order", "96", "--families", "abelian"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "scan: 141 groups, 46081 checks, 0 disagreements\n"
    assert hashlib.sha256(out.encode()).hexdigest() == ABELIAN_SCAN_96_SHA256


def test_family_scan_to_128_agrees_with_the_oracle(capsys):
    rc = main(["scan", "--max-order", "128", "--families", "cyclic,dihedral,dicyclic"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "scan: 221 groups, 7120 checks, 0 disagreements\n"
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_SCAN_128_SHA256


def test_family_scan_to_512_agrees_with_the_oracle(capsys):
    """The family rules are parametric in n, so they are checked at every
    order the library builds by default, up to the cap: a higher cap
    fails the first assertion until this scan is run to it."""
    assert DEFAULT_MAX_ORDER == 512
    rc = main(["scan", "--max-order", "512", "--families", "cyclic,dihedral,dicyclic"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "scan: 893 groups, 35850 checks, 0 disagreements\n"
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_SCAN_512_SHA256
