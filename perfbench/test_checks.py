"""The exactness checker counts corrupted results as failed items.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from child import run_command  # noqa: E402
from coxgrowth import cli  # noqa: E402

MATRIX = ["matrix", "--type", "A3", "--format", "json"]
VERIFY = ["verify", "--type", "G2", "--max-length", "40"]
# `growth verify` output at the seed commit, as pinned by digests.json
VERIFY_OUT = ("PASS coset-series-vs-enumeration\n"
              "PASS normalizer-vs-enumeration\n")


@pytest.fixture(scope="module")
def matrix_out():
    res = run_command(cli, MATRIX)
    assert res["rc"] == 0
    return res["stdout"]


def failed_frac(argv, rc, stdout, use_digest=True):
    attempted, failed, _ = checks.check_command(argv, rc, stdout, use_digest)
    return failed / attempted


def corrupt_entry(stdout, coeff):
    """The matrix output with one coefficient of its longest numerator
    raised by one."""
    bad = copy.deepcopy(json.loads(stdout))
    num = max((e["num"] for row in bad["entries"] for e in row), key=len)
    idx = 0 if coeff == "lowest" else len(num) - 1
    num[idx] = str(int(num[idx]) + 1)
    return json.dumps(bad, sort_keys=True, indent=2) + "\n"


def test_seed_results_pass(matrix_out):
    assert failed_frac(MATRIX, 0, matrix_out) == 0
    assert failed_frac(VERIFY, 0, VERIFY_OUT) == 0


def test_changed_coefficient_fails(matrix_out):
    # the oracle comparison alone sees a low-order change ...
    low = corrupt_entry(matrix_out, "lowest")
    assert failed_frac(MATRIX, 0, low, use_digest=False) > 0
    # ... and the digest sees a change at any degree
    for coeff in ("lowest", "highest"):
        attempted, failed, notes = checks.check_command(
            MATRIX, 0, corrupt_entry(matrix_out, coeff))
        assert failed > 0
        assert any("digest" in n for n in notes)


def test_dropped_pass_line_fails():
    dropped = VERIFY_OUT.splitlines(keepends=True)[0]
    assert failed_frac(VERIFY, 0, dropped, use_digest=False) > 0
    assert failed_frac(VERIFY, 0, dropped) > 0
    failing = VERIFY_OUT.replace("PASS normalizer", "FAIL normalizer")
    assert failed_frac(VERIFY, 0, failing) > 0


def test_nonzero_exit_fails_every_item(matrix_out):
    assert failed_frac(MATRIX, 1, matrix_out) == 1
    assert failed_frac(VERIFY, 1, VERIFY_OUT) == 1
