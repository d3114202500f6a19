"""Exactness checks of one command's result, run outside the timed job.

An item is one matrix entry, one f_Q entry or one verify/check report
line; each command adds one more item, its stdout digest, which must
equal the sha256 recorded at the seed commit in `digests.json` (the
ROADMAP defines "same results" as byte-identical CLI output).

The independent paths are the ones the package itself keeps for
verification: matrix entries are expanded and compared with the bins of
the brute-force enumeration oracle, f_Q series with a direct lattice
walk.  A truncated comparison cannot see a change above its length; the
digest item catches any such change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from coxgrowth.ratfun import RatFun, expand
from coxgrowth.rootsystem import build_label
from coxgrowth.affine import get_affine
from coxgrowth.cones import lattice_walk_counts

DIGESTS = json.loads(Path(__file__).with_name("digests.json").read_text())

# Truncation lengths: the oracle for rank-3 matrix entries (about 0.1 s
# per type) and the lattice walk for f_Q.
ORACLE_LENGTH = 10
WALK_DEGREE = 14

VERIFY_LINES = ["coset-series-vs-enumeration", "normalizer-vs-enumeration"]
FINITE_CHECK_LINES = ["alternating-sum", "parabolic-quotient",
                      "pKJK-partition", "p-alternating-reduction",
                      "h-alternating-reduction", "M-factorization",
                      "N-factorization"]


def _type_of(argv):
    return build_label(argv[argv.index("--type") + 1])


def content_items(argv):
    """Number of items a command's output holds, excluding its digest."""
    kind = argv[0]
    if kind in ("matrix", "fq"):
        n = 1 << _type_of(argv).rank
        return n * n if kind == "matrix" else n
    if kind == "verify":
        return len(VERIFY_LINES)
    if kind == "finite":
        return len(FINITE_CHECK_LINES)
    raise ValueError(f"no checker for {argv}")


def _check_matrix(argv, stdout):
    rs = _type_of(argv)
    aff = get_affine(rs)
    elements, _ = aff.bfs_enumerate(ORACLE_LENGTH)
    data = json.loads(stdout)
    subs = rs.subsets()
    bad = []
    for ji, j in enumerate(subs):
        bins, _ = aff.oracle_series(j, rs.full_mask, ORACLE_LENGTH,
                                   elements)
        for qi, q in enumerate(subs):
            want = bins.get(q, [0] * (ORACLE_LENGTH + 1))
            try:
                ok = (data["rows"][qi] == rs.ids_of(q)
                      and data["cols"][ji] == rs.ids_of(j)
                      and expand(RatFun.from_json(data["entries"][qi][ji]),
                                 ORACLE_LENGTH) == want)
            except (LookupError, TypeError, ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                bad.append(f"entry Q={rs.ids_of(q)} J={rs.ids_of(j)}")
    return bad


def _check_fq(argv, stdout):
    rs = _type_of(argv)
    f = json.loads(stdout)["f"]
    bad = []
    for q in rs.subsets():
        key = ",".join(str(i) for i in rs.ids_of(q))
        want = lattice_walk_counts(rs, q, WALK_DEGREE)
        try:
            ok = (f[key]["Q"] == rs.ids_of(q)
                  and expand(RatFun.from_json(f[key]["series"]),
                             WALK_DEGREE) == want)
        except (LookupError, TypeError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            bad.append(f"f_Q Q={rs.ids_of(q)}")
    return bad


def _check_lines(expected):
    def check(argv, stdout):
        passed = set()
        for line in stdout.splitlines():
            words = line.split()
            if len(words) >= 2 and words[0] == "PASS":
                passed.add(words[1])
        return [f"no PASS line for {name}" for name in expected
                if name not in passed]
    return check


CHECKERS = {"matrix": _check_matrix, "fq": _check_fq,
            "verify": _check_lines(VERIFY_LINES),
            "finite": _check_lines(FINITE_CHECK_LINES)}


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def check_command(argv, rc, stdout, use_digest=True):
    """(attempted, failed, notes) for one command's result.  A command that
    raised or exited nonzero fails every item."""
    items = content_items(argv)
    attempted = items + int(use_digest)
    if rc != 0:
        return attempted, attempted, [f"{' '.join(argv)}: exit code {rc}"]
    try:
        bad = CHECKERS[argv[0]](argv, stdout)
    except (ValueError, LookupError, TypeError) as exc:
        bad = [f"unreadable output ({exc!r})"] * items
    if use_digest and digest(stdout) != DIGESTS.get(" ".join(argv)):
        bad.append("stdout differs from the seed digest")
    return attempted, len(bad), [f"{' '.join(argv)}: {b}" for b in bad]
