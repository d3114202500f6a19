"""Acceptance suite: nine exact, timed end-to-end checks.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all).  Every comparison is exact; the only tolerances are wall-clock
budgets.
"""

import time

import pytest

from coxgrowth import build_label, get_pipeline
from coxgrowth.affine import get_affine
from coxgrowth.cli import _load_fixtures, check_fixture
from coxgrowth.finite import identity_checks_finite
from test_affine import (act_affine_root, depths_of, inversion_set,
                         is_positive, simple_affine_roots)


_cap = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    # let the per-criterion lines through pytest's capture
    global _cap
    _cap = capsys
    yield
    _cap = None


def report(num, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num} {status} ({elapsed:.2f}s / budget {budget}s)"
    if detail and status == "FAIL":
        line += f"  {detail}"
    if _cap is not None:
        with _cap.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def fixture_ok(names):
    fixtures = _load_fixtures()
    bad = []
    for name in names:
        for item, ok in check_fixture(name, fixtures[name]):
            if not ok:
                bad.append(f"{name}:{item}")
    return not bad, ", ".join(bad)


def test_criterion_1_rank2_golden_set():
    t0 = time.monotonic()
    ok, detail = fixture_ok(["a2"])
    report(1, ok, time.monotonic() - t0, 1.0, detail)


def test_criterion_2_rank3_golden_set():
    t0 = time.monotonic()
    ok, detail = fixture_ok(["a3"])
    report(2, ok, time.monotonic() - t0, 5.0, detail)


def test_criterion_3_double_bond_golden_set():
    t0 = time.monotonic()
    ok, detail = fixture_ok(["b3"])
    report(3, ok, time.monotonic() - t0, 10.0, detail)


def test_criterion_4_trivial_parallelepiped_types():
    t0 = time.monotonic()
    ok, detail = fixture_ok(["c2", "c3", "c4", "f4", "g2"])
    report(4, ok, time.monotonic() - t0, 10.0, detail)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    bad = []
    for label, maxlen in [("A1", 20), ("A2", 20), ("B2", 20), ("G2", 20),
                          ("A3", 10), ("B3", 10)]:
        pl = get_pipeline(build_label(label))
        for name, ok, detail in pl.verify_against_oracle(maxlen):
            if not ok:
                bad.append(f"{label}:{name}: {detail}")
    report(5, not bad, time.monotonic() - t0, 300.0, "; ".join(bad))


def test_criterion_6_finite_identity_suite():
    t0 = time.monotonic()
    bad = []
    for label in ["A1", "A2", "A3", "B2", "B3", "G2", "F4"]:
        for name, ok, detail in identity_checks_finite(build_label(label)):
            if not ok:
                bad.append(f"{label}:{name}: {detail}")
    report(6, not bad, time.monotonic() - t0, 30.0, "; ".join(bad))


def test_criterion_7_affine_identity_suite():
    t0 = time.monotonic()
    bad = []
    for label in ["A2", "G2"]:
        pl = get_pipeline(build_label(label))
        for name, ok, detail in pl.affine_identity_checks(degree=20):
            if not ok:
                bad.append(f"{label}:{name}: {detail}")
    report(7, not bad, time.monotonic() - t0, 60.0, "; ".join(bad))


def test_criterion_8_dual_reduction_paths():
    # p_full computes the matrix-product path and the expanded double-sum
    # path and raises if they ever differ; touch every triple
    t0 = time.monotonic()
    bad = []
    for label in ["A1", "A2", "B2", "G2", "A3", "B3"]:
        pl = get_pipeline(build_label(label))
        rs = pl.rs
        try:
            for k in rs.subsets():
                for q in rs.subsets(k):
                    for j in rs.subsets():
                        pl.p_full(q, j, k)
        except AssertionError as exc:
            bad.append(f"{label}: {exc}")
    report(8, not bad, time.monotonic() - t0, 60.0, "; ".join(bad))


def test_criterion_9_length_coherence():
    t0 = time.monotonic()
    bad = []
    for label in ["A1", "A2", "B2", "G2", "A3", "B3"]:
        aff = get_affine(build_label(label))
        # bfs_enumerate asserts BFS depth == closed-form length internally
        elements, sizes = aff.bfs_enumerate(8)
        depths = depths_of(elements, sizes)
        simple = simple_affine_roots(aff)
        for x in elements:
            if len(inversion_set(aff, x)) != depths[x]:
                bad.append(f"{label}: inversion count off at {x}")
                break
            lx = depths[x]
            for g, a in simple.items():
                longer = aff.length(aff.mul_gen(x, g)) > lx
                if longer != is_positive(act_affine_root(aff, x, a)):
                    bad.append(f"{label}: duality off at {x} gen {g}")
                    break
    report(9, not bad, time.monotonic() - t0, 60.0, "; ".join(bad))
