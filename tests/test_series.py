"""Assembled affine double-coset series."""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import build_label, get_pipeline
from coxgrowth.affine import get_affine
from coxgrowth.cones import f_q
from coxgrowth.ratfun import IntPoly, RatFun, expand, poly_exact_div
from coxgrowth.rootsystem import exponents
from test_ratfun import monomial_shift, rf_add, rf_mul


class ReferenceAssembly:
    """The assembly as sums of normalized RatFuns, every `+` running a
    gcd, with the subset conjugations recomputed on each use from the
    matrix reference of the group, not from the root system's flips:
    p_SS(Q) by a monomial shift of f_Q, p_{Q,J,S} and both reduction
    paths of p_{Q,J,K} term by term.  The pipeline carries the same sums
    as integer numerators over one fixed denominator."""

    def __init__(self, pl):
        # imported here, since test_finite imports this module
        from test_finite import reference_longest, reference_table
        self.rs, self.table = pl.rs, pl.table
        self.ref = reference_table(pl.rs)
        self.longest = functools.partial(reference_longest, self.ref)
        self.w0 = self.longest(self.rs.full_mask)

    def conj_by_w0(self, mask):
        return self.ref.conj_subset_signed(self.w0, mask)

    def conj_for(self, q_mask, qp_mask):
        u = self.ref.mul(self.w0, self.longest(qp_mask))
        return self.ref.conj_subset_signed(u, q_mask)

    def p_ss(self, q_mask):
        rs = self.rs
        shift = rs.longest_length(q_mask) - rs.longest_length(rs.full_mask)
        return monomial_shift(f_q(rs, q_mask), shift)

    def p_affine_S(self, q_mask, j_mask):
        acc = RatFun(IntPoly.zero())
        for qp in self.rs.subsets():
            if q_mask & ~qp:
                continue
            fin = self.table.p_poly(self.conj_for(q_mask, qp), j_mask,
                                    self.conj_by_w0(qp))
            if not fin.is_zero():
                acc = rf_add(acc, rf_mul(RatFun(fin), self.p_ss(qp)))
        return acc

    def p_full(self, q_mask, j_mask, k_mask):
        if q_mask & ~k_mask:
            return RatFun(IntPoly.zero())
        acc1 = acc2 = RatFun(IntPoly.zero())
        for qp in self.rs.subsets():
            fin1 = self.table.p_poly(q_mask, qp, k_mask)
            if fin1.is_zero():
                continue
            acc1 = rf_add(acc1, rf_mul(RatFun(fin1),
                                       self.p_affine_S(qp, j_mask)))
            for qpp in self.rs.subsets():
                if qp & ~qpp:
                    continue
                fin2 = self.table.p_poly(self.conj_for(qp, qpp), j_mask,
                                         self.conj_by_w0(qpp))
                acc2 = rf_add(acc2, rf_mul(RatFun(fin1 * fin2),
                                           self.p_ss(qpp)))
        assert acc1 == acc2
        return acc1


@pytest.fixture(scope="module")
def rank3_references():
    # built outside the hypothesis test that draws from them: the first
    # one imports test_finite, whose tests are themselves @given
    return [ReferenceAssembly(get_pipeline(build_label(label)))
            for label in ["A3", "B3", "C3"]]


@pytest.fixture(scope="module")
def pa2():
    return get_pipeline(build_label("A2"))


@pytest.fixture(scope="module")
def pa1():
    return get_pipeline(build_label("A1"))


class TestKnownSeries:
    def test_rank1_group_series(self, pa1):
        # 1 + 2t + 2t^2 + ...
        want = RatFun(IntPoly((1, 1)), IntPoly.one_minus_t(1))
        assert pa1.group_series() == want

    def test_rank2_group_series(self, pa2):
        want = RatFun(IntPoly((1, 1, 1)),
                      IntPoly.one_minus_t(1) * IntPoly.one_minus_t(1))
        assert pa2.group_series() == want

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3",
                                       "B4", "C3", "D4", "F4", "G2"])
    def test_bott_formula(self, label):
        # W(t) / prod (1 - t^e) over the exponents e (Bott 1956)
        pl = get_pipeline(build_label(label))
        rs = pl.rs
        heights = [sum(root) for root, _ in rs.positive_roots]
        bott = RatFun(rs.poincare(rs.full_mask),
                      IntPoly.one_minus_t(*exponents(heights)))
        assert pl.group_series() == bott

    def test_full_double_coset_column(self, pa2):
        # p_{Q,S,S} is the shifted translation series
        rs = pa2.rs
        s = rs.full_mask
        assert pa2.p_full(s, s, s) == RatFun(IntPoly.one())
        got = pa2.p_full(rs.mask_of([1]), s, s)
        assert got == RatFun(IntPoly.t_power(4), IntPoly.one_minus_t(6))

    def test_golden_matrix_entries(self, pa2):
        rs = pa2.rs
        d = IntPoly.one_minus_t(2) * IntPoly.one_minus_t(6)
        assert pa2.p_affine_S(0, 0) == RatFun(
            IntPoly((1, 1, 1)) * IntPoly((1, 0, 0, 1)), d)
        assert pa2.p_affine_S(0, rs.mask_of([1])) == RatFun(
            IntPoly((0, 1, 1, 0, 0, 1)), d)
        assert pa2.p_affine_S(0, s_mask := rs.full_mask) == RatFun(
            IntPoly((0, 1, 0, -1, 0, 1)), d)
        assert pa2.p_affine_S(rs.mask_of([1]), 0).num.is_zero()
        assert pa2.p_affine_S(rs.mask_of([1]), rs.mask_of([1])) == RatFun(
            IntPoly.one_minus_t(2), d)

    def test_normalizer_series(self, pa2):
        # N(W_J) for J = {1}: W_J(t) * p_{J,J,J}(t)
        rs = pa2.rs
        j = rs.mask_of([1])
        got = pa2.normalizer_series(j)
        want = RatFun(IntPoly((1, 1)) * IntPoly((1, 0, 0, 0, 0, 0, 1)),
                      IntPoly.one_minus_t(6))
        assert got == want


class TestStructure:
    def test_zero_outside_k(self, pa2):
        rs = pa2.rs
        assert pa2.p_full(rs.mask_of([1]), 0,
                          rs.mask_of([2])).num.is_zero()

    def test_symmetry(self, pa2):
        rs = pa2.rs
        for j in rs.subsets():
            for k in rs.subsets():
                assert (pa2.double_coset_series(j, k)
                        == pa2.double_coset_series(k, j))

    def test_k_full_reduces_to_delta_column(self, pa2):
        # K = S: series of ^JW~^S, with Q the intersection pattern;
        # expansions must be nonnegative and sum to the J-column
        rs = pa2.rs
        s = rs.full_mask
        for j in rs.subsets():
            total = RatFun(IntPoly.zero())
            for q in rs.subsets():
                total = rf_add(total, pa2.p_full(q, j, s))
            assert total == pa2.double_coset_series(j, s)

    def test_expansion_nonnegative(self, pa2):
        rs = pa2.rs
        for j in rs.subsets():
            for k in rs.subsets():
                for q in rs.subsets(k):
                    cs = expand(pa2.p_full(q, j, k), 15)
                    assert all(isinstance(c, int) and c >= 0 for c in cs)

    def test_shift_consistency(self, pa2):
        # the numerator of p_SS(Q) over D is f_Q shifted by the
        # difference of the longest lengths
        rs = pa2.rs
        for q in rs.subsets():
            shift = rs.longest_length(q) - rs.longest_length(rs.full_mask)
            assert (RatFun(pa2._ss_num(q), pa2.den)
                    == monomial_shift(f_q(rs, q), shift))


class TestReferenceAssembly:
    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
    def test_every_entry_rank_le_2(self, label):
        pl = get_pipeline(build_label(label))
        ref = ReferenceAssembly(pl)
        subs = pl.rs.subsets()
        for q in subs:
            assert RatFun(pl._ss_num(q), pl.den) == ref.p_ss(q), (label, q)
            for j in subs:
                assert pl.p_affine_S(q, j) == ref.p_affine_S(q, j)
                for k in subs:
                    assert pl.p_full(q, j, k) == ref.p_full(q, j, k), (
                        label, q, j, k)

    @pytest.mark.parametrize("label", ["A3", "B3", "C3"])
    def test_every_affine_column_rank_3(self, label):
        pl = get_pipeline(build_label(label))
        ref = ReferenceAssembly(pl)
        subs = pl.rs.subsets()
        for q in subs:
            for j in subs:
                assert pl.p_affine_S(q, j) == ref.p_affine_S(q, j), (
                    label, q, j)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_strata_rank_3(self, rank3_references, data):
        # p_{Q,J,K} of a random (J, K) and Q within K, both paths of the
        # reference against the packed pipeline
        ref = data.draw(st.sampled_from(rank3_references))
        subs = ref.rs.subsets()
        j = data.draw(st.sampled_from(subs))
        k = data.draw(st.sampled_from(subs))
        q = data.draw(st.sampled_from(ref.rs.subsets(k)))
        pl = get_pipeline(ref.rs)
        assert pl.p_full(q, j, k) == ref.p_full(q, j, k), (
            ref.rs.label, q, j, k)


class TestNormalization:
    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3"])
    def test_reported_series_equal_their_numerators(self, label):
        # every reported series is its numerator over D, and its reduced
        # denominator divides D exactly
        pl = get_pipeline(build_label(label))
        rs = pl.rs
        subs = rs.subsets()
        num = pl._poly
        reported = (
            [(pl.p_affine_S(q, j), num(pl._affine(j)[q]))
             for q in subs for j in subs]
            + [(pl.p_full(q, j, k), num(pl._full(j, k)[q]))
               for j in subs for k in subs for q in rs.subsets(k)]
            + [(pl.double_coset_series(j, k), num(pl._double_num(j, k)))
               for j in subs for k in subs]
            + [(pl.normalizer_series(j),
                rs.poincare(j) * num(pl._full(j, j)[j])) for j in subs])
        assert len(reported) == 4 ** rs.rank * 2 + 6 ** rs.rank + 2 ** rs.rank
        for r, num in reported:
            assert r.num * pl.den == num * r.den, (label, r, num)
            poly_exact_div(pl.den, r.den)       # raises unless it divides


class TestOracleAgreement:
    def test_small_verify(self, pa1, pa2):
        for pl, maxlen in [(pa1, 14), (pa2, 10)]:
            for name, ok, detail in pl.verify_against_oracle(maxlen):
                assert ok, f"{name}: {detail}"

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_pair_matches_oracle(self, data):
        # every Q-stratum of a random (J, K) of a type of rank <= 3
        label = data.draw(st.sampled_from(
            ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3"]))
        pl = get_pipeline(build_label(label))
        rs = pl.rs
        j = data.draw(st.integers(0, rs.full_mask))
        k = data.draw(st.integers(0, rs.full_mask))
        bins, _ = get_affine(rs).oracle_series(j, k, 8)
        for q in rs.subsets():
            assert (expand(pl.p_full(q, j, k), 8)
                    == bins.get(q, [0] * 9)), (label, q, j, k)

    def test_e6_series_matches_oracle(self):
        # the expanded E6 series against the enumeration, each command in
        # a process of its own
        series = _run_python(["-m", "coxgrowth.cli", "series", "--type",
                              "E6", "--J", "1", "--K", "2", "--expand", "8",
                              "--format", "json"], timeout=30)
        oracle = _run_python(["-m", "coxgrowth.cli", "oracle", "--type",
                              "E6", "--J", "1", "--K", "2", "--max-length",
                              "8", "--format", "json"], timeout=30)
        assert series.returncode == 0, series.stderr
        assert oracle.returncode == 0, oracle.stderr
        total = json.loads(oracle.stdout)["total"]
        assert len(total) == 9 and all(c > 0 for c in total)
        assert json.loads(series.stdout)["expansion"] == total


# Adds 1 to the cached, packed A2 p_{Q',J,S} entry that path 1 of p_full
# reads, then requires the dual-path comparison to raise.  Exit codes: 0
# raised, 1 did not raise, 3 asserts were not stripped, 4 the wrong
# numerator did not reach the cache.
_FAULT_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label, get_pipeline
    from coxgrowth.ratfun import IntPoly, pack
    if __debug__:
        sys.exit(3)
    pl = get_pipeline(build_label("A2"))
    rs = pl.rs
    q, j, k = 0, rs.mask_of([1]), rs.full_mask
    qp = next(m for m in rs.subsets()
              if not pl.table.p_poly(q, m, k).is_zero())
    bad = pl._affine(j)[qp] + pack(IntPoly.one(), pl.bits)
    pl._affine(j)[qp] = bad
    if pl._affine(j)[qp] != bad:
        sys.exit(4)
    try:
        pl.p_full(q, j, k)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Adds t^2 to the cached, packed A2 numerators of p_{Q,J,K} for Q = {},
# J = {1}, K = {2} and of p_{J,J,J} for J = {2}, then runs `growth
# verify`, which must report both strata against the enumeration.  Exit
# codes: those of `growth verify`, or 3 if asserts were not stripped.
_VERIFY_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label, get_pipeline
    from coxgrowth.cli import main
    from coxgrowth.ratfun import IntPoly, pack
    if __debug__:
        sys.exit(3)
    pl = get_pipeline(build_label("A2"))
    rs = pl.rs
    for q, j, k in [(0, rs.mask_of([1]), rs.mask_of([2])),
                    (rs.mask_of([2]),) * 3]:
        pl._full(j, k)[q] += pack(IntPoly.t_power(2), pl.bits)
    sys.exit(main(["verify", "--type", "A2", "--max-length", "8"]))
""")


# Defines break_walk(rs, fault) for the scripts below.  It gives rs
# faulty simple reflections and drops its cached flips, so that the next
# rs.flips(X) walks X again with the fault: "image" makes s_1 send alpha_1
# to -alpha_2, outside X = {1}, and "steps" makes s_2 a copy of s_1, so
# that the walk for X = {2} overshoots l(w_X); None restores the true
# reflections.  Tables built afterwards would read the fault too, so the
# scripts build theirs first.
_BREAK_WALK = textwrap.dedent("""
    def break_walk(rs, fault):
        vars(rs).pop("simple_reflections", None)
        for x in rs.subsets():
            rs._derived.pop(("flips", x), None)
        perms = [list(perm) for perm in rs.simple_reflections()]
        if fault == "image":
            perms[0][rs.simple_idx[0]] = (rs.simple_idx[1]
                                          + len(rs.positive_roots))
        elif fault == "steps":
            perms[1] = perms[0]
        rs.simple_reflections = lambda: perms
""")


# Breaks each subset-conjugation and pole check of the A2 pipeline in
# turn and requires it to raise.  Exit codes: 0 all raised, 1 some did
# not raise, 3 asserts were not stripped.
_CHECKS_SCRIPT = _BREAK_WALK + textwrap.dedent("""
    import sys
    from coxgrowth import build_label, cones, get_pipeline
    from coxgrowth.ratfun import IntPoly
    from coxgrowth.series import AffinePipeline
    if __debug__:
        sys.exit(3)
    pl = get_pipeline(build_label("A2"))
    rs = pl.rs
    raised = 0

    def expect(name, call):
        global raised
        try:
            call()
        except AssertionError as exc:
            raised += 1
            print(f"{name}: {exc}")
        else:
            print(f"{name}: no error")

    # each pipeline below walks the flips afresh, with the fault
    break_walk(rs, "image")
    expect("image", lambda: AffinePipeline(rs))
    break_walk(rs, "steps")
    expect("steps", lambda: AffinePipeline(rs))
    break_walk(rs, None)
    cones.reciprocity_numerator = lambda rs, q: (IntPoly.one(), [])
    expect("pole", lambda: pl._ss_num(0))
    sys.exit(0 if raised == 3 else 1)
""")


# Makes every parabolic Poincare polynomial of the affine group a
# non-divisor of the group series numerator, then runs `growth check` on
# A2.  Exit codes: those of `growth check`, or 3 if asserts were not
# stripped.
_SOLOMON_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import series
    from coxgrowth.cli import main
    from coxgrowth.ratfun import IntPoly
    if __debug__:
        sys.exit(3)
    series.parabolic_poincare = lambda rs, ids: IntPoly(COEFFS)
    sys.exit(main(["check", "--type", "A2"]))
""")


# Assembles and caches every A2 numerator, then breaks the walk of the
# flips, so that they are walked again with the fault, and requires the
# affine alternating reduction to raise.  Exit codes: 0 raised, 1 did
# not raise, 3 asserts were not stripped.
_REDUCTION_SCRIPT = _BREAK_WALK + textwrap.dedent("""
    import sys
    from coxgrowth import build_label, get_pipeline
    if __debug__:
        sys.exit(3)
    pl = get_pipeline(build_label("A2"))
    pl.affine_identity_checks()
    break_walk(pl.rs, "image")
    try:
        pl.affine_identity_checks()
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Builds the A2 pipeline, then corrupts the first p-bin of the full
# table's (J, K) scan for J = {1}, K = {2} and runs `growth matrix`, which
# reads that bin: FAULT "carry" adds 2^B to t^1 and takes 1 from t^2, B
# the pipeline's slot width, which leaves the packed bin unchanged;
# "term" adds a term past t^l(w_0); "total" raises its constant term to
# |W| = 6, so that the scan counts more elements than W has.  Exit codes:
# those of the command, or 3 if asserts were not stripped.
_PIPELINE_BIN_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label, get_pipeline
    from coxgrowth.cli import main
    from coxgrowth.finite import GroupTable
    from coxgrowth.ratfun import IntPoly
    if __debug__:
        sys.exit(3)
    rs = build_label("A2")
    bits = get_pipeline(rs).bits
    key = (rs.full_mask, rs.mask_of([1]), rs.mask_of([2]))
    scan = GroupTable._scan

    def corrupt(self, j_mask, k_mask):
        bins = scan(self, j_mask, k_mask)
        if (self.mask, j_mask, k_mask) == key:
            q, poly = next(iter(bins[0].items()))
            coeffs = list(poly.coeffs) + [0] * 4
            if FAULT == "carry":
                coeffs[1] += 1 << bits
                coeffs[2] -= 1
            elif FAULT == "term":
                coeffs[4] = 1
            else:
                coeffs[0] = 6
            bins[0][q] = IntPoly(coeffs)
        return bins

    GroupTable._scan = corrupt
    sys.exit(main(["matrix", "--type", "A2"]))
""")


def _run_python(args, timeout=120):
    """Run the interpreter on args in a subprocess, with src on the path."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(root / "src"), env.get("PYTHONPATH")] if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_optimized(script):
    proc = _run_python(["-O", "-c", script])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


class TestDualPathCheck:
    def test_disagreement_raises_under_optimize(self):
        assert "reduction paths disagree" in _run_optimized(_FAULT_SCRIPT)


class TestPipelineWidth:
    @pytest.mark.parametrize("fault, message", [
        ("carry", "of the table [1, 2], J=[1], K=[2] has a coefficient "
                  "outside [0, 6] or a term past t^3"),
        ("term", "coset bin 1 + t^4 of the table [1, 2], J=[1], K=[2] has "
                 "a coefficient outside [0, 6]"),
        ("total", "the coset bins of J=[1], K=[2] count 7 elements, over "
                  "the group order 6")])
    def test_bin_outside_the_width_raises(self, fault, message):
        proc = _run_python(["-O", "-c", _PIPELINE_BIN_SCRIPT.replace(
            "FAULT", repr(fault))])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert message in proc.stderr


class TestVerifyFaults:
    def test_wrong_numerators_fail_verify_under_optimize(self):
        proc = _run_python(["-O", "-c", _VERIFY_SCRIPT])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            "FAIL coset-series-vs-enumeration: Q=[], J=[1], K=[2]: "
            "[1, 1, 3, 3, 3, 5, 5, 6, 8] vs [1, 1, 2, 3, 3, 5, 5, 6, 6]",
            "FAIL normalizer-vs-enumeration: J=[2]: "
            "[1, 1, 1, 1, 0, 0, 2, 2, 2] vs [1, 1, 0, 0, 0, 0, 2, 2, 0]"]


class TestPipelineChecks:
    def test_checks_raise_under_optimize(self):
        out = _run_optimized(_CHECKS_SCRIPT)
        # the pipeline walks eps_S as it is built, and each fault
        # throws the walk to w_S off its length
        for fault in ("image", "steps"):
            assert (f"{fault}: the walk to w_X for X=[1, 2] stopped after "
                    "4 steps, not 3" in out)
        assert "pole: shift left a genuine pole" in out


class TestAffineIdentityFaults:
    # 1 + 2t fails on a leading coefficient, 3 + t on the remainder
    @pytest.mark.parametrize("coeffs", [(1, 2), (3, 1)])
    def test_inexact_solomon_quotient_fails_the_check(self, coeffs):
        proc = _run_python(["-O", "-c", _SOLOMON_SCRIPT.replace(
            "COEFFS", repr(coeffs))])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.startswith("FAIL affine alternating-sum-zero")
                   for line in lines)
        assert "PASS affine coset-partition-sum" in lines

    def test_reduction_conjugation_check_raises_under_optimize(self):
        out = _run_optimized(_REDUCTION_SCRIPT)
        assert ("w_X does not send the simple roots of X=[1] onto minus "
                "simple roots of X" in out)
