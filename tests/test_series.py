"""Assembled affine double-coset series."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import build_label, get_pipeline
from coxgrowth.ratfun import IntPoly, RatFun, expand, monomial_shift


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

    def test_full_double_coset_column(self, pa2):
        # p_{Q,S,S} is the shifted translation series
        rs = pa2.rs
        s = rs.full_mask
        assert pa2.p_full(s, s, s) == RatFun.one()
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
        assert pa2.p_affine_S(rs.mask_of([1]), 0).is_zero()
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
        assert pa2.p_full(rs.mask_of([1]), 0, rs.mask_of([2])).is_zero()

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
            total = RatFun.zero()
            for q in rs.subsets():
                total = total + pa2.p_full(q, j, s)
            assert total == pa2.double_coset_series(j, s)

    def test_expansion_nonnegative(self, pa2):
        rs = pa2.rs
        for j in rs.subsets():
            for k in rs.subsets():
                for q in rs.subsets(k):
                    cs = expand(pa2.p_full(q, j, k), 15)
                    assert all(isinstance(c, int) and c >= 0 for c in cs)

    def test_shift_consistency(self, pa2):
        # p_SS(Q) relates to f_Q by the longest-length shift
        rs = pa2.rs
        from coxgrowth.cones import f_q
        for q in rs.subsets():
            shift = rs.longest_length(q) - rs.longest_length(rs.full_mask)
            assert pa2.p_ss(q) == monomial_shift(f_q(rs, q), shift)


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
        bins, _ = pl.aff.oracle_series(j, k, 8)
        for q in rs.subsets():
            assert (expand(pl.p_full(q, j, k), 8)
                    == bins.get(q, [0] * 9)), (label, q, j, k)


# Puts a wrong value into one A2 p_{Q',J,S} entry that path 1 of p_full
# reads, then requires the dual-path comparison to raise.  Exit codes:
# 0 raised, 1 did not raise, 3 asserts were not stripped.
_FAULT_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label, get_pipeline
    from coxgrowth.ratfun import RatFun
    if __debug__:
        sys.exit(3)
    pl = get_pipeline(build_label("A2"))
    rs = pl.rs
    q, j, k = 0, rs.mask_of([1]), rs.full_mask
    qp = next(m for m in rs.subsets()
              if not pl.table.p_poly(q, m, k).is_zero())
    pl._maff[(qp, j)] = pl.p_affine_S(qp, j) + RatFun.one()
    try:
        pl.p_full(q, j, k)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Breaks each subset-conjugation and pole check of the A2 pipeline in
# turn and requires it to raise.  Exit codes: 0 all raised, 1 some did
# not raise, 3 asserts were not stripped.
_CHECKS_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label, cones, get_pipeline
    from coxgrowth.ratfun import IntPoly, RatFun
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

    expect("subset", lambda: pl._conj_for(rs.full_mask, 0))
    pl._conj_by_w0 = lambda mask: 0
    expect("image", lambda: pl._conj_for(rs.mask_of([1]), rs.mask_of([1])))
    del pl._conj_by_w0
    pl.table.conj_subset_signed = lambda idx, mask: None
    expect("w0", lambda: pl._conj_by_w0(rs.mask_of([1])))
    cones.f_q = lambda rs, q: RatFun(IntPoly.one(), IntPoly.t_power(1))
    expect("pole", lambda: pl.p_ss(0))
    sys.exit(0 if raised == 4 else 1)
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


class TestPipelineChecks:
    def test_checks_raise_under_optimize(self):
        out = _run_optimized(_CHECKS_SCRIPT)
        assert "subset: Q=[1, 2] is not inside Q'=[]" in out
        assert "image: Q=[1] conjugates outside Q'=[1]" in out
        assert "w0: w_0 does not permute" in out
        assert "pole: shift left a genuine pole" in out
