"""Finite Weyl group tables and coset-series polynomials."""

import random
import textwrap

import pytest

from coxgrowth import build_label
from coxgrowth.finite import (_root_sign, get_table, matrix_M, matrix_N,
                              identity_checks_finite)
from coxgrowth.ratfun import IntPoly, RatFun
from test_series import _run_optimized


ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12,
          "C3": 48, "D4": 192, "F4": 1152}


@pytest.fixture(scope="module")
def tables():
    return {label: get_table(build_label(label)) for label in ORDERS}


def parabolic_elements(t, mask):
    """Indices of W_mask inside the full table, by closure."""
    gens = [i for i in range(t.rs.rank) if (mask >> i) & 1]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in gens:
                y = t.rmult[x][i]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def inversion_count(t, idx):
    """The number of positive roots the element sends to negative roots."""
    rmat = t.rmats[idx]
    n = t.rs.rank
    cnt = 0
    for root, _ in t.rs.positive_roots:
        img = tuple(sum(rmat[k][j] * root[j] for j in range(n))
                    for k in range(n))
        if _root_sign(img) < 0:
            cnt += 1
    return cnt


class TestGroupTable:
    def test_orders(self, tables):
        for label, want in ORDERS.items():
            assert tables[label].order == want

    def test_length_is_inversion_count(self, tables):
        for label in ["A3", "B3", "G2"]:
            t = tables[label]
            for idx in range(t.order):
                assert t.lengths[idx] == inversion_count(t, idx)

    def test_group_axioms_sampled(self, tables):
        t = tables["B3"]
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.randrange(t.order) for _ in range(3))
            assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
            assert t.mul(a, t.inv_idx[a]) == 0
            assert t.mul(t.inv_idx[a], a) == 0

    def test_longest_element(self, tables):
        for label in ["A3", "B3", "G2"]:
            t = tables[label]
            rs = t.rs
            w0 = t.longest_idx
            assert t.lengths[w0] == rs.longest_length(rs.full_mask)
            # w0 is an involution and conjugates simples to minus simples
            assert t.mul(w0, w0) == 0
            assert t.conj_subset_signed(w0, rs.full_mask) == rs.full_mask

    def test_descents_vs_length(self, tables):
        t = tables["B2"]
        for idx in range(t.order):
            for i in range(t.rs.rank):
                longer = t.lengths[t.rmult[idx][i]] > t.lengths[idx]
                assert longer == bool(((t.mask & t.rasc[idx]) >> i) & 1)

    def test_poincare_palindromic(self, tables):
        for label, t in tables.items():
            cs = t.poincare().coeffs
            assert list(cs) == list(reversed(cs))
            assert sum(cs) == t.order


class TestCosetSeries:
    def test_minimal_rep_counts(self, tables):
        # W decomposes as W^J x W_J, matching orders and lengths
        for label in ["A3", "B3"]:
            t = tables[label]
            rs = t.rs
            for j in rs.subsets():
                quot = t.p_poly(0, j, 0)
                sub = t.poincare(j)
                assert quot * sub == t.poincare()

    def test_double_coset_rep_count(self, tables):
        # the number of double cosets, counted directly as orbits, equals
        # the number of minimal representatives
        t = tables["B2"]
        rs = t.rs
        for j in rs.subsets():
            for k in rs.subsets():
                wj = parabolic_elements(t, j)
                wk = parabolic_elements(t, k)
                orbits = {frozenset(t.mul(t.mul(u, x), v)
                                    for u in wj for v in wk)
                          for x in range(t.order)}
                total = sum(t.p_poly(q, j, k)(1) for q in rs.subsets(k))
                assert len(orbits) == total

    def test_p_poly_edge_cases(self, tables):
        t = tables["A3"]
        rs = t.rs
        s = rs.full_mask
        # K = S: the only representative of W_J \ W / W is the identity
        for j in rs.subsets():
            for q in rs.subsets():
                want = IntPoly.one() if q == j else IntPoly.zero()
                assert t.p_poly(q, j, s) == want
        # J = S: delta_{Q,K}
        for k in rs.subsets():
            for q in rs.subsets(k):
                want = IntPoly.one() if q == k else IntPoly.zero()
                assert t.p_poly(q, s, k) == want
        # Q not within K vanishes
        assert t.p_poly(rs.mask_of([1]), 0, rs.mask_of([2])).is_zero()

    def test_h_poly_size_constraint(self, tables):
        t = tables["B3"]
        rs = t.rs
        for j in rs.subsets():
            for k in rs.subsets():
                for r in rs.subsets(j):
                    if bin(r).count("1") != bin(k).count("1"):
                        assert t.h_poly(r, j, k).is_zero()

    def test_normalizer_at_one(self, tables):
        # |N_W(W_J)| = |W_J| * p_{J,J,J}(1), checked against a direct count
        t = tables["B3"]
        rs = t.rs
        for j in rs.subsets():
            wj = parabolic_elements(t, j)
            count = sum(1 for x in range(t.order)
                        if {t.mul(t.mul(x, u), t.inv_idx[x])
                            for u in wj} == wj)
            assert count == len(wj) * t.p_poly(j, j, j)(1)

    def test_matrix_factorization_instance(self, tables):
        rs = build_label("A3")
        s = rs.full_mask
        k = rs.mask_of([1])
        kp = rs.mask_of([1, 2])
        assert matrix_M(rs, k, s) == matrix_M(rs, k, kp) @ matrix_M(rs, kp, s)
        j = rs.mask_of([2])
        jp = rs.mask_of([2, 3])
        assert matrix_N(rs, j, s) == matrix_N(rs, j, jp) @ matrix_N(rs, jp, s)


class TestIdentitySuite:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_all_pass(self, label):
        rs = build_label(label)
        for name, ok, detail in identity_checks_finite(rs):
            assert ok, f"{label} {name}: {detail}"


# Breaks each check of the finite tables in turn, on fresh A2 tables, and
# requires it to raise.  Exit codes: 0 all raised, 1 some did not raise,
# 3 asserts were not stripped.
_CHECKS_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import finite
    from coxgrowth.finite import (GroupTable, PolyMatrix, get_table,
                                  identity_checks_finite)
    from coxgrowth.rootsystem import RootSystem
    if __debug__:
        sys.exit(3)
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

    rs = RootSystem("A", 2)
    rs.group_order = lambda mask: 5
    expect("order", lambda: GroupTable(rs))
    rs = RootSystem("A", 2)
    rs.longest_length = lambda mask: 2
    expect("unique", lambda: GroupTable(rs))

    rs = RootSystem("A", 2)
    one, full = rs.mask_of([1]), rs.full_mask
    expect("outside", lambda: get_table(rs, one).longest_element(full))
    expect("inside", lambda: get_table(rs, full).w_hj(one, full))
    m = PolyMatrix([0], [0, one], [[1, 1]])
    expect("matmul", lambda: m @ m)
    t = get_table(rs)
    t.lengths[t.longest_idx] += 1
    expect("longest", lambda: t.longest_element(full))
    t.lengths[t.longest_idx] -= 1
    t.descents = lambda idx: 0
    expect("descents", lambda: t.w_hj(full, 0))
    del t.descents

    t.conj_subset_signed = lambda idx, mask: None
    expect("p-conj", lambda: identity_checks_finite(rs))
    run_checks = finite.run_checks
    finite.run_checks = lambda checks: run_checks(
        [c for c in checks if c[0] != "p-alternating-reduction"])
    expect("h-conj", lambda: identity_checks_finite(rs))
    sys.exit(0 if raised == 9 else 1)
""")


class TestExplicitChecks:
    def test_checks_raise_under_optimize(self):
        out = _run_optimized(_CHECKS_SCRIPT)
        assert "order: BFS found 6 elements, the closed form 5" in out
        assert "unique: no unique element of length 2" in out
        assert "outside: [1, 2] is not inside the table's [1]" in out
        assert "inside: J=[1, 2] is not inside H=[1]" in out
        assert "matmul: matrix product: columns and rows differ" in out
        assert "longest: longest element of [1, 2] has length 4" in out
        assert "descents: w(H, J) for H=[1, 2], J=[] has the wrong" in out
        assert "p-conj: Q=[] conjugates outside K=[]" in out
        assert "h-conj: R=[] conjugates outside J=[]" in out
