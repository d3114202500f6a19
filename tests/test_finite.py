"""Finite Weyl group tables and coset-series polynomials."""

import functools
import json
import random
import textwrap

import pytest

from coxgrowth import build_label
from coxgrowth.finite import (get_table, matrix_M, matrix_N,
                              identity_checks_finite)
from coxgrowth.ratfun import IntPoly, RatFun
from test_series import _run_optimized, _run_python


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


# -- matrix reference table --------------------------------------------
# Each element of the full group as three integer matrices: rmat acts on
# root coordinates (column j is the image of alpha_j), rinv is the rmat
# of the inverse and cmat acts on coroot coordinates.  The BFS composes
# rmats, x*s_i = x.rmat @ S_i, and visits the generators in the same
# order as GroupTable, so both number the elements alike.


def matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def matcol(m, j):
    return tuple(row[j] for row in m)


def _is_unit_col(col):
    """Index j if col == e_j, else -1."""
    hit = -1
    for j, x in enumerate(col):
        if x == 1:
            if hit >= 0:
                return -1
            hit = j
        elif x != 0:
            return -1
    return hit


def _root_sign(col):
    """+1/-1 for a vector with entries all of one sign."""
    for x in col:
        if x > 0:
            return 1
        if x < 0:
            return -1
    return 0


def simple_reflection_mats(rs, i):
    """(rmat, cmat) of the i-th simple reflection (0-based)."""
    n = rs.rank
    rmat = [[int(k == j) for j in range(n)] for k in range(n)]
    cmat = [[int(k == j) for j in range(n)] for k in range(n)]
    for j in range(n):
        rmat[i][j] -= rs.cartan[j][i]
        cmat[i][j] -= rs.cartan[i][j]
    return tuple(map(tuple, rmat)), tuple(map(tuple, cmat))


class MatrixTable:
    def __init__(self, rs):
        self.rs = rs
        n = rs.rank
        gens = [simple_reflection_mats(rs, i) for i in range(n)]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.rmats = [ident]
        self.rinvs = [ident]
        self.cmats = [ident]
        self.lengths = [0]
        self.index = {ident: 0}
        self.rmult = [dict()]
        frontier = [0]
        while frontier:
            nxt = []
            for idx in frontier:
                for i, (gen_rmat, gen_cmat) in enumerate(gens):
                    new = matmul(self.rmats[idx], gen_rmat)
                    pos = self.index.get(new)
                    if pos is None:
                        pos = len(self.rmats)
                        self.rmats.append(new)
                        self.rinvs.append(matmul(gen_rmat, self.rinvs[idx]))
                        self.cmats.append(matmul(self.cmats[idx], gen_cmat))
                        self.lengths.append(self.lengths[idx] + 1)
                        self.index[new] = pos
                        self.rmult.append(dict())
                        nxt.append(pos)
                    self.rmult[idx][i] = pos
            frontier = nxt
        self.inv_idx = [self.index[r] for r in self.rinvs]

    def mul(self, a, b):
        return self.index[matmul(self.rmats[a], self.rmats[b])]

    def act_root(self, idx, vec):
        rmat = self.rmats[idx]
        n = self.rs.rank
        return tuple(sum(rmat[k][j] * vec[j] for j in range(n))
                     for k in range(n))

    def rasc(self, idx):
        return sum(1 << i for i in range(self.rs.rank)
                   if _root_sign(matcol(self.rmats[idx], i)) > 0)

    def lasc(self, idx):
        return sum(1 << i for i in range(self.rs.rank)
                   if _root_sign(matcol(self.rinvs[idx], i)) > 0)

    def simple_img(self, idx):
        return tuple(_is_unit_col(matcol(self.rmats[idx], i))
                     for i in range(self.rs.rank))

    def conj_subset_signed(self, idx, k_mask):
        out = 0
        for i in range(self.rs.rank):
            if (k_mask >> i) & 1:
                col = matcol(self.rmats[idx], i)
                s = _root_sign(col)
                j = _is_unit_col(col if s > 0 else tuple(-x for x in col))
                if j < 0:
                    return None
                out |= 1 << j
        return out


@functools.cache
def reference_table(rs):
    """The matrix reference of the full group of rs."""
    return MatrixTable(rs)


def inversion_count(ref, idx):
    """The number of positive roots the element sends to negative roots."""
    return sum(1 for root, _ in ref.rs.positive_roots
               if _root_sign(ref.act_root(idx, root)) < 0)


class TestAgainstMatrixReference:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2"])
    def test_every_element(self, label):
        rs = build_label(label)
        t, ref = get_table(rs), reference_table(rs)
        n = rs.rank
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        assert t.order == len(ref.rmats)
        assert t.rmult == ref.rmult
        for idx in range(t.order):
            assert t.lengths[idx] == inversion_count(ref, idx)
            assert t.rasc[idx] == ref.rasc(idx)
            assert t.lasc[idx] == ref.lasc(idx)
            assert t.simple_img[idx] == ref.simple_img(idx)
            assert ([t.act_coroot(idx, e) for e in units]
                    == [matcol(ref.cmats[idx], i) for i in range(n)])
            for mask in rs.subsets():
                assert (t.conj_subset_signed(idx, mask)
                        == ref.conj_subset_signed(idx, mask))
        rng = random.Random(11)
        for _ in range(200):
            a, b = rng.randrange(t.order), rng.randrange(t.order)
            assert t.mul(a, b) == ref.mul(a, b)


class TestGroupTable:
    def test_orders(self, tables):
        for label, want in ORDERS.items():
            assert tables[label].order == want

    def test_length_is_inversion_count(self, tables):
        for label in ["A3", "B3", "G2"]:
            t = tables[label]
            ref = reference_table(t.rs)
            for idx in range(t.order):
                assert t.lengths[idx] == inversion_count(ref, idx)

    def test_group_axioms_sampled(self, tables):
        t = tables["B3"]
        inv_idx = reference_table(t.rs).inv_idx
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.randrange(t.order) for _ in range(3))
            assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
            assert t.mul(a, inv_idx[a]) == 0
            assert t.mul(inv_idx[a], a) == 0

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
            cs = t.rs.poincare(t.mask).coeffs
            assert list(cs) == list(reversed(cs))
            assert sum(cs) == t.order


class TestE6:
    # the degrees of the basic invariants of E6 (Humphreys, Reflection
    # Groups and Coxeter Groups, Table 3.1); W(t) = prod (1 - t^d) / (1 - t)
    DEGREES = (2, 5, 6, 8, 9, 12)

    def test_poincare_against_degrees(self):
        proc = _run_python(["-m", "coxgrowth.cli", "finite", "--type", "E6",
                            "--format", "json"], timeout=20)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        want = [1]
        for d in self.DEGREES:
            # multiply by 1 + t + ... + t^(d-1)
            want = [sum(want[max(0, k - d + 1):k + 1])
                    for k in range(len(want) + d - 1)]
        assert out["order"] == 51840 == sum(want)
        assert out["poincare"] == {"num": [str(c) for c in want],
                                   "den": ["1"]}


class TestCosetSeries:
    def test_minimal_rep_counts(self, tables):
        # W decomposes as W^J x W_J, matching orders and lengths
        for label in ["A3", "B3"]:
            t = tables[label]
            rs = t.rs
            for j in rs.subsets():
                quot = t.p_poly(0, j, 0)
                sub = rs.poincare(j)
                assert quot * sub == rs.poincare(rs.full_mask)

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
        inv_idx = reference_table(rs).inv_idx
        for j in rs.subsets():
            wj = parabolic_elements(t, j)
            count = sum(1 for x in range(t.order)
                        if {t.mul(t.mul(x, u), inv_idx[x])
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


# Breaks each check of the finite tables and of their closed form in turn,
# on fresh A2 tables, and requires it to raise.  Exit codes: 0 all raised,
# 1 some did not raise, 3 asserts were not stripped.
_CHECKS_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import finite
    from coxgrowth.finite import (GroupTable, PolyMatrix, get_table,
                                  identity_checks_finite)
    from coxgrowth.ratfun import IntPoly
    from coxgrowth.rootsystem import RootSystem, exponents
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

    # A2 has W(t) = 1 + 2t + 2t^2 + t^3
    rs = RootSystem("A", 2)
    rs.poincare = lambda mask: IntPoly((1, 2, 3, 1))
    expect("coefficient", lambda: GroupTable(rs))
    rs = RootSystem("A", 2)
    rs.poincare = lambda mask: IntPoly((1, 2, 1, 1, 1))
    expect("degree", lambda: GroupTable(rs))
    expect("exponents", lambda: exponents([1, 3]))

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
    sys.exit(0 if raised == 10 else 1)
""")


# Builds every A2 table against the true closed form, then gives W_{1}
# the non-divisor 1 + 2t in place of 1 + t and runs `growth finite
# --what check`.  Exit codes: those of the command, or 3 if asserts were
# not stripped.
_SOLOMON_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.cli import main
    from coxgrowth.finite import get_table
    from coxgrowth.ratfun import IntPoly
    from coxgrowth.rootsystem import build_label
    if __debug__:
        sys.exit(3)
    rs = build_label("A2")
    for mask in rs.subsets():
        get_table(rs, mask)
    poincare, one = rs.poincare, rs.mask_of([1])
    rs.poincare = lambda mask: (IntPoly((1, 2)) if mask == one
                                else poincare(mask))
    sys.exit(main(["finite", "--type", "A2", "--what", "check"]))
""")


class TestExplicitChecks:
    def test_inexact_solomon_quotient_fails_the_check(self):
        proc = _run_python(["-O", "-c", _SOLOMON_SCRIPT])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.startswith("FAIL alternating-sum") for line in lines)
        assert "PASS pKJK-partition" in lines

    def test_checks_raise_under_optimize(self):
        out = _run_optimized(_CHECKS_SCRIPT)
        assert ("coefficient: BFS length histogram [1, 2, 2, 1] is not the "
                "closed form 1 + 2*t + 3*t^2 + t^3" in out)
        assert ("degree: BFS length histogram [1, 2, 2, 1] is not the "
                "closed form 1 + 2*t + t^2 + t^3 + t^4" in out)
        assert "exponents: 1 roots of height 3 but 0 of height 2" in out
        assert "outside: [1, 2] is not inside the table's [1]" in out
        assert "inside: J=[1, 2] is not inside H=[1]" in out
        assert "matmul: matrix product: columns and rows differ" in out
        assert "longest: longest element of [1, 2] has length 4" in out
        assert "descents: w(H, J) for H=[1, 2], J=[] has the wrong" in out
        assert "p-conj: Q=[] conjugates outside K=[]" in out
        assert "h-conj: R=[] conjugates outside J=[]" in out
