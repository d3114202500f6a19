"""Assembly of the affine double-coset growth series.

Everything reduces to two ingredients: polynomial coset series of the
finite Weyl group, and the translation series

    p_SS(Q) = t^(l(w_Q) - l(w_0)) * f_Q(t)

for the full-group double cosets.  Every f_Q, and so every assembled
series, has a denominator dividing D = prod_i (1 - t^wt(w_i)), one factor
per cone generator, so each series is carried as an integer numerator
over D: sums need no gcd, and each distinct numerator is normalized once,
into one RatFun that every series with that numerator shares.
The numerators are kept packed, as their values at t = 2^B for one
slot width B per pipeline from a proven bound (`AffinePipeline`): each
p_SS numerator and coset bin is packed once, and only a series that is
reported or expanded is unpacked.
The oracle comparison expands the numerators over D directly, so
`verify` normalizes nothing.
General series are assembled two independent ways, with equal numerators:

  * a matrix product against the finite M_{K,S} matrix, and
  * the expanded double sum with explicitly conjugated subsets.

Both paths read their subset conjugations from the root system's
`flips(X)`, so comparing them does not catch a conjugation slip (the
identity suite and the oracle do); it catches memo corruption and
arithmetic faults.  Every check raises AssertionError explicitly, so it
also runs under python -O.
The identity suite compares the packed numerators at the same width,
and shares the Solomon sum and the alternating reduction with the finite
suite.
"""

from __future__ import annotations

import functools

from .ratfun import (IntPoly, RatFun, expand, height, pack, pack_bits,
                     poly_dot, poly_exact_div, unpack)
from . import cones
from .finite import (PackedBins, check_table_size, get_table, PolyMatrix,
                     p_alternating_reduction, run_checks, signed, solomon_sum)
from .affine import get_affine, parabolic_poincare


def _kept(kind):
    """Method decorator: the method's value for its masks, made on first
    use and kept in the root system's cache under (kind, *masks)."""
    def decorate(make):
        @functools.wraps(make)
        def method(self, *masks):
            return self.rs.cached((kind, *masks), lambda: make(self, *masks))
        return method
    return decorate


class AffinePipeline:
    """Caches one root system's tables and assembled series.

    Every numerator over D is kept as an int, its value at t = 2^bits,
    for one slot width per pipeline.  Int sums of products are exact at
    any width, so the width need only hold the coefficients of what is
    unpacked or compared.  The p-bins of one coset scan of W count
    distinct elements, so their coefficients are nonnegative (checked by
    `PackedBins` per distinct bin) and sum over the scan to at most |W|
    (checked by `_packed_scan`), and a product a b has coefficients of at
    most |a|_1 |b|_max, |a|_1 the sum of |coefficients|.  With H the
    largest |coefficient| of a p_SS numerator and n the rank:

      * p_{Q,J,S}, a sum over Q' of a bin times p_SS(Q'), is at most
        2^n |W| H;
      * p_{Q,J,K} is, along either path, the sum over Q' and Q'' of the
        bin of Q in the (Q', K) scan times the bin of Q' in the column of
        Q'' (one scan) times p_SS(Q''): at most 2^n |W|^2 H, as is a sum
        of p_{Q,J,K} over any set of Q (the double-coset series, the
        inner sums of the alternating reduction);
      * the alternating reduction adds at most 2^n such sums: at most
        4^n |W|^2 H, the widest.

    `pack_bits` holds that with 2 bits to spare, so every value reads
    back unique and equal values are equal polynomials.  Each value is
    built on first use and kept once, in the root system's cache: the
    packed scans and the p_{Q,J,K}, a dict by Q, by (J, K), the bin
    columns and p_{Q,J,S} by J."""

    def __init__(self, rs):
        self.rs = rs
        check_table_size(rs, rs.full_mask)
        self.weights = [rs.two_rho_weight(w) for w in rs.cone_gens]
        self.den = IntPoly.one_minus_t(*self.weights)
        # p_SS(Q) by mask: Q = {}, the largest box, is bounded before the walk
        ss = [self._ss_num(q) for q in rs.subsets()]
        self.table = get_table(rs)
        self.bits = pack_bits(4 ** rs.rank * self.table.order ** 2
                              * max(map(height, ss)))
        self._ss = [pack(num, self.bits) for num in ss]
        self._bins = PackedBins(self.table, self.bits)
        # the conjugate of each mask by w_0: eps_S
        self._by_w0 = rs.flips(rs.full_mask)

    # -- numerators over D -----------------------------------------------

    def _ss_num(self, q_mask):
        """p_SS(Q): the reciprocity numerator of f_Q times the factors of
        D for i in Q, divided by t^k, k = l(w_0) - l(w_Q)."""
        rs = self.rs
        num, _ = cones.reciprocity_numerator(rs, q_mask)
        num = num * IntPoly.one_minus_t(*(self.weights[i] for i in range(
            rs.rank) if (q_mask >> i) & 1))
        k = rs.longest_length(rs.full_mask) - rs.longest_length(q_mask)
        if any(num.coeffs[:k]):
            raise AssertionError(f"shift left a genuine pole: {num} / t^{k}")
        return IntPoly(num.coeffs[k:])

    def _poly(self, value):
        """The numerator packed as `value`."""
        return unpack(value, self.bits)

    @_kept("packed_scan")
    def _packed_scan(self, j_mask, k_mask):
        """The p-bins of the (J, K) scan of W, packed, after checking that
        together they count at most |W| elements."""
        bins = self._bins(self.table, j_mask, k_mask, 1)[0]
        total = sum(map(sum, self.table.coset_bins(j_mask, k_mask)[0]
                        .values()))
        if total > self.table.order:
            rs = self.rs
            raise AssertionError(
                f"the coset bins of J={rs.ids_of(j_mask)}, "
                f"K={rs.ids_of(k_mask)} count {total} elements, over the "
                f"group order {self.table.order}")
        return bins

    @_kept("column")
    def _column(self, j_mask):
        """By Q', the packed p-bins of (J, K) for K = eps_S(Q'), the
        conjugate of Q' by w_0, each keyed by the Q within Q' whose
        conjugate by w_0 w_Q', eps_S(eps_Q'(Q)), is the bin's own."""
        rs, by_w0 = self.rs, self._by_w0
        return [{flip[by_w0[m]]: b
                 for m, b in self._packed_scan(j_mask, by_w0[qp]).items()}
                for qp, flip in zip(rs.subsets(), map(rs.flips, rs.subsets()))]

    def _row(self, k_mask):
        """By Q', the packed p-bins of (Q', K) by Q: row Q of M_{K,S}."""
        return [self._packed_scan(qp, k_mask) for qp in self.rs.subsets()]

    @_kept("affine_S")
    def _affine(self, j_mask):
        """p_{Q,J,S} by Q: the sum over Q' containing Q of the bin of Q in
        the column of Q', times p_SS(Q')."""
        aff = [0] * len(self._ss)
        for col, ss in zip(self._column(j_mask), self._ss):
            for q, fin in col.items():
                aff[q] += fin * ss
        return aff

    @_kept("full")
    def _full(self, j_mask, k_mask):
        """p_{Q,J,K} by Q within K, computed along both reduction paths,
        which must agree."""
        rows = self._row(k_mask)
        # path 1: row of M_{K,S} times the assembled S-column
        acc1 = dict.fromkeys(self.rs.subsets(k_mask), 0)
        for row, aff in zip(rows, self._affine(j_mask)):
            for q, fin in row.items():
                acc1[q] += fin * aff
        # path 2: the double sum, gathered by Q'' before its p_SS(Q'')
        acc2 = dict.fromkeys(acc1, 0)
        for col, ss in zip(self._column(j_mask), self._ss):
            gathered = dict.fromkeys(acc1, 0)
            for qp, b in col.items():
                for q, fin in rows[qp].items():
                    gathered[q] += fin * b
            for q, g in gathered.items():
                acc2[q] += g * ss
        for q, num in acc1.items():
            if num != acc2[q]:
                rs = self.rs
                raise AssertionError(
                    f"reduction paths disagree for Q={rs.ids_of(q)}, "
                    f"J={rs.ids_of(j_mask)}, K={rs.ids_of(k_mask)}: "
                    f"{self._poly(num)} vs {self._poly(acc2[q])} over "
                    f"{self.den}")
        return acc1

    def _double_num(self, j_mask, k_mask):
        return sum(self._full(j_mask, k_mask).values())

    # -- reported series: one normalized RatFun per distinct numerator ----

    def _reported(self, value):
        """The numerator packed as `value` over D, normalized once per
        distinct numerator."""
        return self.rs.cached(("reported", value),
                              lambda: RatFun(self._poly(value), self.den))

    def p_affine_S(self, q_mask, j_mask):
        """p_{Q,J,S}, one entry of the affine series matrix."""
        return self._reported(self._affine(j_mask)[q_mask])

    def matrix_M_affine(self):
        subs = self.rs.subsets()
        entries = [[self.p_affine_S(q, j) for j in subs] for q in subs]
        return PolyMatrix(subs, subs, entries)

    def p_full(self, q_mask, j_mask, k_mask):
        """p_{Q,J,K}, the Q-stratum of the (W_J, W_K) double cosets."""
        return self._reported(self._full(j_mask, k_mask).get(q_mask, 0))

    def double_coset_series(self, j_mask, k_mask):
        return self._reported(self._double_num(j_mask, k_mask))

    def group_series(self):
        return self.double_coset_series(0, 0)

    def normalizer_series(self, j_mask):
        return RatFun(self.rs.poincare(j_mask)
                      * self._poly(self._full(j_mask, j_mask)[j_mask]),
                      self.den)

    # -- identity suite -------------------------------------------------

    def affine_identity_checks(self, degree=20):
        """Exact identity checks on the numerators over D (the truncation
        degree only applies to the reported expansions).  Returns
        (name, ok, detail) triples."""
        rs = self.rs
        wt_num = self._poly(self._double_num(0, 0))

        def alternating_sum_zero():
            # Solomon's sum for the affine group times D: each proper
            # subset I of the n + 1 generators (0 is the affine one)
            # contributes the numerator divided by W_I, and the full set's
            # term W / W = 1 contributes D
            full = (1 << (rs.rank + 1)) - 1
            proper = ([g for g in range(rs.rank + 1) if (bits >> g) & 1]
                      for bits in range(full))
            return solomon_sum(
                wt_num, ((ids, parabolic_poincare(rs, ids)) for ids in proper),
                signed(self.den, full))

        def pairs(test):
            for j in rs.subsets():
                for k in rs.subsets():
                    yield ((lambda: f"J={rs.ids_of(j)}, K={rs.ids_of(k)}"),
                           test(j, k))

        def partition(j, k):
            # full-group series recovered from any double-coset partition;
            # W_K / W_Q is a polynomial for Q within K
            return wt_num == rs.poincare(j) * poly_dot(
                (poly_exact_div(rs.poincare(k), rs.poincare(q)),
                 self._poly(num))
                for q, num in self._full(j, k).items())

        def nonnegative(j, k):
            # every reported series is a power series with nonnegative
            # integer coefficients
            coeffs = expand(self._poly(self._double_num(j, k)), degree,
                            self.den)
            return all(c >= 0 for c in coeffs)

        def symmetric(j, k):
            # inversion symmetry of the double-coset series
            return self._double_num(j, k) == self._double_num(k, j)

        def alternating_reduction():
            # the packed p_{Q,J,K} by Q under their (J, K), at the
            # pipeline's width, which holds the reduction's sums
            subs = rs.subsets()
            yield from p_alternating_reduction(
                rs, {(j, k): self._full(j, k) for j in subs for k in subs},
                subs, self.bits)

        return run_checks([
            ("alternating-sum-zero", alternating_sum_zero()),
            ("coset-partition-sum", pairs(partition)),
            ("alternating-reduction", alternating_reduction()),
            ("nonnegative-expansion", pairs(nonnegative)),
            ("inversion-symmetry", pairs(symmetric)),
        ])

    # -- oracle comparison ----------------------------------------------

    def verify_against_oracle(self, max_length):
        """Compare every assembled series, expanded from its numerator
        over D, against the brute-force group enumeration.  Returns
        (name, ok, detail) triples."""
        rs = self.rs
        subs = rs.subsets()
        cosets, counts = get_affine(rs).oracle_scan(
            max_length, [(j, k) for j in subs for k in subs], subs)

        def coset_series():
            for (j, k), (bins, total) in cosets.items():
                for q, num in self._full(j, k).items():
                    want = bins.get(q, [0] * (max_length + 1))
                    got = expand(self._poly(num), max_length, self.den)
                    yield ((lambda: f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, "
                                    f"K={rs.ids_of(k)}: {got} vs {want}"),
                           got == want)
                extra = [m for m in bins if m not in rs.subsets(k)]
                yield (lambda: f"unexpected bins {extra}"), not extra
                got = expand(self._poly(self._double_num(j, k)), max_length,
                             self.den)
                yield ((lambda: f"total J={rs.ids_of(j)}, K={rs.ids_of(k)}"),
                       got == total)

        def normalizers():
            for j, want in counts.items():
                got = expand(rs.poincare(j) * self._poly(self._full(j, j)[j]),
                             max_length, self.den)
                yield ((lambda: f"J={rs.ids_of(j)}: {got} vs {want}"),
                       got == want)

        return run_checks([
            ("coset-series-vs-enumeration", coset_series()),
            ("normalizer-vs-enumeration", normalizers()),
        ])


def get_pipeline(rs):
    return rs.cached("pipeline", lambda: AffinePipeline(rs))
