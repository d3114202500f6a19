"""Assembly of the affine double-coset growth series.

Everything reduces to two ingredients: polynomial coset series of the
finite Weyl group, and the translation series

    p_SS(Q) = t^(l(w_Q) - l(w_0)) * f_Q(t)

for the full-group double cosets.  Every f_Q, and so every assembled
series, has a denominator dividing D = prod_i (1 - t^wt(w_i)), one factor
per cone generator, so each series is carried as an integer numerator
over D: sums need no gcd, and each distinct numerator is normalized once,
into one RatFun that every series with that numerator shares.
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
The identity suite compares numerators in IntPoly, and shares the
Solomon sum and the alternating reduction with the finite suite; for the
reduction it packs each numerator once, at a width above the measured
heights.
"""

from __future__ import annotations

from functools import wraps

from .ratfun import (IntPoly, RatFun, expand, height, pack, pack_bits,
                     poly_dot, poly_exact_div, poly_sum)
from . import cones
from .finite import (ZERO, get_table, PolyMatrix, p_alternating_reduction,
                     run_checks, signed, solomon_sum)
from .affine import get_affine, parabolic_poincare


def _memo(method):
    """Cache a pipeline method per argument tuple on the root system."""
    @wraps(method)
    def memoized(self, *key):
        return self.rs.cached((method.__name__,) + key,
                              lambda: method(self, *key))
    return memoized


class AffinePipeline:
    """Caches one root system's tables and assembled series."""

    def __init__(self, rs):
        self.rs = rs
        self.table = get_table(rs)
        self.weights = [rs.two_rho_weight(w) for w in rs.cone_gens]
        self.den = IntPoly.one_minus_t(*self.weights)
        # the conjugate of each mask by w_0: eps_S
        self._by_w0 = rs.flips(rs.full_mask)

    # -- numerators over D -----------------------------------------------

    @_memo
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

    def _conj(self, q_mask, qp_mask):
        """The conjugate of Q within Q' by w_0 w_Q': eps_S(eps_Q'(Q))."""
        return self._by_w0[self.rs.flips(qp_mask)[q_mask]]

    def _column(self, qp_mask, j_mask):
        """The finite p-bins of (J, K) for K the conjugate of Q' by w_0:
        the entry of Q within Q' is at its conjugate _conj(Q, Q')."""
        return self.table.coset_bins(j_mask, self._by_w0[qp_mask])[0]

    @_memo
    def _affine_num(self, q_mask, j_mask):
        """p_{Q,J,S}: sum over Q' containing Q of a finite coset series
        against the K = conjugated Q' column, times p_SS(Q')."""
        return poly_dot(
            (self._column(qp, j_mask).get(self._conj(q_mask, qp), ZERO),
             self._ss_num(qp))
            for qp in self.rs.subsets() if not q_mask & ~qp)

    @_memo
    def _full_num(self, q_mask, j_mask, k_mask):
        """p_{Q,J,K}, computed along both reduction paths, which must
        agree."""
        subs = self.rs.subsets()
        row = [(qp, self.table.p_poly(q_mask, qp, k_mask)) for qp in subs]
        row = [(qp, fin) for qp, fin in row if not fin.is_zero()]
        # path 1: row of M_{K,S} times the assembled S-column
        acc1 = poly_dot((fin, self._affine_num(qp, j_mask)) for qp, fin in row)
        # path 2: the double sum, gathered by Q'' before its p_SS(Q'')
        def gathered(qpp):
            col = self._column(qpp, j_mask)
            return poly_dot((fin, col.get(self._conj(qp, qpp), ZERO))
                            for qp, fin in row if not qp & ~qpp)
        acc2 = poly_dot((gathered(qpp), self._ss_num(qpp)) for qpp in subs)
        if acc1 != acc2:
            raise AssertionError(
                f"reduction paths disagree for Q={self.rs.ids_of(q_mask)}, "
                f"J={self.rs.ids_of(j_mask)}, K={self.rs.ids_of(k_mask)}: "
                f"{acc1} vs {acc2} over {self.den}")
        return acc1

    @_memo
    def _double_num(self, j_mask, k_mask):
        return poly_sum(self._full_num(q, j_mask, k_mask)
                        for q in self.rs.subsets(k_mask))

    # -- reported series: one normalized RatFun per distinct numerator ----

    def _reported(self, num):
        """num / D, normalized once per distinct numerator."""
        return self.rs.cached(("reported", num.coeffs),
                              lambda: RatFun(num, self.den))

    def p_affine_S(self, q_mask, j_mask):
        """p_{Q,J,S}, one entry of the affine series matrix."""
        return self._reported(self._affine_num(q_mask, j_mask))

    def matrix_M_affine(self):
        subs = self.rs.subsets()
        entries = [[self.p_affine_S(q, j) for j in subs] for q in subs]
        return PolyMatrix(subs, subs, entries)

    def p_full(self, q_mask, j_mask, k_mask):
        """p_{Q,J,K}, the Q-stratum of the (W_J, W_K) double cosets."""
        return self._reported(self._full_num(q_mask, j_mask, k_mask))

    def double_coset_series(self, j_mask, k_mask):
        return self._reported(self._double_num(j_mask, k_mask))

    def group_series(self):
        return self.double_coset_series(0, 0)

    def normalizer_series(self, j_mask):
        return self._reported(self.rs.poincare(j_mask)
                              * self._full_num(j_mask, j_mask, j_mask))

    # -- identity suite -------------------------------------------------

    def affine_identity_checks(self, degree=20):
        """Exact identity checks on the numerators over D (the truncation
        degree only applies to the reported expansions).  Returns
        (name, ok, detail) triples."""
        rs = self.rs
        wt_num = self._double_num(0, 0)
        w_poly = {m: rs.poincare(m) for m in rs.subsets()}

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
            return wt_num == w_poly[j] * poly_dot(
                (poly_exact_div(w_poly[k], w_poly[q]), self._full_num(q, j, k))
                for q in rs.subsets(k))

        def nonnegative(j, k):
            # every reported series is a power series with nonnegative
            # integer coefficients
            coeffs = expand(self._double_num(j, k), degree, self.den)
            return all(c >= 0 for c in coeffs)

        def symmetric(j, k):
            # inversion symmetry of the double-coset series
            return self._double_num(j, k) == self._double_num(k, j)

        def alternating_reduction():
            # every p_{Q,J,K} packed once, at a width that holds a sum of
            # 3^n of them, and kept by Q under its (J, K)
            nums = {(q, j, k): self._full_num(q, j, k) for j in rs.subsets()
                    for k in rs.subsets() for q in rs.subsets(k)}
            bits = pack_bits(3 ** rs.rank * max(map(height, nums.values())))
            packed = {(j, k): {q: pack(nums[q, j, k], bits)
                               for q in rs.subsets(k)}
                      for j in rs.subsets() for k in rs.subsets()}
            yield from p_alternating_reduction(rs, packed, rs.subsets(), bits)

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
                for q in rs.subsets(k):
                    want = bins.get(q, [0] * (max_length + 1))
                    got = expand(self._full_num(q, j, k), max_length,
                                 self.den)
                    yield ((lambda: f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, "
                                    f"K={rs.ids_of(k)}: {got} vs {want}"),
                           got == want)
                extra = [m for m in bins if m not in rs.subsets(k)]
                yield (lambda: f"unexpected bins {extra}"), not extra
                got = expand(self._double_num(j, k), max_length, self.den)
                yield ((lambda: f"total J={rs.ids_of(j)}, K={rs.ids_of(k)}"),
                       got == total)

        def normalizers():
            for j, want in counts.items():
                got = expand(rs.poincare(j) * self._full_num(j, j, j),
                             max_length, self.den)
                yield ((lambda: f"J={rs.ids_of(j)}: {got} vs {want}"),
                       got == want)

        return run_checks([
            ("coset-series-vs-enumeration", coset_series()),
            ("normalizer-vs-enumeration", normalizers()),
        ])


def get_pipeline(rs):
    return rs.cached("pipeline", lambda: AffinePipeline(rs))
