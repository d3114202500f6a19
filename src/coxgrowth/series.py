"""Assembly of the affine double-coset growth series.

Everything reduces to two ingredients: polynomial coset series of the
finite Weyl group, and the translation series

    p_SS(Q) = t^(l(w_Q) - l(w_0)) * f_Q(t)

for the full-group double cosets.  General series are assembled two
independent ways and asserted equal:

  * a matrix product against the finite M_{K,S} matrix, and
  * the expanded double sum with explicitly conjugated subsets,

so a silent subset-conjugation slip on either path trips an assertion.
"""

from __future__ import annotations

from .ratfun import IntPoly, RatFun, expand, monomial_shift
from . import cones
from .finite import get_table, PolyMatrix, run_checks, signed
from .affine import get_affine


class AffinePipeline:
    """Caches one root system's tables and assembled series."""

    def __init__(self, rs):
        self.rs = rs
        self.table = get_table(rs)
        self.aff = get_affine(rs)
        self._pss = {}
        self._maff = {}
        self._pfull = {}
        self._w0 = self.table.longest_idx

    # -- building blocks -----------------------------------------------

    def finite_poincare(self, mask):
        return self.table.poincare(mask)

    def p_ss(self, q_mask):
        """Series of full-group double-coset representatives with
        intersection pattern Q."""
        hit = self._pss.get(q_mask)
        if hit is None:
            shift = (self.rs.longest_length(q_mask)
                     - self.rs.longest_length(self.rs.full_mask))
            hit = monomial_shift(cones.f_q(self.rs, q_mask), shift)
            if hit.den.constant_term() == 0:
                raise AssertionError(f"shift left a genuine pole: {hit}")
            self._pss[q_mask] = hit
        return hit

    def _conj_by_w0(self, mask):
        out = self.table.conj_subset_signed(self._w0, mask)
        if out is None:
            raise AssertionError(
                f"w_0 does not permute {self.rs.ids_of(mask)} up to sign")
        return out

    def _conj_for(self, q_mask, qp_mask):
        """w_0 w_Q' Q w_Q' w_0 for Q within Q'."""
        if q_mask & ~qp_mask:
            raise AssertionError(f"Q={self.rs.ids_of(q_mask)} is not inside "
                                 f"Q'={self.rs.ids_of(qp_mask)}")
        u = self.table.mul(self._w0, self.table.longest_element(qp_mask))
        out = self.table.conj_subset_signed(u, q_mask)
        if out is None or out & ~self._conj_by_w0(qp_mask):
            raise AssertionError(f"Q={self.rs.ids_of(q_mask)} conjugates "
                                 f"outside Q'={self.rs.ids_of(qp_mask)}")
        return out

    # -- assembled series ----------------------------------------------

    def p_affine_S(self, q_mask, j_mask):
        """p_{Q,J,S}: sum over Q' containing Q of a finite coset series
        against the K = conjugated Q' column, times p_SS(Q')."""
        key = (q_mask, j_mask)
        hit = self._maff.get(key)
        if hit is None:
            acc = RatFun.zero()
            for qp in self.rs.subsets():
                if q_mask & ~qp:
                    continue
                fin = self.table.p_poly(self._conj_for(q_mask, qp), j_mask,
                                        self._conj_by_w0(qp))
                if not fin.is_zero():
                    acc = acc + RatFun(fin) * self.p_ss(qp)
            self._maff[key] = hit = acc
        return hit

    def matrix_M_affine(self):
        subs = self.rs.subsets()
        entries = [[self.p_affine_S(q, j) for j in subs] for q in subs]
        return PolyMatrix(subs, subs, entries)

    def p_full(self, q_mask, j_mask, k_mask):
        """p_{Q,J,K}, computed along both reduction paths and asserted
        equal."""
        key = (q_mask, j_mask, k_mask)
        hit = self._pfull.get(key)
        if hit is not None:
            return hit
        if q_mask & ~k_mask:
            hit = RatFun.zero()
            self._pfull[key] = hit
            return hit
        # path 1: row of M_{K,S} times the assembled S-column
        acc1 = RatFun.zero()
        for qp in self.rs.subsets():
            fin = self.table.p_poly(q_mask, qp, k_mask)
            if not fin.is_zero():
                acc1 = acc1 + RatFun(fin) * self.p_affine_S(qp, j_mask)
        # path 2: fully expanded double sum
        acc2 = RatFun.zero()
        for qp in self.rs.subsets():
            fin1 = self.table.p_poly(q_mask, qp, k_mask)
            if fin1.is_zero():
                continue
            for qpp in self.rs.subsets():
                if qp & ~qpp:
                    continue
                fin2 = self.table.p_poly(self._conj_for(qp, qpp), j_mask,
                                         self._conj_by_w0(qpp))
                if not fin2.is_zero():
                    acc2 = acc2 + (RatFun(fin1) * RatFun(fin2)
                                   * self.p_ss(qpp))
        if acc1 != acc2:  # an explicit raise, so that it survives -O
            raise AssertionError(
                f"reduction paths disagree for Q={self.rs.ids_of(q_mask)}, "
                f"J={self.rs.ids_of(j_mask)}, K={self.rs.ids_of(k_mask)}: "
                f"{acc1} vs {acc2}")
        self._pfull[key] = acc1
        return acc1

    def double_coset_series(self, j_mask, k_mask):
        acc = RatFun.zero()
        for q in self.rs.subsets(k_mask):
            acc = acc + self.p_full(q, j_mask, k_mask)
        return acc

    def group_series(self):
        return self.double_coset_series(0, 0)

    def normalizer_series(self, j_mask):
        return RatFun(self.finite_poincare(j_mask)) * self.p_full(
            j_mask, j_mask, j_mask)

    # -- identity suite -------------------------------------------------

    def affine_identity_checks(self, degree=20):
        """Exact identity checks (the truncation degree only applies to
        the reported expansions).  Returns (name, ok, detail) triples."""
        rs = self.rs
        wt = self.group_series()

        def alternating_sum_zero():
            # alternating sum over all generator subsets, including those
            # containing the affine generator, vanishes for an infinite
            # group
            n1 = rs.rank + 1
            acc = RatFun.zero()
            for bits in range(1 << n1):
                if bits == (1 << n1) - 1:
                    term = RatFun.one()
                else:
                    ids = [g for g in range(n1) if (bits >> g) & 1]
                    term = wt / RatFun(self.aff.parabolic_poincare(ids))
                acc = acc + signed(term, bits)
            yield f"sum = {acc}", acc.is_zero()

        def coset_partition_sum():
            # full-group series recovered from any double-coset partition
            for j in rs.subsets():
                for k in rs.subsets():
                    acc = RatFun.zero()
                    wj = RatFun(self.finite_poincare(j))
                    wk = RatFun(self.finite_poincare(k))
                    for q in rs.subsets(k):
                        acc = acc + (wj * wk
                                     / RatFun(self.finite_poincare(q))
                                     * self.p_full(q, j, k))
                    yield f"J={rs.ids_of(j)}, K={rs.ids_of(k)}", acc == wt

        def alternating_reduction():
            # alternating reduction in the affine group
            for k in rs.subsets():
                for q in rs.subsets(k):
                    v = self.table.w_hj(k, q)
                    qp = self.table.conj_subset_signed(v, q)
                    shift = self.table.lengths[v]
                    for j in rs.subsets():
                        lhs = RatFun.zero()
                        for h in rs.subsets(k):
                            if q & ~h:
                                continue
                            for r in rs.subsets(h):
                                if q & ~r:
                                    continue
                                lhs = lhs + signed(self.p_full(r, j, h),
                                                   h & ~q)
                        rhs = monomial_shift(self.p_full(qp, j, k), shift)
                        yield (f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, "
                               f"K={rs.ids_of(k)}", lhs == rhs)

        def pairs(test):
            for j in rs.subsets():
                for k in rs.subsets():
                    yield f"J={rs.ids_of(j)}, K={rs.ids_of(k)}", test(j, k)

        def nonnegative(j, k):
            # every reported series is a power series with nonnegative
            # integer coefficients
            coeffs = expand(self.double_coset_series(j, k), degree)
            return all(isinstance(c, int) and c >= 0 for c in coeffs)

        def symmetric(j, k):
            # inversion symmetry of the double-coset series
            return (self.double_coset_series(j, k)
                    == self.double_coset_series(k, j))

        return run_checks([
            ("alternating-sum-zero", alternating_sum_zero()),
            ("coset-partition-sum", coset_partition_sum()),
            ("alternating-reduction", alternating_reduction()),
            ("nonnegative-expansion", pairs(nonnegative)),
            ("inversion-symmetry", pairs(symmetric)),
        ])

    # -- oracle comparison ----------------------------------------------

    def verify_against_oracle(self, max_length):
        """Compare every assembled series against the brute-force group
        enumeration.  Returns (name, ok, detail) triples."""
        rs = self.rs
        elements, _ = self.aff.bfs_enumerate(max_length)

        def coset_series():
            for j in rs.subsets():
                for k in rs.subsets():
                    bins, total = self.aff.oracle_series(j, k, max_length,
                                                         elements)
                    for q in rs.subsets(k):
                        want = bins.get(q, [0] * (max_length + 1))
                        got = expand(self.p_full(q, j, k), max_length)
                        yield (f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, "
                               f"K={rs.ids_of(k)}: {got} vs {want}",
                               got == want)
                    extra = [m for m in bins if m not in rs.subsets(k)]
                    yield f"unexpected bins {extra}", not extra
                    got = expand(self.double_coset_series(j, k), max_length)
                    yield (f"total J={rs.ids_of(j)}, K={rs.ids_of(k)}",
                           got == total)

        def normalizers():
            for j in rs.subsets():
                want = self.aff.normalizer_counts(j, max_length, elements)
                got = expand(self.normalizer_series(j), max_length)
                yield f"J={rs.ids_of(j)}: {got} vs {want}", got == want

        return run_checks([
            ("coset-series-vs-enumeration", coset_series()),
            ("normalizer-vs-enumeration", normalizers()),
        ])


def get_pipeline(rs):
    return rs.cached("pipeline", lambda: AffinePipeline(rs))
