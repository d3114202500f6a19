"""Finite Weyl groups as permutations of the roots, and their coset-series
polynomials.

An element x is stored as the tuple perm of root indices over the 2N
roots of the root system, positives first: perm[b] is the index of
x(beta_b), so x sends beta_b to a negative root when perm[b] >= N.  The
product x*s_i is perm composed with the permutation of s_i, and since
w(alpha)^vee = w(alpha^vee) the same permutation acts on the coroots.

Lengths come from BFS depth.  The Poincare polynomial of W_J is known
in closed form: a table whose order, its value at 1, is over the bound
is refused before the BFS, and the BFS lengths are checked against it.
Ascent sets and simple-root images are index lookups cached per
element, so the coset sums are linear scans.

Series computed here:

    p_poly(Q, J, K): sum of t^l(x) over x minimal in its (W_J, W_K)
        double coset with {k in K : x.alpha_k simple and in J} = Q;
    h_poly(R, J, K): same minimality, with x mapping the simple roots of
        K exactly onto those of R.

Both stratify the same set, so one scan per (J, K) bins every Q and
every R at once; the bins are cached on the root system.

The identity checks run on IntPoly alone, and the finite and affine
suites share one implementation of each identity: `solomon_sum` (the
alternating sum of W(t) / W_I(t), by exact division),
`reduction_targets` (the conjugates Q' of Q by w(K, Q)) and
`p_alternating_reduction`, which takes the p-series as a function.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter

from .ratfun import IntPoly, poly_exact_div, poly_sum


MAX_GROUP_ORDER = 10 ** 6


class GroupTable:
    """Complete enumeration of the parabolic W_mask by BFS."""

    def __init__(self, rs, mask=None):
        if mask is None:
            mask = rs.full_mask
        self.rs = rs
        self.mask = mask
        poincare = rs.poincare(mask)
        if poincare(1) > MAX_GROUP_ORDER:
            raise ValueError(f"{rs.label} parabolic {rs.ids_of(mask)} has "
                             f"group order {poincare(1)}, over the table "
                             f"bound {MAX_GROUP_ORDER}")
        # x*s_i sends beta_b to x(s_i beta_b), so its permutation is
        # x's composed with that of s_i
        gens = {i: itemgetter(*rs.reflection(rs.roots[s], rs.coroots[s]))
                for i, s in enumerate(rs.simple_idx) if (mask >> i) & 1}
        ident = tuple(range(len(rs.roots)))
        self.perms = [ident]
        self.lengths = [0]
        self.index = {ident: 0}
        self.rmult = [dict()]
        histogram = []  # the size of each BFS level
        frontier = [0]
        while frontier:
            histogram.append(len(frontier))
            nxt = []
            for idx in frontier:
                perm = self.perms[idx]
                for i, compose in gens.items():
                    new = compose(perm)
                    pos = self.index.get(new)
                    if pos is None:
                        pos = len(self.perms)
                        self.perms.append(new)
                        self.lengths.append(self.lengths[idx] + 1)
                        self.index[new] = pos
                        self.rmult.append(dict())
                        nxt.append(pos)
                    self.rmult[idx][i] = pos
            frontier = nxt

        self.order = len(self.perms)
        # the closed form is monic, so the longest element is unique
        if IntPoly(histogram) != poincare:
            raise AssertionError(f"BFS length histogram {histogram} is not "
                                 f"the closed form {poincare}")
        self.longest_idx = self.lengths.index(poincare.degree)
        self._simple_pos = {s: i for i, s in enumerate(rs.simple_idx)}
        self._profiles()

    def _profiles(self):
        """Right and left ascent masks and simple-root images, read off
        the permutations: x alpha_i > 0 when x sends alpha_i to an index
        below N, x^-1 alpha_i > 0 when the inverse permutation does."""
        n_pos = len(self.rs.positive_roots)
        simple = self.rs.simple_idx
        self.rasc = []
        self.lasc = []
        self.simple_img = []
        for perm in self.perms:
            img = [perm[s] for s in simple]
            self.rasc.append(sum(1 << i for i, b in enumerate(img)
                                 if b < n_pos))
            self.lasc.append(sum(1 << i for i, s in enumerate(simple)
                                 if perm.index(s) < n_pos))
            self.simple_img.append(tuple(self._simple_pos.get(b, -1)
                                         for b in img))

    # -- element queries ------------------------------------------------

    def mul(self, a, b):
        """Index of the product (as maps: first apply b, then a)."""
        return self.index[itemgetter(*self.perms[b])(self.perms[a])]

    def descents(self, idx):
        """Right descent set within the table's generators."""
        return self.mask & ~self.rasc[idx]

    def act_coroot(self, idx, vec):
        """w(sum_j vec_j alpha_j^vee) = sum_j vec_j (w alpha_j)^vee."""
        perm, coroots = self.perms[idx], self.rs.coroots
        cols = [coroots[perm[s]] for s in self.rs.simple_idx]
        return tuple(sum(m * col[k] for m, col in zip(vec, cols))
                     for k in range(len(vec)))

    def conj_subset_signed(self, idx, k_mask):
        """{j : x maps alpha_k to plus or minus alpha_j, k in k_mask}
        (conjugation by longest elements), or None if some image is not
        a simple root up to sign."""
        n_pos = len(self.rs.positive_roots)
        perm = self.perms[idx]
        out = 0
        k = k_mask
        while k:
            i = (k & -k).bit_length() - 1
            j = self._simple_pos.get(perm[self.rs.simple_idx[i]] % n_pos)
            if j is None:
                return None
            out |= 1 << j
            k &= k - 1
        return out

    # -- distinguished elements -----------------------------------------

    def longest_element(self, mask):
        """Index of the longest element of W_mask (mask within the table)."""
        if mask & ~self.mask:
            raise AssertionError(f"{self.rs.ids_of(mask)} is not inside "
                                 f"the table's {self.rs.ids_of(self.mask)}")
        idx = 0
        while True:
            asc = self.rasc[idx] & mask
            if not asc:
                break
            i = (asc & -asc).bit_length() - 1
            idx = self.rmult[idx][i]
        if self.lengths[idx] != self.rs.longest_length(mask):
            raise AssertionError(f"longest element of {self.rs.ids_of(mask)}"
                                 f" has length {self.lengths[idx]}")
        return idx

    def w_hj(self, h_mask, j_mask):
        """The longest minimal-coset representative in W_H of W_H / W_J:
        product of the longest elements of H1 and J1, where H1 collects
        the components of H meeting H minus J."""
        if j_mask & ~h_mask:
            raise AssertionError(f"J={self.rs.ids_of(j_mask)} is not inside "
                                 f"H={self.rs.ids_of(h_mask)}")
        h1 = 0
        for comp in self.rs.components(h_mask):
            if comp & ~j_mask:
                h1 |= comp
        j1 = j_mask & h1
        idx = self.mul(self.longest_element(h1), self.longest_element(j1))
        if self.descents(idx) & h_mask != h_mask & ~j_mask:
            raise AssertionError(f"w(H, J) for H={self.rs.ids_of(h_mask)}, "
                                 f"J={self.rs.ids_of(j_mask)} has the wrong "
                                 "descents")
        return idx

    # -- coset series ----------------------------------------------------

    def p_poly(self, q_mask, j_mask, k_mask):
        return self._coset_bins(j_mask, k_mask)[0].get(q_mask, _ZERO)

    def h_poly(self, r_mask, j_mask, k_mask):
        return self._coset_bins(j_mask, k_mask)[1].get(r_mask, _ZERO)

    def _coset_bins(self, j_mask, k_mask):
        """The coset bins of (J, K), scanned once per table and kept on
        the root system."""
        return self.rs.cached(("cosets", self.mask, j_mask, k_mask),
                              lambda: self._scan(j_mask, k_mask))

    def _scan(self, j_mask, k_mask):
        """One scan of the minimal (W_J, W_K) double-coset representatives:
        their length polynomials binned by Q (for p_poly) and by R (for
        h_poly, only x mapping every simple root of K to a simple root)."""
        size = self.lengths[self.longest_idx] + 1
        p_bins = defaultdict(lambda: [0] * size)
        h_bins = defaultdict(lambda: [0] * size)
        for idx in range(self.order):
            if self.lasc[idx] & j_mask != j_mask:
                continue
            if self.rasc[idx] & k_mask != k_mask:
                continue
            img = self.simple_img[idx]
            q = r = 0
            k = k_mask
            while k:
                i = (k & -k).bit_length() - 1
                j = img[i]
                if j < 0:
                    r = None
                else:
                    if (j_mask >> j) & 1:
                        q |= 1 << i
                    if r is not None:
                        r |= 1 << j
                k &= k - 1
            length = self.lengths[idx]
            p_bins[q][length] += 1
            if r is not None:
                h_bins[r][length] += 1
        return ({q: IntPoly(c) for q, c in p_bins.items()},
                {r: IntPoly(c) for r, c in h_bins.items()})


_ZERO = IntPoly.zero()


def get_table(rs, mask=None):
    if mask is None:
        mask = rs.full_mask
    return rs.cached(("table", mask), lambda: GroupTable(rs, mask))


# ---------------------------------------------------------------------------
# polynomial matrices of coset series


class PolyMatrix:
    """Matrix of series indexed by subset bitmasks (ascending order)."""

    def __init__(self, rows, cols, entries):
        self.rows = list(rows)
        self.cols = list(cols)
        self.entries = entries        # entries[i][j], supporting + and *

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise AssertionError("matrix product: columns and rows differ")
        out = []
        for i in range(len(self.rows)):
            row = []
            for j in range(len(other.cols)):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, len(self.cols)):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and all(a == b for ra, rb in zip(self.entries, other.entries)
                        for a, b in zip(ra, rb)))


def _check_inside(rs, name, mask, sp_mask):
    if mask & ~sp_mask:
        raise ValueError(f"{name}={rs.ids_of(mask)} is not inside the "
                         f"parabolic {rs.ids_of(sp_mask)}")


def matrix_M(rs, k_mask, sp_mask):
    """M_{K,S'}: rows Q within K, columns J within S', entries the
    p-series of the parabolic W_{S'}."""
    _check_inside(rs, "K", k_mask, sp_mask)
    table = get_table(rs, sp_mask)
    rows = rs.subsets(k_mask)
    cols = rs.subsets(sp_mask)
    entries = [[table.p_poly(q, j, k_mask) for j in cols] for q in rows]
    return PolyMatrix(rows, cols, entries)


def matrix_N(rs, j_mask, sp_mask):
    """N_{J,S'}: rows R within J, columns K within S', entries h-series."""
    _check_inside(rs, "J", j_mask, sp_mask)
    table = get_table(rs, sp_mask)
    rows = rs.subsets(j_mask)
    cols = rs.subsets(sp_mask)
    entries = [[table.h_poly(r, j_mask, k) for k in cols] for r in rows]
    return PolyMatrix(rows, cols, entries)


# ---------------------------------------------------------------------------
# identity suite


def run_checks(checks):
    """Run (name, cases) pairs, where `cases` yields one (detail, ok) pair
    per case and a check stops at its first failing case.  Returns
    (name, ok, detail) triples; detail describes the failing case and is
    empty for a passing check."""
    report = []
    for name, cases in checks:
        failed = next((detail for detail, ok in cases if not ok), None)
        report.append((name, failed is None, failed or ""))
    return report


def signed(term, mask):
    """(-1)^|mask| * term."""
    return -term if bin(mask).count("1") % 2 else term


def solomon_sum(num, parabolics, rest):
    """One case: rest + sum_I (-1)^|I| num / W_I(t) is zero, over the
    (ids, W_I(t)) pairs of `parabolics`.  With num = W(t) this is
    Solomon's alternating sum of W(t) / W_I(t), which is t^l(w_0) for a
    finite W and 0 for an affine one (Solomon 1966).  A W_I that does not
    divide num fails the case."""
    acc = rest
    for ids, w_i in parabolics:
        try:
            quot = poly_exact_div(num, w_i)
        except ValueError:
            yield f"W_I = {w_i} does not divide the sum for I={ids}", False
            return
        acc = acc - quot if len(ids) % 2 else acc + quot
    yield f"sum = {acc}, expected 0", acc.is_zero()


def reduction_targets(table, subsets, names):
    """(K, Q, Q', l(v)) for K in `subsets` and Q within K, where
    v = w(K, Q) and Q' is the conjugate of Q by v, which must lie in K.
    `names` spells Q and K in the message of that check."""
    rs = table.rs
    for k in subsets:
        for q in rs.subsets(k):
            v = table.w_hj(k, q)
            qp = table.conj_subset_signed(v, q)
            if qp is None or qp & ~k:
                raise AssertionError(f"{names[0]}={rs.ids_of(q)} conjugates "
                                     f"outside {names[1]}={rs.ids_of(k)}")
            yield k, q, qp, table.lengths[v]


def p_alternating_reduction(table, p, subsets):
    """sum over Q<H<K, Q<R<H of (-1)^{|H|-|Q|} p(R, J, H)
    = t^{l(w(K,Q))} p(Q', J, K), one case per (Q, J, K) with J and K in
    `subsets`; p is the finite p_poly or the affine numerator."""
    rs = table.rs
    for k, q, qp, shift in reduction_targets(table, subsets, "QK"):
        for j in subsets:
            lhs = poly_sum(signed(p(r, j, h), h & ~q)
                           for h in rs.subsets(k) if not q & ~h
                           for r in rs.subsets(h) if not q & ~r)
            yield (f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, K={rs.ids_of(k)}",
                   lhs == p(qp, j, k).shift(shift))


def identity_checks_finite(rs, sp_mask=None):
    """Exact consistency checks on the parabolic W_{S'}.  Returns a list
    of (name, ok, detail) triples."""
    if sp_mask is None:
        sp_mask = rs.full_mask
    table = get_table(rs, sp_mask)
    subsets = rs.subsets(sp_mask)
    w_poly = {m: rs.poincare(m) for m in subsets}
    wt = w_poly[sp_mask]

    def parabolic_quotient():
        # W(t) = W_J(t) times the series of minimal left representatives
        for j in subsets:
            yield (f"W_J * W^J != W for J={rs.ids_of(j)}",
                   w_poly[j] * table.p_poly(0, j, 0) == wt)

    def pkjk_partition():
        # partition of p_{K,J,K} by conjugation targets
        for j in subsets:
            for k in subsets:
                total = poly_sum(table.h_poly(r, j, k) for r in rs.subsets(j))
                yield (f"J={rs.ids_of(j)}, K={rs.ids_of(k)}",
                       total == table.p_poly(k, j, k))

    def h_alternating_reduction():
        # sum over R<H<J of (-1)^{|H|-|R|} h_{R,H,K}
        # = t^{l(w(J,R'))} h_{R',J,K}
        for j, r, rp, shift in reduction_targets(table, subsets, "RJ"):
            for k in subsets:
                lhs = poly_sum(signed(table.h_poly(r, h, k), h & ~r)
                               for h in rs.subsets(j) if not r & ~h)
                yield (f"R={rs.ids_of(r)}, J={rs.ids_of(j)}, "
                       f"K={rs.ids_of(k)}",
                       lhs == table.h_poly(rp, j, k).shift(shift))

    def factorization(matrix, detail):
        # factorization of the series matrices along chains K < K' < S'
        for k in subsets:
            for kp in subsets:
                if k & ~kp:
                    continue
                lhs = matrix(rs, k, sp_mask)
                rhs = matrix(rs, k, kp) @ matrix(rs, kp, sp_mask)
                yield detail.format(rs.ids_of(k), rs.ids_of(kp)), lhs == rhs

    return run_checks([
        ("alternating-sum", solomon_sum(
            wt, ((rs.ids_of(j), w_poly[j]) for j in subsets),
            -IntPoly.t_power(rs.longest_length(sp_mask)))),
        ("parabolic-quotient", parabolic_quotient()),
        ("pKJK-partition", pkjk_partition()),
        ("p-alternating-reduction",
         p_alternating_reduction(table, table.p_poly, subsets)),
        ("h-alternating-reduction", h_alternating_reduction()),
        ("M-factorization", factorization(matrix_M, "M chain K={} K'={}")),
        ("N-factorization", factorization(matrix_N, "N chain J={} J'={}")),
    ])
