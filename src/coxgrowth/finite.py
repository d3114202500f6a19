"""Finite Weyl groups as permutations of the roots, and their coset-series
polynomials.

An element x is stored as the tuple perm of root indices over the 2N
roots of the root system, positives first: perm[b] is the index of
x(beta_b), so x sends beta_b to a negative root when perm[b] >= N.  The
product x*s_i is perm composed with the permutation of s_i, and since
w(alpha)^vee = w(alpha^vee) the same permutation acts on the coroots.

Lengths come from BFS depth.  The order of W_J, the product of
(ht(alpha) + 1) / ht(alpha) over the positive roots of J, is known
beforehand: a table over the bound is refused before the BFS, and the
BFS order is checked against it.  Ascent sets and simple-root images are
index lookups cached per element, so the coset sums are linear scans.

Series computed here:

    p_poly(Q, J, K): sum of t^l(x) over x minimal in its (W_J, W_K)
        double coset with {k in K : x.alpha_k simple and in J} = Q;
    h_poly(R, J, K): same minimality, with x mapping the simple roots of
        K exactly onto those of R.

Both stratify the same set, so one scan per (J, K) bins every Q and
every R at once.
"""

from __future__ import annotations

from operator import itemgetter

from .ratfun import IntPoly, RatFun


MAX_GROUP_ORDER = 10 ** 6


class GroupTable:
    """Complete enumeration of the parabolic W_mask by BFS."""

    def __init__(self, rs, mask=None):
        if mask is None:
            mask = rs.full_mask
        self.rs = rs
        self.mask = mask
        order = rs.group_order(mask)
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"{rs.label} parabolic {rs.ids_of(mask)} has "
                             f"group order {order}, over the table bound "
                             f"{MAX_GROUP_ORDER}")
        # x*s_i sends beta_b to x(s_i beta_b), so its permutation is
        # x's composed with that of s_i
        gens = {i: itemgetter(*rs.reflection(rs.roots[s], rs.coroots[s]))
                for i, s in enumerate(rs.simple_idx) if (mask >> i) & 1}
        ident = tuple(range(len(rs.roots)))
        self.perms = [ident]
        self.lengths = [0]
        self.index = {ident: 0}
        self.rmult = [dict()]
        frontier = [0]
        while frontier:
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
        if self.order != order:
            raise AssertionError(f"BFS found {self.order} elements, the "
                                 f"closed form {order}")
        self._simple_pos = {s: i for i, s in enumerate(rs.simple_idx)}
        self._profiles()
        self._cosets = {}

        lw = rs.longest_length(mask)
        if max(self.lengths) != lw or self.lengths.count(lw) != 1:
            raise AssertionError(f"no unique element of length {lw}")
        self.longest_idx = self.lengths.index(lw)

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

    # -- Poincare polynomials and coset series --------------------------

    def poincare(self, mask=None):
        if mask is None or mask == self.mask:
            coeffs = [0] * (max(self.lengths) + 1)
            for l in self.lengths:
                coeffs[l] += 1
            return IntPoly(coeffs)
        return get_table(self.rs, mask).poincare()

    def p_poly(self, q_mask, j_mask, k_mask):
        return self._coset_bins(j_mask, k_mask)[0].get(q_mask, _ZERO)

    def h_poly(self, r_mask, j_mask, k_mask):
        return self._coset_bins(j_mask, k_mask)[1].get(r_mask, _ZERO)

    def _coset_bins(self, j_mask, k_mask):
        """One scan of the minimal (W_J, W_K) double-coset representatives:
        their length polynomials binned by Q (for p_poly) and by R (for
        h_poly, only x mapping every simple root of K to a simple root)."""
        key = (j_mask, k_mask)
        hit = self._cosets.get(key)
        if hit is not None:
            return hit
        size = max(self.lengths) + 1
        p_bins = {}
        h_bins = {}
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
            p_bins.setdefault(q, [0] * size)[length] += 1
            if r is not None:
                h_bins.setdefault(r, [0] * size)[length] += 1
        hit = ({q: IntPoly(c) for q, c in p_bins.items()},
               {r: IntPoly(c) for r, c in h_bins.items()})
        self._cosets[key] = hit
        return hit


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


def identity_checks_finite(rs, sp_mask=None):
    """Exact consistency checks on the parabolic W_{S'}.  Returns a list
    of (name, ok, detail) triples."""
    if sp_mask is None:
        sp_mask = rs.full_mask
    table = get_table(rs, sp_mask)
    subsets = rs.subsets(sp_mask)
    w_poly = {m: RatFun(table.poincare(m)) for m in subsets}
    wt = w_poly[sp_mask]

    def alternating_sum():
        # alternating sum of W(t)/W_J(t) over J
        acc = RatFun.zero()
        for j in subsets:
            acc = acc + signed(wt / w_poly[j], j)
        lw = rs.longest_length(sp_mask)
        yield (f"sum = {acc}, expected t^{lw}",
               acc == RatFun(IntPoly.t_power(lw)))

    def parabolic_quotient():
        # quotient W(t)/W_J(t) is the polynomial of minimal representatives
        for j in subsets:
            quot = wt / w_poly[j]
            yield (f"W/W_J not polynomial for J={rs.ids_of(j)}",
                   quot.is_polynomial())
            yield (f"W/W_J != left-rep series for J={rs.ids_of(j)}",
                   quot.as_poly() == table.p_poly(0, j, 0))

    def pkjk_partition():
        # partition of p_{K,J,K} by conjugation targets
        for j in subsets:
            for k in subsets:
                total = IntPoly.zero()
                for r in rs.subsets(j):
                    total = total + table.h_poly(r, j, k)
                yield (f"J={rs.ids_of(j)}, K={rs.ids_of(k)}",
                       total == table.p_poly(k, j, k))

    def p_alternating_reduction():
        # sum over Q<H<K, Q<R<H of (-1)^{|H|-|Q|} p_{R,J,H}
        # = t^{l(w(K,Q'))} p_{Q',J,K}
        for k in subsets:
            for q in rs.subsets(k):
                v = table.w_hj(k, q)
                qp = table.conj_subset_signed(v, q)
                if qp is None or qp & ~k:
                    raise AssertionError(f"Q={rs.ids_of(q)} conjugates "
                                         f"outside K={rs.ids_of(k)}")
                shift = table.lengths[v]
                for j in subsets:
                    lhs = IntPoly.zero()
                    for h in rs.subsets(k):
                        if q & ~h:
                            continue
                        for r in rs.subsets(h):
                            if q & ~r:
                                continue
                            lhs = lhs + signed(table.p_poly(r, j, h), h & ~q)
                    rhs = table.p_poly(qp, j, k).shift(shift)
                    yield (f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, "
                           f"K={rs.ids_of(k)}", lhs == rhs)

    def h_alternating_reduction():
        # sum over R<H<J of (-1)^{|H|-|R|} h_{R,H,K}
        # = t^{l(w(J,R'))} h_{R',J,K}
        for j in subsets:
            for r in rs.subsets(j):
                v = table.w_hj(j, r)
                rp = table.conj_subset_signed(v, r)
                if rp is None or rp & ~j:
                    raise AssertionError(f"R={rs.ids_of(r)} conjugates "
                                         f"outside J={rs.ids_of(j)}")
                shift = table.lengths[v]
                for k in subsets:
                    lhs = IntPoly.zero()
                    for h in rs.subsets(j):
                        if r & ~h:
                            continue
                        lhs = lhs + signed(table.h_poly(r, h, k), h & ~r)
                    rhs = table.h_poly(rp, j, k).shift(shift)
                    yield (f"R={rs.ids_of(r)}, J={rs.ids_of(j)}, "
                           f"K={rs.ids_of(k)}", lhs == rhs)

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
        ("alternating-sum", alternating_sum()),
        ("parabolic-quotient", parabolic_quotient()),
        ("pKJK-partition", pkjk_partition()),
        ("p-alternating-reduction", p_alternating_reduction()),
        ("h-alternating-reduction", h_alternating_reduction()),
        ("M-factorization", factorization(matrix_M, "M chain K={} K'={}")),
        ("N-factorization", factorization(matrix_N, "N chain J={} J'={}")),
    ])
