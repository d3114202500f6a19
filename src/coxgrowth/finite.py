"""Finite Weyl groups as integer matrices, and their coset-series polynomials.

A group element is stored through three matrices:

    rmat: action on root coordinates (column j = image of the j-th simple
          root), composed so that x*s_i has rmat = x.rmat @ S_i;
    rinv: rmat of the inverse element;
    cmat: action on coroot coordinates.

Lengths come from BFS depth and are cross-checked against inversion
counts.  Ascent sets, images of simple roots and sign tables are cached
per element, which makes the subset-series sums below linear scans.

Series computed here:

    p_poly(Q, J, K): sum of t^l(x) over x minimal in its (W_J, W_K)
        double coset with {k in K : x.alpha_k simple and in J} = Q;
    h_poly(R, J, K): same minimality, with x mapping the simple roots of
        K exactly onto those of R.

Both stratify the same set, so one scan per (J, K) bins every Q and
every R at once.
"""

from __future__ import annotations

from .ratfun import IntPoly, RatFun
from . import rootsystem


def matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def matcol(m, j):
    return tuple(row[j] for row in m)


def identity_mat(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


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


def reflection_mats(rs, root, coroot):
    """(rmat, cmat) of the reflection in a root given by both coordinate
    vectors."""
    n = rs.rank
    pair_r = rootsystem.mat_vec(rs.cartan, coroot)       # <alpha_j, root^vee>
    pair_c = rootsystem.mat_vec(rs.cartan_t, root)       # <root, alpha_j^vee>
    rmat = tuple(tuple(int(k == j) - pair_r[j] * root[k] for j in range(n))
                 for k in range(n))
    cmat = tuple(tuple(int(k == j) - pair_c[j] * coroot[k] for j in range(n))
                 for k in range(n))
    return rmat, cmat


MAX_GROUP_ORDER = 10 ** 6


class GroupTable:
    """Complete enumeration of the parabolic W_mask by BFS."""

    def __init__(self, rs, mask=None):
        if mask is None:
            mask = rs.full_mask
        self.rs = rs
        self.mask = mask
        n = rs.rank
        gens = [i for i in range(n) if (mask >> i) & 1]
        self.gen_rmat = {}
        self.gen_cmat = {}
        for i in gens:
            self.gen_rmat[i], self.gen_cmat[i] = simple_reflection_mats(rs, i)

        ident = identity_mat(n)
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
                for i in gens:
                    new = matmul(self.rmats[idx], self.gen_rmat[i])
                    pos = self.index.get(new)
                    if pos is None:
                        pos = len(self.rmats)
                        if pos >= MAX_GROUP_ORDER:
                            raise ValueError(
                                f"group order exceeds {MAX_GROUP_ORDER}")
                        self.rmats.append(new)
                        self.rinvs.append(
                            matmul(self.gen_rmat[i], self.rinvs[idx]))
                        self.cmats.append(
                            matmul(self.cmats[idx], self.gen_cmat[i]))
                        self.lengths.append(self.lengths[idx] + 1)
                        self.index[new] = pos
                        self.rmult.append(dict())
                        nxt.append(pos)
                    self.rmult[idx][i] = pos
            frontier = nxt

        self.order = len(self.rmats)
        self.inv_idx = [self.index[r] for r in self.rinvs]
        self._profiles()
        self._cosets = {}
        self._chi = {}

        lw = rs.longest_length(mask)
        assert max(self.lengths) == lw
        assert self.lengths.count(lw) == 1
        self.longest_idx = self.lengths.index(lw)

    def _profiles(self):
        n = self.rs.rank
        self.rasc = []
        self.lasc = []
        self.simple_img = []
        for rmat, rinv in zip(self.rmats, self.rinvs):
            ra = la = 0
            img = []
            for i in range(n):
                col = matcol(rmat, i)
                if _root_sign(col) > 0:
                    ra |= 1 << i
                img.append(_is_unit_col(col))
                if _root_sign(matcol(rinv, i)) > 0:
                    la |= 1 << i
            self.rasc.append(ra)
            self.lasc.append(la)
            self.simple_img.append(tuple(img))

    # -- element queries ------------------------------------------------

    def mul(self, a, b):
        """Index of the product (as maps: first apply b, then a)."""
        return self.index[matmul(self.rmats[a], self.rmats[b])]

    def length(self, idx):
        return self.lengths[idx]

    def inversion_count(self, idx):
        rmat = self.rmats[idx]
        n = self.rs.rank
        cnt = 0
        for root, _ in self.rs.positive_roots:
            img = tuple(sum(rmat[k][j] * root[j] for j in range(n))
                        for k in range(n))
            if _root_sign(img) < 0:
                cnt += 1
        return cnt

    def descents(self, idx):
        """Right descent set within the table's generators."""
        return self.mask & ~self.rasc[idx]

    def ascents(self, idx):
        """Right ascent set within the table's generators."""
        return self.mask & self.rasc[idx]

    def act_root(self, idx, vec):
        rmat = self.rmats[idx]
        n = self.rs.rank
        return tuple(sum(rmat[k][j] * vec[j] for j in range(n))
                     for k in range(n))

    def act_coroot(self, idx, vec):
        cmat = self.cmats[idx]
        n = self.rs.rank
        return tuple(sum(cmat[k][j] * vec[j] for j in range(n))
                     for k in range(n))

    def chi_table(self, idx):
        """Per positive root: 1 if the element sends it to a negative root."""
        t = self._chi.get(idx)
        if t is None:
            t = tuple(int(_root_sign(self.act_root(idx, root)) < 0)
                      for root, _ in self.rs.positive_roots)
            self._chi[idx] = t
        return t

    def conj_subset_signed(self, idx, k_mask):
        """{j : x maps alpha_k to plus or minus alpha_j, k in k_mask}
        (conjugation by longest elements), or None if some image is not
        a simple root up to sign."""
        out = 0
        k = k_mask
        while k:
            i = (k & -k).bit_length() - 1
            col = self.act_root(idx, tuple(int(j == i)
                                           for j in range(self.rs.rank)))
            s = _root_sign(col)
            j = _is_unit_col(col if s > 0 else tuple(-x for x in col))
            if j < 0:
                return None
            out |= 1 << j
            k &= k - 1
        return out

    # -- distinguished elements -----------------------------------------

    def longest_element(self, mask):
        """Index of the longest element of W_mask (mask within the table)."""
        assert mask & ~self.mask == 0
        idx = 0
        while True:
            asc = self.rasc[idx] & mask
            if not asc:
                break
            i = (asc & -asc).bit_length() - 1
            idx = self.rmult[idx][i]
        assert self.lengths[idx] == self.rs.longest_length(mask)
        return idx

    def w_hj(self, h_mask, j_mask):
        """The longest minimal-coset representative in W_H of W_H / W_J:
        product of the longest elements of H1 and J1, where H1 collects
        the components of H meeting H minus J."""
        assert j_mask & ~h_mask == 0
        h1 = 0
        for comp in self.rs.components(h_mask):
            if comp & ~j_mask:
                h1 |= comp
        j1 = j_mask & h1
        idx = self.mul(self.longest_element(h1), self.longest_element(j1))
        assert self.descents(idx) & h_mask == h_mask & ~j_mask
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

    def entry(self, q_mask, j_mask):
        return self.entries[self.rows.index(q_mask)][self.cols.index(j_mask)]

    def __matmul__(self, other):
        assert self.cols == other.rows
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
                assert qp is not None and qp & ~k == 0
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
                assert rp is not None and rp & ~j == 0
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
