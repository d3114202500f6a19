"""Finite Weyl groups as permutations of the roots, and their coset-series
polynomials.

An element x is the tuple perm of root indices over the 2N roots of the
root system, positives first: perm[b] is the index of x(beta_b), so x
sends beta_b to a negative root when perm[b] >= N.  The product x*s_i is
perm composed with the permutation of s_i, and since
w(alpha)^vee = w(alpha^vee) the same permutation acts on the coroots.

`walk` yields each element once with its length, level by level, each
from its one parent by its lowest right descent.  The Poincare
polynomial of W_J is known in closed form: a group whose order, its
value at 1, is over the bound is refused before the walk, and each
level's size is checked against it.  A table stores no elements: their
ascent sets and simple-root images are read off each permutation as it
is walked, and sorted into buckets by left, then right ascent mask.
A coset scan of (J, K), both within the table's mask X (else ValueError),
visits only the buckets of minimal representatives, and reads Q and R
from lists kept per simple-root image (`image_masks`), cut after X's top
generator: 2^b entries, b the bit length of X, not 2^rank.

Series computed here:

    p_poly(Q, J, K): sum of t^l(x) over x minimal in its (W_J, W_K)
        double coset with {k in K : x.alpha_k simple and in J} = Q;
    the h-series of (R, J, K): same minimality, with x mapping the simple
        roots of K exactly onto those of R.

Both stratify the same set, so one scan per (J, K) bins every Q and
every R at once; the bins are cached on the root system, and the
matrices M and N, of IntPoly entries, are built from them.

The identity checks on the bins run in packed integers (Kronecker
substitution): `PackedBins` evaluates each distinct bin, of a scan or of
a matrix, once per suite run at t = 2^B, for one slot width B that
bounds every coefficient the suite can form from bins that pass its
range check.  Every such identity is then an equation between integer
sums, shifts (t^l is << B*l) and matrix products, and equal integers
mean equal polynomials.  The Solomon sum and the parabolic quotient stay
on IntPoly.
The finite and affine suites share one implementation of each identity:
`solomon_sum` (the alternating sum of W(t) / W_I(t), by exact division),
`reduction_targets` (the conjugates Q' of Q by w(K, Q)) and
`p_alternating_reduction`, which takes the packed p-series as a dict
{(J, K): {Q: packed}}.

Every conjugation of a subset by a product of two longest elements,
w(K, Q) = w_K w_Q here and w_0 w_Q' in the affine assembly, is read off
the root system's `flips(X)`: the opposition involution eps_X of the
parabolic W_X on the subsets of X, walked from the root permutations on
first use of X and checked as it is built.  No table is needed.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter, mul

from .ratfun import IntPoly, pack, pack_bits, poly_exact_div


MAX_GROUP_ORDER = 10 ** 6


def check_table_size(rs, mask):
    """W_mask(t), after refusing a table of W_mask whose order is over
    MAX_GROUP_ORDER."""
    poincare = rs.poincare(mask)
    order = poincare(1)
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"{rs.label} parabolic {rs.ids_of(mask)} has "
                         f"group order {order}, over the table bound "
                         f"{MAX_GROUP_ORDER}")
    return poincare


def walk(rs, mask):
    """Each element of W_mask once, as (perm, length), level by level from
    the identity.  y = x s_g is kept when g is an ascent of x and no lower
    generator of the mask is a descent of y: every y != e has exactly one
    parent, y s_g for g its lowest right descent (the reverse-lexicographic
    normal form; Bjorner and Brenti, Combinatorics of Coxeter Groups,
    ch. 3), so no element is looked up.  A group of over MAX_GROUP_ORDER
    elements is refused first, a level larger than its coefficient in
    W_mask(t) raises at once, and the length histogram must be W_mask(t)."""
    poincare = check_table_size(rs, mask)
    n_pos, coeffs = len(rs.positive_roots), poincare.coeffs
    # (simple root of g, x -> x s_g, simple roots of the lower generators)
    gens, lower = [], []
    for i, (s, perm) in enumerate(zip(rs.simple_idx, rs.simple_reflections())):
        if (mask >> i) & 1:
            gens.append((s, itemgetter(*perm), tuple(lower)))
            lower.append(s)
    level, histogram = [tuple(range(len(rs.roots)))], []
    while level:
        length = len(histogram)
        if len(level) > (coeffs[length] if length < len(coeffs) else 0):
            raise AssertionError(f"walk level {length} has {len(level)} "
                                 f"elements, over the closed form {poincare}")
        histogram.append(len(level))
        nxt = []
        for perm in level:
            yield perm, length
            for s, compose, below in gens:
                if perm[s] < n_pos:
                    y = compose(perm)
                    if all(y[b] < n_pos for b in below):
                        nxt.append(y)
        level = nxt
    if IntPoly(histogram) != poincare:
        raise AssertionError(f"walk length histogram {histogram} is not the "
                             f"closed form {poincare}")


class GroupTable:
    """The coset buckets of the parabolic W_mask, made from one walk: the
    elements grouped by left, then right ascent mask, as a list of
    (lasc, [(rasc, [(q_of, r_of, length)])]).  x alpha_i > 0 when x sends
    alpha_i to an index below N, and x^-1 alpha_i > 0 when alpha_i is the
    image of a positive root, among the first N entries.  For x in W_X,
    the simple-root image img[i] is i or -1 for i outside X, so the image
    cut after X's top generator answers every J, K in X."""

    def __init__(self, rs, mask=None):
        if mask is None:
            mask = rs.full_mask
        self.rs = rs
        self.mask = mask
        n_pos, simple = len(rs.positive_roots), rs.simple_idx
        pos = {s: i for i, s in enumerate(simple)}
        bit = {s: 1 << i for s, i in pos.items()}.__getitem__
        simple_set, cut = frozenset(simple), simple[:mask.bit_length()]
        buckets = {}
        for perm, length in walk(rs, mask):
            rasc = sum(1 << i for i, s in enumerate(simple)
                       if perm[s] < n_pos)
            lasc = sum(map(bit, simple_set.intersection(perm[:n_pos])))
            img = tuple([pos.get(perm[s], -1) for s in cut])
            buckets.setdefault(lasc, {}).setdefault(rasc, []).append(
                (*image_masks(rs, img), length))
        self._buckets = [(lasc, list(by_rasc.items()))
                         for lasc, by_rasc in buckets.items()]
        self.order = sum(len(b) for _, g in self._buckets for _, b in g)

    # -- coset series ----------------------------------------------------

    def p_poly(self, q_mask, j_mask, k_mask):
        return self.coset_bins(j_mask, k_mask)[0].get(q_mask, ZERO)

    def coset_bins(self, j_mask, k_mask):
        """The coset bins of (J, K), J and K within the mask, p by Q and h
        by R, scanned once per table and kept on the root system."""
        return self.rs.cached(("cosets", self.mask, j_mask, k_mask),
                              lambda: self._scan(j_mask, k_mask))

    def _scan(self, j_mask, k_mask):
        """One scan of the minimal (W_J, W_K) double-coset representatives:
        their length polynomials binned by Q (for p_poly) and by R (the
        h-series, only x mapping every simple root of K to a simple
        root)."""
        _check_inside(self.rs, "J", j_mask, self.mask)
        _check_inside(self.rs, "K", k_mask, self.mask)
        size = self.rs.longest_length(self.mask) + 1
        p_bins = defaultdict(lambda: [0] * size)
        h_bins = defaultdict(lambda: [0] * size)
        for lasc, group in self._buckets:
            if lasc & j_mask == j_mask:
                for rasc, bucket in group:
                    if rasc & k_mask == k_mask:
                        for q_of, r_of, length in bucket:
                            p_bins[q_of[j_mask] & k_mask][length] += 1
                            r = r_of[k_mask]
                            if r >= 0:
                                h_bins[r][length] += 1
        return ({q: IntPoly(c) for q, c in p_bins.items()},
                {r: IntPoly(c) for r, c in h_bins.items()})


def image_masks(rs, img):
    """For img[i] = j when x alpha_i = alpha_j (else -1), the lists over
    all masks M of len(img) bits of q_of[M] = {i : img[i] in M} and
    r_of[M] = img(M), or -1 when some i in M has no simple image, each
    entry from that of M less its lowest bit; made once per image and
    kept on the root system."""
    def build():
        pre = [0] * len(img)
        for i, j in enumerate(img):
            if j >= 0:
                pre[j] |= 1 << i
        q_of, r_of = [0], [0]
        for m in range(1, 1 << len(img)):
            rest, i = m & (m - 1), (m & -m).bit_length() - 1
            q_of.append(q_of[rest] | pre[i])
            r_of.append(-1 if r_of[rest] < 0 or img[i] < 0
                        else r_of[rest] | 1 << img[i])
        return q_of, r_of
    return rs.cached(("images", img), build)


ZERO = IntPoly.zero()


def get_table(rs, mask=None):
    if mask is None:
        mask = rs.full_mask
    return rs.cached(("table", mask), lambda: GroupTable(rs, mask))


class PackedBins:
    """The coset bins that one identity-suite run on W_{S'} reads, each
    distinct polynomial evaluated once at t = 2^bits and kept by value.

    A bin of the table of W_X, X within S', counts elements by length, so
    it has at most L = l(w_{S'}) + 1 coefficients, each in [0, |W_{S'}|];
    every distinct bin is checked for both as it is packed.  An entry of
    a product of two matrices of such bins, a sum over at most 2^n
    columns, n = |S'|, then has coefficients of at most 2^n L |W_{S'}|^2,
    and an alternating sum of at most 3^n bins stays below that bound, as
    |W_{S'}| >= 2^n.  The slot width holds the bound with a bit to spare,
    so equal packed values are equal polynomials.  A caller whose sums
    are wider passes its own width (the affine pipeline)."""

    def __init__(self, table, bits=None):
        self.rs = table.rs
        self.order = table.order
        self.size = self.rs.longest_length(table.mask) + 1
        self.bits = bits or pack_bits(len(self.rs.subsets(table.mask))
                                      * self.size * self.order ** 2)
        self._packed = {}

    def __call__(self, table, j_mask, k_mask, sides=2):
        """The (p, h) bins of the table's (J, K) scan, packed; the p bins
        alone for sides=1."""
        return tuple({m: self._pack(poly, "of the table {}, J={}, K={}",
                                    table.mask, j_mask, k_mask)
                      for m, poly in side.items()}
                     for side in table.coset_bins(j_mask, k_mask)[:sides])

    def matrix(self, m):
        """The matrix m of coset bins with every entry packed."""
        return PolyMatrix(m.rows, m.cols, [
            [self._pack(poly, "at row {}, column {} of a coset matrix",
                        row, col) for col, poly in zip(m.cols, entries)]
            for row, entries in zip(m.rows, m.entries)])

    def _pack(self, poly, place, *masks):
        """poly packed, range-checked on first sight."""
        c = poly.coeffs
        hit = self._packed.get(c)
        if hit is None:
            if (len(c) > self.size or min(c, default=0) < 0
                    or max(c, default=0) > self.order):
                place = place.format(*map(self.rs.ids_of, masks))
                raise AssertionError(
                    f"coset bin {poly} {place} has a coefficient outside "
                    f"[0, {self.order}] or a term past t^{self.size - 1}")
            hit = self._packed[c] = pack(poly, self.bits)
        return hit


# ---------------------------------------------------------------------------
# polynomial matrices of coset series


class PolyMatrix:
    """Matrix of series indexed by subset bitmasks (ascending order).

    The entries are IntPoly or RatFun for printing (the finite M and N
    matrices, the affine series matrix), or the packed ints of an
    identity-suite run, which alone are multiplied."""

    def __init__(self, rows, cols, entries):
        self.rows = list(rows)
        self.cols = list(cols)
        self.entries = entries        # entries[i][j]

    def __matmul__(self, other):
        """The product of two matrices of packed ints: every entry is a
        plain sum of integer products."""
        if self.cols != other.rows:
            raise AssertionError("matrix product: columns and rows differ")
        cols = list(zip(*other.entries))
        return PolyMatrix(self.rows, other.cols,
                          [[sum(map(mul, row, col)) for col in cols]
                           for row in self.entries])

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)


def _check_inside(rs, name, mask, sp_mask):
    if mask & ~sp_mask:
        raise ValueError(f"{name}={rs.ids_of(mask)} is not inside the "
                         f"parabolic {rs.ids_of(sp_mask)}")


def matrix_M(rs, k_mask, sp_mask):
    """M_{K,S'}: rows Q within K, columns J within S', entries the
    p-series of the parabolic W_{S'}."""
    _check_inside(rs, "K", k_mask, sp_mask)
    table = get_table(rs, sp_mask)
    rows, cols = rs.subsets(k_mask), rs.subsets(sp_mask)
    bins = [table.coset_bins(j, k_mask)[0] for j in cols]
    return PolyMatrix(rows, cols, [[col.get(q, ZERO) for col in bins]
                                   for q in rows])


def matrix_N(rs, j_mask, sp_mask):
    """N_{J,S'}: rows R within J, columns K within S', entries the
    h-series of the parabolic W_{S'}."""
    _check_inside(rs, "J", j_mask, sp_mask)
    table = get_table(rs, sp_mask)
    rows, cols = rs.subsets(j_mask), rs.subsets(sp_mask)
    bins = [table.coset_bins(j_mask, k)[1] for k in cols]
    return PolyMatrix(rows, cols, [[col.get(r, ZERO) for col in bins]
                                   for r in rows])


# ---------------------------------------------------------------------------
# identity suite


def run_checks(checks):
    """Run (name, cases) pairs, where `cases` yields one (detail, ok) pair
    per case and a check stops at its first failing case.  detail() spells
    the case; it is called for the failing case alone, while `cases`
    still stands at it.  Returns (name, ok, detail) triples, with an
    empty detail for a passing check."""
    report = []
    for name, cases in checks:
        failed = next((detail for detail, ok in cases if not ok), None)
        report.append((name, failed is None, failed() if failed else ""))
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
            yield (lambda: f"W_I = {w_i} does not divide the sum for "
                           f"I={ids}"), False
            return
        acc = acc - quot if len(ids) % 2 else acc + quot
    yield (lambda: f"sum = {acc}, expected 0"), acc.is_zero()


def reduction_targets(rs, subsets):
    """(K, Q, Q', l(v)) for K in `subsets` and Q within K, where
    v = w(K, Q) = w_K w_Q and Q' is the conjugate of Q by v, eps_K(Q)."""
    for k in subsets:
        flip, length = rs.flips(k), rs.longest_length(k)
        for q in rs.subsets(k):
            yield k, q, flip[q], length - rs.longest_length(q)


def p_alternating_reduction(rs, p, subsets, bits):
    """sum over Q<H<K, Q<R<H of (-1)^{|H|-|Q|} p(R, J, H)
    = t^{l(w(K,Q))} p(Q', J, K), one case per (Q, J, K) with J and K in
    `subsets`; p[J, K] holds the finite coset series or the affine
    numerators by Q, packed at t = 2^bits for a slot width that holds
    every such sum.  The inner sums over R, for every Q within H, are
    formed once per (J, H), by a superset-sum pass over the generators
    of H."""
    above = {}

    def superset_sums(j, h):
        sums = above.get((j, h))
        if sums is None:
            by_r = p[j, h]
            sums = above[j, h] = {r: by_r.get(r, 0) for r in rs.subsets(h)}
            for i in rs.ids_of(h):
                bit = 1 << i - 1
                for m in sums:
                    if not m & bit:
                        sums[m] += sums[m | bit]
        return sums

    for k, q, qp, shift in reduction_targets(rs, subsets):
        terms = [(h, signed(1, h & ~q)) for h in rs.subsets(k) if not q & ~h]
        for j in subsets:
            lhs = sum(sign * superset_sums(j, h)[q] for h, sign in terms)
            yield ((lambda: f"Q={rs.ids_of(q)}, J={rs.ids_of(j)}, "
                            f"K={rs.ids_of(k)}"),
                   lhs == p[j, k].get(qp, 0) << bits * shift)


def identity_checks_finite(rs, sp_mask=None):
    """Exact consistency checks on the parabolic W_{S'}.  Returns a list
    of (name, ok, detail) triples."""
    if sp_mask is None:
        sp_mask = rs.full_mask
    table = get_table(rs, sp_mask)
    subsets = rs.subsets(sp_mask)
    w_poly = {m: rs.poincare(m) for m in subsets}
    wt = w_poly[sp_mask]
    packed = PackedBins(table)
    bits = packed.bits
    # the packed (p, h) bins of every (J, K)
    bins = {(j, k): packed(table, j, k) for j in subsets for k in subsets}

    def parabolic_quotient():
        # W(t) = W_J(t) times the series of minimal left representatives
        for j in subsets:
            yield ((lambda: f"W_J * W^J != W for J={rs.ids_of(j)}"),
                   w_poly[j] * table.p_poly(0, j, 0) == wt)

    def pkjk_partition():
        # partition of p_{K,J,K} by conjugation targets
        for j in subsets:
            for k in subsets:
                p_bins, h_bins = bins[j, k]
                total = sum(v for r, v in h_bins.items() if not r & ~j)
                yield ((lambda: f"J={rs.ids_of(j)}, K={rs.ids_of(k)}"),
                       total == p_bins.get(k, 0))

    def h_alternating_reduction():
        # sum over R<H<J of (-1)^{|H|-|R|} h_{R,H,K}
        # = t^{l(w(J,R'))} h_{R',J,K}
        for j, r, rp, shift in reduction_targets(rs, subsets):
            terms = [(h, signed(1, h & ~r))
                     for h in rs.subsets(j) if not r & ~h]
            for k in subsets:
                lhs = sum(sign * bins[h, k][1].get(r, 0) for h, sign in terms)
                yield ((lambda: f"R={rs.ids_of(r)}, J={rs.ids_of(j)}, "
                                f"K={rs.ids_of(k)}"),
                       lhs == bins[j, k][1].get(rp, 0) << bits * shift)

    def factorization(matrix, detail):
        # factorization of the series matrices along chains K < K' < S'
        full = {k: packed.matrix(matrix(rs, k, sp_mask)) for k in subsets}
        for k in subsets:
            for kp in subsets:
                if k & ~kp:
                    continue
                rhs = packed.matrix(matrix(rs, k, kp)) @ full[kp]
                yield ((lambda: detail.format(rs.ids_of(k), rs.ids_of(kp))),
                       full[k] == rhs)

    return run_checks([
        ("alternating-sum", solomon_sum(
            wt, ((rs.ids_of(j), w_poly[j]) for j in subsets),
            -IntPoly.t_power(rs.longest_length(sp_mask)))),
        ("parabolic-quotient", parabolic_quotient()),
        ("pKJK-partition", pkjk_partition()),
        ("p-alternating-reduction", p_alternating_reduction(
            rs, {jk: pq[0] for jk, pq in bins.items()}, subsets, bits)),
        ("h-alternating-reduction", h_alternating_reduction()),
        ("M-factorization", factorization(matrix_M, "M chain K={} K'={}")),
        ("N-factorization", factorization(matrix_N, "N chain J={} J'={}")),
    ])
