"""Affine Weyl groups as (finite part, coroot translation) pairs.

An element x = (w, v) is the affine map p -> w(p + v) on coroot space,
with w in the finite Weyl group and v in the coroot lattice; v is stored
by its simple-coroot coordinate vector m.  Conventions:

    product:   (w1, v1)(w2, v2) = (w1 w2, v2 + w2^-1 v1)
    inverse:   (w, v)^-1 = (w^-1, -w v)
    length:    sum over positive roots beta of |<beta, v> + chi(w beta)|
               where chi is the indicator of negative roots, read off
               the finite element's root permutation
    action on an affine root (alpha, k):  (w alpha, k - <alpha, v>)

The action convention is the one under which a generator s_a lengthens x
on the right exactly when x sends the simple affine root a to a positive
affine root; this duality is asserted in the tests against BFS depths.
The package itself multiplies only by generators (`mul_gen`); the
general product, the inverse, the root action, the inversion sets and
the closure of a parabolic are reference implementations in the tests.

Generators are numbered 1..n for the finite simple reflections and 0 for
the extra affine reflection, whose (w, v) pair is (reflection in the
highest root, minus the highest coroot); the reflection is built as a
root permutation, checked to act alike on roots and coroots.

Every pairing <beta, v> is a dot product of m with an integer row
precomputed per root, and each generator's finite part acts on m by a
precomputed integer matrix, so the hot loop does no matrix algebra.

The enumeration oracle reads each element once: `classify` gives the
masks of right and left ascents (x . (alpha_i, 0) > 0 and
x^-1 . (alpha_i, 0) > 0) and, where <alpha_i, v> = 0, the simple root
w alpha_i is (for Q) and the support of w alpha_i (for normalizers).
Minimality in a (W_J, W_K) double coset, Q and normalizing W_J are mask
tests on that profile.  So one scan, with lengths from the BFS depths,
keeps a length histogram per distinct profile, and each distinct profile
is tested once against every (J, K) and every normalizer; a long
enumeration has far fewer profiles than elements.  Root heights give
every Poincare series, Bott's W(t) / prod (1 - t^e) included.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, mul

from .ratfun import IntPoly, expand
from . import rootsystem
from .finite import get_table, image_masks

MAX_BFS_ELEMENTS = 3 * 10 ** 6


def affine_root_positive(root_sign, level):
    """Positivity of (alpha, k) given the sign of alpha and the level."""
    return level >= (0 if root_sign > 0 else 1)


class AffineWeyl:
    """The affine group of a root system, with the finite table cached."""

    def __init__(self, rs):
        self.rs = rs
        self.table = get_table(rs)
        n = rs.rank
        self.n = n
        at_idx = self.table.index[rs.reflection(rs.highest_root,
                                                rs.highest_root_coroot)]
        # gens[g] = (finite index, translation coords); g = 0 is affine
        self.gens = {0: (at_idx, tuple(-c for c in rs.highest_root_coroot))}
        for i in range(n):
            self.gens[i + 1] = (self.table.rmult[0][i], (0,) * n)
        # right multiplication of a finite index by the highest-root
        # reflection, precomputed once
        self._rmul_at = [self.table.mul(idx, at_idx)
                         for idx in range(self.table.order)]
        # support mask of each root, by root index
        self._supp = [sum(1 << p for p, c in enumerate(root) if c)
                      for root in rs.roots]
        # <beta, v> = _pair[b] . m for the root of index b, and the rows
        # of the matrix by which each generator's finite part acts on m
        self._pair = [tuple(sum(b * a for b, a in zip(root, col))
                            for col in zip(*rs.cartan)) for root in rs.roots]
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        self._act = {g: tuple(zip(*(self.table.act_coroot(w, e)
                                    for e in units)))
                     for g, (w, _) in self.gens.items()}
        self._pos_pair = self._pair[:len(rs.positive_roots)]
        self._simple_pair = [self._pair[s] for s in rs.simple_idx]
        self._inv_simple = {}   # finite index -> indices of w^-1 alpha_i

    # -- core group operations -----------------------------------------

    def identity(self):
        return (0, (0,) * self.n)

    def mul_gen(self, x, g):
        """x * s_g for a generator id (0 = affine)."""
        w, m = x
        w2 = self._rmul_at[w] if g == 0 else self.table.rmult[w][g - 1]
        return (w2, tuple(sum(map(mul, row, m)) + c
                          for row, c in zip(self._act[g], self.gens[g][1])))

    def length(self, x):
        w, m = x
        n_pos = len(self._pos_pair)
        return sum(abs(sum(map(mul, row, m)) + (p >= n_pos))
                   for row, p in zip(self._pos_pair, self.table.perms[w]))

    # -- enumeration ----------------------------------------------------

    def bfs_enumerate(self, max_length):
        """(elements in BFS order, {element: length}) up to max_length;
        each BFS depth is checked against the closed-form length and each
        level's size against Bott's series.  First refuses a ball of over
        MAX_BFS_ELEMENTS elements: one per length, the rest counted from
        Bott's series in doubling steps, the last up to max_length."""
        rs = self.rs
        num = rs.poincare(rs.full_mask)
        den = IntPoly.one_minus_t(*rootsystem.exponents(
            sum(root) for root, _ in rs.positive_roots))
        count, n, levels = max_length + 1, 0, [1]
        while count <= MAX_BFS_ELEMENTS and n < max_length:
            n = min(max(2 * n, 64), max_length)
            levels = expand(num, n, den)
            count = max(count, sum(levels))
        if count > MAX_BFS_ELEMENTS:
            raise ValueError(f"length {max_length} covers at least {count} "
                             f"affine {rs.label} elements, over the "
                             f"enumeration bound {MAX_BFS_ELEMENTS}")
        start = self.identity()
        seen = {start: 0}
        order = [start]
        frontier = [start]
        depth = 0
        while frontier and depth < max_length:
            depth += 1
            nxt = []
            for x in frontier:
                for g in self.gens:
                    y = self.mul_gen(x, g)
                    if y in seen:
                        continue
                    length = self.length(y)
                    if length != depth:     # an explicit raise survives -O
                        raise AssertionError(f"BFS depth {depth} != closed-"
                                             f"form length {length} of {y}")
                    seen[y] = depth
                    order.append(y)
                    nxt.append(y)
                    if len(seen) > MAX_BFS_ELEMENTS:
                        raise ValueError("enumeration exceeds element bound")
            if len(nxt) != levels[depth]:
                raise AssertionError(f"BFS level {depth} has {len(nxt)} "
                                     f"elements, Bott's series "
                                     f"{levels[depth]}")
            frontier = nxt
        return order, seen

    def parabolic_poincare(self, gen_ids):
        """Poincare polynomial of the finite group generated by a proper
        subset I of the n+1 generators, from the heights of its positive
        roots: (beta, 0) for beta > 0 on F = I - {0}, of height ht beta,
        and if 0 is in I, (beta, 1) for theta + beta (>= 0, as theta is
        highest) supported on F, of height 1 + ht(theta + beta); a
        generator outside I bounds the level by 1."""
        gen_ids = set(gen_ids)
        if len(gen_ids) > self.n:
            raise ValueError("proper subsets only")
        rs = self.rs
        f_mask = rs.mask_of(gen_ids - {0})
        heights = [sum(root) for root, _ in rs.positive_roots_of(f_mask)]
        if 0 in gen_ids:
            for beta in rs.roots:
                up = [a + b for a, b in zip(rs.highest_root, beta)]
                if all(c == 0 or (f_mask >> i) & 1 for i, c in enumerate(up)):
                    heights.append(1 + sum(up))
        return rootsystem.poincare_of(heights)

    # -- classification -------------------------------------------------

    def classify(self, x):
        """The profile (rasc, lasc, dest, supp) of x = (w, v); bit i of a
        mask and entry i of a tuple stand for the finite generator i + 1.
        rasc has bit i when x . (alpha_i, 0) > 0, lasc when
        x^-1 . (alpha_i, 0) > 0.  Where <alpha_i, v> = 0, dest[i] is j if
        w alpha_i = alpha_j (else -1) and supp[i] is the support of
        w alpha_i; elsewhere dest[i] = -1 and supp[i] = -1 (every bit)."""
        w, m = x
        table = self.table
        right, left, perm = table.rasc[w], table.lasc[w], table.perms[w]
        inv = self._inv_simple.get(w)
        if inv is None:
            inv = self._inv_simple[w] = [perm.index(s)
                                         for s in self.rs.simple_idx]
        cm = [sum(map(mul, row, m)) for row in self._simple_pair]
        cwm = [sum(map(mul, self._pair[b], m)) for b in inv]
        rasc = lasc = 0
        for i in range(self.n):
            bit = 1 << i
            # x . (alpha_i, 0) = (w alpha_i, -<alpha_i, v>)
            if affine_root_positive(1 if right & bit else -1, -cm[i]):
                rasc |= bit
            # x^-1 . (alpha_i, 0) = (w^-1 alpha_i, <alpha_i, w v>)
            if affine_root_positive(1 if left & bit else -1, cwm[i]):
                lasc |= bit
        dest = tuple(-1 if c else d for c, d in zip(cm, table.simple_img[w]))
        supp = tuple(-1 if c else self._supp[perm[s]]
                     for s, c in zip(self.rs.simple_idx, cm))
        return rasc, lasc, dest, supp

    # -- truncated ground-truth series ----------------------------------

    def oracle_scan(self, max_length, pairs, j_masks, elements=None):
        """One pass over the elements of length <= max_length (the BFS
        enumeration by default), classifying each once into a length
        histogram per distinct profile; each profile is then matched once
        against every (J, K) and every J.  Returns
        ({(J, K): (bins, total)}, {J: counts}): for each (J, K) in pairs,
        the coefficient lists t^l(x) of the minimal double-coset
        representatives binned by Q and in total; for each J in j_masks,
        those of the elements normalizing W_J."""
        if elements is None:
            elements, depths = self.bfs_enumerate(max_length)
            length = depths.__getitem__
        else:
            length = self.length
        size = max_length + 1
        # one length histogram per distinct profile, in the order of first
        # appearance, so the bins get their keys in the enumeration order
        histograms = defaultdict(lambda: [0] * size)
        for x in elements:
            l = length(x)
            if l <= max_length:
                histograms[self.classify(x)][l] += 1
        cosets = {pair: (defaultdict(lambda: [0] * size), [0] * size)
                  for pair in pairs}
        counts = {j: [0] * size for j in j_masks}
        for profile, h in histograms.items():
            for (j, k), (bins, total) in cosets.items():
                q = coset_pattern(self.rs, profile, j, k)
                if q is not None:
                    bins[q] = list(map(add, bins[q], h))
                    total[:] = map(add, total, h)
            for j, c in counts.items():
                if normalizes(profile, j):
                    c[:] = map(add, c, h)
        return {p: (dict(b), t) for p, (b, t) in cosets.items()}, counts

    def oracle_series(self, j_mask, k_mask, max_length, elements=None):
        """Bins t^l(x) of minimal double-coset representatives by Q.
        Returns (dict Q -> coefficient list, total list)."""
        pair = (j_mask, k_mask)
        return self.oracle_scan(max_length, [pair], [], elements)[0][pair]

    def normalizer_counts(self, j_mask, max_length, elements=None):
        """Truncated growth count of the full normalizer of W_J."""
        return self.oracle_scan(max_length, [], [j_mask],
                                elements)[1][j_mask]


def coset_pattern(rs, profile, j_mask, k_mask):
    """Q for x with this profile when x is minimal in its (W_J, W_K)
    double coset: the k in K with x . (alpha_k, 0) = (alpha_j, 0) for
    some j in J, read off the image masks of dest.  None when x is not
    minimal."""
    rasc, lasc, dest, _ = profile
    if rasc & k_mask != k_mask or lasc & j_mask != j_mask:
        return None
    return image_masks(rs, dest)[0][j_mask] & k_mask


def normalizes(profile, j_mask):
    """Whether x with this profile satisfies x W_J x^-1 = W_J: each
    alpha_j goes to (beta, 0) with beta (of either sign) supported on J."""
    supp = profile[3]
    return all(supp[i] & ~j_mask == 0
               for i in range(len(supp)) if (j_mask >> i) & 1)


def get_affine(rs):
    return rs.cached("affine", lambda: AffineWeyl(rs))
