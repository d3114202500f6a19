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
general product, the inverse, the root action and the inversion sets
are reference implementations in the tests.

Generators are numbered 1..n for the finite simple reflections and 0 for
the extra affine reflection, whose (w, v) pair is (reflection in the
highest root, minus the highest coroot); the reflection is built as a
root permutation, checked to act alike on roots and coroots.

The enumeration oracle reads each element once: `classify` gives the
masks of right and left ascents (x . (alpha_i, 0) > 0 and
x^-1 . (alpha_i, 0) > 0) and, where <alpha_i, v> = 0, the simple root
w alpha_i is (for Q) and the support of w alpha_i (for normalizers).
Minimality in a (W_J, W_K) double coset, Q and normalizing W_J are mask
tests on that profile, so one scan, with lengths from the BFS depths,
fills the bins of every (J, K) and every normalizer count.
"""

from __future__ import annotations

from .ratfun import IntPoly
from . import rootsystem
from .finite import get_table

MAX_BFS_ELEMENTS = 10 ** 7
MAX_PARABOLIC_ORDER = 200000


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
        self._pos_roots = [root for root, _ in rs.positive_roots]
        # support mask of each root, by root index
        self._supp = [sum(1 << p for p, c in enumerate(root) if c)
                      for root in rs.roots]

    # -- core group operations -----------------------------------------

    def identity(self):
        return (0, (0,) * self.n)

    def mul_gen(self, x, g):
        """x * s_g for a generator id (0 = affine)."""
        w, m = x
        gw, gv = self.gens[g]
        if g == 0:
            w2 = self._rmul_at[w]
        else:
            w2 = self.table.rmult[w][g - 1]
        mr = self.table.act_coroot(gw, m)
        return (w2, tuple(a + b for a, b in zip(mr, gv)))

    def length(self, x):
        w, m = x
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        perm = self.table.perms[w]
        n_pos = len(self._pos_roots)
        total = 0
        for r, root in enumerate(self._pos_roots):
            pairing = sum(a * b for a, b in zip(root, cm))
            total += abs(pairing + (perm[r] >= n_pos))
        return total

    # -- enumeration ----------------------------------------------------

    def bfs_enumerate(self, max_length):
        """(elements in BFS order, {element: length}) up to max_length;
        each BFS depth is checked against the closed-form length."""
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
                    _check_depth(y, depth, self.length(y))
                    seen[y] = depth
                    order.append(y)
                    nxt.append(y)
                    if len(seen) > MAX_BFS_ELEMENTS:
                        raise ValueError("enumeration exceeds element bound")
            frontier = nxt
        return order, seen

    def parabolic_poincare(self, gen_ids):
        """Poincare polynomial of the (finite) subgroup generated by a
        proper subset of the n+1 generators, by closure."""
        gen_ids = sorted(set(gen_ids))
        if len(gen_ids) > self.n:
            raise ValueError("proper subsets only")
        start = self.identity()
        seen = {start: 0}
        frontier = [start]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for x in frontier:
                for g in gen_ids:
                    y = self.mul_gen(x, g)
                    if y in seen:
                        continue
                    _check_depth(y, depth, self.length(y))
                    seen[y] = depth
                    nxt.append(y)
                    if len(seen) > MAX_PARABOLIC_ORDER:
                        raise ValueError("parabolic subgroup too large")
            frontier = nxt
        coeffs = [0] * (depth + 1)
        for l in seen.values():
            coeffs[l] += 1
        return IntPoly(coeffs)

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
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        cwm = rootsystem.mat_vec(self.rs.cartan, table.act_coroot(w, m))
        right, left, perm = table.rasc[w], table.lasc[w], table.perms[w]
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
        enumeration by default), classifying each once.  Returns
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
        cosets = {pair: ({}, [0] * size) for pair in pairs}
        counts = {j: [0] * size for j in j_masks}
        for x in elements:
            l = length(x)
            if l > max_length:
                continue
            profile = self.classify(x)
            for (j, k), (bins, total) in cosets.items():
                q = coset_pattern(profile, j, k)
                if q is not None:
                    bins.setdefault(q, [0] * size)[l] += 1
                    total[l] += 1
            for j, c in counts.items():
                if normalizes(profile, j):
                    c[l] += 1
        return cosets, counts

    def oracle_series(self, j_mask, k_mask, max_length, elements=None):
        """Bins t^l(x) of minimal double-coset representatives by Q.
        Returns (dict Q -> coefficient list, total list)."""
        pair = (j_mask, k_mask)
        return self.oracle_scan(max_length, [pair], [], elements)[0][pair]

    def normalizer_counts(self, j_mask, max_length, elements=None):
        """Truncated growth count of the full normalizer of W_J."""
        return self.oracle_scan(max_length, [], [j_mask],
                                elements)[1][j_mask]


def _check_depth(x, depth, length):
    # an explicit raise, so that the check survives -O
    if depth != length:
        raise AssertionError(
            f"BFS depth {depth} != closed-form length {length} of {x}")


def coset_pattern(profile, j_mask, k_mask):
    """Q for x with this profile when x is minimal in its (W_J, W_K)
    double coset: the k in K with x . (alpha_k, 0) = (alpha_j, 0) for
    some j in J.  None when x is not minimal."""
    rasc, lasc, dest, _ = profile
    if rasc & k_mask != k_mask or lasc & j_mask != j_mask:
        return None
    q = 0
    for i, d in enumerate(dest):
        if (k_mask >> i) & 1 and d >= 0 and (j_mask >> d) & 1:
            q |= 1 << i
    return q


def normalizes(profile, j_mask):
    """Whether x with this profile satisfies x W_J x^-1 = W_J: each
    alpha_j goes to (beta, 0) with beta (of either sign) supported on J."""
    supp = profile[3]
    return all(supp[i] & ~j_mask == 0
               for i in range(len(supp)) if (j_mask >> i) & 1)


def get_affine(rs):
    return rs.cached("affine", lambda: AffineWeyl(rs))
