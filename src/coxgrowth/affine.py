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
root permutation, checked to act alike on roots and coroots.  By the
reflection formula s_a(v) = v - <a, v> a^vee (Humphreys, Reflection Groups
and Coxeter Groups, 4.1), x s_g = (w s_g, v - (<a_g, v> + c_g) a_g^vee),
a_0 = theta with c_0 = 1 and a_g = alpha_g with c_g = 0: w s_g is read
from the table's successor columns, or for g = 0 from one column composed
with s_theta, so no table product is taken.

The enumeration walk carries each element's pairings P[b] = <beta_b, v>
with every root: s_i gathers them along its root permutation, s_0 along
that of s_theta plus the shift -<beta_b, theta^vee>.  (w, P at the
simple roots) tells elements apart, the closed-form length is a sum over
P, and the m of each new element, made by `mul_gen`, must pair with the
simple roots as P does.  `classify` gives the profile of an element: the
masks of right and left ascents (x . (alpha_i, 0) > 0 and
x^-1 . (alpha_i, 0) > 0) and, where <alpha_i, v> = 0, the simple root
w alpha_i is (for Q) and the support of w alpha_i (for normalizers).
Minimality in a (W_J, W_K) double coset, Q and normalizing W_J are mask
tests on it.  One scan, with lengths from the BFS depths, keeps a length
histogram per distinct profile, each tested once against every (J, K)
and every normalizer; a long enumeration has far fewer profiles than
elements.  Root heights give every Poincare series, Bott's
W(t) / prod (1 - t^e) included.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, itemgetter, mul

from .ratfun import IntPoly, expand
from . import rootsystem
from .finite import get_table, image_masks

MAX_BFS_ELEMENTS = 3 * 10 ** 6


def _gather(idx):
    """p -> tuple(p[i] for i in idx), a tuple also for one index."""
    return itemgetter(*idx) if len(idx) > 1 else lambda p: (p[idx[0]],)


class AffineWeyl:
    """The affine group of a root system, with the finite table cached."""

    def __init__(self, rs):
        self.rs = rs
        self.table = get_table(rs)
        n = rs.rank
        self.n = n
        theta = rs.reflection(rs.highest_root, rs.highest_root_coroot)
        compose = itemgetter(*theta)
        # _next[g][w]: the finite index of w s_g, the table's successor
        # columns for g > 0 and one column composed here for g = 0
        self._next = [[self.table.index[compose(p)]
                       for p in self.table.perms], *self.table.succ]
        # support mask of each root, by root index
        self._supp = [sum(1 << p for p, c in enumerate(root) if c)
                      for root in rs.roots]
        # <beta, v> = _pair[b] . m for the root of index b
        self._pair = [tuple(sum(b * a for b, a in zip(root, col))
                            for col in zip(*rs.cartan)) for root in rs.roots]
        self._pos_pair = self._pair[:len(rs.positive_roots)]
        self._simple_pair = [self._pair[s] for s in rs.simple_idx]
        # mul_gen's (pairing row, coroot coords, c_g) of each a_g
        roots = [rs.root_index[rs.highest_root], *rs.simple_idx]
        self._refl = [(self._pair[b], rs.coroots[b], int(g == 0))
                      for g, b in enumerate(roots)]
        # the walk's move by each generator g on P[b] = <beta_b, v>: x s_g
        # has P[perm[b]], plus _shift[b] = -<beta_b, theta^vee> for g = 0;
        # a move is (g, _next[g], its map of P, that of P's simple entries)
        self._shift = tuple(-sum(map(mul, row, rs.highest_root_coroot))
                            for row in self._pair)
        at_s = _gather([theta[s] for s in rs.simple_idx])
        at_shift = _gather(rs.simple_idx)(self._shift)
        self._moves = [(0, self._next[0],
                        lambda p: tuple(map(add, compose(p), self._shift)),
                        lambda p: tuple(map(add, at_s(p), at_shift)))]
        self._moves += [(g, self._next[g], itemgetter(*perm),
                         _gather([perm[s] for s in rs.simple_idx]))
                        for g, perm in enumerate(rs.simple_reflections(), 1)]
        # by finite index w: [w beta_b < 0] over beta_b > 0, classify's record
        self._chi, self._records = {}, {}
        self._off_walls = (-1,) * n

    # -- core group operations -----------------------------------------

    def identity(self):
        return (0, (0,) * self.n)

    def mul_gen(self, x, g):
        """x * s_g for a generator id (0 = affine)."""
        w, m = x
        row, coroot, c = self._refl[g]
        k = sum(map(mul, row, m)) + c
        return (self._next[g][w],
                tuple([a - k * b for a, b in zip(m, coroot)]))

    def length(self, x):
        w, m = x
        n_pos = len(self._pos_pair)
        return sum(abs(sum(map(mul, row, m)) + (p >= n_pos))
                   for row, p in zip(self._pos_pair, self.table.perms[w]))

    # -- enumeration ----------------------------------------------------

    def bfs_enumerate(self, max_length):
        """(elements in BFS order, {element: length}) up to max_length;
        each depth is checked against the closed-form length, each m
        against the root pairings, each level's size against Bott's
        series.  First refuses a ball of over MAX_BFS_ELEMENTS elements:
        one per length, the rest from Bott's series in doubling steps."""
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
        frontier = [(start, (0,) * len(rs.roots))]
        # keys (w, P at the simple roots) of the levels below and at the
        # frontier: l(x s) = l(x) +- 1, so a new level meets only these
        below, here, depth = set(), {(0, start[1])}, 0
        chis, perms, n_pos = self._chi, self.table.perms, len(self._pos_pair)
        while frontier and depth < max_length:
            depth += 1
            nxt, keys = [], set()
            frontier.reverse()  # popped in order, to free each P once used
            while frontier:
                x, pairs = frontier.pop()
                for g, after, full, at_s in self._moves:
                    key = (after[x[0]], at_s(pairs))
                    if key in below or key in keys:
                        continue
                    new, w2 = full(pairs), key[0]
                    chi = chis.get(w2) or chis.setdefault(w2, tuple(
                        int(b >= n_pos) for b in perms[w2][:n_pos]))
                    y = self.mul_gen(x, g)
                    length = sum(map(abs, map(add, new, chi)))
                    if length != depth:     # an explicit raise survives -O
                        raise AssertionError(f"BFS depth {depth} != closed-"
                                             f"form length {length} of {y}")
                    got = tuple([sum(map(mul, row, y[1]))
                                 for row in self._simple_pair])
                    if (y[0], got) != key:
                        raise AssertionError(
                            f"BFS element {y} pairs with the simple roots to "
                            f"{got}, the walk's root pairings at finite index "
                            f"{w2} to {key[1]}")
                    seen[y] = depth
                    order.append(y)
                    nxt.append((y, new))
                    keys.add(key)
                    if len(seen) > MAX_BFS_ELEMENTS:
                        raise ValueError("enumeration exceeds element bound")
            if len(nxt) != levels[depth]:
                raise AssertionError(f"BFS level {depth} has {len(nxt)} "
                                     f"elements, Bott's series "
                                     f"{levels[depth]}")
            frontier, below, here = nxt, here, keys
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
        table, perm = self.table, self.table.perms[w]
        right_cut, left_cut, img, inv_rows, supps = self._records.get(w) or \
            self._records.setdefault(w, (
                [(table.rasc[w] >> i) & 1 for i in range(self.n)],
                [-((table.lasc[w] >> i) & 1) for i in range(self.n)],
                table.simple_img[w],
                [self._pair[perm.index(s)] for s in self.rs.simple_idx],
                [self._supp[perm[s]] for s in self.rs.simple_idx]))
        cm = [sum(map(mul, row, m)) for row in self._simple_pair]
        rasc = lasc = 0
        for i, row in enumerate(inv_rows):
            # x . (alpha_i, 0) = (w alpha_i, -cm[i]) and x^-1 . (alpha_i, 0)
            # = (w^-1 alpha_i, k): each > 0 at a level > 0, or 0 on a root > 0
            k = sum(map(mul, row, m))
            if cm[i] < right_cut[i]:
                rasc |= 1 << i
            if k > left_cut[i]:
                lasc |= 1 << i
        if all(cm):     # off every wall: no simple root is sent to (beta, 0)
            return rasc, lasc, self._off_walls, self._off_walls
        return (rasc, lasc, tuple(-1 if c else d for c, d in zip(cm, img)),
                tuple(-1 if c else u for c, u in zip(cm, supps)))

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
