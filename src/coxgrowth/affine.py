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
affine root; this duality is asserted in the tests against the
closed-form length.
The package itself multiplies only by generators (`mul_gen`); the
general product, the inverse, the root action, the inversion sets and
the closure of a parabolic are reference implementations in the tests.

Generators are numbered 1..n for the finite simple reflections and 0 for
the extra affine reflection, whose (w, v) pair is (reflection in the
highest root, minus the highest coroot); the reflection is built as a
root permutation, checked to act alike on roots and coroots.  By the
reflection formula s_a(v) = v - <a, v> a^vee (Humphreys, Reflection Groups
and Coxeter Groups, 4.1), x s_g = (w s_g, v - (<a_g, v> + c_g) a_g^vee),
a_0 = theta with c_0 = 1 and a_g = alpha_g with c_g = 0.  The finite
parts are numbered in the order of the finite walk, identity first, and
the index of w s_g is looked up once per w and g when the group is built,
so no product of two finite elements is taken.

The enumeration walk carries each element's pairings P[b] = <beta_b, v>
with every root: s_i gathers them along its root permutation, s_0 along
that of s_theta plus the shift -<beta_b, theta^vee>.  Sign tests on P
find the descents, so each element comes once, from its lowest right
descent, and none is looked up; the closed-form length is a sum over P,
and the m of each new element, made by `mul_gen`, must pair with the
simple roots as P does.  `classify` gives the profile of an element: the
masks of right and left ascents (x . (alpha_i, 0) > 0 and
x^-1 . (alpha_i, 0) > 0) and, where <alpha_i, v> = 0, the simple root
w alpha_i is (for Q) and the support of w alpha_i (for normalizers).
Minimality in a (W_J, W_K) double coset, Q and normalizing W_J are mask
tests on it.  One scan, with each length read off the walk's level
sizes, keeps a length histogram per distinct profile, each tested once
against every (J, K) and every normalizer; a long enumeration has far
fewer profiles than elements.  Root heights give every Poincare series,
Bott's W(t) / prod (1 - t^e) included, and `parabolic_poincare` reads
those of the affine parabolics off the root system with no group built.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat, starmap
from operator import add, itemgetter, mul

from .ratfun import IntPoly, expand
from . import rootsystem
from .finite import image_masks, walk

MAX_BFS_ELEMENTS = 3 * 10 ** 6


class AffineWeyl:
    """The affine group of a root system: perms, the finite group's root
    permutations in walk order (identity at index 0), and _next[g][w],
    the index of w s_g for each of the n + 1 generators."""

    def __init__(self, rs):
        self.rs = rs
        n = rs.rank
        self.n = n
        theta = rs.reflection(rs.highest_root, rs.highest_root_coroot)
        compose = itemgetter(*theta)
        self.perms = [perm for perm, _ in walk(rs, rs.full_mask)]
        index = {perm: w for w, perm in enumerate(self.perms)}
        self._next = [[index[c(p)] for p in self.perms] for c in [
            compose, *(itemgetter(*r) for r in rs.simple_reflections())]]
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
        # has P[perm[b]], plus _shift[b] = -<beta_b, theta^vee> for g = 0
        self._shift = tuple(-sum(map(mul, row, rs.highest_root_coroot))
                            for row in self._pair)
        self._moves = [lambda p: tuple(map(add, compose(p), self._shift)),
                       *(itemgetter(*perm) for perm in rs.simple_reflections())]
        # the wall (r, c) of each generator: x . a_g = (w beta_r, c - P[r]),
        # with a_0 = (-theta, 1), the index of -beta_b being b + N
        self._walls = [(roots[0] + len(rs.positive_roots), 1),
                       *((s, 0) for s in rs.simple_idx)]
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
                   for row, p in zip(self._pos_pair, self.perms[w]))

    # -- enumeration ----------------------------------------------------

    def bfs_enumerate(self, max_length):
        """(elements level by level, sizes) up to max_length, sizes[d] the
        number of elements of length d, Bott's coefficient of t^d.  Walked
        as finite.walk does: y = x s_g is kept when g is an ascent of x and
        no lower generator is a descent of y, so each element comes once,
        from its parent by its lowest right descent.  g is a descent of
        x = (w, v) when x . a_g = (w beta_r, c - P[r]) < 0, (r, c) its wall.
        Each depth is checked against the closed-form length, each m against
        the root pairings, each level against Bott's series and for repeats;
        as every depth is a length, no element can repeat across levels.
        First refuses a ball of over MAX_BFS_ELEMENTS elements: one per
        length, the rest from Bott's series in doubling steps."""
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
        order = [start]
        frontier = [(start, (0,) * len(rs.roots))]
        chis, perms, n_pos = self._chi, self.perms, len(self._pos_pair)
        simple, walls = rs.simple_idx, self._walls
        # (g, its move of P, its _next column, its wall, the lower walls)
        gens = [(g, *fields, walls[:g]) for g, fields in enumerate(
            zip(self._moves, self._next, walls))]
        for depth in range(1, max_length + 1):
            nxt = []
            frontier.reverse()  # popped in order, to free each P once used
            while frontier:
                x, pairs = frontier.pop()
                perm = perms[x[0]]
                for g, move, after, (r, c), lower in gens:
                    level = c - pairs[r]
                    if level < 0 or level == 0 and perm[r] >= n_pos:
                        continue    # g is a descent of x
                    new, perm2 = move(pairs), perms[after[x[0]]]
                    for r2, c2 in lower:
                        level = c2 - new[r2]
                        if level < 0 or level == 0 and perm2[r2] >= n_pos:
                            break   # a lower generator is a descent of y
                    else:
                        nxt.append((self.mul_gen(x, g), new))
            for y, new in nxt:
                w = y[0]
                chi = chis.get(w) or chis.setdefault(w, tuple(
                    int(b >= n_pos) for b in perms[w][:n_pos]))
                length = sum(map(abs, map(add, new, chi)))
                if length != depth:     # an explicit raise survives -O
                    raise AssertionError(f"BFS depth {depth} != closed-form "
                                         f"length {length} of {y}")
                got = tuple([sum(map(mul, row, y[1]))
                             for row in self._simple_pair])
                want = tuple(map(new.__getitem__, simple))
                if got != want:
                    raise AssertionError(
                        f"BFS element {y} pairs with the simple roots to "
                        f"{got}, the walk's root pairings at finite index "
                        f"{w} to {want}")
            if len(nxt) != levels[depth]:
                raise AssertionError(f"BFS level {depth} has {len(nxt)} "
                                     f"elements, Bott's series "
                                     f"{levels[depth]}")
            made = [y for y, _ in nxt]
            if len(set(made)) != len(made):
                raise AssertionError(f"BFS level {depth} repeats an element")
            order += made
            frontier = nxt
        return order, levels

    # -- classification -------------------------------------------------

    def classify(self, x):
        """The profile (rasc, lasc, dest, supp) of x = (w, v); bit i of a
        mask and entry i of a tuple stand for the finite generator i + 1.
        rasc has bit i when x . (alpha_i, 0) > 0, lasc when
        x^-1 . (alpha_i, 0) > 0.  Where <alpha_i, v> = 0, dest[i] is j if
        w alpha_i = alpha_j (else -1) and supp[i] is the support of
        w alpha_i; elsewhere dest[i] = -1 and supp[i] = -1 (every bit)."""
        w, m = x
        record = self._records.get(w)
        if record is None:
            # per alpha_i: [w alpha_i > 0], -[w^-1 alpha_i > 0], the j with
            # w alpha_i = alpha_j (else -1), the pairing row of w^-1 alpha_i
            # and the support of w alpha_i
            perm, simple = self.perms[w], self.rs.simple_idx
            n_pos = len(self._pos_pair)
            img = [perm[s] for s in simple]
            inv = [perm.index(s) for s in simple]
            record = self._records[w] = (
                [int(b < n_pos) for b in img], [-int(b < n_pos) for b in inv],
                tuple([simple.index(b) if b in simple else -1 for b in img]),
                [self._pair[b] for b in inv], [self._supp[b] for b in img])
        right_cut, left_cut, img, inv_rows, supps = record
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
        """One pass over the elements of length <= max_length (the walk of
        bfs_enumerate by default), classifying each once into a length
        histogram per distinct profile; each profile is then matched once
        against every (J, K) and every J.  Returns
        ({(J, K): (bins, total)}, {J: counts}): for each (J, K) in pairs,
        the coefficient lists t^l(x) of the minimal double-coset
        representatives binned by Q and in total; for each J in j_masks,
        those of the elements normalizing W_J.  The walk's lengths are read
        off its level sizes, those of given elements from the closed form."""
        if elements is None:
            elements, sizes = self.bfs_enumerate(max_length)
            lengths = chain.from_iterable(starmap(repeat, enumerate(sizes)))
        else:
            lengths = map(self.length, elements)
        size = max_length + 1
        # one length histogram per distinct profile, in the order of first
        # appearance, so the bins get their keys in the enumeration order
        histograms = defaultdict(lambda: [0] * size)
        for x, l in zip(elements, lengths):
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


def parabolic_poincare(rs, gen_ids):
    """Poincare polynomial of the finite group generated by a proper subset
    I of the rank + 1 generators of the affine group of rs, from the
    heights of its positive roots: (beta, 0) for beta > 0 on F = I - {0},
    of height ht beta, and if 0 is in I, (beta, 1) for theta + beta (>= 0,
    as theta is highest) supported on F, of height 1 + ht(theta + beta); a
    generator outside I bounds the level by 1."""
    gen_ids = set(gen_ids)
    if len(gen_ids) > rs.rank:
        raise ValueError("proper subsets only")
    f_mask = rs.mask_of(gen_ids - {0})
    heights = [sum(root) for root, _ in rs.positive_roots_of(f_mask)]
    if 0 in gen_ids:
        for beta in rs.roots:
            up = [a + b for a, b in zip(rs.highest_root, beta)]
            if all(c == 0 or (f_mask >> i) & 1 for i, c in enumerate(up)):
                heights.append(1 + sum(up))
    return rootsystem.poincare_of(heights)


def get_affine(rs):
    return rs.cached("affine", lambda: AffineWeyl(rs))
