"""Irreducible crystallographic root systems in simple-root coordinates.

All data lives in the simple-root basis (for roots) and the simple-coroot
basis (for coroots), so everything is integer vectors and the Cartan
matrix mediates every pairing:

    <alpha, v>          = a . (C m)   for a root with coordinates a and
                                      v = sum m_i alpha_i^vee,
    <beta, alpha_j^vee> = (C^T b)_j   for a root with coordinates b.

Generator subsets are bitmasks: bit i-1 stands for the i-th simple
reflection (generators are numbered 1..n throughout the public API).
W_J(t) is prod (1 + ... + t^e) over exponents e read off root heights.

Everything is computed in ints: the determinant of C by Bareiss
elimination, and the cone generator w_i, a multiple of the i-th
fundamental coweight, as the coweight sum sum_{beta > 0} beta_i beta^vee
instead of a column of C^-1.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from operator import itemgetter

from .ratfun import IntPoly

VALID_TYPES = "ABCDEFG"
MAX_RANK = 20  # building a root system costs about rank^4


class InvalidTypeError(ValueError):
    pass


def _chain(n):
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def cartan_matrix(family, rank):
    """Cartan matrix C with C_ij = <alpha_i, alpha_j^vee>."""
    family = family.upper()
    n = rank
    ok = {
        "A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 4,
        "E": n in (6, 7, 8), "F": n == 4, "G": n == 2,
    }.get(family)
    if not ok:
        raise InvalidTypeError(f"invalid type {family}{rank}")
    if n > MAX_RANK:
        raise InvalidTypeError(f"rank {rank} is over the bound {MAX_RANK}")
    c = _chain(n)
    if family == "B":
        c[n - 2][n - 1] = -2
    elif family == "C":
        c[n - 1][n - 2] = -2
    elif family == "D":
        c[n - 2][n - 1] = 0
        c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = -1
        c[n - 1][n - 3] = -1
    elif family == "E":
        # Bourbaki numbering: node 2 hangs off node 4 of the chain 1-3-4-5-...
        for i in range(n):
            for j in range(n):
                c[i][j] = 2 if i == j else 0
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        edges.append((2, 4))
        for a, b in edges:
            c[a - 1][b - 1] = -1
            c[b - 1][a - 1] = -1
    elif family == "F":
        c[1][2] = -2
        c[2][1] = -1
    elif family == "G":
        c[0][1] = -3
        c[1][0] = -1
    return tuple(tuple(row) for row in c)


def parse_label(label):
    """'B3' / 'b_3' -> ('B', 3)."""
    s = label.strip().upper().replace("_", "")
    if len(s) < 2 or s[0] not in VALID_TYPES or not s[1:].isdigit():
        raise InvalidTypeError(f"cannot parse type label {label!r}")
    return s[0], int(s[1:])


# ---------------------------------------------------------------------------
# integer linear algebra on small matrices

def mat_det(c):
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination (Bareiss 1968): each entry update divides by the previous
    pivot, and every such division is exact, so only ints occur."""
    m = [list(row) for row in c]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n - 1):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for j in range(i + 1, n):
                m[r][j] = (m[r][j] * m[i][i] - m[r][i] * m[i][j]) // prev
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def mat_vec(c, v):
    return tuple(sum(c[i][j] * v[j] for j in range(len(v)))
                 for i in range(len(c)))


def exponents(heights):
    """Exponents of a root system, reducible or not, from the heights of
    its positive roots: #{ht = h} - #{ht = h + 1} of them equal h
    (Humphreys, Reflection Groups and Coxeter Groups, 3.20)."""
    count = Counter(heights)
    out = []
    for h in range(1, max(count, default=0) + 1):
        k = count[h] - count[h + 1]
        if k < 0:
            raise AssertionError(f"{count[h + 1]} roots of height {h + 1} "
                                 f"but {count[h]} of height {h}")
        out += [h] * k
    return out


def poincare_of(heights):
    """prod (1 + t + ... + t^e) over the exponents e of these heights."""
    out = IntPoly.one()
    for e in exponents(heights):
        out = out * IntPoly((1,) * (e + 1))
    return out


# ---------------------------------------------------------------------------

_CLASSICAL_POS_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class RootSystem:
    """Positive roots, highest root, 2*rho vector and cone generators.

    positive_roots[i] is a pair (root coords, coroot coords); both are
    maintained in parallel during the reflection closure so that general
    coroot pairings stay in integer arithmetic.

    roots and coroots list all 2N roots and their coroots, the positive
    ones first (in the order of positive_roots) and then their negatives,
    so that index b + N is -beta_b.  root_index inverts roots, and
    simple_idx[i] is the index of alpha_i.  Weyl group elements act on
    these indices as permutations (see `reflection`).
    """

    def __init__(self, family, rank):
        family = family.upper()
        self.family = family
        self.rank = rank
        self.cartan = cartan_matrix(family, rank)
        n = rank
        self.cartan_t = tuple(tuple(self.cartan[j][i] for j in range(n))
                              for i in range(n))
        self.det_c = mat_det(self.cartan)
        if self.det_c <= 0:
            raise InvalidTypeError(f"Cartan matrix of {family}{rank} not finite type")
        self._close_roots()
        self._check_counts()
        self._find_highest()
        # 2*rho = sum of positive roots; r C = (2,...,2) exactly
        r = [0] * n
        for root, _ in self.positive_roots:
            for i, x in enumerate(root):
                r[i] += x
        self.two_rho = tuple(r)
        if mat_vec(self.cartan_t, self.two_rho) != (2,) * n:
            raise AssertionError(f"{self.label}: 2 rho = {self.two_rho} "
                                 "does not pair to 2 with every coroot")
        self._build_cone_gens()
        neg = [tuple(tuple(-x for x in v) for v in rc)
               for rc in self.positive_roots]
        self.roots, self.coroots = map(tuple,
                                       zip(*self.positive_roots + neg))
        self.root_index = {root: b for b, root in enumerate(self.roots)}
        self.simple_idx = tuple(self.root_index[tuple(int(j == i)
                                                      for j in range(n))]
                                for i in range(n))
        self._derived = {}

    # -- construction --------------------------------------------------

    def _reflect(self, i, root, coroot):
        """Apply the i-th simple reflection to a (root, coroot) pair."""
        b = sum(root[j] * self.cartan[j][i] for j in range(self.rank))
        c = sum(coroot[j] * self.cartan[i][j] for j in range(self.rank))
        new_root = tuple(x - b * int(j == i) for j, x in enumerate(root))
        new_coroot = tuple(x - c * int(j == i) for j, x in enumerate(coroot))
        return new_root, new_coroot

    def _close_roots(self):
        n = self.rank
        e = lambda i: tuple(int(j == i) for j in range(n))
        found = {e(i): e(i) for i in range(n)}
        frontier = list(found)
        while frontier:
            nxt = []
            for root in frontier:
                coroot = found[root]
                for i in range(n):
                    r2, c2 = self._reflect(i, root, coroot)
                    if all(x >= 0 for x in r2) and r2 not in found:
                        found[r2] = c2
                        nxt.append(r2)
            frontier = nxt
        self.positive_roots = sorted((r, c) for r, c in found.items())

    def _check_counts(self):
        expect = _CLASSICAL_POS_COUNT[self.family](self.rank)
        if len(self.positive_roots) != expect:
            raise AssertionError(
                f"{self.family}{self.rank}: closure found "
                f"{len(self.positive_roots)} positive roots, expected {expect}")

    def _find_highest(self):
        best = max(self.positive_roots, key=lambda rc: sum(rc[0]))
        for root, _ in self.positive_roots:
            if any(h < x for h, x in zip(best[0], root)):
                raise AssertionError("highest root does not dominate")
        self.highest_root = best[0]
        self.highest_root_coroot = best[1]

    def _build_cone_gens(self):
        """w_i is the primitive vector of sum_{beta > 0} beta_i beta^vee,
        beta_i the alpha_i-coordinate of beta.  The map
        lambda -> sum_beta <beta, lambda> beta^vee commutes with W, which
        acts irreducibly, so it is a positive multiple of the identity and
        the sum is a positive multiple of the i-th fundamental coweight;
        the two checks below test this at run time."""
        n = self.rank
        gens = []
        for i in range(n):
            v = [0] * n
            for root, coroot in self.positive_roots:
                for j, c in enumerate(coroot):
                    v[j] += root[i] * c
            g = gcd(*v)
            w = tuple(x // g for x in v)
            if any(x < 0 for x in w):
                raise AssertionError(
                    f"cone generator {w} has a negative entry; the box "
                    "scan in cones.lattice_walk_counts would be invalid")
            cw = mat_vec(self.cartan, w)
            if any(cw[j] != 0 for j in range(n) if j != i) or cw[i] <= 0:
                raise AssertionError("C w_i is not a positive multiple of e_i")
            gens.append(w)
        self.cone_gens = tuple(gens)

    # -- queries --------------------------------------------------------

    def reflection(self, root, coroot):
        """The reflection s in `root` as a permutation of the root indices:
        entry b is the index of s(beta_b) = beta_b - <beta_b, root^vee>
        root.  Raises unless s also maps each coroot to the coroot of the
        image, s(beta)^vee = s(beta^vee), so that one permutation acts on
        both sides."""
        pair_r = mat_vec(self.cartan, coroot)      # <beta, root^vee>
        pair_c = mat_vec(self.cartan_t, root)      # <root, beta^vee>
        perm = []
        for beta, beta_c in zip(self.roots, self.coroots):
            k = sum(a * b for a, b in zip(beta, pair_r))
            kc = sum(a * b for a, b in zip(beta_c, pair_c))
            img = self.root_index.get(
                tuple(x - k * a for x, a in zip(beta, root)))
            if img is None or self.coroots[img] != tuple(
                    x - kc * c for x, c in zip(beta_c, coroot)):
                raise AssertionError(
                    f"{self.label}: the reflection in {root} with coroot "
                    f"{coroot} does not map the pair of {beta} to a pair")
            perm.append(img)
        return tuple(perm)

    def simple_reflections(self):
        """The permutation of each simple reflection, in generator order,
        made once and kept in the cache."""
        return self.cached("simple_reflections", lambda: tuple(
            self.reflection(self.roots[s], self.coroots[s])
            for s in self.simple_idx))

    def flips(self, x):
        """flips(X)[M] = eps_X(M) for M within X, where the opposition
        involution eps_X of W_X has w_X alpha_i = -alpha_eps_X(i); for H
        within K, w_K w_H sends alpha_i, i in H, to alpha_eps_K(eps_H(i)).
        w_X is walked up from the identity by ascents in X on first use of
        X, and kept; the walk must take l(w_X) steps and end on minus the
        simple roots of X."""
        return self.cached(("flips", x), lambda: self._walk_flip(x))

    def _walk_flip(self, x):
        n_pos, simple = len(self.positive_roots), self.simple_idx
        ids, length = self.ids_of(x), self.longest_length(x)
        gens = {i: itemgetter(*self.simple_reflections()[i - 1]) for i in ids}
        perm, steps = tuple(range(len(self.roots))), 0
        while steps <= length:
            asc = [i for i in ids if perm[simple[i - 1]] < n_pos]
            if not asc:
                break
            perm, steps = gens[asc[0]](perm), steps + 1
        if steps != length:
            raise AssertionError(f"the walk to w_X for X={ids} stopped "
                                 f"after {steps} steps, not {length}")
        # each entry from that of M less its lowest bit
        neg_simple = {s + n_pos: i for i, s in enumerate(simple)}
        flip = {0: 0}
        for m in self.subsets(x)[1:]:
            j = neg_simple.get(perm[simple[(m & -m).bit_length() - 1]])
            if j is None or not (x >> j) & 1:
                raise AssertionError(f"w_X does not send the simple roots of "
                                     f"X={ids} onto minus simple roots of X")
            flip[m] = flip[m & (m - 1)] | 1 << j
        return flip

    def cached(self, key, make):
        """The object derived from this root system under `key` (a group
        table, the affine group, the pipeline), made by make() on first
        use and kept for the life of the root system."""
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = make()
        return hit

    @property
    def label(self):
        return f"{self.family}{self.rank}"

    @property
    def full_mask(self):
        return (1 << self.rank) - 1

    def two_rho_weight(self, m):
        """<2 rho, v> for v = sum m_i alpha_i^vee; equals 2 * sum(m)."""
        return 2 * sum(m)

    def positive_roots_of(self, mask):
        """Positive roots supported on the generator subset `mask`, as a
        tuple kept in the cache."""
        return self.cached(("positive_roots", mask), lambda: tuple(
            (root, coroot) for root, coroot in self.positive_roots
            if all(x == 0 or (mask >> i) & 1 for i, x in enumerate(root))))

    def longest_length(self, mask):
        """l(w_J) = number of positive roots of the parabolic J."""
        return len(self.positive_roots_of(mask))

    def poincare(self, mask):
        """W_J(t), in closed form from the heights of the roots of J."""
        return poincare_of(sum(r) for r, _ in self.positive_roots_of(mask))

    def subsets(self, mask=None):
        """All subsets of `mask` (default: all generators), ascending."""
        if mask is None:
            mask = self.full_mask
        out, sub = [0], mask
        while sub:
            out.append(sub)
            sub = (sub - 1) & mask
        return sorted(out)

    def mask_of(self, ids):
        """Generator id list (1-based) -> bitmask."""
        m = 0
        for i in ids:
            if not 1 <= i <= self.rank:
                raise ValueError(f"generator id {i} out of range 1..{self.rank}")
            m |= 1 << (i - 1)
        return m

    def ids_of(self, mask):
        return [i + 1 for i in range(self.rank) if (mask >> i) & 1]


_INTERNED = {}


def build_label(label):
    """The shared root system of a type label: every spelling of one type
    ('B3', 'b_3') gives the same object, and with it the same cached
    tables, affine group and pipeline."""
    key = parse_label(label)
    rs = _INTERNED.get(key)
    if rs is None:
        rs = _INTERNED[key] = RootSystem(*key)
    return rs
