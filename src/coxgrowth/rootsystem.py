"""Irreducible crystallographic root systems in simple-root coordinates.

All data lives in the simple-root basis (for roots) and the simple-coroot
basis (for coroots), so everything is integer vectors and the Cartan
matrix mediates every pairing:

    <alpha, v>          = a . (C m)   for a root with coordinates a and
                                      v = sum m_i alpha_i^vee,
    <beta, alpha_j^vee> = (C^T b)_j   for a root with coordinates b.

Generator subsets are bitmasks: bit i-1 stands for the i-th simple
reflection (generators are numbered 1..n throughout the public API).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

VALID_TYPES = "ABCDEFG"


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
# exact linear algebra on small matrices

def mat_det(c):
    n = len(c)
    m = [[Fraction(x) for x in row] for row in c]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] * inv
            if f:
                for j in range(i, n):
                    m[r][j] -= f * m[i][j]
    return det


def mat_inv(c):
    n = len(c)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(c)]
    for i in range(n):
        piv = next(r for r in range(i, n) if m[r][i] != 0)
        m[i], m[piv] = m[piv], m[i]
        inv = 1 / m[i][i]
        m[i] = [x * inv for x in m[i]]
        for r in range(n):
            if r != i and m[r][i]:
                f = m[r][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return tuple(tuple(row[n:]) for row in m)


def mat_vec(c, v):
    return tuple(sum(c[i][j] * v[j] for j in range(len(v)))
                 for i in range(len(c)))


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


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
        det = mat_det(self.cartan)
        if det <= 0:
            raise InvalidTypeError(f"Cartan matrix of {family}{rank} not finite type")
        self.det_c = int(det)
        self._cartan_inv = mat_inv(self.cartan)
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
        n = self.rank
        gens = []
        for i in range(n):
            v = tuple(self.det_c * self._cartan_inv[j][i] for j in range(n))
            if any(x.denominator != 1 for x in v):
                raise AssertionError("det * C^-1 not integral")
            v = tuple(int(x) for x in v)
            w = tuple(x // vec_gcd(v) for x in v)
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
        """Positive roots supported on the generator subset `mask`."""
        out = []
        for root, coroot in self.positive_roots:
            if all(x == 0 or (mask >> i) & 1 for i, x in enumerate(root)):
                out.append((root, coroot))
        return out

    def longest_length(self, mask):
        """l(w_J) = number of positive roots of the parabolic J."""
        return len(self.positive_roots_of(mask))

    def group_order(self, mask):
        """|W_J|: the Poincare polynomial prod (1 - t^(ht+1)) / (1 - t^ht)
        over the positive roots of J, evaluated at t = 1."""
        num = den = 1
        for root, _ in self.positive_roots_of(mask):
            num *= sum(root) + 1
            den *= sum(root)
        return num // den

    def subsets(self, mask=None):
        """All subsets of `mask` (default: all generators), ascending."""
        if mask is None:
            mask = self.full_mask
        sub = mask
        out = []
        while True:
            out.append(sub)
            if sub == 0:
                break
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

    def components(self, mask):
        """Connected components of the Coxeter graph restricted to mask."""
        nodes = [i for i in range(self.rank) if (mask >> i) & 1]
        seen = set()
        comps = []
        for start in nodes:
            if start in seen:
                continue
            comp = 0
            stack = [start]
            seen.add(start)
            while stack:
                i = stack.pop()
                comp |= 1 << i
                for j in nodes:
                    if j not in seen and self.cartan[i][j] != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(comp)
        return comps


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
