"""Affine Weyl groups as (finite part, coroot translation) pairs.

An element x = (w, v) is the affine map p -> w(p + v) on coroot space,
with w in the finite Weyl group and v in the coroot lattice; v is stored
by its simple-coroot coordinate vector m.  Conventions:

    product:   (w1, v1)(w2, v2) = (w1 w2, v2 + w2^-1 v1)
    inverse:   (w, v)^-1 = (w^-1, -w v)
    length:    sum over positive roots beta of |<beta, v> + chi(w beta)|
               where chi is the indicator of negative roots
    action on an affine root (alpha, k):  (w alpha, k - <alpha, v>)

The action convention is the one under which a generator s_a lengthens x
on the right exactly when x sends the simple affine root a to a positive
affine root; this duality is asserted in the tests against BFS depths.

Generators are numbered 1..n for the finite simple reflections and 0 for
the extra affine reflection, whose (w, v) pair is (reflection in the
highest root, minus the highest coroot).
"""

from __future__ import annotations

from .ratfun import IntPoly
from . import rootsystem
from .finite import get_table, matmul, matcol, _root_sign, _is_unit_col, \
    reflection_mats

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
        at_rmat, at_cmat = reflection_mats(
            rs, rs.highest_root, rs.highest_root_coroot)
        self.at_idx = self.table.index[at_rmat]
        assert self.table.cmats[self.at_idx] == at_cmat
        # gens[g] = (finite index, translation coords); g = 0 is affine
        self.gens = {0: (self.at_idx,
                         tuple(-c for c in rs.highest_root_coroot))}
        for i in range(n):
            self.gens[i + 1] = (self.table.index[self.table.gen_rmat[i]],
                                (0,) * n)
        # right multiplication of a finite index by the highest-root
        # reflection, precomputed once
        self._rmul_at = [self.table.mul(idx, self.at_idx)
                         for idx in range(self.table.order)]
        self._pos_roots = [root for root, _ in rs.positive_roots]

    # -- core group operations -----------------------------------------

    def identity(self):
        return (0, (0,) * self.n)

    def mul(self, x, y):
        (w1, m1), (w2, m2) = x, y
        w2i = self.table.inv_idx[w2]
        m1r = self.table.act_coroot(w2i, m1)
        return (self.table.mul(w1, w2), tuple(a + b for a, b in zip(m2, m1r)))

    def inv(self, x):
        w, m = x
        return (self.table.inv_idx[w],
                tuple(-c for c in self.table.act_coroot(w, m)))

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

    def translation(self, m):
        return (0, tuple(m))

    def length(self, x):
        w, m = x
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        chi = self.table.chi_table(w)
        total = 0
        for r, root in enumerate(self._pos_roots):
            pairing = sum(a * b for a, b in zip(root, cm))
            total += abs(pairing + chi[r])
        return total

    # -- affine roots ---------------------------------------------------

    def simple_affine_roots(self):
        """Generator id -> (root coords, level); id 0 is (-highest, 1)."""
        n = self.n
        out = {0: (tuple(-a for a in self.rs.highest_root), 1)}
        for i in range(n):
            out[i + 1] = (tuple(int(j == i) for j in range(n)), 0)
        return out

    def act_affine_root(self, x, a):
        """x . (alpha, k) = (w alpha, k - <alpha, v>)."""
        w, m = x
        root, level = a
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        pairing = sum(p * q for p, q in zip(root, cm))
        return (self.table.act_root(w, root), level - pairing)

    def is_positive(self, a):
        root, level = a
        s = _root_sign(root)
        assert s != 0
        return affine_root_positive(s, level)

    def inversion_set(self, x):
        """Positive affine roots sent to negative ones by x."""
        w, m = x
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        out = []
        for r, root in enumerate(self._pos_roots):
            pairing = sum(a * b for a, b in zip(root, cm))
            chi_pos = self.table.chi_table(w)[r]
            # (root, k) for k >= 0: image level k - pairing, image sign
            # given by chi of w.root; negative iff level < chi threshold
            bound = abs(pairing + chi_pos) + 1
            for k in range(bound + 1):
                img = self.act_affine_root(x, (root, k))
                if not self.is_positive(img):
                    out.append((root, k))
            neg = tuple(-a for a in root)
            chi_neg = 1 - chi_pos
            bound = abs(-pairing + chi_neg) + 1
            for k in range(1, bound + 2):
                img = self.act_affine_root(x, (neg, k))
                if not self.is_positive(img):
                    out.append((neg, k))
        assert len(out) == self.length(x)
        return out

    # -- enumeration ----------------------------------------------------

    def bfs_enumerate(self, max_length):
        """All elements with length <= max_length, with BFS depth asserted
        equal to the closed-form length."""
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
                    ly = self.length(y)
                    assert ly == depth, (
                        f"BFS depth {depth} != closed-form length {ly}")
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
        assert len(gen_ids) <= self.n, "proper subsets only"
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
                    assert self.length(y) == depth
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

    def classify(self, x, j_mask, k_mask):
        """(is_min_rep, Q) for the double coset indexed by finite-generator
        subsets: minimal iff every listed generator lengthens x on the
        matching side; Q collects k in K with x . (alpha_k, 0) = (alpha_j, 0)
        for some j in J."""
        w, m = x
        n = self.n
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        wm = self.table.act_coroot(w, m)
        cwm = rootsystem.mat_vec(self.rs.cartan, wm)
        rmat = self.table.rmats[w]
        rinv = self.table.rinvs[w]

        k = k_mask
        while k:
            i = (k & -k).bit_length() - 1
            # x . (alpha_i, 0) = (w alpha_i, -<alpha_i, v>)
            if not affine_root_positive(_root_sign(matcol(rmat, i)), -cm[i]):
                return False, None
            k &= k - 1
        j = j_mask
        while j:
            i = (j & -j).bit_length() - 1
            # x^-1 . (alpha_i, 0) = (w^-1 alpha_i, <alpha_i, w v>)
            if not affine_root_positive(_root_sign(matcol(rinv, i)), cwm[i]):
                return False, None
            j &= j - 1

        q = 0
        k = k_mask
        while k:
            i = (k & -k).bit_length() - 1
            if cm[i] == 0:
                jj = _is_unit_col(matcol(rmat, i))
                if jj >= 0 and (j_mask >> jj) & 1:
                    q |= 1 << i
            k &= k - 1
        return True, q

    def normalizes(self, x, j_mask):
        """Whether x W_J x^-1 = W_J: each alpha_j must go to (beta, 0)
        with beta (of either sign) supported on J."""
        w, m = x
        cm = rootsystem.mat_vec(self.rs.cartan, m)
        rmat = self.table.rmats[w]
        j = j_mask
        while j:
            i = (j & -j).bit_length() - 1
            if cm[i] != 0:
                return False
            col = matcol(rmat, i)
            if any(x_ and not (j_mask >> pos) & 1
                   for pos, x_ in enumerate(col)):
                return False
            j &= j - 1
        return True

    # -- truncated ground-truth series ----------------------------------

    def oracle_series(self, j_mask, k_mask, max_length, elements=None):
        """Bins t^l(x) of minimal double-coset representatives by Q.
        Returns (dict Q -> coefficient list, total list)."""
        if elements is None:
            elements, _ = self.bfs_enumerate(max_length)
        bins = {}
        total = [0] * (max_length + 1)
        for x in elements:
            ok, q = self.classify(x, j_mask, k_mask)
            if not ok:
                continue
            l = self.length(x)
            if l > max_length:
                continue
            bins.setdefault(q, [0] * (max_length + 1))[l] += 1
            total[l] += 1
        return bins, total

    def normalizer_counts(self, j_mask, max_length, elements=None):
        """Truncated growth count of the full normalizer of W_J."""
        if elements is None:
            elements, _ = self.bfs_enumerate(max_length)
        counts = [0] * (max_length + 1)
        for x in elements:
            l = self.length(x)
            if l <= max_length and self.normalizes(x, j_mask):
                counts[l] += 1
        return counts


def get_affine(rs):
    return rs.cached("affine", lambda: AffineWeyl(rs))
