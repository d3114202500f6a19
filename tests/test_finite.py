"""Finite Weyl group tables and coset-series polynomials."""

import copy
import functools
import itertools
import json
import random
import textwrap
import time
from collections import defaultdict
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import build_label
from coxgrowth import finite
from coxgrowth.affine import get_affine
from coxgrowth.finite import (PackedBins, PolyMatrix, get_table, image_masks,
                              matrix_M, matrix_N, identity_checks_finite,
                              reduction_targets)
from coxgrowth.ratfun import IntPoly, RatFun, _unpack, pack, pack_bits
from coxgrowth.rootsystem import RootSystem
from coxgrowth.series import AffinePipeline
from test_series import _BREAK_WALK, _run_optimized, _run_python


ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12,
          "C3": 48, "D4": 192, "F4": 1152}


@pytest.fixture(scope="module")
def tables():
    return {label: get_table(build_label(label)) for label in ORDERS}


# -- BFS reference table -------------------------------------------------
# The elements of W_mask by breadth-first search over root permutations,
# each new one found by a lookup in the index of those seen: perms,
# lengths and index by element, succ[i][x], the index of x s_i, in one
# list per generator i of the mask (None for the others), and the ascent
# masks and simple-root images of each element.


class BFSTable:
    def __init__(self, rs, mask=None):
        if mask is None:
            mask = rs.full_mask
        self.rs = rs
        self.mask = mask
        self.succ = [[] if (mask >> i) & 1 else None for i in range(rs.rank)]
        gens = [(itemgetter(*perm), self.succ[i])
                for i, perm in enumerate(rs.simple_reflections())
                if (mask >> i) & 1]
        ident = tuple(range(len(rs.roots)))
        self.perms = [ident]
        self.lengths = [0]
        self.index = {ident: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for idx in frontier:
                for compose, column in gens:
                    new = compose(self.perms[idx])
                    pos = self.index.get(new)
                    if pos is None:
                        pos = len(self.perms)
                        self.perms.append(new)
                        self.lengths.append(self.lengths[idx] + 1)
                        self.index[new] = pos
                        nxt.append(pos)
                    column.append(pos)
            frontier = nxt
        self.order = len(self.perms)
        # x alpha_i > 0 when x sends alpha_i to an index below N, and
        # x^-1 alpha_i > 0 when alpha_i is among the first N entries
        n_pos, simple = len(rs.positive_roots), rs.simple_idx
        pos = {s: i for i, s in enumerate(simple)}
        self.rasc = [sum(1 << i for i, s in enumerate(simple)
                         if perm[s] < n_pos) for perm in self.perms]
        self.lasc = [sum(1 << pos[s] for s in pos.keys() & perm[:n_pos])
                     for perm in self.perms]
        self.simple_img = [tuple(pos.get(perm[s], -1) for s in simple)
                           for perm in self.perms]


@functools.lru_cache(maxsize=16)
def bfs_table(rs, mask=None):
    return BFSTable(rs, mask)


def renumbered(t, old):
    """A copy of the reference table t (a BFSTable or a MatrixTable) whose
    element w is t's element old[w]."""
    new = {o: w for w, o in enumerate(old)}
    out = copy.copy(t)
    for name, value in vars(t).items():
        if name == "index":
            out.index = {key: new[v] for key, v in value.items()}
        elif name == "succ":
            out.succ = [c and [new[c[o]] for o in old] for c in value]
        elif name == "rmult":
            out.rmult = [{i: new[y] for i, y in value[o].items()}
                         for o in old]
        elif name == "inv_idx":
            out.inv_idx = [new[value[o]] for o in old]
        elif isinstance(value, list):
            setattr(out, name, [value[o] for o in old])
    return out


@functools.lru_cache(maxsize=8)
def walk_order(aff):
    """The BFS index of each finite element of aff, in aff's walk order;
    the matrix reference numbers its elements as the BFS does."""
    t = bfs_table(aff.rs)
    assert reference_columns(reference_table(aff.rs)) == t.succ
    return tuple(t.index[p] for p in aff.perms)


@functools.lru_cache(maxsize=8)
def walk_table(aff):
    """The BFS reference of aff's finite group, numbered as aff.perms."""
    return renumbered(bfs_table(aff.rs), walk_order(aff))


def parabolic_elements(t, mask):
    """Indices of W_mask inside the full table, by closure."""
    gens = [i for i in range(t.rs.rank) if (mask >> i) & 1]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in gens:
                y = t.succ[i][x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# -- table products ------------------------------------------------------
# The package multiplies only by generators; the general product and the
# coroot action of an element are read here off the root permutations.


def mul(t, a, b):
    """Index of the product of two table elements (as maps: first apply
    b, then a)."""
    return t.index[itemgetter(*t.perms[b])(t.perms[a])]


def act_coroot(t, idx, vec):
    """w(sum_j vec_j alpha_j^vee) = sum_j vec_j (w alpha_j)^vee."""
    perm, coroots = t.perms[idx], t.rs.coroots
    cols = [coroots[perm[s]] for s in t.rs.simple_idx]
    return tuple(sum(m * col[k] for m, col in zip(vec, cols))
                 for k in range(len(vec)))


# -- table reference of the opposition involutions ----------------------
# The longest element of W_X walked up the table's successor columns along
# its ascents in X, and a subset conjugated by a table element through its
# root permutation.


def table_longest(t, mask):
    """Index of the longest element of W_mask (mask within the table)."""
    idx = 0
    while t.rasc[idx] & mask:
        asc = t.rasc[idx] & mask
        idx = t.succ[(asc & -asc).bit_length() - 1][idx]
    return idx


def table_conj(t, idx, k_mask):
    """{j : x maps alpha_k to plus or minus alpha_j, k in k_mask}, or None
    if some image is not a simple root up to sign."""
    rs = t.rs
    pos = {s: j for j, s in enumerate(rs.simple_idx)}
    out = 0
    n_pos, perm = len(rs.positive_roots), t.perms[idx]
    for i in rs.ids_of(k_mask):
        j = pos.get(perm[rs.simple_idx[i - 1]] % n_pos)
        if j is None:
            return None
        out |= 1 << j
    return out


def table_flips(t):
    """The table reference of rs.flips(X), for X within the table's
    mask."""
    rs = t.rs
    longest = {x: table_longest(t, x) for x in rs.subsets(t.mask)}
    return {x: {m: table_conj(t, w, m) for m in rs.subsets(x)}
            for x, w in longest.items()}


# -- matrix reference table --------------------------------------------
# Each element of the full group as three integer matrices: rmat acts on
# root coordinates (column j is the image of alpha_j), rinv is the rmat
# of the inverse and cmat acts on coroot coordinates.  The BFS composes
# rmats, x*s_i = x.rmat @ S_i, and visits the generators in the same
# order as BFSTable, so both number the elements alike.


def matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def matcol(m, j):
    return tuple(row[j] for row in m)


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


class MatrixTable:
    def __init__(self, rs):
        self.rs = rs
        n = rs.rank
        gens = [simple_reflection_mats(rs, i) for i in range(n)]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
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
                for i, (gen_rmat, gen_cmat) in enumerate(gens):
                    new = matmul(self.rmats[idx], gen_rmat)
                    pos = self.index.get(new)
                    if pos is None:
                        pos = len(self.rmats)
                        self.rmats.append(new)
                        self.rinvs.append(matmul(gen_rmat, self.rinvs[idx]))
                        self.cmats.append(matmul(self.cmats[idx], gen_cmat))
                        self.lengths.append(self.lengths[idx] + 1)
                        self.index[new] = pos
                        self.rmult.append(dict())
                        nxt.append(pos)
                    self.rmult[idx][i] = pos
            frontier = nxt
        self.inv_idx = [self.index[r] for r in self.rinvs]

    def mul(self, a, b):
        return self.index[matmul(self.rmats[a], self.rmats[b])]

    def act_root(self, idx, vec):
        rmat = self.rmats[idx]
        n = self.rs.rank
        return tuple(sum(rmat[k][j] * vec[j] for j in range(n))
                     for k in range(n))

    def rasc(self, idx):
        return sum(1 << i for i in range(self.rs.rank)
                   if _root_sign(matcol(self.rmats[idx], i)) > 0)

    def lasc(self, idx):
        return sum(1 << i for i in range(self.rs.rank)
                   if _root_sign(matcol(self.rinvs[idx], i)) > 0)

    def simple_img(self, idx):
        return tuple(_is_unit_col(matcol(self.rmats[idx], i))
                     for i in range(self.rs.rank))

    def conj_subset_signed(self, idx, k_mask):
        out = 0
        for i in range(self.rs.rank):
            if (k_mask >> i) & 1:
                col = matcol(self.rmats[idx], i)
                s = _root_sign(col)
                j = _is_unit_col(col if s > 0 else tuple(-x for x in col))
                if j < 0:
                    return None
                out |= 1 << j
        return out


@functools.cache
def reference_table(rs):
    """The matrix reference of the full group of rs."""
    return MatrixTable(rs)


def reference_columns(ref):
    """The reference's right multiplication as successor columns:
    column i lists the index of x s_i for each x in turn."""
    return [[r[i] for r in ref.rmult] for i in range(ref.rs.rank)]


def inversion_count(ref, idx):
    """The number of positive roots the element sends to negative roots."""
    return sum(1 for root, _ in ref.rs.positive_roots
               if _root_sign(ref.act_root(idx, root)) < 0)


class TestAgainstMatrixReference:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4", "G2"])
    def test_every_element(self, label):
        rs = build_label(label)
        t, ref = bfs_table(rs), reference_table(rs)
        n = rs.rank
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        assert t.order == len(ref.rmats)
        assert t.succ == reference_columns(ref)
        for idx in range(t.order):
            assert t.lengths[idx] == inversion_count(ref, idx)
            assert t.rasc[idx] == ref.rasc(idx)
            assert t.lasc[idx] == ref.lasc(idx)
            assert t.simple_img[idx] == ref.simple_img(idx)
            assert ([act_coroot(t, idx, e) for e in units]
                    == [matcol(ref.cmats[idx], i) for i in range(n)])
            for mask in rs.subsets():
                assert (table_conj(t, idx, mask)
                        == ref.conj_subset_signed(idx, mask))
        rng = random.Random(11)
        for _ in range(200):
            a, b = rng.randrange(t.order), rng.randrange(t.order)
            assert mul(t, a, b) == ref.mul(a, b)


def column_cases():
    """The full tables of A3, B3, D4 and F4, and every parabolic table of
    F4, as (label, mask) pairs."""
    yield from ((label, None) for label in ["A3", "B3", "D4", "F4"])
    yield from (("F4", mask) for mask in build_label("F4").subsets())


class TestSuccessorColumns:
    @pytest.mark.parametrize("label,mask", list(column_cases()))
    def test_columns_compose_the_generators(self, label, mask):
        rs = build_label(label)
        t = bfs_table(rs, mask)
        for i, perm in enumerate(rs.simple_reflections()):
            column = t.succ[i]
            if not (t.mask >> i) & 1:
                assert column is None
                continue
            assert len(column) == t.order
            compose = itemgetter(*perm)
            for x, y in enumerate(column):
                assert t.perms[y] == compose(t.perms[x])

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4"])
    def test_affine_walk_reads_the_same_lists(self, label):
        rs = build_label(label)
        aff, t = get_affine(rs), walk_table(get_affine(rs))
        for i in range(rs.rank):
            assert aff._next[i + 1] == t.succ[i]


class TestGroupTable:
    def test_orders(self, tables):
        for label, want in ORDERS.items():
            assert tables[label].order == want

    def test_length_is_inversion_count(self, tables):
        for label in ["A3", "B3", "G2"]:
            t = bfs_table(tables[label].rs)
            ref = reference_table(t.rs)
            for idx in range(t.order):
                assert t.lengths[idx] == inversion_count(ref, idx)

    def test_group_axioms_sampled(self, tables):
        t = bfs_table(tables["B3"].rs)
        inv_idx = reference_table(t.rs).inv_idx
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.randrange(t.order) for _ in range(3))
            assert mul(t, mul(t, a, b), c) == mul(t, a, mul(t, b, c))
            assert mul(t, a, inv_idx[a]) == 0
            assert mul(t, inv_idx[a], a) == 0

    def test_longest_element(self, tables):
        for label in ["A3", "B3", "G2"]:
            t = bfs_table(tables[label].rs)
            rs = t.rs
            w0 = table_longest(t, rs.full_mask)
            assert t.lengths[w0] == rs.longest_length(rs.full_mask)
            assert w0 == t.lengths.index(max(t.lengths))
            # w0 is an involution and conjugates simples to minus simples
            assert mul(t, w0, w0) == 0
            assert table_conj(t, w0, rs.full_mask) == rs.full_mask

    def test_descents_vs_length(self, tables):
        t = bfs_table(tables["B2"].rs)
        for idx in range(t.order):
            for i in range(t.rs.rank):
                longer = t.lengths[t.succ[i][idx]] > t.lengths[idx]
                assert longer == bool(((t.mask & t.rasc[idx]) >> i) & 1)

    def test_poincare_palindromic(self, tables):
        for label, t in tables.items():
            cs = t.rs.poincare(t.mask).coeffs
            assert list(cs) == list(reversed(cs))
            assert sum(cs) == t.order


def reference_longest(ref, mask):
    """The longest element of W_mask in the matrix reference: a walk up
    along ascents in mask."""
    idx = 0
    while ref.rasc(idx) & mask:
        asc = ref.rasc(idx) & mask
        idx = ref.rmult[idx][(asc & -asc).bit_length() - 1]
    return idx


FLIP_TYPES = ["A3", "B3", "D4", "F4", "G2"]


class TestFlips:
    @pytest.mark.parametrize("label", FLIP_TYPES)
    def test_against_matrix_reference(self, label):
        rs = build_label(label)
        ref = reference_table(rs)
        for x in rs.subsets():
            w = reference_longest(ref, x)
            assert rs.flips(x) == {m: ref.conj_subset_signed(w, m)
                                   for m in rs.subsets(x)}
        # the table reference agrees on every parabolic table
        for mask in rs.subsets():
            assert table_flips(bfs_table(rs, mask)) == {
                x: rs.flips(x) for x in rs.subsets(mask)}

    # the types where some eps_X is not the identity beyond rank 4: the
    # components A_m (m >= 2), D_m (m odd) and E6 are flipped
    @pytest.mark.parametrize("label", ["A4", "D5", "E6"])
    def test_against_table_reference(self, label):
        rs = build_label(label)
        flips = {x: rs.flips(x) for x in rs.subsets()}
        assert flips == table_flips(bfs_table(rs))
        assert any(flips[rs.full_mask][m] != m for m in rs.subsets())
        assert all(flips[x] is rs.flips(x) for x in rs.subsets())

    def test_walked_only_for_the_subsets_in_use(self):
        # the identity suite on W_{1,2} walks the flips of the subsets of
        # {1, 2}, and the pipeline eps_S alone as it is built
        rs = RootSystem("A", 4)
        sp = rs.mask_of([1, 2])
        identity_checks_finite(rs, sp)
        walked = {key[1] for key in rs._derived if key[0] == "flips"}
        assert walked == set(rs.subsets(sp))
        rs = RootSystem("A", 4)
        AffinePipeline(rs)
        walked = {key[1] for key in rs._derived if key[0] == "flips"}
        assert walked == {rs.full_mask}

    @pytest.mark.parametrize("label", FLIP_TYPES)
    def test_reduction_targets_against_element_products(self, label):
        rs = build_label(label)
        for mask in rs.subsets():
            t = bfs_table(rs, mask)
            want = []
            for k in rs.subsets(mask):
                for q in rs.subsets(k):
                    v = mul(t, table_longest(t, k), table_longest(t, q))
                    # w_K w_Q is the longest minimal representative of
                    # W_K / W_Q: its ascents in K are Q
                    assert t.rasc[v] & k == q
                    want.append((k, q, table_conj(t, v, q), t.lengths[v]))
            assert list(reduction_targets(rs, rs.subsets(mask))) == want


class TestBAndC:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_same_coset_bins_and_flips(self, n):
        # B_n and C_n share their Coxeter matrix and generator numbering
        # but not their roots, so their tables are built from different
        # permutations; every coset bin and every opposition involution
        # depends on the Coxeter group alone
        b, c = build_label(f"B{n}"), build_label(f"C{n}")
        assert b.cartan != c.cartan and b.roots != c.roots
        tb, tc = get_table(b), get_table(c)
        assert bfs_table(b).perms != bfs_table(c).perms
        assert tb.order == tc.order
        subs = b.subsets()
        for j in subs:
            for k in subs:
                assert tb.coset_bins(j, k) == tc.coset_bins(j, k), (j, k)
        assert tb.coset_bins(0, 0)[0][0](1) == tb.order   # every element
        assert all(b.flips(x) == c.flips(x) for x in subs)


class TestE6:
    # the degrees of the basic invariants of E6 (Humphreys, Reflection
    # Groups and Coxeter Groups, Table 3.1); W(t) = prod (1 - t^d) / (1 - t)
    DEGREES = (2, 5, 6, 8, 9, 12)

    def test_poincare_against_degrees(self):
        proc = _run_python(["-m", "coxgrowth.cli", "finite", "--type", "E6",
                            "--format", "json"], timeout=20)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        want = [1]
        for d in self.DEGREES:
            # multiply by 1 + t + ... + t^(d-1)
            want = [sum(want[max(0, k - d + 1):k + 1])
                    for k in range(len(want) + d - 1)]
        assert out["order"] == 51840 == sum(want)
        assert out["poincare"] == {"num": [str(c) for c in want],
                                   "den": ["1"]}


class TestCosetSeries:
    def test_minimal_rep_counts(self, tables):
        # W decomposes as W^J x W_J, matching orders and lengths
        for label in ["A3", "B3"]:
            t = tables[label]
            rs = t.rs
            for j in rs.subsets():
                quot = t.p_poly(0, j, 0)
                sub = rs.poincare(j)
                assert quot * sub == rs.poincare(rs.full_mask)

    def test_double_coset_rep_count(self, tables):
        # the number of double cosets, counted directly as orbits, equals
        # the number of minimal representatives
        t = tables["B2"]
        rs, ref = t.rs, bfs_table(t.rs)
        for j in rs.subsets():
            for k in rs.subsets():
                wj = parabolic_elements(ref, j)
                wk = parabolic_elements(ref, k)
                orbits = {frozenset(mul(ref, mul(ref, u, x), v)
                                    for u in wj for v in wk)
                          for x in range(t.order)}
                total = sum(t.p_poly(q, j, k)(1) for q in rs.subsets(k))
                assert len(orbits) == total

    def test_p_poly_edge_cases(self, tables):
        t = tables["A3"]
        rs = t.rs
        s = rs.full_mask
        # K = S: the only representative of W_J \ W / W is the identity
        for j in rs.subsets():
            for q in rs.subsets():
                want = IntPoly.one() if q == j else IntPoly.zero()
                assert t.p_poly(q, j, s) == want
        # J = S: delta_{Q,K}
        for k in rs.subsets():
            for q in rs.subsets(k):
                want = IntPoly.one() if q == k else IntPoly.zero()
                assert t.p_poly(q, s, k) == want
        # Q not within K vanishes
        assert t.p_poly(rs.mask_of([1]), 0, rs.mask_of([2])).is_zero()

    def test_h_poly_size_constraint(self, tables):
        t = tables["B3"]
        rs = t.rs
        for j in rs.subsets():
            for k in rs.subsets():
                for r in rs.subsets(j):
                    if bin(r).count("1") != bin(k).count("1"):
                        assert t.coset_bins(j, k)[1].get(
                            r, IntPoly.zero()).is_zero()

    def test_normalizer_at_one(self, tables):
        # |N_W(W_J)| = |W_J| * p_{J,J,J}(1), checked against a direct count
        t = tables["B3"]
        rs, ref = t.rs, bfs_table(t.rs)
        inv_idx = reference_table(rs).inv_idx
        for j in rs.subsets():
            wj = parabolic_elements(ref, j)
            count = sum(1 for x in range(t.order)
                        if {mul(ref, mul(ref, x, u), inv_idx[x])
                            for u in wj} == wj)
            assert count == len(wj) * t.p_poly(j, j, j)(1)

    def test_matrix_factorization_instance(self, tables):
        rs = build_label("A3")
        s = rs.full_mask
        packed = PackedBins(get_table(rs))
        k = rs.mask_of([1])
        kp = rs.mask_of([1, 2])
        assert (matrix_M(rs, k, s, packed)
                == matrix_M(rs, k, kp, packed) @ matrix_M(rs, kp, s, packed))
        j = rs.mask_of([2])
        jp = rs.mask_of([2, 3])
        assert (matrix_N(rs, j, s, packed)
                == matrix_N(rs, j, jp, packed) @ matrix_N(rs, jp, s, packed))


def reference_scan(t, j_mask, k_mask):
    """GroupTable._scan element by element: every element of the table is
    tested for minimality, and Q and R are found by a loop over K."""
    size = max(t.lengths) + 1
    p_bins = defaultdict(lambda: [0] * size)
    h_bins = defaultdict(lambda: [0] * size)
    for idx in range(t.order):
        if t.lasc[idx] & j_mask != j_mask:
            continue
        if t.rasc[idx] & k_mask != k_mask:
            continue
        img = t.simple_img[idx]
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
        length = t.lengths[idx]
        p_bins[q][length] += 1
        if r is not None:
            h_bins[r][length] += 1
    return ({q: IntPoly(c) for q, c in p_bins.items()},
            {r: IntPoly(c) for r, c in h_bins.items()})


class TestBucketedScan:
    @pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4", "F4"])
    def test_every_table_and_pair(self, label):
        rs = build_label(label)
        for mask in rs.subsets():
            t = get_table(rs, mask)
            for j in rs.subsets(mask):
                for k in rs.subsets(mask):
                    assert t._scan(j, k) == reference_scan(
                        bfs_table(rs, mask), j, k), (mask, j, k)
            # a J or K outside the table's mask is refused
            outside = rs.full_mask & ~mask
            for j, k in [(outside, 0), (0, outside)] if outside else []:
                with pytest.raises(ValueError, match="is not inside"):
                    t.coset_bins(j, k)

    def test_random_pairs_b5(self):
        t = get_table(build_label("B5"))
        subs, ref = t.rs.subsets(), bfs_table(t.rs)
        rng = random.Random(14)
        for _ in range(100):
            j, k = rng.choice(subs), rng.choice(subs)
            assert t._scan(j, k) == reference_scan(ref, j, k), (j, k)

    @pytest.mark.parametrize("label, images", [("D4", 58), ("F4", 45)])
    def test_image_masks_shared_per_root_system(self, label, images):
        # every table of the root system, sub-tables included, reads one
        # pair of lists per distinct simple-root image cut after its
        # mask's top generator, 2^b entries each for b that bit length;
        # a table buckets its elements as it is built
        rs = RootSystem(label[0], int(label[1:]))
        assert not any(key[0] == "images" for key in rs._derived)
        tables = [get_table(rs, mask) for mask in rs.subsets()]
        keys = {key for key in rs._derived if key[0] == "images"}
        assert keys == {("images", img[:t.mask.bit_length()])
                        for t in tables
                        for img in bfs_table(rs, t.mask).simple_img}
        assert len(keys) == images
        for t in tables:
            cut = t.mask.bit_length()
            ref = bfs_table(rs, t.mask)
            for idx in range(0, t.order, 7):
                img = ref.simple_img[idx][:cut]
                lists = image_masks(rs, img)
                assert lists is rs._derived["images", img]
                assert [len(x) for x in lists] == [1 << cut] * 2
            # each bucket entry holds the kept lists of its image
            kept = {id(rs._derived[key][0]) for key in keys}
            assert all(id(q_of) in kept and len(r_of) == 1 << cut
                       for _, _, bucket in t._buckets
                       for q_of, r_of, _ in bucket)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_image_masks_brute_force(self, n):
        # every injective partial image of n simple roots, -1 for none
        rs = RootSystem("A", n)
        count = 0
        for img in itertools.product(range(-1, n), repeat=n):
            hit = [j for j in img if j >= 0]
            if len(hit) != len(set(hit)):
                continue
            count += 1
            q_of, r_of = image_masks(rs, img)
            assert len(q_of) == len(r_of) == 1 << n
            for m in range(1 << n):
                members = [i for i in range(n) if (m >> i) & 1]
                assert q_of[m] == sum(1 << i for i in range(n)
                                      if img[i] >= 0 and (m >> img[i]) & 1)
                want = (-1 if any(img[i] < 0 for i in members)
                        else sum(1 << img[i] for i in members))
                assert r_of[m] == want, (img, m)
        # sum over k of C(n, k)^2 k! images
        assert count == {1: 2, 2: 7, 3: 34, 4: 209}[n]


def reference_matmul(a, b):
    """The product entry by entry, each sum built from schoolbook
    products: the reference for the PolyMatrix product of packed
    matrices."""
    out = []
    for i in range(len(a.rows)):
        row = []
        for j in range(len(b.cols)):
            acc = a.entries[i][0] * b.entries[0][j]
            for k in range(1, len(a.cols)):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return PolyMatrix(a.rows, b.cols, out)


@st.composite
def poly_matrices(draw):
    """Two IntPoly matrices that can be multiplied, with entries of mixed
    sign, zero entries and coefficients up to 2^40."""
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    entries = st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=7).map(
        IntPoly)

    def matrix(rows, cols):
        return PolyMatrix(range(rows), range(cols),
                          [[draw(entries) for _ in range(cols)]
                           for _ in range(rows)])
    return matrix(n, m), matrix(m, p)


def packed_matrix(m, bits):
    return PolyMatrix(m.rows, m.cols, [[pack(e, bits) for e in row]
                                       for row in m.entries])


def unpacked_matrix(m, bits):
    return PolyMatrix(m.rows, m.cols, [[_unpack(e, bits) for e in row]
                                       for row in m.entries])


class TestPackedMatmul:
    # the product of packed matrices against the schoolbook product packed
    # at the same width, and read back: equal packed values are equal
    # polynomials only when the width holds every coefficient
    @pytest.mark.parametrize("label", ["B3", "D4", "F4"])
    def test_every_chain(self, label):
        rs = build_label(label)
        s = rs.full_mask
        packed = PackedBins(get_table(rs))
        for build in (matrix_M, matrix_N):
            for k in rs.subsets():
                for kp in rs.subsets():
                    if k & ~kp:
                        continue
                    prod = build(rs, k, kp, packed) @ build(rs, kp, s, packed)
                    want = reference_matmul(build(rs, k, kp),
                                            build(rs, kp, s))
                    assert prod == packed_matrix(want, packed.bits)
                    assert unpacked_matrix(prod, packed.bits) == want

    @given(poly_matrices())
    @settings(max_examples=150, deadline=None)
    def test_random(self, ab):
        a, b = ab
        # inner dimension times the largest coefficient squared times 7,
        # the longest entry the strategy draws
        entries = [e for m in ab for row in m.entries for e in row]
        bits = pack_bits(len(b.rows) * max(max(map(abs, e), default=0)
                                          for e in entries) ** 2 * 7)
        prod = packed_matrix(a, bits) @ packed_matrix(b, bits)
        want = reference_matmul(a, b)
        assert prod == packed_matrix(want, bits)
        assert unpacked_matrix(prod, bits) == want

    def test_tight(self):
        # bins at the suite's range check, every coefficient |W| up to
        # t^l(w_0), over all 2^n columns: the middle coefficient of the
        # product reaches the bound that sets the suite's slot width
        for label, sign in [("B3", 1), ("B3", -1), ("F4", 1), ("F4", -1)]:
            rs = build_label(label)
            table = get_table(rs)
            packed = PackedBins(table)
            size = max(bfs_table(rs).lengths) + 1
            cols = rs.subsets()
            # the sign -1 reaches the negative end of the signed range
            a = PolyMatrix([0], cols,
                           [[IntPoly([table.order] * size)] * len(cols)])
            b = PolyMatrix(cols, [0],
                           [[IntPoly([sign * table.order] * size)]]
                           * len(cols))
            prod = packed_matrix(a, packed.bits) @ packed_matrix(
                b, packed.bits)
            want = reference_matmul(a, b)
            assert want.entries[0][0][size - 1] == (
                sign * len(cols) * size * table.order ** 2)
            assert prod == packed_matrix(want, packed.bits)
            assert unpacked_matrix(prod, packed.bits) == want


class TestIdentitySuite:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_all_pass(self, label):
        rs = build_label(label)
        for name, ok, detail in identity_checks_finite(rs):
            assert ok, f"{label} {name}: {detail}"

    def test_each_bin_packed_once(self, monkeypatch):
        packed = []

        def record(poly, bits):
            packed.append(poly)
            return pack(poly, bits)

        monkeypatch.setattr(finite, "pack", record)
        assert all(ok for _, ok, _ in identity_checks_finite(
            build_label("D4")))
        ids = [id(poly) for poly in packed]
        assert ids and len(ids) == len(set(ids))


# Runs `growth finite --type D4 --what check` with one bin of the full
# table's (J, K) scan corrupted: SIDE is "p" or "h", J, K and BIN are
# generator ids, and each (position, plain, carry) in DELTAS adds
# plain + carry * 2^B to a coefficient, B the suite's slot width.  Exit
# codes: those of the command, or 3 if asserts were not stripped.
_BIN_FAULT_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.cli import main
    from coxgrowth.finite import GroupTable, PackedBins, get_table
    from coxgrowth.ratfun import IntPoly
    from coxgrowth.rootsystem import build_label
    if __debug__:
        sys.exit(3)
    SIDE, J, K, BIN, DELTAS = ARGS
    rs = build_label("D4")
    bits = PackedBins(get_table(rs)).bits
    key = (rs.full_mask, rs.mask_of(J), rs.mask_of(K))
    scan = GroupTable._scan

    def corrupt(self, j_mask, k_mask):
        bins = scan(self, j_mask, k_mask)
        if (self.mask, j_mask, k_mask) == key:
            side = bins["ph".index(SIDE)]
            coeffs = list(side[rs.mask_of(BIN)].coeffs)
            for pos, plain, carry in DELTAS:
                coeffs[pos] += plain + (carry << bits)
            side[rs.mask_of(BIN)] = IntPoly(coeffs)
        return bins

    GroupTable._scan = corrupt
    sys.exit(main(["finite", "--type", "D4", "--what", "check"]))
""")


def _run_bin_fault(*args):
    return _run_python(["-O", "-c", _BIN_FAULT_SCRIPT.replace(
        "ARGS", repr(args))])


# one coefficient off by 1 in a p or an h bin: the report of each case,
# as recorded before the suite was packed
_OFF_BY_ONE = [
    (("p", [], [], [], [(3, 1, 0)]),
     ["FAIL parabolic-quotient: W_J * W^J != W for J=[]",
      "FAIL pKJK-partition: J=[], K=[]",
      "FAIL p-alternating-reduction: Q=[], J=[], K=[1]",
      "PASS h-alternating-reduction",
      "FAIL M-factorization: M chain K=[] K'=[1]",
      "PASS N-factorization"]),
    (("p", [2], [1, 2], [1], [(2, 1, 0)]),
     ["PASS parabolic-quotient",
      "PASS pKJK-partition",
      "FAIL p-alternating-reduction: Q=[], J=[2], K=[1, 2]",
      "PASS h-alternating-reduction",
      "FAIL M-factorization: M chain K=[] K'=[1, 2]",
      "PASS N-factorization"]),
    (("h", [1, 2], [1], [1], [(1, 1, 0)]),
     ["PASS parabolic-quotient",
      "FAIL pKJK-partition: J=[1, 2], K=[1]",
      "PASS p-alternating-reduction",
      "FAIL h-alternating-reduction: R=[1], J=[1, 2], K=[1]",
      "PASS M-factorization",
      "FAIL N-factorization: N chain J=[1] J'=[1, 2]"]),
    (("p", [1, 2], [3], [3], [(0, 1, 0)]),
     ["PASS parabolic-quotient",
      "FAIL pKJK-partition: J=[1, 2], K=[3]",
      "FAIL p-alternating-reduction: Q=[], J=[1, 2], K=[3]",
      "PASS h-alternating-reduction",
      "FAIL M-factorization: M chain K=[] K'=[3]",
      "PASS N-factorization"]),
    (("h", [1, 2, 3, 4], [1, 3], [1, 3], [(0, 1, 0)]),
     ["PASS parabolic-quotient",
      "FAIL pKJK-partition: J=[1, 2, 3, 4], K=[1, 3]",
      "PASS p-alternating-reduction",
      "FAIL h-alternating-reduction: R=[1, 3], J=[1, 2, 3, 4], K=[1, 3]",
      "PASS M-factorization",
      "FAIL N-factorization: N chain J=[1, 3] J'=[1, 2, 3, 4]"]),
]


class TestPackedSuiteFaults:
    @pytest.mark.parametrize("args, report", _OFF_BY_ONE,
                             ids=[str(i) for i in range(len(_OFF_BY_ONE))])
    def test_off_by_one_bin_fails(self, args, report):
        proc = _run_bin_fault(*args)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == ["PASS alternating-sum", *report]

    def test_bin_past_the_width_raises(self):
        # t^1 gains 2^B and t^2 loses 1: the packed bin is unchanged, so
        # only the range check tells it from the true one
        proc = _run_bin_fault("p", [1], [2], [], [(1, 0, 1), (2, -1, 0)])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert ("of the table [1, 2, 3, 4], J=[1], K=[2] has a coefficient "
                "outside [0, 192]" in proc.stderr)


# Breaks each check of the finite tables, of their closed form and of the
# walk of the flips that the identity suite reads in turn, on a fresh A2
# root system, and requires it to raise.  Exit codes: 0 all raised, 1 some
# did not raise, 3 asserts were not stripped.
_CHECKS_SCRIPT = _BREAK_WALK + textwrap.dedent("""
    import sys
    from coxgrowth import finite
    from coxgrowth.finite import (GroupTable, PolyMatrix, get_table,
                                  identity_checks_finite)
    from coxgrowth.ratfun import IntPoly
    from coxgrowth.rootsystem import RootSystem, exponents
    if __debug__:
        sys.exit(3)
    raised = 0

    def expect(name, call):
        global raised
        try:
            call()
        except AssertionError as exc:
            raised += 1
            print(f"{name}: {exc}")
        else:
            print(f"{name}: no error")

    # A2 has W(t) = 1 + 2t + 2t^2 + t^3
    rs = RootSystem("A", 2)
    rs.poincare = lambda mask: IntPoly((1, 2, 3, 1))
    expect("coefficient", lambda: GroupTable(rs))
    rs = RootSystem("A", 2)
    rs.poincare = lambda mask: IntPoly((1, 2, 1, 1, 1))
    expect("degree", lambda: GroupTable(rs))
    expect("exponents", lambda: exponents([1, 3]))

    rs = RootSystem("A", 2)
    m = PolyMatrix([0], [0, rs.mask_of([1])], [[1, 1]])
    expect("matmul", lambda: m @ m)
    get_table(rs)

    # no flips walked yet, so the suites walk them with the fault
    break_walk(rs, "image")
    expect("p-conj", lambda: identity_checks_finite(rs))
    run_checks = finite.run_checks
    finite.run_checks = lambda checks: run_checks(
        [c for c in checks if c[0] != "p-alternating-reduction"])
    break_walk(rs, "steps")
    expect("h-conj", lambda: identity_checks_finite(rs))
    sys.exit(0 if raised == 6 else 1)
""")


# Builds every A2 table against the true closed form, then gives W_{1}
# the non-divisor 1 + 2t in place of 1 + t and runs `growth finite
# --what check`.  Exit codes: those of the command, or 3 if asserts were
# not stripped.
_SOLOMON_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.cli import main
    from coxgrowth.finite import get_table
    from coxgrowth.ratfun import IntPoly
    from coxgrowth.rootsystem import build_label
    if __debug__:
        sys.exit(3)
    rs = build_label("A2")
    for mask in rs.subsets():
        get_table(rs, mask)
    poincare, one = rs.poincare, rs.mask_of([1])
    rs.poincare = lambda mask: (IntPoly((1, 2)) if mask == one
                                else poincare(mask))
    sys.exit(main(["finite", "--type", "A2", "--what", "check"]))
""")


# Breaks the walk of the flips of a fresh A2 root system with FAULT (see
# break_walk) and requires walking them to raise.  Exit codes: 0 raised,
# 1 did not raise, 3 asserts were not stripped.
_FLIP_SCRIPT = _BREAK_WALK + textwrap.dedent("""
    import sys
    from coxgrowth.rootsystem import RootSystem
    if __debug__:
        sys.exit(3)
    rs = RootSystem("A", 2)
    break_walk(rs, FAULT)
    try:
        for x in rs.subsets():
            rs.flips(x)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Gives generator 2 of a fresh A2 root system the root permutation FAULT
# in place of s_2 and requires the walk of W to raise.  Exit codes: 0
# raised, 1 did not raise, 3 asserts were not stripped.
_WALK_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.finite import walk
    from coxgrowth.rootsystem import RootSystem
    if __debug__:
        sys.exit(3)
    rs = RootSystem("A", 2)
    s1, _ = rs.simple_reflections()
    rs._derived["simple_reflections"] = (s1, FAULT)
    try:
        for _ in walk(rs, rs.full_mask):
            pass
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestWalk:
    @pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2",
                                       "E6"])
    def test_yields_each_reference_element_once(self, label):
        # every parabolic, and the full group alone for E6
        rs = build_label(label)
        for mask in [rs.full_mask] if label == "E6" else rs.subsets():
            ref = BFSTable(rs, mask)
            got = list(finite.walk(rs, mask))
            assert got[0] == (ref.perms[0], 0)
            assert len(got) == len({p for p, _ in got}) == ref.order
            assert all(ref.lengths[ref.index[p]] == l for p, l in got)

    def test_overcount_raises_at_the_first_level_over(self):
        # with s_2 the identity, the identity is its own child at every
        # level, and the walk never ends; A2 has W(t) = 1 + 2t + 2t^2 + t^3
        t0 = time.monotonic()
        out = _run_optimized(_WALK_SCRIPT.replace(
            "FAULT", "tuple(range(len(rs.roots)))"))
        assert time.monotonic() - t0 < 10
        assert out == ("walk level 3 has 2 elements, over the closed form "
                       "1 + 2*t + 2*t^2 + t^3\n")

    def test_undercount_raises_at_the_end(self):
        # with s_2 the reflection in the highest root, every child of s_1
        # has the descent 1 below its last step, and the walk stops at s_1
        out = _run_optimized(_WALK_SCRIPT.replace("FAULT", (
            "rs.reflection(rs.highest_root, rs.highest_root_coroot)")))
        assert out == ("walk length histogram [1, 1] is not the closed form "
                       "1 + 2*t + 2*t^2 + t^3\n")


class TestExplicitChecks:
    def test_inexact_solomon_quotient_fails_the_check(self):
        proc = _run_python(["-O", "-c", _SOLOMON_SCRIPT])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.startswith("FAIL alternating-sum") for line in lines)
        assert "PASS pKJK-partition" in lines

    def test_checks_raise_under_optimize(self):
        out = _run_optimized(_CHECKS_SCRIPT)
        assert ("coefficient: walk length histogram [1, 2, 2, 1] is not the "
                "closed form 1 + 2*t + 3*t^2 + t^3" in out)
        assert ("degree: walk level 2 has 2 elements, over the closed form "
                "1 + 2*t + t^2 + t^3 + t^4" in out)
        assert "exponents: 1 roots of height 3 but 0 of height 2" in out
        assert "matmul: matrix product: columns and rows differ" in out
        assert ("p-conj: w_X does not send the simple roots of X=[1] onto "
                "minus simple roots of X" in out)
        assert ("h-conj: the walk to w_X for X=[2] stopped after 2 steps, "
                "not 1" in out)

    def test_flip_outside_its_parabolic_raises_under_optimize(self):
        out = _run_optimized(_FLIP_SCRIPT.replace("FAULT", '"image"'))
        assert ("w_X does not send the simple roots of X=[1] onto minus "
                "simple roots of X" in out)

    def test_walk_past_the_longest_length_raises_under_optimize(self):
        out = _run_optimized(_FLIP_SCRIPT.replace("FAULT", '"steps"'))
        assert ("the walk to w_X for X=[2] stopped after 2 steps, not 1"
                in out)
