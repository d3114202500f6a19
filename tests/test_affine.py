"""Affine Weyl group arithmetic, lengths and classification."""

import functools
import random
import textwrap
from collections import defaultdict
from itertools import chain, repeat, starmap
from operator import itemgetter

import pytest

from coxgrowth import build_label, rootsystem
from coxgrowth.affine import (coset_pattern, get_affine, normalizes,
                              parabolic_poincare)
from coxgrowth.ratfun import IntPoly
from test_finite import (_is_unit_col, _root_sign, act_coroot, matcol,
                         mul as table_mul, reference_table, renumbered,
                         walk_order, walk_table)
from test_series import _run_optimized


@pytest.fixture(scope="module")
def a2():
    return get_affine(build_label("A2"))


@pytest.fixture(scope="module")
def b2():
    return get_affine(build_label("B2"))


# -- reference group operations, affine roots and inversion sets ---------


@functools.lru_cache(maxsize=8)
def reference(aff):
    """The matrix reference of aff's finite group, numbered as aff.perms."""
    return renumbered(reference_table(aff.rs), walk_order(aff))


def mul(aff, x, y):
    (w1, m1), (w2, m2) = x, y
    w2i = reference(aff).inv_idx[w2]
    m1r = act_coroot(walk_table(aff), w2i, m1)
    return (table_mul(walk_table(aff), w1, w2),
            tuple(a + b for a, b in zip(m2, m1r)))


def inv(aff, x):
    w, m = x
    return (reference(aff).inv_idx[w],
            tuple(-c for c in act_coroot(walk_table(aff), w, m)))


def theta_index(aff):
    """The index of s_theta, theta the highest root, in the matrix
    reference: column j of its matrix on root coordinates is
    alpha_j - <alpha_j, theta^vee> theta."""
    rs, n = aff.rs, aff.n
    # <alpha_j, theta^vee>
    pair = rootsystem.mat_vec(rs.cartan, rs.highest_root_coroot)
    rmat = tuple(tuple(int(k == j) - pair[j] * rs.highest_root[k]
                       for j in range(n)) for k in range(n))
    return reference(aff).index[rmat]


def generators(aff):
    """Generator id -> (w, m): s_0 = (s_theta, -theta^vee) and
    s_i = (s_i, 0), each finite part from the matrix reference."""
    rs, n = aff.rs, aff.n
    gens = {0: (theta_index(aff), tuple(-c for c in rs.highest_root_coroot))}
    for i in range(n):
        gens[i + 1] = (reference(aff).rmult[0][i], (0,) * n)
    return gens


def affine_root_positive(root_sign, level):
    """Positivity of (alpha, k) given the sign of alpha and the level."""
    return level >= (0 if root_sign > 0 else 1)


def translation(m):
    return (0, tuple(m))


def simple_affine_roots(aff):
    """Generator id -> (root coords, level); id 0 is (-highest, 1)."""
    n = aff.n
    out = {0: (tuple(-a for a in aff.rs.highest_root), 1)}
    for i in range(n):
        out[i + 1] = (tuple(int(j == i) for j in range(n)), 0)
    return out


def act_affine_root(aff, x, a):
    """x . (alpha, k) = (w alpha, k - <alpha, v>)."""
    w, m = x
    root, level = a
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    pairing = sum(p * q for p, q in zip(root, cm))
    return (reference(aff).act_root(w, root), level - pairing)


def is_positive(a):
    root, level = a
    s = _root_sign(root)
    if s == 0:
        raise AssertionError(f"{root} is not a root")
    return affine_root_positive(s, level)


def inversion_set(aff, x):
    """Positive affine roots sent to negative ones by x; its size is
    checked against the closed-form length."""
    w, m = x
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    out = []
    for r, (root, _) in enumerate(aff.rs.positive_roots):
        pairing = sum(a * b for a, b in zip(root, cm))
        chi_pos = int(_root_sign(reference(aff).act_root(w, root)) < 0)
        # (root, k) for k >= 0: image level k - pairing, image sign
        # given by chi of w.root; negative iff level < chi threshold
        bound = abs(pairing + chi_pos) + 1
        for k in range(bound + 1):
            img = act_affine_root(aff, x, (root, k))
            if not is_positive(img):
                out.append((root, k))
        neg = tuple(-a for a in root)
        chi_neg = 1 - chi_pos
        bound = abs(-pairing + chi_neg) + 1
        for k in range(1, bound + 2):
            img = act_affine_root(aff, x, (neg, k))
            if not is_positive(img):
                out.append((neg, k))
    if len(out) != aff.length(x):
        raise AssertionError(f"{len(out)} inversions != length of {x}")
    return out


def closure_poincare(aff, gen_ids):
    """Poincare polynomial of the subgroup generated by gen_ids, by BFS
    closure with every depth checked against the closed-form length."""
    start = aff.identity()
    seen = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gen_ids:
                y = aff.mul_gen(x, g)
                if y not in seen:
                    seen[y] = seen[x] + 1
                    assert aff.length(y) == seen[y], y
                    nxt.append(y)
        frontier = nxt
    coeffs = [0] * (max(seen.values()) + 1)
    for l in seen.values():
        coeffs[l] += 1
    return IntPoly(coeffs)


def depths_of(order, sizes):
    """{element: length} of a walk's (order, sizes): the first sizes[0]
    elements have length 0, the next sizes[1] length 1, and so on."""
    return dict(zip(order, chain.from_iterable(starmap(repeat,
                                                       enumerate(sizes)))))


def reference_bfs(aff, max_length):
    """bfs_enumerate by generator products: (elements in BFS order,
    {element: depth}), each element found by mul_gen, told apart from
    the others by (w, m) over the whole ball, and checked against the
    closed-form length."""
    start = aff.identity()
    seen = {start: 0}
    order = [start]
    frontier = [start]
    for depth in range(1, max_length + 1):
        nxt = []
        for x in frontier:
            for g in range(aff.n + 1):
                y = aff.mul_gen(x, g)
                if y not in seen:
                    assert aff.length(y) == depth, y
                    seen[y] = depth
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order, seen


def reference_walk(aff, max_length):
    """The elements up to max_length in the order of the lowest-descent
    walk, by mul_gen and the closed-form length alone: level by level, for
    each x and each generator g from 0 up, y = x s_g is kept when it is
    longer than x and no lower generator shortens it."""
    level = [aff.identity()]
    order = list(level)
    for depth in range(1, max_length + 1):
        nxt = []
        for x in level:
            for g in range(aff.n + 1):
                y = aff.mul_gen(x, g)
                if aff.length(y) == depth and all(
                        aff.length(aff.mul_gen(y, h)) > depth
                        for h in range(g)):
                    nxt.append(y)
        order += nxt
        level = nxt
    return order


def random_element(aff, rng, nsteps=12):
    x = aff.identity()
    for _ in range(rng.randrange(nsteps)):
        x = aff.mul_gen(x, rng.randrange(aff.n + 1))
    return x


class TestGroupStructure:
    def test_generators_are_involutions(self, a2, b2):
        for aff in (a2, b2):
            for g, gen in generators(aff).items():
                s = aff.mul_gen(aff.identity(), g)
                assert s == gen
                assert mul(aff, s, s) == aff.identity()
                assert aff.length(s) == 1

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3", "D4",
                                       "F4"])
    def test_affine_column_composes_s_theta(self, label):
        # the walk's column for generator 0 lists the index of w s_theta
        # for each finite w, s_theta found in the matrix reference
        aff = get_affine(build_label(label))
        t, at = walk_table(aff), theta_index(aff)
        assert aff._next[0] == [table_mul(t, w, at)
                                for w in range(t.order)]
        assert aff._next[0] == [reference(aff).mul(w, at)
                                for w in range(t.order)]

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3", "D4",
                                       "F4"])
    def test_next_composes_the_generators(self, label):
        # perms[_next[g][w]] is perms[w] composed with s_g, each s_g from
        # the matrix reference
        aff = get_affine(build_label(label))
        assert aff.perms[0] == tuple(range(len(aff.rs.roots)))
        for g, (s, _) in generators(aff).items():
            compose = itemgetter(*walk_table(aff).perms[s])
            assert [aff.perms[y] for y in aff._next[g]] == [
                compose(p) for p in aff.perms]

    def test_axioms_sampled(self, a2, b2):
        rng = random.Random(3)
        for aff in (a2, b2):
            for _ in range(150):
                x = random_element(aff, rng)
                y = random_element(aff, rng)
                z = random_element(aff, rng)
                assert (mul(aff, mul(aff, x, y), z)
                        == mul(aff, x, mul(aff, y, z)))
                assert mul(aff, x, inv(aff, x)) == aff.identity()
                assert aff.length(inv(aff, x)) == aff.length(x)

    def test_translation_subgroup(self, a2):
        t1 = translation((1, 0))
        t2 = translation((0, 1))
        assert mul(a2, t1, t2) == translation((1, 1))
        assert inv(a2, t1) == translation((-1, 0))

    def test_dominant_translation_length(self, a2, b2):
        # l(t_v) = <2 rho, v> for dominant v
        for aff in (a2, b2):
            rs = aff.rs
            for m in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)]:
                cm = [sum(rs.cartan[i][j] * m[j] for j in range(2))
                      for i in range(2)]
                if any(c < 0 for c in cm):
                    continue
                assert aff.length(translation(m)) == rs.two_rho_weight(m)


class TestLengthCoherence:
    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
    def test_bfs_depth_inversions_formula(self, label):
        aff = get_affine(build_label(label))
        # bfs_enumerate asserts depth == closed formula per element;
        # inversion_set asserts its size == closed formula
        elements, sizes = aff.bfs_enumerate(6)
        depths = depths_of(elements, sizes)
        for x in elements:
            assert len(inversion_set(aff, x)) == depths[x]

    @pytest.mark.parametrize("label", ["A2", "G2"])
    def test_descent_root_duality(self, label):
        aff = get_affine(build_label(label))
        elements, _ = aff.bfs_enumerate(5)
        simple = simple_affine_roots(aff)
        for x in elements:
            lx = aff.length(x)
            xi = inv(aff, x)
            for g, a in simple.items():
                right_longer = aff.length(aff.mul_gen(x, g)) > lx
                assert right_longer == is_positive(act_affine_root(aff, x, a))
                s = aff.mul_gen(aff.identity(), g)
                left_longer = aff.length(mul(aff, s, x)) > lx
                assert left_longer == is_positive(
                    act_affine_root(aff, xi, a))


class TestWalk:
    @pytest.mark.parametrize("label, max_length",
                             [("A1", 40), ("A2", 14), ("B2", 14), ("G2", 20),
                              ("A3", 8), ("C3", 7), ("D4", 5)])
    def test_matches_the_product_walk(self, label, max_length):
        # the root-pairing walk finds the elements of the product walk at
        # the same depths, in the order of the lowest-descent rule applied
        # through mul_gen and the closed-form length
        aff = get_affine(build_label(label))
        order, sizes = aff.bfs_enumerate(max_length)
        seen = depths_of(order, sizes)
        assert seen == reference_bfs(aff, max_length)[1]
        assert order == reference_walk(aff, max_length)


class TestClassification:
    def test_classify_matches_definition(self, a2):
        # minimality by the root test agrees with the definitional test
        # via generator multiplication
        rs = a2.rs
        elements, _ = a2.bfs_enumerate(6)
        for j in rs.subsets():
            for k in rs.subsets():
                for x in elements:
                    lx = a2.length(x)
                    left_min = all(
                        a2.length(mul(a2, a2.mul_gen(a2.identity(), i + 1), x))
                        > lx
                        for i in range(rs.rank) if (j >> i) & 1)
                    right_min = all(
                        a2.length(a2.mul_gen(x, i + 1)) > lx
                        for i in range(rs.rank) if (k >> i) & 1)
                    q = coset_pattern(a2.rs, a2.classify(x), j, k)
                    assert (q is not None) == (left_min and right_min)
                    if q is not None:
                        assert q & ~k == 0

    def test_q_pattern_by_conjugation(self, a2):
        # k lands in Q exactly when x s_k x^-1 is a generator of W_J
        rs = a2.rs
        elements, _ = a2.bfs_enumerate(6)
        j = rs.mask_of([1])
        k = rs.mask_of([2])
        for x in elements:
            q = coset_pattern(a2.rs, a2.classify(x), j, k)
            if q is None:
                continue
            s2 = a2.mul_gen(a2.identity(), 2)
            conj = mul(a2, mul(a2, x, s2), inv(a2, x))
            s1 = a2.mul_gen(a2.identity(), 1)
            assert (q == k) == (conj == s1)

    def test_normalizes_is_conjugation_stability(self, b2):
        # x normalizes W_J exactly when every generator of W_J conjugates
        # into W_J (as a set of affine elements with zero translation)
        rs = b2.rs
        elements, _ = b2.bfs_enumerate(6)
        for j in rs.subsets():
            members = {(w, (0,) * rs.rank)
                       for w in _parabolic_indices(walk_table(b2), j)}
            gens = [b2.mul_gen(b2.identity(), i + 1)
                    for i in range(rs.rank) if (j >> i) & 1]
            for x in elements:
                want = all(mul(b2, mul(b2, x, s), inv(b2, x)) in members
                           for s in gens)
                assert normalizes(b2.classify(x), j) == want

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
    def test_matches_references(self, label):
        # one profile per element answers every (J, K) and every J as the
        # per-pair classifier did
        aff = get_affine(build_label(label))
        subs = aff.rs.subsets()
        elements, _ = aff.bfs_enumerate(8)
        for x in elements:
            profile = aff.classify(x)
            for j in subs:
                assert (normalizes(profile, j)
                        == reference_normalizes(aff, x, j))
                for k in subs:
                    ok, q = reference_classify(aff, x, j, k)
                    assert (coset_pattern(aff.rs, profile, j, k)
                            == (q if ok else None))


def reference_classify(aff, x, j_mask, k_mask):
    """(is_min_rep, Q) for one (J, K), read off x directly: minimal iff
    every listed generator lengthens x on the matching side; Q collects k
    in K with x . (alpha_k, 0) = (alpha_j, 0) for some j in J."""
    w, m = x
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    wm = act_coroot(walk_table(aff), w, m)
    cwm = rootsystem.mat_vec(aff.rs.cartan, wm)
    ref = reference(aff)
    rmat, rinv = ref.rmats[w], ref.rinvs[w]
    for i in range(aff.n):
        # x . (alpha_i, 0) = (w alpha_i, -<alpha_i, v>)
        if (k_mask >> i) & 1 and not affine_root_positive(
                _root_sign(matcol(rmat, i)), -cm[i]):
            return False, None
        # x^-1 . (alpha_i, 0) = (w^-1 alpha_i, <alpha_i, w v>)
        if (j_mask >> i) & 1 and not affine_root_positive(
                _root_sign(matcol(rinv, i)), cwm[i]):
            return False, None
    q = 0
    for i in range(aff.n):
        if (k_mask >> i) & 1 and cm[i] == 0:
            jj = _is_unit_col(matcol(rmat, i))
            if jj >= 0 and (j_mask >> jj) & 1:
                q |= 1 << i
    return True, q


def reference_normalizes(aff, x, j_mask):
    """Whether x W_J x^-1 = W_J: each alpha_j must go to (beta, 0) with
    beta (of either sign) supported on J."""
    w, m = x
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    rmat = reference(aff).rmats[w]
    for i in range(aff.n):
        if not (j_mask >> i) & 1:
            continue
        if cm[i] != 0:
            return False
        if any(c and not (j_mask >> pos) & 1
               for pos, c in enumerate(matcol(rmat, i))):
            return False
    return True


def _parabolic_indices(table, mask):
    gens = [i for i in range(table.rs.rank) if (mask >> i) & 1]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in gens:
                y = table.succ[i][x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


class TestOracle:
    def test_bins_partition_minimal_reps(self, a2):
        rs = a2.rs
        j = rs.mask_of([1])
        k = rs.mask_of([1, 2])
        bins, total = a2.oracle_series(j, k, 10)
        acc = [0] * 11
        for counts in bins.values():
            acc = [a + b for a, b in zip(acc, counts)]
        assert acc == total

    def test_empty_empty_counts_everything(self, a2):
        _, total = a2.oracle_series(0, 0, 8)
        depths = depths_of(*a2.bfs_enumerate(8))
        for l in range(9):
            assert total[l] == sum(1 for d in depths.values() if d == l)

    def test_full_group_single_rep(self, a2):
        # J = K = S: the identity is the only representative with Q = S
        rs = a2.rs
        s = rs.full_mask
        bins, _ = a2.oracle_series(s, s, 8)
        assert bins[s][0] == 1

    def test_oracle_series_is_a_view_of_the_scan(self, b2):
        rs = b2.rs
        subs = rs.subsets()
        pairs = [(j, k) for j in subs for k in subs]
        cosets, counts = b2.oracle_scan(9, pairs, subs)
        elements, _ = b2.bfs_enumerate(12)
        for j, k in pairs:
            assert b2.oracle_series(j, k, 9) == cosets[(j, k)]
            # a longer enumeration is cut at max_length
            assert b2.oracle_series(j, k, 9, elements) == cosets[(j, k)]
        for j in subs:
            assert b2.oracle_scan(9, [], [j], elements)[1][j] == counts[j]


def reference_profile(aff, x):
    """classify by matrix algebra: <alpha_i, v> and <alpha_i, w v> from
    the Cartan matrix and the coroot action of w."""
    w, m = x
    table = walk_table(aff)
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    cwm = rootsystem.mat_vec(aff.rs.cartan, act_coroot(table, w, m))
    right, left, perm = table.rasc[w], table.lasc[w], table.perms[w]
    rasc = lasc = 0
    for i in range(aff.n):
        bit = 1 << i
        if affine_root_positive(1 if right & bit else -1, -cm[i]):
            rasc |= bit
        if affine_root_positive(1 if left & bit else -1, cwm[i]):
            lasc |= bit
    dest = tuple(-1 if c else d for c, d in zip(cm, table.simple_img[w]))
    supp = tuple(-1 if c else aff._supp[perm[s]]
                 for s, c in zip(aff.rs.simple_idx, cm))
    return rasc, lasc, dest, supp


def reference_length(aff, x):
    """sum over positive roots beta of |<beta, v> + chi(w beta)|."""
    w, m = x
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    n_pos = len(aff.rs.positive_roots)
    return sum(abs(sum(a * b for a, b in zip(root, cm))
                   + (walk_table(aff).perms[w][r] >= n_pos))
               for r, (root, _) in enumerate(aff.rs.positive_roots))


def reference_scan(aff, max_length, pairs, j_masks, elements, length):
    """oracle_scan element by element: each element's profile is tested
    against every (J, K) and every J."""
    size = max_length + 1
    cosets = {pair: (defaultdict(lambda: [0] * size), [0] * size)
              for pair in pairs}
    counts = {j: [0] * size for j in j_masks}
    for x in elements:
        l = length(x)
        if l > max_length:
            continue
        profile = reference_profile(aff, x)
        for (j, k), (bins, total) in cosets.items():
            q = coset_pattern(aff.rs, profile, j, k)
            if q is not None:
                bins[q][l] += 1
                total[l] += 1
        for j, c in counts.items():
            if normalizes(profile, j):
                c[l] += 1
    return {p: (dict(b), t) for p, (b, t) in cosets.items()}, counts


def _ordered(scan):
    """A scan's result with every dict as its list of items, so equality
    also compares the order of the bins."""
    cosets, counts = scan
    return ([(p, list(b.items()), t) for p, (b, t) in cosets.items()],
            list(counts.items()))


class TestBucketedScan:
    @pytest.mark.parametrize("label, max_length",
                             [("G2", 20), ("B2", 20), ("A3", 8), ("C3", 6)])
    def test_matches_the_element_scan(self, label, max_length):
        aff = get_affine(build_label(label))
        subs = aff.rs.subsets()
        pairs = [(j, k) for j in subs for k in subs]
        elements, sizes = aff.bfs_enumerate(max_length)
        depths = depths_of(elements, sizes)
        want = _ordered(reference_scan(aff, max_length, pairs, subs,
                                       elements, depths.__getitem__))
        assert _ordered(aff.oracle_scan(max_length, pairs, subs)) == want
        # a longer enumeration, cut at max_length by the closed form
        longer, _ = aff.bfs_enumerate(max_length + 2)
        assert len(longer) > len(elements)
        assert _ordered(aff.oracle_scan(max_length, pairs, subs,
                                        longer)) == want

    @pytest.mark.parametrize("label", ["A2", "G2", "A3", "C3"])
    def test_rows_match_the_matrix_algebra(self, label):
        aff = get_affine(build_label(label))
        elements, _ = aff.bfs_enumerate(5)
        for x in elements:
            assert aff.classify(x) == reference_profile(aff, x)
            assert aff.length(x) == reference_length(aff, x)
            for g, s in generators(aff).items():
                assert aff.mul_gen(x, g) == mul(aff, x, s)


# Flips the first entry of the walk's chi vector ([w beta_b < 0] over the
# positive roots) of the finite part of s_1 s_2 in A2, so that the
# closed-form length of the elements with that finite part is off by one,
# then requires the BFS depth check to raise.  Exit codes: 0 raised, 1 did
# not raise, 3 asserts were not stripped.
_DEPTH_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label
    from coxgrowth.affine import get_affine
    if __debug__:
        sys.exit(3)
    aff = get_affine(build_label("A2"))
    aff.bfs_enumerate(4)
    w = aff.mul_gen(aff.mul_gen(aff.identity(), 1), 2)[0]
    chi = aff._chi[w]
    aff._chi[w] = (1 - chi[0],) + chi[1:]
    try:
        aff.bfs_enumerate(4)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Adds 1 to the second entry of the coroot by which generator 1 of A2
# moves m, so that mul_gen returns wrong translations while the walk's
# root pairings stay right, then requires the check of the one against
# the other to raise.  Exit codes as above.
_ACTION_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label
    from coxgrowth.affine import get_affine
    if __debug__:
        sys.exit(3)
    aff = get_affine(build_label("A2"))
    row, (a, b), c = aff._refl[1]
    aff._refl[1] = (row, (a, b + 1), c)
    try:
        aff.bfs_enumerate(6)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Makes generator 1 of A2 act on the root pairings, on the finite part, on
# m and in the descent test as generator 2 does, so that the walk closes up
# in the finite subgroup generated by s_0 and s_2 with every depth matching
# the closed-form length and every translation matching its pairings, then
# requires the level-size check to raise.  Exit codes as above, and 4 if
# the move replaced is not generator 1's.
_LEVEL_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label
    from coxgrowth.affine import get_affine
    if __debug__:
        sys.exit(3)
    aff = get_affine(build_label("A2"))
    ids = tuple(range(len(aff.rs.roots)))
    if aff._moves[1](ids) != aff.rs.simple_reflections()[0]:
        sys.exit(4)
    for field in (aff._moves, aff._next, aff._refl, aff._walls):
        field[1] = field[2]
    try:
        aff.bfs_enumerate(14)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


# Adds 1 to each entry of the affine generator's constant shift of the
# root pairings of A2 in turn, -<beta_b, theta^vee> for the root of index
# b, and requires a raise for every entry.  Exit codes as above, with 1
# when some entry did not raise.
_SHIFT_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label
    from coxgrowth.affine import get_affine
    if __debug__:
        sys.exit(3)
    aff = get_affine(build_label("A2"))
    shift = aff._shift
    missed = []
    for b in range(len(shift)):
        aff._shift = shift[:b] + (shift[b] + 1,) + shift[b + 1:]
        try:
            aff.bfs_enumerate(8)
            missed.append(b)
        except AssertionError as exc:
            print(b, exc)
    aff._shift = shift
    sys.exit(1 if missed else 0)
""")


# Breaks one generator's wall (r, c) in the descent test at a time, by
# setting c to 1 - c or r to another generator's wall root, on A2, B2, G2
# and A3, and requires a raise for every fault.  Exit codes as above, with
# 1 when some fault did not raise.
_DESCENT_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label
    from coxgrowth.affine import get_affine
    if __debug__:
        sys.exit(3)
    missed = []
    for label in ("A2", "B2", "G2", "A3"):
        aff = get_affine(build_label(label))
        walls = list(aff._walls)
        for g, (r, c) in enumerate(walls):
            faults = [(r, 1 - c)] + [(r2, c) for h, (r2, _) in
                                     enumerate(walls) if h != g]
            for fault in faults:
                aff._walls[g] = fault
                try:
                    aff.bfs_enumerate(10)
                    missed.append((label, g, fault))
                except AssertionError as exc:
                    print(label, g, fault, exc)
            aff._walls[g] = walls[g]
    sys.exit(1 if missed else 0)
""")


# Empties the lower walls that the walk tests each new element against, so
# that each element of A2 comes once per right descent, and makes Bott's
# series return the level sizes of that walk up to length 3, the first
# level with an element of two right descents, counted by mul_gen and the
# closed-form length.  Then only the repeat check can raise.  Exit codes
# as above.
_REPEAT_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import affine, build_label
    if __debug__:
        sys.exit(3)

    class NoLowerWalls(list):
        def __getitem__(self, i):
            return [] if isinstance(i, slice) else list.__getitem__(self, i)

    aff = affine.get_affine(build_label("A2"))
    made = [1, 0, 0, 0]
    for x in aff.bfs_enumerate(3)[0][1:]:
        l = aff.length(x)
        made[l] += sum(aff.length(aff.mul_gen(x, g)) < l
                       for g in range(aff.n + 1))
    affine.expand = lambda num, n, den: made[:n + 1]
    aff._walls = NoLowerWalls(aff._walls)
    try:
        aff.bfs_enumerate(3)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestParabolicPoincare:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3",
                                       "D4", "F4"])
    def test_heights_match_the_closure(self, label):
        aff = get_affine(build_label(label))
        n1 = aff.n + 1
        for bits in range((1 << n1) - 1):
            ids = [g for g in range(n1) if (bits >> g) & 1]
            assert (parabolic_poincare(aff.rs, ids)
                    == closure_poincare(aff, ids)), ids


class TestExplicitChecks:
    def test_depth_check_raises(self):
        out = _run_optimized(_DEPTH_SCRIPT)
        assert "BFS depth 2 != closed-form length 3" in out

    def test_action_rows_checked_against_root_pairings(self):
        out = _run_optimized(_ACTION_SCRIPT)
        assert ("BFS element (3, (0, 0)) pairs with the simple roots to "
                "(0, 0), the walk's root pairings at finite index 3 to "
                "(1, -2)") in out

    def test_level_sizes_checked_against_bott(self):
        out = _run_optimized(_LEVEL_SCRIPT)
        assert "BFS level 1 has 2 elements, Bott's series 3" in out

    def test_affine_shift_checked(self):
        out = _run_optimized(_SHIFT_SCRIPT)
        assert len(out.splitlines()) == 6

    def test_repeated_element_raises(self):
        out = _run_optimized(_REPEAT_SCRIPT)
        assert "BFS level 3 repeats an element" in out

    def test_descent_walls_checked(self):
        # 9 faults on each rank-2 type and 16 on A3, each raising
        out = _run_optimized(_DESCENT_SCRIPT)
        assert len(out.splitlines()) == 3 * 9 + 16

    def test_proper_subsets_only(self, a2):
        with pytest.raises(ValueError, match="proper subsets only"):
            parabolic_poincare(a2.rs, [0, 1, 2])
