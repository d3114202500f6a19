"""Affine Weyl group arithmetic, lengths and classification."""

import random
import textwrap

import pytest

from coxgrowth import build_label, rootsystem
from coxgrowth.affine import (affine_root_positive, coset_pattern,
                              get_affine, normalizes)
from test_finite import _is_unit_col, _root_sign, matcol, reference_table
from test_series import _run_optimized


@pytest.fixture(scope="module")
def a2():
    return get_affine(build_label("A2"))


@pytest.fixture(scope="module")
def b2():
    return get_affine(build_label("B2"))


# -- reference group operations, affine roots and inversion sets ---------


def reference(aff):
    """The matrix reference of aff's finite table, numbered alike."""
    ref = reference_table(aff.rs)
    assert ref.rmult == aff.table.rmult
    return ref


def mul(aff, x, y):
    (w1, m1), (w2, m2) = x, y
    w2i = reference(aff).inv_idx[w2]
    m1r = aff.table.act_coroot(w2i, m1)
    return (aff.table.mul(w1, w2), tuple(a + b for a, b in zip(m2, m1r)))


def inv(aff, x):
    w, m = x
    return (reference(aff).inv_idx[w],
            tuple(-c for c in aff.table.act_coroot(w, m)))


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


def random_element(aff, rng, nsteps=12):
    x = aff.identity()
    for _ in range(rng.randrange(nsteps)):
        x = aff.mul_gen(x, rng.randrange(aff.n + 1))
    return x


class TestGroupStructure:
    def test_generators_are_involutions(self, a2, b2):
        for aff in (a2, b2):
            for g in aff.gens:
                s = aff.mul_gen(aff.identity(), g)
                assert mul(aff, s, s) == aff.identity()
                assert aff.length(s) == 1

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
        elements, depths = aff.bfs_enumerate(6)
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
                    q = coset_pattern(a2.classify(x), j, k)
                    assert (q is not None) == (left_min and right_min)
                    if q is not None:
                        assert q & ~k == 0

    def test_q_pattern_by_conjugation(self, a2):
        # k lands in Q exactly when x s_k x^-1 is a generator of W_J
        rs = a2.rs
        table = a2.table
        elements, _ = a2.bfs_enumerate(6)
        j = rs.mask_of([1])
        k = rs.mask_of([2])
        for x in elements:
            q = coset_pattern(a2.classify(x), j, k)
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
                       for w in _parabolic_indices(b2.table, j)}
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
                    assert coset_pattern(profile, j, k) == (q if ok else None)


def reference_classify(aff, x, j_mask, k_mask):
    """(is_min_rep, Q) for one (J, K), read off x directly: minimal iff
    every listed generator lengthens x on the matching side; Q collects k
    in K with x . (alpha_k, 0) = (alpha_j, 0) for some j in J."""
    w, m = x
    cm = rootsystem.mat_vec(aff.rs.cartan, m)
    wm = aff.table.act_coroot(w, m)
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
                y = table.rmult[x][i]
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
        _, depths = a2.bfs_enumerate(8)
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
            assert b2.normalizer_counts(j, 9, elements) == counts[j]


# Makes the closed-form length of one A2 element one too long, then
# requires the BFS depth check to raise.  Exit codes: 0 raised, 1 did not
# raise, 3 asserts were not stripped.
_DEPTH_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth import build_label
    from coxgrowth.affine import AffineWeyl, get_affine
    if __debug__:
        sys.exit(3)
    aff = get_affine(build_label("A2"))
    bad = aff.mul_gen(aff.mul_gen(aff.identity(), 1), 2)
    length = AffineWeyl.length
    AffineWeyl.length = lambda self, x: length(self, x) + (x == bad)
    try:
        aff.bfs_enumerate(4)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestExplicitChecks:
    def test_depth_check_raises(self):
        out = _run_optimized(_DEPTH_SCRIPT)
        assert "BFS depth 2 != closed-form length 3" in out

    def test_proper_subsets_only(self, a2):
        with pytest.raises(ValueError, match="proper subsets only"):
            a2.parabolic_poincare([0, 1, 2])
