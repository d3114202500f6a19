"""Cartan data, positive roots and cone generators."""

import textwrap
from math import gcd

import pytest

from coxgrowth import rootsystem
from coxgrowth.finite import get_table
from coxgrowth.ratfun import IntPoly
from coxgrowth.rootsystem import (build_label, cartan_matrix, exponents,
                                  parse_label, mat_vec, InvalidTypeError)
from test_finite import parabolic_elements
from test_series import _run_optimized


ALL_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
              "D4", "F4", "G2", "E6"]

# number of positive roots per type
POS_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
              "B4": 16, "C2": 4, "C3": 9, "C4": 16, "D4": 12, "F4": 24,
              "G2": 6, "E6": 36}


class TestCartan:
    def test_label_parsing(self):
        assert parse_label("A2") == ("A", 2)
        assert parse_label("a_2") == ("A", 2)
        assert parse_label("F4") == ("F", 4)
        for bad in ["Z9", "A0", "", "A", "2A", "G3", "F5", "E9", "B1"]:
            with pytest.raises(InvalidTypeError):
                build_label(bad)

    def test_diagonal_and_signs(self):
        for label in ALL_LABELS:
            fam, rank = parse_label(label)
            c = cartan_matrix(fam, rank)
            for i in range(rank):
                assert c[i][i] == 2
                for j in range(rank):
                    if i != j:
                        assert c[i][j] <= 0
                        # off-diagonal zeros are symmetric
                        assert (c[i][j] == 0) == (c[j][i] == 0)

    def test_specific_matrices(self):
        assert cartan_matrix("A", 2) == ((2, -1), (-1, 2))
        assert cartan_matrix("G", 2) == ((2, -3), (-1, 2))
        assert cartan_matrix("B", 3) == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
        assert cartan_matrix("C", 3) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
        assert cartan_matrix("F", 4) == ((2, -1, 0, 0), (-1, 2, -2, 0),
                                         (0, -1, 2, -1), (0, 0, -1, 2))

    def test_determinants(self):
        for label, want in [("A1", 2), ("A2", 3), ("A3", 4), ("B3", 2),
                            ("C4", 2), ("D4", 4), ("F4", 1), ("G2", 1),
                            ("E6", 3)]:
            assert build_label(label).det_c == want


class TestRoots:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_positive_root_count(self, label):
        rs = build_label(label)
        assert len(rs.positive_roots) == POS_COUNTS[label]

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_roots_distinct_and_positive(self, label):
        rs = build_label(label)
        seen = {root for root, _ in rs.positive_roots}
        assert len(seen) == len(rs.positive_roots)
        for root, coroot in rs.positive_roots:
            assert all(c >= 0 for c in root) and any(c > 0 for c in root)
            # <root, root^vee> = 2
            assert sum(a * b for a, b in
                       zip(root, mat_vec(rs.cartan, coroot))) == 2

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_highest_root_dominates(self, label):
        rs = build_label(label)
        hi = rs.highest_root
        for root, _ in rs.positive_roots:
            assert all(a >= b for a, b in zip(hi, root))

    def test_longest_length_is_root_count(self):
        for label in ALL_LABELS:
            rs = build_label(label)
            assert rs.longest_length(rs.full_mask) == POS_COUNTS[label]


class TestPoincare:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_closed_form_is_the_length_histogram(self, label):
        # W_J counted inside the full table by closure under the
        # generators of J, with lengths from the full table's BFS
        rs = build_label(label)
        t = get_table(rs)
        for mask in rs.subsets():
            members = parabolic_elements(t, mask)
            hist = [0] * (max(t.lengths[x] for x in members) + 1)
            for x in members:
                hist[t.lengths[x]] += 1
            assert rs.poincare(mask) == IntPoly(hist), (label, mask)

    def test_exponents_of_e6(self):
        rs = build_label("E6")
        heights = [sum(root) for root, _ in rs.positive_roots]
        assert exponents(heights) == [1, 4, 5, 7, 8, 11]

    @pytest.mark.parametrize("label, order", [("E7", 2903040),
                                              ("E8", 696729600)])
    def test_order_of_e7_e8(self, label, order):
        rs = build_label(label)
        assert rs.poincare(rs.full_mask)(1) == order


class TestConeGens:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_defining_property(self, label):
        rs = build_label(label)
        n = rs.rank
        for i, w in enumerate(rs.cone_gens):
            assert all(c > 0 for c in w)
            assert gcd(*w) == 1
            cw = mat_vec(rs.cartan, w)
            assert all(cw[j] == 0 for j in range(n) if j != i)
            assert cw[i] > 0

    def test_known_generators(self):
        assert build_label("A2").cone_gens == ((2, 1), (1, 2))
        assert build_label("G2").cone_gens == ((2, 1), (3, 2))
        assert build_label("B3").cone_gens == ((2, 2, 1), (1, 2, 1),
                                               (2, 4, 3))
        assert build_label("F4").cone_gens == ((2, 3, 2, 1), (3, 6, 4, 2),
                                               (4, 8, 6, 3), (2, 4, 3, 2))

    def test_weights(self):
        rs = build_label("C4")
        got = [rs.two_rho_weight(w) for w in rs.cone_gens]
        assert got == [i * (9 - i) for i in range(1, 5)]


class TestSubsets:
    def test_masks_and_ids(self):
        rs = build_label("A3")
        assert rs.mask_of([1, 3]) == 0b101
        assert rs.ids_of(0b101) == [1, 3]
        assert rs.mask_of([]) == 0
        with pytest.raises(ValueError):
            rs.mask_of([0])
        with pytest.raises(ValueError):
            rs.mask_of([4])

    def test_subsets_order(self):
        rs = build_label("A2")
        assert rs.subsets() == [0, 1, 2, 3]
        assert rs.subsets(0b10) == [0, 2]

    def test_components(self):
        rs = build_label("A4")
        comps = rs.components(rs.mask_of([1, 2, 4]))
        assert sorted(comps) == [rs.mask_of([1, 2]), rs.mask_of([4])]
        assert rs.components(0) == []

    def test_two_rho(self):
        rs = build_label("A2")
        assert rs.two_rho == (2, 2)
        assert rs.two_rho_weight((1, 1)) == 4


# Drops the simple root alpha_2 of A2 from the closure, with the count
# check stubbed out, then requires the 2 rho check to raise.  Exit codes:
# 0 raised, 1 did not raise, 3 asserts were not stripped.
_TWO_RHO_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.rootsystem import RootSystem
    if __debug__:
        sys.exit(3)
    close = RootSystem._close_roots

    def drop_alpha_2(self):
        close(self)
        self.positive_roots = [rc for rc in self.positive_roots
                               if rc[0] != (0, 1)]

    RootSystem._close_roots = drop_alpha_2
    RootSystem._check_counts = lambda self: None
    try:
        RootSystem("A", 2)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestExplicitChecks:
    def test_two_rho_check_raises_under_optimize(self):
        out = _run_optimized(_TWO_RHO_SCRIPT)
        assert "A2: 2 rho = (2, 1) does not pair to 2" in out


# Changes one entry of the highest coroot of A2, then requires building
# the affine group, whose extra generator is the reflection in the
# highest root, to raise.  Exit codes: 0 raised, 1 did not raise, 3
# asserts were not stripped.
_REFLECTION_SCRIPT = textwrap.dedent("""
    import sys
    from coxgrowth.affine import get_affine
    from coxgrowth.rootsystem import RootSystem
    if __debug__:
        sys.exit(3)
    rs = RootSystem("A", 2)
    rs.highest_root_coroot = (1, 2)
    try:
        get_affine(rs)
    except AssertionError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


class TestReflectionCheck:
    def test_root_coroot_mismatch_raises_under_optimize(self):
        out = _run_optimized(_REFLECTION_SCRIPT)
        assert ("A2: the reflection in (1, 1) with coroot (1, 2) does not "
                "map the pair of" in out)

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_reflections_are_involutions(self, label):
        rs = build_label(label)
        n_pos = len(rs.positive_roots)
        for root, coroot in rs.positive_roots:
            s = rs.reflection(root, coroot)
            b = rs.root_index[root]
            assert s[b] == b + n_pos and s[b + n_pos] == b
            assert all(s[s[c]] == c for c in range(len(s)))
