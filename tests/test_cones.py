"""Cone lattice points and translation growth series."""

from functools import lru_cache
from itertools import product

import pytest

from coxgrowth import build_label, cones
from coxgrowth.cones import (parallelepiped_points, indices_outside, f_q,
                             f_q_closed_form, all_parallelepipeds_trivial,
                             lattice_walk_counts)
from coxgrowth.ratfun import IntPoly, RatFun, expand
from coxgrowth.rootsystem import mat_det, mat_vec
from test_ratfun import rf_add, rf_sub


LABELS = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]


# -- reference implementations: the box scan and inclusion-exclusion ------

@lru_cache(maxsize=None)
def box_scan_points(label, indices):
    """Parallelepiped points by scanning the box 0 <= m_j < sum of the
    generators' j-th entries (m_j = 0 where that sum is 0) and keeping m
    when C m is a residue vector: (C m)_j = 0 off the index set,
    0 <= (C m)_i < d_i on it."""
    rs = build_label(label)
    n = rs.rank
    gens = [rs.cone_gens[i] for i in indices]
    depths = {i: mat_vec(rs.cartan, rs.cone_gens[i])[i] for i in indices}
    bounds = [sum(g[j] for g in gens) for j in range(n)]
    points = []
    for m in product(*(range(max(b, 1)) for b in bounds)):
        cm = mat_vec(rs.cartan, m)
        if all(0 <= cm[j] < depths[j] if j in depths else cm[j] == 0
               for j in range(n)):
            points.append(m)
    return points


def sigma_closed(label, indices):
    """Growth series of the closed cone on {w_i : i in indices}, graded
    by 2 * sum of coordinates."""
    rs = build_label(label)
    num = IntPoly.zero()
    for m in box_scan_points(label, tuple(indices)):
        num = num + IntPoly.t_power(rs.two_rho_weight(m))
    den = IntPoly.one()
    for i in indices:
        den = den * IntPoly.one_minus_t(rs.two_rho_weight(rs.cone_gens[i]))
    return RatFun(num, den)


def sigma_open(label, indices):
    """Growth series of the open cone, by inclusion-exclusion over the
    faces spanned by subsets of the generators."""
    d = len(indices)
    acc = RatFun(IntPoly.zero())
    for bits in range(1 << d):
        sub = [indices[i] for i in range(d) if (bits >> i) & 1]
        term = sigma_closed(label, sub)
        acc = (rf_add if (d - len(sub)) % 2 == 0 else rf_sub)(acc, term)
    return acc


@pytest.mark.parametrize("label", LABELS + ["A4", "D4"])
def test_matches_references(label):
    rs = build_label(label)
    for q in rs.subsets():
        idx = indices_outside(rs, q)
        assert parallelepiped_points(rs, idx) == box_scan_points(
            rs.label, tuple(idx)), f"{label} Q={rs.ids_of(q)}"
        assert f_q(rs, q) == sigma_open(rs.label, idx), \
            f"{label} Q={rs.ids_of(q)}"


class TestParallelepiped:
    @pytest.mark.parametrize("label", LABELS + ["A5", "D5", "E6"])
    def test_point_count_is_lattice_index(self, label):
        # the full parallelepiped holds index-many points: the volume
        # det(w_1..w_n) = det(C)^(n-1) * prod d_i / ... ; check against a
        # direct determinant of the generator matrix
        rs = build_label(label)
        n = rs.rank
        gens = rs.cone_gens
        vol = abs(mat_det([[gens[j][i] for j in range(n)]
                           for i in range(n)]))
        pts = parallelepiped_points(rs, list(range(n)))
        assert len(pts) == vol

    @pytest.mark.parametrize("label", LABELS)
    def test_origin_and_membership(self, label):
        rs = build_label(label)
        for q in rs.subsets():
            idx = indices_outside(rs, q)
            pts = parallelepiped_points(rs, idx)
            assert pts[0] == (0,) * rs.rank
            depths = {i: mat_vec(rs.cartan, rs.cone_gens[i])[i] for i in idx}
            for m in pts:
                cm = mat_vec(rs.cartan, m)
                for i in range(rs.rank):
                    if i in depths:
                        assert 0 <= cm[i] < depths[i]
                    else:
                        assert cm[i] == 0

    def test_known_nontrivial_sets(self):
        rs = build_label("B3")
        assert parallelepiped_points(rs, [0, 1, 2]) == [(0, 0, 0), (2, 3, 2)]
        rs = build_label("A3")
        assert parallelepiped_points(rs, [0, 2]) == [
            (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]

    def test_box_bound_counts_exactly(self, monkeypatch):
        # the full residue box of A3 has 4 * 2 * 4 = 32 points: a bound of
        # 32 admits it, and 31 refuses it before enumerating
        rs = build_label("A3")
        want = parallelepiped_points(rs, [0, 1, 2])
        monkeypatch.setattr(cones, "MAX_BOX_POINTS", 32)
        assert parallelepiped_points(rs, [0, 1, 2]) == want
        monkeypatch.setattr(cones, "MAX_BOX_POINTS", 31)
        with pytest.raises(ValueError, match="boxes of 32 points, over "
                                             "the bound 31"):
            parallelepiped_points(rs, [0, 1, 2])
        assert len(parallelepiped_points(rs, [0, 2])) == 4


class TestSeries:
    @pytest.mark.parametrize("label", LABELS)
    def test_open_cone_matches_walk_oracle(self, label):
        # every f_Q expansion agrees with a direct truncated lattice count
        rs = build_label(label)
        for q in rs.subsets():
            want = lattice_walk_counts(rs, q, 24)
            got = expand(f_q(rs, q), 24)
            assert got == want, f"{label} Q={rs.ids_of(q)}"

    @pytest.mark.parametrize("label", LABELS)
    def test_stratification_sums_to_closed_cone(self, label):
        # the dominant cone is the disjoint union of the open faces
        rs = build_label(label)
        total = RatFun(IntPoly.zero())
        for q in rs.subsets():
            total = rf_add(total, f_q(rs, q))
        assert total == sigma_closed(rs.label, list(range(rs.rank)))

    def test_closed_form_when_trivial(self):
        for label in ["C2", "C3", "G2"]:
            rs = build_label(label)
            assert all_parallelepipeds_trivial(rs)
            for q in rs.subsets():
                assert f_q(rs, q) == f_q_closed_form(rs, q)

    def test_closed_form_fails_when_not_trivial(self):
        rs = build_label("A2")
        assert not all_parallelepipeds_trivial(rs)
        assert f_q(rs, 0) != f_q_closed_form(rs, 0)

    def test_full_subset_gives_one(self):
        for label in LABELS:
            rs = build_label(label)
            assert f_q(rs, rs.full_mask) == RatFun(IntPoly.one())

    def test_sigma_open_vs_interior_walk(self):
        # rank-1 sanity: open cone on w=(1) graded by 2m
        assert expand(sigma_open("A1", [0]), 8) == [0, 0, 1, 0, 1, 0, 1, 0, 1]
        closed = expand(sigma_closed("A1", [0]), 8)
        assert closed == [1, 0, 1, 0, 1, 0, 1, 0, 1]
