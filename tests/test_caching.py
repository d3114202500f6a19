"""One shared root system per type, with its tables, affine group and
pipeline cached on it; one coset scan per (table, J, K)."""

import contextlib
import io

import pytest

from coxgrowth import ratfun, rootsystem
from coxgrowth.affine import get_affine
from coxgrowth.cli import main, run_selftest
from coxgrowth.finite import GroupTable, get_table
from coxgrowth.ratfun import IntPoly
from coxgrowth.rootsystem import RootSystem, build_label
from coxgrowth.series import AffinePipeline, get_pipeline
from test_finite import reference_table


def count_inits(monkeypatch, cls, counts):
    orig = cls.__init__

    def init(self, *args, **kwargs):
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
        orig(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)


class TestInterning:
    def test_same_object_for_every_spelling(self):
        assert build_label("B3") is build_label("b_3")
        assert build_label("b_3") is build_label(" B3 ")

    def test_derived_objects_shared(self):
        a, b = build_label("B3"), build_label("b_3")
        assert get_table(a) is get_table(b)
        assert get_table(a, 0b011) is get_table(b, 0b011)
        assert get_table(a) is get_table(a, a.full_mask)
        assert get_affine(a) is get_affine(b)
        assert get_pipeline(a) is get_pipeline(b)

    def test_direct_construction_is_separate(self):
        rs = RootSystem("B", 3)
        assert rs is not build_label("B3")
        assert get_table(rs) is not get_table(build_label("B3"))

    def test_invalid_label_not_interned(self):
        for bad in ["B1", "Z9"]:
            with pytest.raises(rootsystem.InvalidTypeError):
                build_label(bad)
        assert rootsystem._INTERNED == {}


def test_positive_roots_of_kept_per_mask():
    rs = RootSystem("F", 4)
    for mask in rs.subsets():
        roots = rs.positive_roots_of(mask)
        assert isinstance(roots, tuple)
        assert rs.positive_roots_of(mask) is roots
    assert len(rs.positive_roots_of(rs.full_mask)) == 24


def test_selftest_constructions(monkeypatch):
    counts = {}
    for cls in (RootSystem, GroupTable, AffinePipeline):
        count_inits(monkeypatch, cls, counts)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_selftest()
    assert counts == {"RootSystem": 8, "GroupTable": 12,
                      "AffinePipeline": 1}


def test_oracle_assembles_no_series(monkeypatch, capsys):
    # the enumeration is sized from Bott's series, not the pipeline's
    counts = {}
    count_inits(monkeypatch, AffinePipeline, counts)
    assert main(["oracle", "--type", "A3", "--J", "1", "--K", "2",
                 "--max-length", "6"]) == 0
    assert "total" in capsys.readouterr().out
    assert counts == {}


def test_assembly_builds_no_affine_group():
    # a root system of its own, so that no other test has built its
    # affine group; only verify and the affine identity suite need it
    rs = RootSystem("A", 2)
    pl = get_pipeline(rs)
    pl.matrix_M_affine()
    pl.p_full(0, rs.mask_of([1]), rs.full_mask)
    pl.double_coset_series(rs.mask_of([1]), rs.mask_of([2]))
    assert "affine" not in rs._derived
    pl.verify_against_oracle(4)
    assert "affine" in rs._derived


@pytest.mark.parametrize("label, distinct", [("A3", 22), ("B3", 32),
                                              ("C3", 32)])
def test_one_normalization_per_distinct_numerator(monkeypatch, label,
                                                  distinct):
    nums = []
    real_normalize = ratfun._normalize

    def normalize(num, den):
        nums.append(num)
        return real_normalize(num, den)

    monkeypatch.setattr(ratfun, "_normalize", normalize)
    pl = get_pipeline(RootSystem(label[0], int(label[1])))
    m = pl.matrix_M_affine()
    assert len(nums) == len(set(nums)) == distinct
    if label == "A3":
        # the entries of Q = {1} and Q = {3} against J = {1, 3} have
        # equal numerators (the diagram automorphism fixes J) and share
        # one RatFun
        rs = pl.rs
        j = rs.mask_of([1, 3])
        col = m.cols.index(j)
        a, b = (m.entries[m.rows.index(rs.mask_of([i]))][col] for i in (1, 3))
        assert a is b and a == pl.p_affine_S(rs.mask_of([1]), j)


def test_one_scan_per_table_j_k(monkeypatch):
    # first visits of each ("cosets", table mask, J, K) key
    scans = []
    orig = RootSystem.cached

    def cached(self, key, make):
        if key[0] == "cosets" and key not in self._derived:
            scans.append((id(self),) + key)
        return orig(self, key, make)

    monkeypatch.setattr(RootSystem, "cached", cached)
    with contextlib.redirect_stdout(io.StringIO()):
        for label in ["D4", "F4"]:
            assert main(["finite", "--type", label, "--what", "check"]) == 0
    assert scans and len(scans) == len(set(scans))
    assert len(scans) <= 1250


def test_scan_matches_direct_count():
    """Every p and h polynomial equals a direct count over the table."""
    t = get_table(build_label("B3"))
    rs = t.rs
    inv_idx = reference_table(rs).inv_idx
    size = max(t.lengths) + 1
    for j in rs.subsets():
        for k in rs.subsets():
            # minimal in W_J x W_K: no right descent in K, no left one in J
            reps = [x for x in range(t.order)
                    if not t.mask & ~t.rasc[x] & k
                    and not t.mask & ~t.rasc[inv_idx[x]] & j]
            p = {}
            h = {}
            for x in reps:
                img = {i: t.simple_img[x][i] for i in range(rs.rank)
                       if (k >> i) & 1}
                q = sum(1 << i for i, s in img.items()
                        if s >= 0 and (j >> s) & 1)
                p.setdefault(q, [0] * size)[t.lengths[x]] += 1
                if all(s >= 0 for s in img.values()):
                    r = sum(1 << s for s in img.values())
                    h.setdefault(r, [0] * size)[t.lengths[x]] += 1
            for m in rs.subsets():
                assert t.p_poly(m, j, k) == IntPoly(p.get(m, []))
                assert (t.coset_bins(j, k)[1].get(m, IntPoly.zero())
                        == IntPoly(h.get(m, [])))
