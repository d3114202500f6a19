"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxgrowth import ratfun
from coxgrowth.ratfun import (IntPoly, RatFun, expand,
                              poly_dot, poly_gcd, poly_exact_div,
                              poly_sum, factored_den, poly_str)
from coxgrowth.rootsystem import build_label
from coxgrowth.series import get_pipeline


def shift(p, k):
    """p * t^k (k >= 0)."""
    if p.is_zero():
        return p
    return IntPoly((0,) * k + p.coeffs)


def monomial_shift(r, d):
    """r * t^d in the field of rational functions; d may be negative.  A
    reference: the series pipeline divides its numerators by t^k
    instead."""
    if d >= 0:
        return RatFun(shift(r.num, d), r.den)
    return RatFun(r.num, shift(r.den, -d))


# Field arithmetic on RatFuns, each result normalized through the
# constructor: the references that sum series term by term.  The package
# has no such operators; it sums numerators over one fixed denominator.

def rf_add(a, b):
    return RatFun(a.num * b.den + b.num * a.den, a.den * b.den)


def rf_sub(a, b):
    return RatFun(a.num * b.den - b.num * a.den, a.den * b.den)


def rf_mul(a, b):
    return RatFun(a.num * b.num, a.den * b.den)


def rf_div(a, b):
    """a / b; raises ZeroDivisionError for b = 0."""
    return RatFun(a.num * b.den, a.den * b.num)


coeffs = st.lists(st.integers(-9, 9), max_size=8)
polys = coeffs.map(lambda c: IntPoly(tuple(c)))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def _product(ks, factors):
    p = IntPoly.one()
    for k in ks:
        p = p * IntPoly.one_minus_t(k)
    for f in factors:
        p = p * f
    return p


# The shapes the pipeline normalizes: products of (1 - t^k) with k <= 12,
# times small random factors (leading coefficients other than +-1
# included), up to degree about 40.
small_factors = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(
    IntPoly).filter(lambda p: not p.is_zero())
pipeline_polys = st.builds(_product,
                           st.lists(st.integers(1, 12), max_size=3),
                           st.lists(small_factors, max_size=2))
nonzero_pipeline_polys = st.one_of(
    pipeline_polys, pipeline_polys.map(lambda p: -p),
    polys).filter(lambda p: not p.is_zero())
# Divisors with interior zeros, as D and the trial factors of
# factored_den have: products of (1 - t^k), shifted by t^j.
sparse_divisors = st.builds(
    lambda ks, j: shift(IntPoly.one_minus_t(*ks), j),
    st.lists(st.integers(1, 12), min_size=1, max_size=3), st.integers(0, 3))


def _sympy_gcd(a, b):
    """sympy's gcd over Z, made primitive with a positive leading
    coefficient."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    pa, pb = (sympy.Poly(list(reversed(p.coeffs)) or [0], t, domain="ZZ")
              for p in (a, b))
    g = sympy.gcd(pa, pb)
    if g.is_zero:
        return IntPoly.zero()
    g = g.primitive()[1]
    if g.LC() < 0:
        g = -g
    return IntPoly(tuple(int(c) for c in reversed(g.all_coeffs())))


def poly_divmod(a, b):
    """Division in Q[t]; returns (q, r) with rational coefficients."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(0, len(r) - len(b.coeffs) + 1)
    bl = Fraction(b.coeffs[-1])
    db = b.degree
    while len(r) >= len(b.coeffs) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b.coeffs):
            break
        k = len(r) - 1 - db
        f = r[-1] / bl
        q[k] = f
        for i, c in enumerate(b.coeffs):
            r[k + i] -= f * c
        r.pop()
    return q, r


def _primitive_part(c):
    """A nonzero coefficient list divided by its content, with a
    positive leading coefficient."""
    g = gcd(*c) if c[-1] > 0 else -gcd(*c)
    return [x // g for x in c]


def _prs_gcd(a, b):
    """Gcd in Z[t] by the primitive pseudo-remainder sequence (Knuth,
    TAOCP vol. 2, 4.6.1), in integers only: each step replaces (x, y) by
    (y, the primitive part of lc(y)^k x mod y).  Returned primitive with
    a positive leading coefficient; zero when both operands are zero."""
    x, y = ([] if p.is_zero() else _primitive_part(list(p.coeffs))
            for p in (a, b))
    while y:
        n, lc = len(y) - 1, y[-1]
        while len(x) > n:
            # x <- lc x - top t^k y cancels the leading term top t^(k+n)
            top = x.pop()
            x = [lc * c for c in x]
            k = len(x) - n
            for i in range(n):
                x[k + i] -= top * y[i]
            while x and not x[-1]:
                x.pop()
        x, y = y, (_primitive_part(x) if x else [])
    return IntPoly(x)


class TestIntPoly:
    def test_basics(self):
        p = IntPoly((1, 2, 0, 3))
        assert p.degree == 3
        assert p[0] == 1 and p[1] == 2 and p[5] == 0
        assert p(2) == 1 + 4 + 24
        assert IntPoly((0, 0)).is_zero()
        assert IntPoly.t_power(3) == IntPoly((0, 0, 0, 1))
        assert IntPoly.one_minus_t(2) == IntPoly((1, 0, -1))

    def test_trailing_zeros_trimmed(self):
        assert IntPoly((1, 0, 0)) == IntPoly((1,))
        assert hash(IntPoly((1, 0))) == hash(IntPoly((1,)))

    @given(polys, polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + IntPoly.zero() == a
        assert a * IntPoly.one() == a
        assert a - a == IntPoly.zero()

    @given(polys, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_shift_is_monomial_mult(self, a, k):
        assert shift(a, k) == a * IntPoly.t_power(k)

    @given(polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_divmod(self, a, b):
        q, r = poly_divmod(a, b)
        n = max(a.degree, b.degree + len(q)) + 1
        for x in [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]:
            qa = sum(c * x ** i for i, c in enumerate(q))
            ra = sum(c * x ** i for i, c in enumerate(r))
            assert a(x) == qa * b(x) + ra

    @given(polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_gcd_divides(self, a, b):
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            return
        poly_exact_div(a * b, g)          # raises on failure
        if not a.is_zero():
            poly_exact_div(a, g)
        if not b.is_zero():
            poly_exact_div(b, g)

    def test_gcd_edges(self):
        zero, one = IntPoly.zero(), IntPoly.one()
        # content 2 and a negative leading coefficient
        b = IntPoly((-6, 4, -2))
        assert poly_gcd(zero, b) == poly_gcd(b, zero) == IntPoly((3, -2, 1))
        assert poly_gcd(zero, zero) == zero
        for c in (IntPoly((5,)), IntPoly((-1,))):
            assert poly_gcd(c, b) == poly_gcd(b, c) == one
            assert poly_gcd(c, zero) == poly_gcd(zero, c) == one
        # coprime, but gcd(a(8), b(8)) = gcd(15, -25) = 5 reads as t - 3
        assert poly_gcd(IntPoly((-1, 2)), IntPoly((-1, -3))) == one

    def test_gcd_doubles_width(self, monkeypatch):
        widths = []
        real_pack = ratfun.pack

        def pack(p, bits):
            widths.append(bits)
            return real_pack(p, bits)

        monkeypatch.setattr(ratfun, "pack", pack)
        # the pair of test_gcd_edges: t - 3 at B = 3 divides neither
        assert poly_gcd(IntPoly((-1, 2)), IntPoly((-1, -3))) == IntPoly.one()
        assert widths == [3, 3, 6, 6]
        # every distinct numerator of A4 and F4 against D, as RatFun
        # normalization meets them; some need a doubled width
        doubled = 0
        for label in ("A4", "F4"):
            pl = get_pipeline(build_label(label))
            subs = pl.rs.subsets()
            nums = {pl._affine_num(q, j) for q in subs for j in subs}
            for num in nums - {IntPoly.zero()}:
                widths.clear()
                g = poly_gcd(num, pl.den)
                assert g == _sympy_gcd(num, pl.den)
                assert g == _prs_gcd(num, pl.den)
                doubled += widths[-1] > widths[0]
        assert doubled

    def test_exact_div_raises(self):
        with pytest.raises(ValueError):
            poly_exact_div(IntPoly((1, 1)), IntPoly((0, 1)))

    @given(pipeline_polys, pipeline_polys, pipeline_polys)
    @settings(max_examples=150, deadline=None)
    def test_gcd_matches_references(self, a, b, c):
        # c makes a common factor likely, as in RatFun normalization
        for x, y in [(a * c, b * c), (a, b), (a * c, c)]:
            g = poly_gcd(x, y)
            assert g == _sympy_gcd(x, y)
            assert g == _prs_gcd(x, y)

    @given(pipeline_polys, st.one_of(nonzero_pipeline_polys, sparse_divisors),
           polys, st.sampled_from([1, -1, 2, 3, -6]))
    @settings(max_examples=200, deadline=None)
    def test_exact_div_matches_divmod(self, q, b, e, s):
        # a / (s b) with a = b q + e: an exact integer quotient when
        # e == 0 and s divides q, a non-integer one when e == 0 and it
        # does not, and a nonzero remainder for most other e
        a, d = b * q + e, IntPoly((s,)) * b
        for x in (a, b * q):
            fq, fr = poly_divmod(x, d)
            if any(fr) or any(c.denominator != 1 for c in fq):
                with pytest.raises(ValueError):
                    poly_exact_div(x, d)
            else:
                assert poly_exact_div(x, d) == IntPoly(
                    tuple(int(c) for c in fq))
        assert poly_exact_div(b * q, b) == q

    def test_kernel_creates_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("Fraction created")
        # ratfun imports no Fraction; if it ever does again, patch it
        monkeypatch.setattr(ratfun, "Fraction", no_fraction, raising=False)
        den = IntPoly.one_minus_t(2) * IntPoly.one_minus_t(6)
        num = IntPoly((3, -1, 4)) * IntPoly.one_minus_t(2)
        r = RatFun(num, den)
        assert r.den == IntPoly.one_minus_t(6)
        assert poly_gcd(num, den) == -IntPoly.one_minus_t(2)
        assert poly_exact_div(den, IntPoly.one_minus_t(2)) == r.den
        assert expand(r, 7) == [3, -1, 4, 0, 0, 0, 3, -1]


def schoolbook_mul(a, b):
    """a * b by the double loop over the coefficients: the reference for
    the packed poly_dot, whose one-pair case is IntPoly.__mul__."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPoly(out)


def schoolbook_dot(pairs):
    """sum a * b by schoolbook products, each added through a fresh
    polynomial: the reference for the packed poly_dot."""
    acc = IntPoly.zero()
    for a, b in pairs:
        acc = acc + schoolbook_mul(a, b)
    return acc


# Coefficients up to 2^70 in absolute value, so that slots span several
# machine words; and tight operands whose coefficients are all +-M, so
# that an output coefficient can reach the slot bound itself.
wide_polys = st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12).map(
    IntPoly)


@st.composite
def tight_pairs(draw):
    m = draw(st.sampled_from([1, 2, 3, 7, 255, 256, 2 ** 31, 2 ** 64 - 1]))
    signs = st.sampled_from([m, -m])
    same = draw(st.booleans())

    def operand():
        n = draw(st.integers(0, 10))
        return IntPoly([m] * n if same else
                       [draw(signs) for _ in range(n)])
    return [(operand(), operand()) for _ in range(draw(st.integers(0, 5)))]


class TestPolyDot:
    @given(st.lists(st.tuples(polys, polys), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_small(self, pairs):
        assert poly_dot(pairs) == schoolbook_dot(pairs)
        assert poly_dot(iter(pairs)) == schoolbook_dot(pairs)

    @given(st.lists(st.tuples(wide_polys, wide_polys), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_wide_coefficients(self, pairs):
        assert poly_dot(pairs) == schoolbook_dot(pairs)

    @given(tight_pairs())
    @settings(max_examples=300, deadline=None)
    def test_tight(self, pairs):
        assert poly_dot(pairs) == schoolbook_dot(pairs)

    def test_bound_reached(self):
        # every coefficient +-M, equal lengths: the middle output
        # coefficient is the bound sum M^2 min(len a, len b) exactly
        for m in (1, 3, 2 ** 40):
            for sign in (1, -1):
                a = IntPoly([m] * 5)
                b = IntPoly([sign * m] * 5)
                dot = poly_dot([(a, b), (a, b)])
                assert dot[4] == sign * 2 * m * m * 5
                assert dot == schoolbook_dot([(a, b), (a, b)])

    def test_edge_cases(self):
        zero, one = IntPoly.zero(), IntPoly.one()
        p = IntPoly((3, -1, 0, 2))
        assert poly_dot([]) == zero
        assert poly_dot([(zero, p), (p, zero), (zero, zero)]) == zero
        assert poly_dot([(p, one), (zero, p)]) == p
        assert poly_dot([(p, one), (-p, one)]) == zero
        # unequal lengths, and cancellation down to a lower degree
        q = IntPoly((1, 1))
        assert poly_dot([(p, q), (IntPoly.t_power(4), IntPoly((-2,)))]) == (
            schoolbook_mul(p, q) - IntPoly((0, 0, 0, 0, 2)))
        assert poly_dot([(IntPoly((-1,)), IntPoly.t_power(9))]) == (
            -IntPoly.t_power(9))


class TestRatFun:
    def test_canonical_form(self):
        # (t^2 - 1)/(t - 1) reduces to t + 1
        r = RatFun(IntPoly((-1, 0, 1)), IntPoly((-1, 1)))
        assert r.is_polynomial()
        assert r.num == IntPoly((1, 1))
        # denominator kept with positive lowest coefficient
        r = RatFun(IntPoly((1,)), IntPoly((-1, -1)))
        assert r.den[0] > 0

    def test_content_reduced(self):
        r = RatFun(IntPoly((2, 4)), IntPoly((6,)))
        assert r == RatFun(IntPoly((1, 2)), IntPoly((3,)))

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=80, deadline=None)
    def test_field_ops(self, an, ad, bn, bd):
        a = RatFun(an, ad)
        b = RatFun(bn, bd)

        def at(p, x):
            return sum(c * x ** i for i, c in enumerate(p.coeffs))

        # the first of 3/7, 4/7, ... that is no pole of a, b or 1/b, and so
        # none of the results either; a fixed point is a root of some
        # generated denominator, such as 7t - 3
        x = next(x for x in (Fraction(k, 7) for k in count(3))
                 if all(at(p, x) != 0 for p in (a.den, b.den, b.num)
                        if not p.is_zero()))

        def val(r):
            return Fraction(at(r.num, x), at(r.den, x))
        assert val(rf_add(a, b)) == val(a) + val(b)
        assert val(rf_mul(a, b)) == val(a) * val(b)
        assert val(rf_sub(a, b)) == val(a) - val(b)
        if not b.num.is_zero():
            assert val(rf_div(a, b)) == val(a) / val(b)

    @given(polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_equality_invariant_under_common_factor(self, n, d, c):
        assert RatFun(n, d) == RatFun(n * c, d * c)

    def test_expand_geometric(self):
        r = RatFun(IntPoly.one(), IntPoly.one_minus_t(1))
        assert expand(r, 5) == [1] * 6
        r = RatFun(IntPoly.one(), IntPoly.one_minus_t(3))
        assert expand(r, 7) == [1, 0, 0, 1, 0, 0, 1, 0]

    @given(polys, st.builds(lambda d0, rest: IntPoly((d0, *rest)),
                            st.sampled_from([1, -1]),
                            st.lists(st.integers(-9, 9), max_size=7)))
    @settings(max_examples=80, deadline=None)
    def test_expand_matches_product(self, n, d):
        r = RatFun(n, d)
        cs = expand(r, 8)
        # multiply the truncated series back by the denominator
        for k in range(min(8, 4) + 1):
            acc = sum(r.den[i] * cs[k - i] for i in range(0, k + 1))
            assert acc == r.num[k]

    def test_expand_pole_at_zero(self):
        with pytest.raises(ValueError):
            expand(RatFun(IntPoly.one(), IntPoly((0, 1))), 3)

    def test_expand_refuses_non_unit_constant_term(self):
        # 1 / (2 + t) has no expansion over the integers
        with pytest.raises(ValueError, match="constant term"):
            expand(RatFun(IntPoly.one(), IntPoly((2, 1))), 3)
        with pytest.raises(ValueError, match="constant term"):
            expand(IntPoly.one(), 3, IntPoly((3, 0, 1)))

    @given(polys, st.lists(st.integers(1, 6), max_size=3),
           st.lists(small_factors, max_size=2))
    def test_expand_over_den_needs_no_normal_form(self, num, ks, factors):
        # a numerator and denominator sharing factors expand like the
        # normalized quotient
        common = _product([], factors)
        assume(common[0] in (1, -1))
        den = IntPoly.one_minus_t(*ks)
        assert (expand(num * common, 12, den * common)
                == expand(RatFun(num, den), 12))

    @given(st.lists(polys, max_size=5))
    def test_poly_sum(self, ps):
        acc = IntPoly.zero()
        for p in ps:
            acc = acc + p
        assert poly_sum(ps) == acc
        assert poly_sum(iter(ps)) == acc

    @given(st.lists(st.integers(1, 12), max_size=4))
    def test_one_minus_t_of_several(self, ks):
        assert IntPoly.one_minus_t(*ks) == _product(ks, [])
        with pytest.raises(ValueError):
            IntPoly.one_minus_t(*ks, 0)

    def test_monomial_shift(self):
        r = RatFun(IntPoly.one(), IntPoly.one_minus_t(2))
        assert monomial_shift(r, 3) == RatFun(IntPoly.t_power(3),
                                              IntPoly.one_minus_t(2))
        assert monomial_shift(monomial_shift(r, 3), -3) == r

    def test_json_round_trip(self):
        r = RatFun(IntPoly((0, 1, 1)), IntPoly((1, 0, 0, -1)))
        assert RatFun.from_json(r.to_json()) == r
        obj = r.to_json()
        assert all(isinstance(c, str) for c in obj["num"] + obj["den"])

    def test_factored_den_product(self):
        den = (IntPoly.one_minus_t(6) * IntPoly.one_minus_t(10)
               * IntPoly.one_minus_t(2))
        rest, ks = factored_den(den)
        assert rest == IntPoly.one()
        assert sorted(ks) == [2, 6, 10]

    def test_str_and_latex(self):
        r = RatFun(IntPoly.t_power(6), IntPoly.one_minus_t(6))
        assert "t^6" in str(r)
        assert r.to_latex() == r"\frac{t^6}{(1 - t^6)}"
        assert poly_str(IntPoly((1, -2, 1))) == "1 - 2*t + t^2"
