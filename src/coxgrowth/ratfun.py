"""Exact polynomial and rational-function arithmetic over Z in one variable t.

Normalization (gcd, exact division) and expansion use int arithmetic
alone; `expand` takes only denominators with constant term +-1, which
every pipeline series has.  Nothing uses Fractions or floating point.
IntPoly is a dense integer polynomial that trusts its input: every
caller passes ints (`RatFun.from_json` converts its decimal strings), so
construction only trims trailing zeros.  RatFun is a fully normalized
quotient of two IntPoly values.  RatFun normalization is canonical, so
structural equality coincides with equality of rational functions.  The
rest of the package computes on IntPoly alone, keeping its sums as
numerators over one fixed product of factors 1 - t^k
(`IntPoly.one_minus_t`) and expanding them over it; it builds a RatFun,
and so runs a gcd, only once per distinct reported numerator.  A RatFun
is a value to compare, print and serialize, and has no arithmetic
operators.  The gcd is one integer gcd at t = 2^B, checked by exact
division (`poly_gcd`); exact division and `expand` loop over the nonzero
terms of the divisor alone, as the products of 1 - t^k are sparse.

Sums of products, the bulk of that IntPoly work, run packed: `poly_dot`
evaluates every operand at t = 2^B, with the slot width B taken from a
proven bound on the output coefficients, sums the integer products and
reads the coefficients back off the one integer (Kronecker substitution).
The affine pipeline and the identity suites pack their polynomials once
each with `pack`, at one width from `pack_bits`, sum and compare the
packed values, and `unpack` only what they report or expand.  A single
product, `IntPoly.__mul__`, is a `poly_dot` of one pair, and `poly_sum`
adds into one coefficient list."""

from __future__ import annotations

from math import gcd
from operator import add, sub


class IntPoly:
    """Dense integer polynomial; coeffs[k] is the coefficient of t^k.

    Canonical form: no trailing zeros, the zero polynomial is ().
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = tuple(coeffs)
        end = len(c)
        while end and not c[end - 1]:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def t_power(cls, k):
        """t^k"""
        return cls((0,) * k + (1,))

    @classmethod
    def one_minus_t(cls, *ks):
        """prod (1 - t^k) over ks, each k >= 1; 1 for none, each factor
        taken as p (1 - t^k) = p - t^k p."""
        out = [1]
        for k in ks:
            if k < 1:
                raise ValueError("need k >= 1")
            out = list(map(sub, out + [0] * k, [0] * k + out))
        return cls(out)

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __iter__(self):
        # without this, iteration would run off the end through
        # __getitem__, which never raises
        return iter(self.coeffs)

    def content(self):
        return gcd(*self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return poly_sum((self, other))

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return poly_dot(((self, other),))

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        return poly_str(self)


def poly_str(p, var="t"):
    if p.is_zero():
        return "0"
    terms = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            tv = var if k == 1 else f"{var}^{k}"
            if c == 1:
                terms.append(tv)
            elif c == -1:
                terms.append(f"-{tv}")
            else:
                terms.append(f"{c}*{tv}")
    out = terms[0]
    for s in terms[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def poly_exact_div(a, b):
    """a / b for integer polynomials whose quotient lies in Z[t].

    Divides top-down in integers over the nonzero terms of b, and raises
    ValueError as soon as a leading coefficient is not divisible by
    lc(b), or when a nonzero remainder is left.
    """
    bc = b.coeffs
    if not bc:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    n, lc = len(bc) - 1, bc[-1]
    terms = [(i, c) for i, c in enumerate(bc[:n]) if c]
    q = [0] * max(0, len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + n]
        if top:
            f, m = divmod(top, lc)
            if m:
                raise ValueError("non-integer quotient")
            q[k] = f
            for i, c in terms:
                r[k + i] -= f * c
    if any(r[:n]):
        raise ValueError("inexact polynomial division")
    return IntPoly(q)


def _primitive(c):
    """Coefficients c over their content, with positive leading one."""
    g = gcd(*c)
    return [x // (g if c[-1] > 0 else -g) for x in c]


def poly_gcd(a, b):
    """Gcd in Q[t], returned as a primitive integer polynomial with
    positive leading coefficient (zero when both operands are zero).

    Heuristic gcd (Char, Geddes and Gonnet, GCDHEU, J. Symbolic
    Computation 7, 1989): the candidate g is the primitive part of the
    balanced digits (`unpack`) of gcd(a(2^B), b(2^B)).  B starts with
    2^B > 2 min(|a|, |b|) + 2, |.| the largest absolute coefficient, where
    by the CGG theorem a g that divides both operands is their gcd; else
    B doubles.  The integer gcd is |g(2^B)| times a divisor of
    content(a) content(b) res(a/g, b/g), so once 2^(B-1) exceeds that
    bound times |g|, the digits are a multiple of g and the loop ends.
    """
    if a.degree == 0 or b.degree == 0:
        return IntPoly.one()
    if not a.coeffs or not b.coeffs:
        return IntPoly(_primitive(a.coeffs or b.coeffs))
    bits = (2 * min(height(a), height(b)) + 2).bit_length()
    while True:
        g = IntPoly(_primitive(
            unpack(gcd(pack(a, bits), pack(b, bits)), bits).coeffs))
        if g.degree == 0:
            return g
        try:
            poly_exact_div(a, g)
            poly_exact_div(b, g)
            return g
        except ValueError:
            bits *= 2


class RatFun:
    """Normalized quotient of integer polynomials.

    Invariants: den != 0; num and den are coprime in Q[t]; the joint
    integer content of num and den is 1; the lowest nonzero coefficient
    of den is positive.  This makes the representation canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = IntPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    def is_polynomial(self):
        return self.den == IntPoly.one()

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        # canonical form, but cross-multiplication is the contract
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    # -- serialization ------------------------------------------------

    def to_json(self):
        """JSON-friendly dict with decimal-string coefficients."""
        return {"num": [str(c) for c in self.num.coeffs],
                "den": [str(c) for c in self.den.coeffs]}

    @classmethod
    def from_json(cls, obj):
        return cls(IntPoly(tuple(int(c) for c in obj["num"])),
                   IntPoly(tuple(int(c) for c in obj["den"])))

    def to_latex(self):
        num = poly_str(self.num)
        if self.is_polynomial():
            return num
        return r"\frac{%s}{%s}" % (num, factored_den_str(self.den))


def _normalize(num, den):
    if num.is_zero():
        return IntPoly.zero(), IntPoly.one()
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = poly_exact_div(num, g)
        den = poly_exact_div(den, g)
    c = gcd(num.content(), den.content())
    if c > 1:
        num = IntPoly(tuple(x // c for x in num.coeffs))
        den = IntPoly(tuple(x // c for x in den.coeffs))
    if next(c for c in den.coeffs if c) < 0:
        num, den = -num, -den
    return num, den


def poly_sum(polys):
    """Sum of integer polynomials (zero for none), accumulated in one
    coefficient list."""
    out = []
    for p in polys:
        c = p.coeffs
        if len(c) > len(out):
            out, c = list(c), out
        out[:len(c)] = map(add, out, c)
    return IntPoly(out)


def height(p):
    """Largest absolute value of a coefficient (0 for the zero
    polynomial)."""
    return max(map(abs, p.coeffs), default=0)


def pack_bits(bound):
    """Slot width B for packed coefficients of absolute value at most
    `bound`: then |c| < 2^(B-2), inside the signed range of `unpack`, so
    two such polynomials have equal packed values only when they are
    equal."""
    return bound.bit_length() + 2


def pack(p, bits):
    """The integer p(2^bits), by shift-and-add."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc << bits) + c
    return acc


def unpack(value, bits):
    """The polynomial with value `value` at 2^bits whose coefficients lie
    in [-2^(bits-1), 2^(bits-1)): take the low bits, less 2^bits when
    they are at least 2^(bits-1), and carry."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    while value:
        c = value & mask
        value >>= bits
        if c >= half:
            c -= mask + 1
            value += 1
        out.append(c)
    return IntPoly(out)


def poly_dot(pairs):
    """sum a * b over the (a, b) pairs of integer polynomials (zero for
    none), as one sum of packed integers (Kronecker substitution; von zur
    Gathen and Gerhard, Modern Computer Algebra, 8.4).

    Every output coefficient is at most
    sum max|a| * max|b| * min(len a, len b) in absolute value, which sets
    the slot width; each operand is packed once, the integer products are
    summed, and the sum is unpacked once.
    """
    pairs = [(a, b) for a, b in pairs if a.coeffs and b.coeffs]
    bits = pack_bits(sum(height(a) * height(b)
                         * min(len(a.coeffs), len(b.coeffs))
                         for a, b in pairs))
    return unpack(sum(pack(a, bits) * pack(b, bits) for a, b in pairs),
                   bits)


def expand(r, n, den=None):
    """Coefficients c_0..c_n of the power-series expansion at t=0 of the
    RatFun r, or of the IntPoly r over den, which need not be coprime.

    Requires den(0) = +-1, as every pipeline series has (D(0) = 1), so the
    recurrence runs in ints alone (1/d0 == d0); raises ValueError else.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    num, den = (r.num, r.den.coeffs) if den is None else (r, den.coeffs)
    d0 = den[0]
    if d0 not in (1, -1):
        raise ValueError(f"expand needs a denominator with constant term "
                         f"+-1, not {d0}")
    terms = [(i, c) for i, c in enumerate(den) if i and c]
    out = []
    for k in range(n + 1):
        acc = num[k]
        for i, c in terms:
            if i > k:
                break
            acc -= c * out[k - i]
        out.append(acc * d0)
    return out


def factored_den(den):
    """Factor den as c * prod (1 - t^k) as far as possible.

    Returns (c: IntPoly remainder, [k1, k2, ...]).  A reduced pipeline
    denominator need not factor completely: the B3 series of Q = {2},
    J = {1}, K = {2} has (1 + t^2 + t^4 + t^6)(1 - t^5)(1 - t^9).
    """
    best = [den, []]

    def rec(rest, kmax, acc):
        if rest.degree < best[0].degree:
            best[0], best[1] = rest, list(acc)
        if best[0].degree == 0:
            return True
        for k in range(min(kmax, rest.degree), 0, -1):
            try:
                q = poly_exact_div(rest, IntPoly.one_minus_t(k))
            except ValueError:
                continue
            acc.append(k)
            done = rec(q, k, acc)
            acc.pop()
            if done:
                return True
        return False

    rec(den, den.degree, [])
    return best[0], sorted(best[1])


def factored_den_str(den):
    rest, ks = factored_den(den)
    parts = []
    if rest != IntPoly.one():
        parts.append(f"({poly_str(rest)})")
    for k in ks:
        parts.append(f"(1 - t^{k})" if k > 1 else "(1 - t)")
    return "".join(parts) if parts else "1"
