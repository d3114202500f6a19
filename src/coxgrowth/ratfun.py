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
and so runs a gcd, only once per reported series.  RatFun's arithmetic
operators remain for references and interactive use.

Sums of products, the bulk of that IntPoly work, run packed: `poly_dot`
evaluates every operand at t = 2^B, with the slot width B taken from a
proven bound on the output coefficients, sums the integer products and
reads the coefficients back off the one integer (Kronecker substitution).
The identity suites pack their polynomials once each with `pack`, at a
width from `pack_bits`, and compare the packed values.
`IntPoly.__mul__` stays the schoolbook product for single products, and
`poly_sum` adds into one coefficient list."""

from __future__ import annotations

from math import gcd
from operator import add


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
    def const(cls, c):
        return cls((c,))

    @classmethod
    def t_power(cls, k):
        """t^k"""
        return cls((0,) * k + (1,))

    @classmethod
    def one_minus_t(cls, *ks):
        """prod (1 - t^k) over ks, each k >= 1; 1 for none."""
        out = cls.one()
        for k in ks:
            if k < 1:
                raise ValueError("need k >= 1")
            out = out * cls((1,) + (0,) * (k - 1) + (-1,))
        return out

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
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

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

    Divides top-down in integers and raises ValueError as soon as a
    leading coefficient is not divisible by lc(b), or when a nonzero
    remainder is left.
    """
    bc = b.coeffs
    if not bc:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    n = len(bc) - 1
    lc = bc[-1]
    q = [0] * max(0, len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + n]
        if top:
            f, m = divmod(top, lc)
            if m:
                raise ValueError("non-integer quotient")
            q[k] = f
            for i in range(n):
                r[k + i] -= f * bc[i]
    if any(r[:n]):
        raise ValueError("inexact polynomial division")
    return IntPoly(q)


def _primitive(c):
    """Coefficient list divided by its content (sign kept)."""
    g = gcd(*c)
    return c if g <= 1 else [x // g for x in c]


def poly_gcd(a, b):
    """Gcd in Q[t], returned as a primitive integer polynomial with
    positive leading coefficient (zero when both operands are zero).

    Primitive pseudo-remainder sequence in Z[t] (Knuth, TAOCP vol. 2,
    4.6.1; Collins 1967): each reduction step is
    r <- (lc/g) r - (top/g) t^k b with g = gcd(lc, top), and every
    remainder is replaced by its primitive part, so only ints occur.
    """
    if a.degree == 0 or b.degree == 0:
        return IntPoly.one()
    x, y = _primitive(list(a.coeffs)), _primitive(list(b.coeffs))
    if len(x) < len(y):
        x, y = y, x
    while y:
        if len(y) == 1:
            return IntPoly.one()
        n = len(y) - 1
        lc = y[-1]
        while len(x) > n:
            top = x.pop()
            k = len(x) - n
            g = gcd(lc, top)
            u, v = lc // g, top // g
            if u != 1:
                x = [u * c for c in x]
            for i in range(n):
                x[k + i] -= v * y[i]
            while x and not x[-1]:
                x.pop()
        x, y = y, _primitive(x)
    if x and x[-1] < 0:
        x = [-c for c in x]
    return IntPoly(x)


class RatFun:
    """Normalized quotient of integer polynomials.

    Invariants: den != 0; num and den are coprime in Q[t]; the joint
    integer content of num and den is 1; the lowest nonzero coefficient
    of den is positive.  This makes the representation canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = IntPoly.one()
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(IntPoly.zero())

    @classmethod
    def one(cls):
        return cls(IntPoly.one())

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == IntPoly.one()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, IntPoly):
            return RatFun(other)
        if isinstance(other, int):
            return RatFun(IntPoly.const(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, IntPoly)):
            other = self._coerce(other)
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
    low = next(c for c in den.coeffs if c != 0)
    if low < 0:
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
    `bound`: then |c| < 2^(B-2), inside the signed range of `_unpack`, so
    two such polynomials have equal packed values only when they are
    equal."""
    return bound.bit_length() + 2


def pack(p, bits):
    """The integer p(2^bits), by shift-and-add."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc << bits) + c
    return acc


def _unpack(value, bits):
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
    return _unpack(sum(pack(a, bits) * pack(b, bits) for a, b in pairs),
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
    out = []
    for k in range(n + 1):
        acc = num[k]
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
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
