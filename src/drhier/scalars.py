"""Exact coefficient arithmetic.

Differential polynomials, operators, Hamiltonians and t-series have
rational coefficients, stdlib ``fractions.Fraction`` (always reduced,
positive denominator).  The r-spin normalization brings in sqrt(-r) only
as even powers, (-r)^n, so it stays over Q too.  ``AlgScalar`` is
Q(i, sqrt(d)) for a single squarefree d; the Weyl-algebra star products of
``quantize`` compute over its Gaussian part Q(i).
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def squarefree_part(n: int) -> tuple[int, int]:
    """Split n > 0 as s^2 * d with d squarefree; returns (d, s)."""
    if n <= 0:
        raise ValueError(f"need a positive integer, got {n}")
    d, s = n, 1
    k = 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return d, s


class AlgScalar:
    """An element a + b*i + c*sqrt(d) + e*i*sqrt(d) of Q(i, sqrt(d)).

    d is a fixed positive squarefree integer.  Values with c = e = 0 live in
    Q(i) and are compatible with any d (their d is normalised to 1); mixing
    two genuinely different extensions is an error.  Instances are immutable
    and hashable; equality is componentwise, and a rational value equals and
    hashes like its ``Fraction``.
    """

    __slots__ = ("a", "b", "c", "e", "d")

    def __init__(self, a, b=_ZERO, c=_ZERO, e=_ZERO, d=1):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if type(c) is not Fraction:
            c = Fraction(c)
        if type(e) is not Fraction:
            e = Fraction(e)
        if not (c or e):
            d = 1
        elif d == 1:
            a, c = a + c, _ZERO
            b, e = b + e, _ZERO
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("AlgScalar is immutable")

    # -- context handling -------------------------------------------------

    @staticmethod
    def _join(x: "AlgScalar", y: "AlgScalar") -> int:
        if x.d == y.d:
            return x.d
        if x.d == 1:
            return y.d
        if y.d == 1:
            return x.d
        raise ValueError(f"mixed quadratic extensions: sqrt({x.d}) vs sqrt({y.d})")

    @staticmethod
    def coerce(value) -> "AlgScalar":
        if isinstance(value, AlgScalar):
            return value
        return AlgScalar(value)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.e)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.e)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not AlgScalar:
            other = AlgScalar.coerce(other)
        if not (self.c or self.e or other.c or other.e):
            # Q(i): add only parts that are nonzero on both sides
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return _gaussian(a1 + a2 if a1 and a2 else a1 or a2,
                             b1 + b2 if b1 and b2 else b1 or b2)
        d = AlgScalar._join(self, other)
        return AlgScalar(self.a + other.a, self.b + other.b,
                         self.c + other.c, self.e + other.e, d)

    __radd__ = __add__

    def __neg__(self):
        return AlgScalar(-self.a, -self.b, -self.c, -self.e, self.d)

    def __sub__(self, other):
        return self + (-AlgScalar.coerce(other))

    def __rsub__(self, other):
        return AlgScalar.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not AlgScalar:
            other = AlgScalar.coerce(other)
        a1, b1, c1, e1 = self.a, self.b, self.c, self.e
        a2, b2, c2, e2 = other.a, other.b, other.c, other.e
        if not (c1 or e1 or c2 or e2):
            # Q(i): nearly every factor is rational or purely imaginary, so
            # form only the products of nonzero parts
            if not b1:
                if not b2:
                    return _gaussian(a1 * a2, _ZERO)
                if not a2:
                    return _gaussian(_ZERO, a1 * b2)
                return _gaussian(a1 * a2, a1 * b2)
            if not a1:
                if not b2:
                    return _gaussian(_ZERO, b1 * a2)
                if not a2:
                    return _gaussian(-(b1 * b2), _ZERO)
                return _gaussian(-(b1 * b2), b1 * a2)
            if not b2:
                return _gaussian(a1 * a2, b1 * a2)
            if not a2:
                return _gaussian(-(b1 * b2), a1 * b2)
            return _gaussian(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
        d = AlgScalar._join(self, other)
        # i^2 = -1, sqrt(d)^2 = d, (i sqrt(d))^2 = -d
        a = a1 * a2 - b1 * b2 + d * (c1 * c2 - e1 * e2)
        b = a1 * b2 + b1 * a2 + d * (c1 * e2 + e1 * c2)
        c = a1 * c2 + c1 * a2 - (b1 * e2 + e1 * b2)
        e = a1 * e2 + e1 * a2 + b1 * c2 + c1 * b2
        return AlgScalar(a, b, c, e, d)

    __rmul__ = __mul__

    def conj_i(self):
        return AlgScalar(self.a, -self.b, self.c, -self.e, self.d)

    def conj_sqrt(self):
        return AlgScalar(self.a, self.b, -self.c, -self.e, self.d)

    def inverse(self) -> "AlgScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero AlgScalar")
        if self.is_rational():
            return AlgScalar(1 / self.a)
        w = self.conj_i() * self.conj_sqrt() * self.conj_i().conj_sqrt()
        norm = self * w
        if not norm.is_rational():
            raise AssertionError("norm of AlgScalar must be rational")
        return w * AlgScalar(1 / norm.a)

    def __truediv__(self, other):
        return self * AlgScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return AlgScalar.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "AlgScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return power_by_squaring(self, n) if n else AlgScalar(1)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgScalar(other)
        if not isinstance(other, AlgScalar):
            return NotImplemented
        if (self.c or self.e) and (other.c or other.e) and self.d != other.d:
            return False
        return (self.a, self.b, self.c, self.e) == (other.a, other.b, other.c, other.e)

    def __hash__(self):
        if not (self.b or self.c or self.e):
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.e))

    def __repr__(self):
        return f"AlgScalar({self.a}, {self.b}, {self.c}, {self.e}, d={self.d})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for coef, unit in ((self.a, ""), (self.b, "i"),
                           (self.c, f"sqrt({self.d})"), (self.e, f"i*sqrt({self.d})")):
            if not coef:
                continue
            if not unit:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(unit)
            elif coef == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{coef}*{unit}")
        return " + ".join(parts).replace("+ -", "- ")


_new = object.__new__
_set = object.__setattr__


def _gaussian(a: Fraction, b: Fraction) -> AlgScalar:
    """a + b*i from two Fractions, without the constructor's coercions."""
    x = _new(AlgScalar)
    _set(x, "a", a)
    _set(x, "b", b)
    _set(x, "c", _ZERO)
    _set(x, "e", _ZERO)
    _set(x, "d", 1)
    return x


def add_term(terms: dict, key, value) -> None:
    """Add value into terms[key] and drop the key when the sum is zero.

    Every sparse container keeps the rule "never store a zero" through this
    one helper; values are any ring elements whose truth value means
    nonzero (AlgScalar, Fraction, DiffPoly).
    """
    cur = terms.get(key)
    new = value if cur is None else cur + value
    if new:
        terms[key] = new
    elif cur is not None:
        del terms[key]


def power_by_squaring(base, n: int):
    """base ** n for n >= 1 by square-and-multiply.

    The one exponentiation loop: it never multiplies by one and never squares
    after the last bit.  Callers handle n <= 0 themselves.
    """
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result
