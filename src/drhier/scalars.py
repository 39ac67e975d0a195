"""Exact coefficient arithmetic.

Operators, Hamiltonians and t-series have rational coefficients, stdlib
``fractions.Fraction`` (always reduced, positive denominator); differential
polynomials store integer numerators over one denominator and hand out
``Fraction``s.  ``exact_rational`` is where a value from Python code becomes
a rational, and it refuses floats; ``read_rational`` is where a JSON string
does, and it takes only the form ``str(Fraction)`` writes.  The r-spin
normalization brings in sqrt(-r) only as even powers, (-r)^n, so it stays
over Q too.  ``AlgScalar`` is the Gaussian rationals Q(i), in which
``quantize`` takes and prints Weyl-algebra coefficients; it computes over
Q.  ``Frozen`` is the base of the package's small immutable records.
"""

from __future__ import annotations

import re
from fractions import Fraction

_ZERO = Fraction(0)
_RATIONAL = re.compile(r"0|-?[1-9][0-9]*(/[1-9][0-9]*)?")  # the shapes of str(Fraction)
_EXCERPT_MAX = 40  # the longest echo of an input value in an error message


class Frozen:
    """An immutable record whose fields are its class's own ``__slots__``.

    Two records are equal when they have the same class and equal fields,
    and they then hash alike; assignment raises AttributeError.  A subclass
    writes its ``__init__`` with its fields as parameters and passes them to
    ``_init`` in slot order, which also keeps them as one tuple, ``_key``, for
    ``==`` and ``hash``.  Slots declared by a base class are not fields:
    they are derived from the fields and neither compared nor printed.

    The runtime uses this instead of ``dataclasses``, whose import and
    per-class code generation cost each process more than the rest of
    importing drhier.
    """

    __slots__ = ("_key",)

    def _init(self, *values):
        for name, value in zip(type(self).__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(type(self).__slots__, self._key))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key


def squarefree_part(n: int) -> int:
    """The squarefree d with n = s^2 * d, for n > 0."""
    if n <= 0:
        raise ValueError(f"need a positive integer, got {n}")
    d = n
    k = 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
        k += 1
    return d


def exact_rational(value) -> Fraction:
    """value as a Fraction: an int, a Fraction, or a string such as "3/7" or
    "1e-1".  Anything else raises ValueError, bools and floats included: the
    binary value of 0.1 is 3602879701896397/36028797018963968, not 1/10.
    """
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected an exact rational, got {value!r}")


def excerpt(value) -> str:
    """How an error echoes a value read from input: repr of a str, str of
    anything else, cut to its two ends around "..." past _EXCERPT_MAX chars."""
    text = repr(value) if isinstance(value, str) else str(value)
    half = (_EXCERPT_MAX - 3) // 2
    return text if len(text) <= _EXCERPT_MAX else f"{text[:half]}...{text[-half:]}"


def read_rational(text) -> Fraction | None:
    """The value of a string as str(Fraction) writes it, such as "0", "-3" or
    "2/7"; None for anything else ("2/4", "1e1", "0.5", " 1", a number).  The
    shape is checked first, so no exponent is ever expanded."""
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        try:
            value = Fraction(text)
        except ValueError:  # a numeral above the int string limit
            return None
        return value if str(value) == text else None
    return None


class AlgScalar:
    """A Gaussian rational a + b*i, a and b Fractions.

    Instances are immutable and hashable; equality is componentwise, and a
    rational value equals and hashes like its ``Fraction``.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=_ZERO):
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def __setattr__(self, *args):
        raise AttributeError("AlgScalar is immutable")

    @staticmethod
    def coerce(value) -> "AlgScalar":
        return value if isinstance(value, AlgScalar) else AlgScalar(value)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = AlgScalar.coerce(other)
        return AlgScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return AlgScalar(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-AlgScalar.coerce(other))

    def __mul__(self, other):
        other = AlgScalar.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return AlgScalar(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)

    __rmul__ = __mul__

    def inverse(self) -> "AlgScalar":
        """(a - b*i) / (a^2 + b^2)."""
        if not self:
            raise ZeroDivisionError("inverse of zero AlgScalar")
        norm = self.a * self.a + self.b * self.b
        return AlgScalar(self.a / norm, -self.b / norm)

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
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self):
        return f"AlgScalar({self.a}, {self.b})"

    def __str__(self):
        if not self:
            return "0"
        parts = [str(self.a)] if self.a else []
        if self.b:
            b = self.b
            parts.append("i" if b == 1 else "-i" if b == -1 else f"{b}*i")
        return " + ".join(parts).replace("+ -", "- ")


def add_term(terms: dict, key, value) -> None:
    """Add value into terms[key] and drop the key when the sum is zero.

    The never-store-a-zero rule of the sparse containers of ring elements,
    whose truth value means nonzero (AlgScalar, Fraction, DiffPoly).  The
    packed kernels keep int numerators in the canonical form of ``slots``
    instead.
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
