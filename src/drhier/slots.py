"""Packed exponent vectors: the slot format shared by every packed kernel.

A packed key is one int of ``W``-bit slots, one exponent per slot, so a
product of monomials is the sum of their keys (Monagan-Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  The top bit of every slot is a guard: a slot holds at most
``SLOT_MAX``, and the sum of two in-range slots stays below 2^W, so it
never carries into the next slot and an overflow sets the guard instead.
A kernel refuses a key with a guard bit set (``check_slots``), and it
refuses a slot index above ``TOP_SLOT`` when it builds a key from outside.

``diffpoly`` (jet monomials), ``reconstruct`` (t-monomials) and
``quantize`` (Weyl-algebra mode counts) pack their keys in this format and
keep their coefficients as int numerators over one denominator.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import lcm
from operator import or_

W = 16                    # bits per slot; the top one is the guard
MASK = (1 << W) - 1
SLOT_MAX = MASK >> 1      # the largest exponent a slot holds
GUARD = 1 << (W - 1)
# The highest slot index a key built from outside may use.  A key of s slots
# is an int of 16 s bits that every product copies, so the slot index bounds
# the memory one monomial takes: 4095 keeps a key within 8 KiB.
TOP_SLOT = (1 << 12) - 1


@lru_cache(maxsize=64)
def guard_slots(n_slots: int) -> int:
    """The guard bits of slots 0 .. n_slots - 1."""
    return GUARD * (((1 << (W * n_slots)) - 1) // MASK)


def check_slots(keys) -> None:
    """Refuse packed keys with a guard bit set: an exponent that overflowed.

    The OR of the keys has a guard bit set exactly when some key has.
    """
    every = reduce(or_, keys, 0)
    if every & guard_slots(every.bit_length() // W + 1):
        raise ValueError(f"a monomial exponent exceeds {SLOT_MAX}")


def nonzero_slots(key: int, start: int = 0) -> list[tuple[int, int]]:
    """(bit offset, value) of every nonzero slot of a key from bit ``start``
    on, ``start`` a multiple of W."""
    out = []
    rest = key >> start
    while rest:
        low = (rest & -rest).bit_length() - 1
        shift = low - low % W
        value = (rest >> shift) & MASK
        rest ^= value << shift
        out.append((shift + start, value))
    return out


def over_one_den(coeffs: dict) -> tuple[dict, int]:
    """Nonzero Fractions as (int numerators, den) in lowest terms.

    den is the lcm of the reduced denominators, so each prime power of den is
    the whole denominator of some coefficient, whose numerator that prime
    does not divide: gcd(den, numerators) = 1 with no gcd taken.
    """
    den = lcm(*[c.denominator for c in coeffs.values()])
    return {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den
