"""The packed t-series kernel of ``drhier.reconstruct`` against a plain one.

``tseries_reference`` keeps the tuple-monomial, ``Fraction``-valued t-series
as an independent oracle.  Random series in 1 or 2 fields, with subscripts
up to 3 and eps orders up to 3, are packed over one common denominator,
run through the packed kernel and decoded again; the results must equal the
reference's, and the packed ones must store no zero.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tseries_reference as ref
from drhier.reconstruct import (
    SLOT_MAX,
    multiply_series,
    pack_key,
    raise_subscripts,
    t_derivative,
    unpack_key,
)

SOME = settings(max_examples=150, deadline=None)


@st.composite
def cases(draw):
    """A field count, a subscript bound and a seeded generator of series:
    drawing the series from it keeps hypothesis from shrinking them to
    nearly empty ones."""
    rng = draw(st.randoms(use_true_random=False))
    return rng.randint(1, 2), rng.randint(1, 3), rng


def random_monomial(rng, n, t_max):
    powers = {}
    for _ in range(rng.randint(0, 3)):
        var = (rng.randint(1, n), rng.randint(0, t_max))
        powers[var] = powers.get(var, 0) + 1
    return tuple(sorted(powers.items()))


def random_series(rng, n, t_max):
    out = {}
    for _ in range(rng.randint(1, 8)):
        ref.add_term(out, (random_monomial(rng, n, t_max), rng.randint(0, 3)),
                     Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5]), rng.randint(1, 6)))
    return out


def pack(n, plain):
    """(numerators, den) of a plain series."""
    den = lcm(1, *(v.denominator for v in plain.values()))
    return {pack_key(n, m, i): int(v * den) for (m, i), v in plain.items()}, den


def decode(n, packed, den):
    assert all(packed.values()), "a zero is stored"
    return {unpack_key(key, n): Fraction(v, den) for key, v in packed.items()}


@SOME
@given(cases())
def test_key_arithmetic_is_monomial_arithmetic(case):
    n, t_max, rng = case
    m1, m2 = random_monomial(rng, n, t_max), random_monomial(rng, n, t_max)
    i1, i2 = rng.randint(0, 3), rng.randint(0, 3)
    k1, k2 = pack_key(n, m1, i1), pack_key(n, m2, i2)
    assert unpack_key(k1, n) == (m1, i1)
    assert k1 + k2 == pack_key(n, ref.tmon_times(m1, m2), i1 + i2)
    assert (k1 >> 16) & 0xFFFF == ref.tmon_degree(m1)
    assert (k1 >> 32) & 0xFFFF == ref.tmon_rest_degree(m1)
    quotient = ref.tmon_quotient(m1, m2)
    if quotient is not None and i2 <= i1:
        assert k1 - k2 == pack_key(n, quotient, i1 - i2)


@SOME
@given(cases())
def test_derivatives_and_raising_match_the_reference(case):
    n, t_max, rng = case
    plain = random_series(rng, n, t_max)
    var, order = (rng.randint(1, n), rng.randint(0, t_max)), rng.randint(0, 3)
    packed, den = pack(n, plain)
    assert decode(n, t_derivative(packed, n, var, order), den) \
        == ref.t_derivative(plain, var, order)
    assert decode(n, raise_subscripts(packed, n, t_max), den) \
        == ref.raise_subscripts(plain, t_max)


@SOME
@given(cases())
def test_series_products_match_the_reference(case):
    n, t_max, rng = case
    plains = [random_series(rng, n, t_max) for _ in range(rng.randint(0, 3))]
    if plains and rng.random() < 0.3:
        plains.append(plains[0])  # the same series twice, as u*u reads it
    eps_max, deg_max, exact = rng.randint(0, 4), rng.randint(0, 6), rng.random() < 0.5
    rest_max = rng.choice([None, rng.randint(0, 6)])
    packed = [pack(n, plain) for plain in plains]
    den = 1
    for _, d in packed:
        den *= d
    got = multiply_series([p for p, _ in packed], eps_max, deg_max, rest_max, exact)
    assert decode(n, got, den) == ref.series_product(plains, eps_max, deg_max,
                                                     rest_max, exact)


def test_an_overflowing_slot_is_refused():
    assert unpack_key(pack_key(1, (((1, 2), SLOT_MAX),), SLOT_MAX), 1) \
        == ((((1, 2), SLOT_MAX),), SLOT_MAX)
    for m, i in [((((1, 0), SLOT_MAX + 1),), 0),
                 ((((1, 0), SLOT_MAX), ((1, 1), 1)), 0),
                 ((), SLOT_MAX + 1),
                 ((), -1),
                 ((((1, 0), -1),), 0),
                 ((((2, 0), 1),), 0),
                 ((((1, -1), 1),), 0),
                 ((((1, 4093), 1),), 0)]:
        with pytest.raises(ValueError):
            pack_key(1, m, i)
