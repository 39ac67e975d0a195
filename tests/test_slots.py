"""The canonical form of packed coefficients against ``Fraction`` arithmetic.

``slots`` owns the form every packed kernel keeps: int numerators over one
den > 0, no zero stored, and gcd(den, numerators) = 1.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from drhier.slots import canonical, canonical_scale, canonical_sum, over_one_den

SOME = settings(max_examples=200, deadline=None)

KEYS = st.integers(0, 6)
RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 36))
NUMERATORS = st.dictionaries(KEYS, st.integers(-60, 60), max_size=6)
DENOMINATORS = st.integers(1, 72)


def canonical_operand(coeffs: dict) -> tuple[dict, int]:
    return over_one_den({key: c for key, c in coeffs.items() if c})


OPERANDS = st.dictionaries(KEYS, RATIONALS, max_size=6).map(canonical_operand)


def value(terms: dict, den: int) -> dict:
    return {key: Fraction(v, den) for key, v in terms.items()}


def assert_canonical(terms: dict, den: int) -> None:
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in terms.values())
    assert gcd(den, *terms.values()) == 1


@SOME
@given(coeffs=st.dictionaries(KEYS, RATIONALS, max_size=6))
def test_over_one_den_is_in_lowest_terms(coeffs):
    nonzero = {key: c for key, c in coeffs.items() if c}
    terms, den = over_one_den(nonzero)
    assert_canonical(terms, den)
    assert value(terms, den) == nonzero


@SOME
@given(acc=NUMERATORS, den=DENOMINATORS)
def test_canonical_drops_zeros_and_divides_out_the_content(acc, den):
    before = dict(acc)
    terms, out_den = canonical(acc, den)
    assert_canonical(terms, out_den)
    assert value(terms, out_den) == {key: Fraction(v, den) for key, v in before.items() if v}
    # the accumulator is adopted only when it holds no zero, and then unless
    # a content is divided out
    if 0 in before.values():
        assert terms is not acc
    elif gcd(den, *before.values()) == 1:
        assert terms is acc
    assert acc == before


@SOME
@given(f=OPERANDS, g=OPERANDS, sign=st.sampled_from([1, -1]))
def test_canonical_sum_matches_fraction_sums(f, g, sign):
    (t1, d1), (t2, d2) = f, g
    copies = dict(t1), dict(t2)
    terms, den = canonical_sum(t1, d1, t2, d2, sign)
    assert_canonical(terms, den)
    want = value(t1, d1)
    for key, c in value(t2, d2).items():
        want[key] = want.get(key, 0) + sign * c
    assert value(terms, den) == {key: c for key, c in want.items() if c}
    assert (t1, t2) == copies  # the operands are left as they were


@SOME
@given(f=OPERANDS, s=RATIONALS)
def test_canonical_scale_matches_fraction_products(f, s):
    terms, den = canonical_scale(*f, s.numerator, s.denominator)
    assert_canonical(terms, den)
    assert value(terms, den) == {key: c * s for key, c in value(*f).items() if s}
