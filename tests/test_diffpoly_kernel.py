"""The packed-monomial, integer-numerator kernel against a plain reference.

``diffpoly_reference`` keeps the tuple-monomial, ``Fraction``-valued
representation as an independent oracle.  Every operation is checked on
random polynomials in 1 to 4 fields, with eps exponents, jet orders at and
beyond 2N and powers above one, through the decoded view ``items()``.  The
kernel's results must also be in canonical form: positive denominator,
numerators coprime to it, no zero stored.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffpoly_reference import RefPoly, canonical_density
from drhier.diffpoly import DiffPoly, LocalFunctional, Ring

SOME = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
nonzero = rationals.filter(bool)


@st.composite
def term_dicts(draw, n, max_terms=4, max_order=None, max_power=3):
    max_order = 2 * n + 1 if max_order is None else max_order
    jets = st.tuples(st.integers(1, n), st.integers(0, max_order), st.integers(1, max_power))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mon = (draw(st.integers(0, 3)), tuple(draw(st.lists(jets, max_size=3))))
        terms[mon] = terms.get(mon, 0) + draw(rationals)
    return terms


@st.composite
def pairs(draw, count=1, **kwargs):
    """A field count and `count` polynomials, each as (kernel, reference)."""
    n = draw(st.integers(1, 4))
    ring = Ring(n)
    polys = []
    for _ in range(count):
        terms = draw(term_dicts(n, **kwargs))
        polys.append((DiffPoly.from_items(ring, terms.items()), RefPoly(terms)))
    return ring, polys


def agree(poly: DiffPoly, ref: RefPoly):
    assert poly.den > 0 and all(poly.terms.values())
    assert gcd(poly.den, *poly.terms.values()) == 1
    assert dict(poly.items()) == ref.terms


@SOME
@given(pairs(count=2))
def test_ring_operations_match_the_reference(case):
    _, ((a, ra), (b, rb)) = case
    agree(a, ra)
    agree(a * b, ra * rb)
    agree(a + b, ra + rb)
    agree(a - b, ra - rb)
    agree(-a, -ra)
    assert (a + b == b + a) and (a * b == b * a)
    assert hash(a * b) == hash(b * a)


@SOME
@given(pairs(), st.one_of(nonzero, st.integers(-9, 9).filter(bool)))
def test_scalar_multiples_match_the_reference(case, c):
    _, ((a, ra),) = case
    agree(a * c, ra * c)
    agree(c * a, ra * c)
    agree(a / c, ra / c)
    agree(a * 0, RefPoly())
    agree(a * Fraction(0), RefPoly())


def test_scalar_multiples_refuse_floats_and_division_by_zero():
    a = DiffPoly.jet(Ring(1), 1, 0) + Fraction(1, 3)
    for bad in (0.5, 2.0, True):
        with pytest.raises(ValueError, match="exact rational"):
            a * bad
        with pytest.raises(ValueError, match="exact rational"):
            bad * a
        with pytest.raises(ValueError, match="exact rational"):
            a / bad
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero


@SOME
@given(pairs(), st.data())
def test_calculus_matches_the_reference(case, data):
    ring, ((a, ra),) = case
    agree(a.dx(), ra.dx())
    agree(a.dx_pow(2), ra.dx_pow(2))
    alpha = data.draw(st.integers(1, ring.n_fields))
    order = data.draw(st.integers(0, 2 * ring.n_fields + 1))
    agree(a.partial(alpha, order), ra.partial(alpha, order))
    agree(a.var_der(alpha), ra.var_der(alpha))


@SOME
@given(pairs(), st.integers(-3, 3), st.integers(0, 3))
def test_eps_shift_and_truncation_match_the_reference(case, k, emax):
    _, ((a, ra),) = case
    agree(a.truncate_eps(emax), ra.truncate_eps(emax))
    try:
        expected = ra.eps_shift(k)
    except ValueError:
        with pytest.raises(ValueError):
            a.eps_shift(k)
    else:
        agree(a.eps_shift(k), expected)


@SOME
@given(st.data())
def test_substitution_matches_the_reference(data):
    ring, ((a, ra),) = data.draw(pairs(max_order=2, max_power=2))
    images = {}
    ref_images = {}
    for alpha in range(1, ring.n_fields + 1):
        terms = data.draw(term_dicts(ring.n_fields, max_terms=2, max_order=1, max_power=1))
        images[alpha] = DiffPoly.from_items(ring, terms.items())
        ref_images[alpha] = RefPoly(terms)
    agree(a.substitute(images), ra.substitute(ref_images))


@SOME
@given(pairs(max_power=2))
def test_canonical_density_matches_the_reference(case):
    _, ((a, ra),) = case
    agree(LocalFunctional(a).canonical_density(), canonical_density(ra))


def test_rings_do_not_mix_even_through_a_zero():
    zero, u = DiffPoly.zero(Ring(1)), DiffPoly.jet(Ring(2), 1, 0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="ring context mismatch"):
            op(zero, u)
        with pytest.raises(ValueError, match="ring context mismatch"):
            op(u, zero)
    # an equal ring built apart is the same ring: a product skips the check
    # only for the ring object itself, and compares the others
    v = DiffPoly.jet(Ring(2), 2, 0)
    assert v.ring is not u.ring and (u * v).ring is u.ring
    assert (u * v) == (v * u) and len((u * v).terms) == 1


# -- the slot guards ----------------------------------------------------------------

SLOT_MAX = 2 ** 15 - 1


def test_a_power_beyond_its_slot_is_refused():
    ring = Ring(2)
    with pytest.raises(ValueError, match="exceeds"):
        DiffPoly.jet(ring, 1, 0, SLOT_MAX + 1)
    big = DiffPoly.jet(ring, 2, 0, 20000)
    with pytest.raises(ValueError, match="exceeds"):
        big * big
    assert (big * DiffPoly.jet(ring, 2, 0, SLOT_MAX - 20000)).render() == f"u2^{SLOT_MAX}"


def test_repeated_jets_are_checked_slot_by_slot():
    ring = Ring(2)
    # three powers of 20000 in one slot would carry into the next one
    with pytest.raises(ValueError, match="exceeds"):
        DiffPoly.from_items(ring, [((0, ((1, 0, 20000),) * 3), 1)])
    # 40000 factors in total, but no slot above its bound
    split = DiffPoly.from_items(ring, [((0, ((1, 0, 20000), (2, 0, 20000))), 1)])
    assert split.render() == "u1^20000*u2^20000"


def test_a_jet_beyond_the_slot_bound_is_refused():
    # slot 1 + order * N + alpha; a key of s slots is a 16 s-bit int
    assert DiffPoly.jet(Ring(1), 1, 4093).render() == "u_4093"  # slot 4095
    with pytest.raises(ValueError, match="packed slot 4096, above 4095"):
        DiffPoly.jet(Ring(1), 1, 4094)
    with pytest.raises(ValueError, match="packed slot 12286095"):
        DiffPoly.from_items(Ring(4094), [((0, ((4094, 3000, 2),)), 1)])
    # a ring whose u^N_0 is already beyond the bound is refused when it is made
    with pytest.raises(ValueError, match="packed slot 10001 for u\\^10000_0, above 4095"):
        Ring(10000)


def test_a_derivative_degree_beyond_its_slot_is_refused():
    ring = Ring(1)
    top = DiffPoly.jet(ring, 1, 1, SLOT_MAX)  # derivative degree SLOT_MAX
    with pytest.raises(ValueError, match="exceeds"):
        top.dx()
    with pytest.raises(ValueError, match="exceeds"):
        top * DiffPoly.jet(ring, 1, 1)


def test_an_eps_exponent_outside_its_slot_is_refused():
    ring = Ring(1)
    u = DiffPoly.jet(ring, 1, 0)
    with pytest.raises(ValueError):
        DiffPoly.eps(ring, -1)
    with pytest.raises(ValueError):
        u.eps_shift(-1)
    with pytest.raises(ValueError):
        (u + u.eps_shift(2)).eps_shift(-1)
    assert (u.eps_shift(2)).eps_shift(-2) == u
    with pytest.raises(ValueError):
        DiffPoly.eps(ring, SLOT_MAX).eps_shift(1)
    with pytest.raises(ValueError):
        DiffPoly.eps(ring, SLOT_MAX) * DiffPoly.eps(ring, 1)
    with pytest.raises(ValueError):
        DiffPoly.eps(ring, SLOT_MAX + 1)
