"""Property tests of the sparse-term containers and the Fourier dictionary.

DiffPoly, finite PseudoDiffOp and WeylElement share one rule: a stored
coefficient is never zero.  Sums that cancel must leave no terms behind,
and products must not store the zeros their cancellations produce.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from drhier.diffpoly import DiffPoly, Ring, eps_dress, integrate
from drhier.gdhier import eta_matrix
from drhier.psido import PseudoDiffOp
from drhier.quantize import StandardRule, WeylContext, WeylElement, lf_to_p_series, weyl_star
from drhier.scalars import AlgScalar

FEW = settings(max_examples=25, deadline=None)
RING = Ring(2)
WEYL = WeylContext(n_fields=2, window=2)
RULE = StandardRule.from_eta(eta_matrix(3))

# differential polynomials are over Q; a star-product coefficient of
# hbar^h eps^e is q i^(h+e) with q rational
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
I = AlgScalar(0, 1)
jets = st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(1, 2))


@st.composite
def diffpolys(draw, max_terms=4, max_factors=2, coefficients=rationals, max_eps=2):
    poly = DiffPoly.zero(RING)
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.const(RING, draw(coefficients)).eps_shift(
            draw(st.integers(0, max_eps)))
        for alpha, order, power in draw(st.lists(jets, max_size=max_factors)):
            term = term * DiffPoly.jet(RING, alpha, order, power)
        poly = poly + term
    return poly


@st.composite
def operators(draw):
    return PseudoDiffOp.finite(RING, {j: draw(diffpolys(max_terms=2))
                                      for j in draw(st.sets(st.integers(0, 3), max_size=3))})


@st.composite
def weyl_elements(draw):
    modes = st.tuples(st.integers(1, 2), st.integers(-2, 2))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        counts: dict = {}
        for mode in draw(st.lists(modes, max_size=3)):
            counts[mode] = counts.get(mode, 0) + 1
        h, e = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        key = (h, e, tuple(sorted((a, k, p) for (a, k), p in counts.items())))
        terms[key] = I ** (h + e) * draw(rationals)
    return WeylElement(WEYL, terms)


def stored(x) -> dict:
    return x.coeffs if isinstance(x, PseudoDiffOp) else x.terms


containers = st.one_of(diffpolys(), operators(), weyl_elements())


@FEW
@given(containers)
def test_cancelling_sum_stores_nothing(x):
    assert stored(x + (-x)) == {}


@FEW
@given(st.data())
def test_add_then_subtract_is_identity(data):
    kind = data.draw(st.sampled_from([diffpolys(), operators(), weyl_elements()]))
    a, b = data.draw(kind), data.draw(kind)
    assert (a + b) - b == a


@FEW
@given(diffpolys(), diffpolys())
def test_diffpoly_product_stores_no_zero(a, b):
    assert all(stored(a * b).values())


@FEW
@given(operators(), operators())
def test_operator_product_stores_no_zero(a, b):
    coeffs = stored(a * b)
    assert all(c.terms and all(c.terms.values()) for c in coeffs.values())


@FEW
@given(weyl_elements(), weyl_elements())
def test_star_product_stores_no_zero(a, b):
    assert all(stored(weyl_star(a, b, RULE)).values())


# the Fourier dictionary, on rational polynomials of at most three factors;
# eps-dressed ones, whose images lie in i^e Q at eps^e


def image(poly):
    return lf_to_p_series(integrate(eps_dress(poly)), 2)


@FEW
@given(diffpolys(max_terms=3, max_eps=0), diffpolys(max_terms=3, max_eps=0), rationals)
def test_p_series_is_linear(a, b, c):
    assert image(a * c + b) == image(a).scale(c) + image(b)


@FEW
@given(diffpolys(max_terms=3, coefficients=rationals))
def test_p_series_kills_total_derivatives(q):
    assert lf_to_p_series(integrate(q.dx()), 2).is_zero()
