import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drhier.scalars import AlgScalar, squarefree_part


# -- AlgScalar -------------------------------------------------------------------------

def test_squarefree_part():
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(4) == (1, 2)
    assert squarefree_part(12) == (3, 2)
    assert squarefree_part(5) == (5, 1)


def rand_scalar(rng, d):
    return AlgScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)), d)


def test_algscalar_field_axioms_sampled():
    rng = random.Random(7)
    for d in (1, 2, 3, 5):
        for _ in range(40):
            x, y, z = (rand_scalar(rng, d) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            if x:
                assert x * x.inverse() == AlgScalar(1)


def test_algscalar_units():
    i = AlgScalar(0, 1)
    assert i * i == AlgScalar(-1)
    s3 = AlgScalar(0, 0, 1, 0, 3)
    assert s3 * s3 == AlgScalar(3)
    is3 = AlgScalar(0, 0, 0, 1, 3)
    assert is3 * is3 == AlgScalar(-3)


def test_algscalar_context_rules():
    s2 = AlgScalar(0, 0, 1, 0, 2)
    s3 = AlgScalar(0, 0, 1, 0, 3)
    with pytest.raises(ValueError):
        _ = s2 * s3
    # Q(i) values are context-free
    i = AlgScalar(0, 1)
    assert (i * s3).d == 3


@pytest.mark.parametrize("args, stored", [
    ((Fraction(1, 2), 3, 0, 0, 5), (Fraction(1, 2), 3, 0, 0, 1)),  # no sqrt part: d = 1
    ((1, 0, 2, -1, 1), (3, -1, 0, 0, 1)),  # sqrt(1) folds into a and b
    ((0, 0, Fraction(1, 3), 0, 5), (0, 0, Fraction(1, 3), 0, 5)),
    (("1/4", 1.5), (Fraction(1, 4), Fraction(3, 2), 0, 0, 1)),
])
def test_algscalar_stores_fractions_and_normalises_d(args, stored):
    x = AlgScalar(*args)
    assert (x.a, x.b, x.c, x.e, x.d) == stored
    assert all(type(v) is Fraction for v in (x.a, x.b, x.c, x.e))


# -- an independent oracle for products over the basis 1, i, sqrt(d), i*sqrt(d) --

def basis_table(d):
    """e_u * e_v = coeff * e_w for the basis e = (1, i, sqrt(d), i*sqrt(d))."""
    upper = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
             (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
             (2, 2): (d, 0), (2, 3): (d, 1), (3, 3): (-d, 0)}
    return {**upper, **{(v, u): cw for (u, v), cw in upper.items()}}


def parts(x):
    return (x.a, x.b, x.c, x.e)


def oracle_product(x, y, d):
    out = [Fraction(0)] * 4
    for (u, v), (coeff, w) in basis_table(d).items():
        out[w] += coeff * parts(x)[u] * parts(y)[v]
    return AlgScalar(*out, d)


part = st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def scalar_pairs(draw):
    d = draw(st.sampled_from([1, 2, 3, 5]))
    x, y = (AlgScalar(*draw(st.tuples(part, part, part, part)), d) for _ in range(2))
    return x, y, d


@settings(max_examples=50, deadline=None)
@given(scalar_pairs())
def test_algscalar_products_and_sums_match_basis_table(pair):
    x, y, d = pair
    assert x * y == oracle_product(x, y, d)
    assert y * x == oracle_product(y, x, d)
    assert x + y == AlgScalar(*(p + q for p, q in zip(parts(x), parts(y))), d)


def test_gaussian_products_skip_zero_parts(monkeypatch):
    calls = []
    original = Fraction.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    real, imag = AlgScalar(Fraction(3, 2)), AlgScalar(0, Fraction(-2, 5))
    monkeypatch.setattr(Fraction, "__mul__", counting)
    for x, y, expected in ((real, real, AlgScalar(Fraction(9, 4))),
                           (real, imag, AlgScalar(0, Fraction(-3, 5))),
                           (imag, real, AlgScalar(0, Fraction(-3, 5))),
                           (imag, imag, AlgScalar(Fraction(-4, 25)))):
        calls.clear()
        assert x * y == expected
        assert len(calls) == 1


def test_gaussian_sums_skip_zero_parts(monkeypatch):
    calls = []
    original = Fraction.__add__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    real, imag = AlgScalar(Fraction(3, 2)), AlgScalar(0, Fraction(-2, 5))
    both = AlgScalar(1, 1)
    cases = ((real, real, AlgScalar(3), 1),
             (real, imag, AlgScalar(Fraction(3, 2), Fraction(-2, 5)), 0),
             (imag, imag, AlgScalar(0, Fraction(-4, 5)), 1),
             (both, real, AlgScalar(Fraction(5, 2), 1), 1),
             (both, both, AlgScalar(2, 2), 2))
    monkeypatch.setattr(Fraction, "__add__", counting)
    for x, y, expected, additions in cases:
        calls.clear()
        assert x + y == expected
        assert len(calls) == additions


small_rationals = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)])


@st.composite
def mixed_scalars(draw):
    """An AlgScalar, a Fraction or an int, drawn so that equal values are common."""
    a = draw(small_rationals)
    kind = draw(st.sampled_from(["alg", "fraction", "int"]))
    if kind == "fraction":
        return a
    if kind == "int" and a.denominator == 1:
        return int(a)
    b, c = (draw(st.one_of(st.just(0), small_rationals)) for _ in range(2))
    return AlgScalar(a, b, c, 0, draw(st.sampled_from([1, 2, 5])))


@settings(max_examples=50, deadline=None)
@given(mixed_scalars(), mixed_scalars())
@example(AlgScalar(1), 1)
@example(AlgScalar(Fraction(1, 2)), Fraction(1, 2))
def test_equal_scalars_hash_equal(x, y):
    assert (x == y) == (y == x)
    if x == y:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
