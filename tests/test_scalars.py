import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drhier.scalars import AlgScalar, read_rational, squarefree_part


# -- AlgScalar -------------------------------------------------------------------------

def test_squarefree_part():
    assert squarefree_part(1) == 1
    assert squarefree_part(4) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(5) == 5


def rand_scalar(rng):
    return AlgScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def test_algscalar_field_axioms_sampled():
    rng = random.Random(7)
    for _ in range(160):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if x:
            assert x * x.inverse() == AlgScalar(1)


def test_algscalar_units():
    i = AlgScalar(0, 1)
    assert i * i == AlgScalar(-1)


@pytest.mark.parametrize("args, stored", [
    ((Fraction(1, 2), 3), (Fraction(1, 2), 3)),
    ((2,), (2, 0)),
    ((0, Fraction(1, 3)), (0, Fraction(1, 3))),
    (("1/4", 1.5), (Fraction(1, 4), Fraction(3, 2))),
])
def test_algscalar_stores_fractions_and_normalises_d(args, stored):
    x = AlgScalar(*args)
    assert (x.a, x.b) == stored
    assert all(type(v) is Fraction for v in (x.a, x.b))


@pytest.mark.parametrize("args, text", [
    ((0,), "0"),
    ((Fraction(3, 2),), "3/2"),
    ((0, -1), "-i"),
    ((0, 2), "2*i"),
    ((1, -2), "1 - 2*i"),
])
def test_algscalar_str(args, text):
    assert str(AlgScalar(*args)) == text


# -- an independent oracle for products over the basis 1, i -----------------------------

# e_u * e_v = coeff * e_w for the basis e = (1, i)
BASIS_TABLE = {(0, 0): (1, 0), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (-1, 0)}


def parts(x):
    return (x.a, x.b)


def oracle_product(x, y):
    out = [Fraction(0)] * 2
    for (u, v), (coeff, w) in BASIS_TABLE.items():
        out[w] += coeff * parts(x)[u] * parts(y)[v]
    return AlgScalar(*out)


part = st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
scalars = st.builds(AlgScalar, part, part)


@settings(max_examples=50, deadline=None)
@given(scalars, scalars)
def test_algscalar_products_and_sums_match_basis_table(x, y):
    assert x * y == oracle_product(x, y)
    assert y * x == oracle_product(y, x)
    assert x + y == AlgScalar(*(p + q for p, q in zip(parts(x), parts(y))))


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
    return AlgScalar(a, draw(st.one_of(st.just(0), small_rationals)))


@settings(max_examples=50, deadline=None)
@given(mixed_scalars(), mixed_scalars())
@example(AlgScalar(1), 1)
@example(AlgScalar(Fraction(1, 2)), Fraction(1, 2))
def test_equal_scalars_hash_equal(x, y):
    assert (x == y) == (y == x)
    if x == y:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


@given(st.fractions())
def test_read_rational_reads_what_str_writes(value):
    assert read_rational(str(value)) == value


@pytest.mark.parametrize("text", ["2/4", "1/1", "-0", "0/5", "+1", " 1", "1_000", "0.5",
                                  "1e1", "1e100000000", "1/0", "", "9" * 5000, 5, None])
def test_read_rational_refuses_every_other_form(text):
    assert read_rational(text) is None
