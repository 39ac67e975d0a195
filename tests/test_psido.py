import random
from fractions import Fraction

import pytest

from drhier.diffpoly import DiffPoly, Ring, integrate
from drhier.psido import (
    PseudoDiffOp,
    gen_binom,
    pdo_root,
    root_depth_for_residue,
)

R1 = Ring(1)


def f(order=0, ring=R1, alpha=1):
    return DiffPoly.jet(ring, alpha, order)


def lax_operator(r):
    """L = d^r + f_{r-2} d^{r-2} + ... + f_0 over the (r-1)-field ring."""
    ring = Ring(r - 1)
    coeffs = {r: DiffPoly.const(ring, 1)}
    for i in range(r - 1):
        coeffs[i] = DiffPoly.jet(ring, i + 1, 0)
    return PseudoDiffOp(ring, r, None, coeffs), ring


def rand_pdo(rng, ring, top, depth):
    coeffs = {}
    for n in range(top, top - depth, -1):
        if rng.random() < 0.7:
            coeffs[n] = DiffPoly.jet(ring, 1, rng.randint(0, 2)) \
                * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if top >= 0 and rng.random() < 0.3:
        # genuinely finite differential operator
        coeffs = {n: c for n, c in coeffs.items() if n >= 0}
        if not coeffs:
            coeffs[top] = DiffPoly.const(ring, 1)
        return PseudoDiffOp(ring, top, None, coeffs)
    return PseudoDiffOp(ring, top, top - depth + 1, coeffs)


# -- multiplication -----------------------------------------------------------------

def test_gen_binom_negative():
    assert gen_binom(-1, 0) == 1
    assert gen_binom(-1, 1) == -1
    assert gen_binom(-1, 2) == 1
    assert gen_binom(-2, 3) == -4


def test_mul_dx_function():
    prod = PseudoDiffOp.dx(R1) * PseudoDiffOp.from_poly(R1, f())
    assert prod.coeff(1) == f()
    assert prod.coeff(0) == f(1)


def test_mul_inverse_dx_function():
    dinv = PseudoDiffOp(R1, -1, -3, {-1: DiffPoly.const(R1, 1)})
    prod = dinv * PseudoDiffOp.from_poly(R1, f())
    assert prod.coeff(-1) == f()
    assert prod.coeff(-2) == -f(1)
    assert prod.coeff(-3) == f(2)
    # verify by multiplying from the left with d_x
    back = PseudoDiffOp.dx(R1) * prod
    assert back.coeff(0) == f()
    assert back.coeff(-1).is_zero()
    assert back.coeff(-2).is_zero()


def test_mul_schroedinger_square():
    L = PseudoDiffOp(R1, 2, None, {2: DiffPoly.const(R1, 1), 0: f()})
    sq = L * L
    assert sq.coeff(4) == DiffPoly.const(R1, 1)
    assert sq.coeff(3).is_zero()
    assert sq.coeff(2) == 2 * f()
    assert sq.coeff(1) == 2 * f(1)
    assert sq.coeff(0) == f(2) + f() ** 2


def test_mul_window_tracking():
    a = PseudoDiffOp(R1, 1, -1, {1: DiffPoly.const(R1, 1), -1: f()})
    b = PseudoDiffOp(R1, 2, 0, {2: DiffPoly.const(R1, 1)})
    prod = a * b
    assert prod.top == 3
    assert prod.lo == max(-1 + 2, 0 + 1)  # = 1
    with pytest.raises(ValueError):
        prod.coeff(0)


def test_mul_associative_sampled():
    rng = random.Random(19)
    for _ in range(12):
        a = rand_pdo(rng, R1, rng.randint(-1, 2), 4)
        b = rand_pdo(rng, R1, rng.randint(-1, 2), 4)
        c = rand_pdo(rng, R1, rng.randint(-1, 2), 4)
        left = (a * b) * c
        right = a * (b * c)
        assert left.lo == right.lo and left.top == right.top
        assert left.coeffs == right.coeffs


# -- plus part and residue --------------------------------------------------------------

def test_plus_res_split():
    a = PseudoDiffOp(R1, 2, -1,
                     {2: DiffPoly.const(R1, 1), 0: f(), -1: f()})
    plus, res = a.plus_part(), a.residue()
    assert plus.coeffs == {2: DiffPoly.const(R1, 1), 0: f()}
    assert res == f()


def test_plus_res_dx():
    a = PseudoDiffOp.dx(R1)
    plus, res = a.plus_part(), a.residue()
    assert plus == PseudoDiffOp.dx(R1)
    assert res.is_zero()


def test_res_requires_window():
    a = PseudoDiffOp(R1, 2, 0, {2: DiffPoly.const(R1, 1)})
    with pytest.raises(ValueError):
        a.residue()


def test_plus_plus_minus_reassemble():
    rng = random.Random(23)
    for _ in range(8):
        a = rand_pdo(rng, R1, 2, 5)
        if a.lo is not None and a.lo > 0:
            continue
        back = a.plus_part() + a.minus_part()
        assert back.lo == a.lo and back.coeffs == a.coeffs


# -- roots ----------------------------------------------------------------------------------

def test_root_constant_coefficient():
    a = PseudoDiffOp.dx(R1, 2)
    s = pdo_root(a, 2, 4)
    assert s.coeffs == {1: DiffPoly.const(R1, 1)}


def test_root_schroedinger():
    L = PseudoDiffOp(R1, 2, None, {2: DiffPoly.const(R1, 1), 0: f()})
    s = pdo_root(L, 2, 4)
    assert s.coeff(1) == DiffPoly.const(R1, 1)
    assert s.coeff(0).is_zero()
    assert s.coeff(-1) == f() / 2
    assert s.coeff(-2) == -f(1) / 4
    # verify by squaring
    sq = s.power(2)
    for n in range(sq.lo, 3):
        assert sq.coeff(n) == L.coeff(n) if n >= -1 else True


def test_root_schroedinger_third_correction():
    L = PseudoDiffOp(R1, 2, None, {2: DiffPoly.const(R1, 1), 0: f()})
    s = pdo_root(L, 2, 5)
    assert s.coeff(-3) == (f(2) - f() ** 2) / 8


def test_root_cubic_leading_correction():
    L, ring = lax_operator(3)
    s = pdo_root(L, 3, 3)
    assert s.coeff(0).is_zero()
    assert s.coeff(-1) == DiffPoly.jet(ring, 2, 0) / 3  # f_1 / 3
    cube = s.power(3)
    for n in range(cube.lo, 4):
        assert cube.coeff(n) == L.coeff(n)


def test_root_power_roundtrip_all_r():
    for r in range(2, 6):
        L, ring = lax_operator(r)
        depth = 8
        s = pdo_root(L, r, depth)
        back = s.power(r)
        for n in range(back.lo, r + 1):
            assert back.coeff(n) == L.coeff(n)


def test_root_window_is_sound():
    # every level of a shallow root is final: a deeper root restricted to
    # the shallow window gives it back, down to depth 1
    for r in range(2, 6):
        L, _ = lax_operator(r)
        deep = pdo_root(L, r, 10)
        for depth in range(1, 10):
            assert deep.restrict(2 - depth) == pdo_root(L, r, depth), (r, depth)


def test_truncated_products_agree_on_window():
    # products and powers of operators known on W and on W + k agree on the
    # product window for W, and below it they refuse
    rng = random.Random(41)
    for _ in range(30):
        ops = []
        for _ in range(2):
            top, depth, k = rng.randint(-1, 2), rng.randint(1, 4), rng.randint(1, 3)
            deep = rand_pdo(rng, R1, top, depth + k)
            ops.append((deep, deep if deep.lo is None else deep.restrict(top - depth + 1)))
        (a_deep, a), (b_deep, b) = ops
        for deep, short in ((a_deep * b_deep, a * b), (a_deep.power(3), a.power(3))):
            if short.lo is None:
                assert deep == short
                continue
            assert deep.restrict(short.lo) == short
            with pytest.raises(ValueError):
                short.coeff(short.lo - 1)


def test_root_depth_guard():
    L = PseudoDiffOp(R1, 2, 0, {2: DiffPoly.const(R1, 1), 0: f()})
    with pytest.raises(ValueError):
        pdo_root(L, 2, 4)


# -- fractional powers -------------------------------------------------------------------------

def test_frac_power_roundtrip():
    L = PseudoDiffOp(R1, 2, None, {2: DiffPoly.const(R1, 1), 0: f()})
    sq = pdo_root(L, 2, 6).power(2)
    for n in range(sq.lo, 3):
        assert sq.coeff(n) == L.coeff(n)


def test_res_L_to_5_halves():
    # reference 2-spin value: res L^{5/2} = 5/16 f^3 + 5/32 f_x^2 + 5/16 f f_xx + 1/32 f_xxxx
    L = PseudoDiffOp(R1, 2, None, {2: DiffPoly.const(R1, 1), 0: f()})
    p = pdo_root(L, 2, root_depth_for_residue(5)).power(5)
    expected = (5 * f() ** 3 / 16 + 5 * f(1) ** 2 / 32
                + 5 * f() * f(2) / 16 + f(4) / 32)
    assert p.residue() == expected


def test_res_L_to_3_halves():
    L = PseudoDiffOp(R1, 2, None, {2: DiffPoly.const(R1, 1), 0: f()})
    p = pdo_root(L, 2, root_depth_for_residue(3)).power(3)
    assert p.residue() == 3 * f() ** 2 / 8 + f(2) / 8


def test_integer_frac_power_is_identity():
    L, ring = lax_operator(3)
    p = pdo_root(L, 3, 6).power(3)
    for n in range(p.lo, 4):
        assert p.coeff(n) == L.coeff(n)


# -- trace property -----------------------------------------------------------------------------

def test_residue_of_commutator_is_total_derivative():
    rng = random.Random(31)
    for _ in range(8):
        a = rand_pdo(rng, R1, rng.randint(0, 2), 6)
        b = rand_pdo(rng, R1, rng.randint(0, 2), 6)
        comm = a.commutator(b)
        if comm.lo is not None and comm.lo > -1:
            continue
        assert integrate(comm.residue()).is_zero()
