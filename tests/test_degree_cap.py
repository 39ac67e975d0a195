"""Rings capped at a derivative degree E, and the E = 0 view of a context.

A capped ring keeps the monomials of derivative degree (sum of order times
power over the jets) at most E.  Every operation that never lowers that
degree must give, in the capped ring, exactly the degree <= E part of its
exact result: the truncation here is computed on the decoded terms of the
exact result, apart from the kernel's own cap.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhier.diffpoly import DiffPoly, Ring, sum_of_products
from drhier.gdhier import (
    GDContext,
    dispersionless_omega,
    gd_context,
    rspin_change,
    rspin_hamiltonian,
)
from drhier.psido import PseudoDiffOp

from test_diffpoly_kernel import rationals, term_dicts

SOME = settings(max_examples=60, deadline=None)


def degree(mon) -> int:
    return sum(order * power for _, order, power in mon[1])


def truncation(poly: DiffPoly, cap: int) -> dict:
    return {mon: c for mon, c in poly.items() if degree(mon) <= cap}


def agree(capped: DiffPoly, exact: DiffPoly, cap: int):
    assert capped.ring.cap == cap
    assert capped.den > 0 and all(capped.terms.values())
    assert gcd(capped.den, *capped.terms.values()) == 1
    assert dict(capped.items()) == truncation(exact, cap)


@st.composite
def capped_cases(draw, count, **kwargs):
    """A cap 0..3 and `count` polynomials as (capped, exact) pairs."""
    n = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 3))
    exact, capped = Ring(n), Ring(n, cap=cap)
    polys = []
    for _ in range(count):
        items = draw(term_dicts(n, max_order=3, **kwargs)).items()
        polys.append((DiffPoly.from_items(capped, items), DiffPoly.from_items(exact, items)))
    return cap, polys


@SOME
@given(capped_cases(4), st.lists(rationals, min_size=2, max_size=2))
def test_capped_products_are_truncated_exact_products(case, coeffs):
    cap, ((a, ea), (b, eb), (c, ec), (d, ed)) = case
    agree(a, ea, cap)  # the constructor truncates too
    agree(sum_of_products(a.ring, [(coeffs[0], a, b), (coeffs[1], c, d)]),
          sum_of_products(ea.ring, [(coeffs[0], ea, eb), (coeffs[1], ec, ed)]), cap)
    agree(a * b, ea * eb, cap)
    agree(a + b - c, ea + eb - ec, cap)


@SOME
@given(capped_cases(1), st.data())
def test_capped_calculus_is_truncated_exact_calculus(case, data):
    cap, ((a, ea),) = case
    agree(a.dx(), ea.dx(), cap)
    agree(a.dx_pow(2), ea.dx_pow(2), cap)
    alpha = data.draw(st.integers(1, a.ring.n_fields))
    agree(a.var_der(alpha), ea.var_der(alpha), cap)
    if cap == 0:
        assert not a.dx()


@SOME
@given(capped_cases(1, max_power=2), st.data())
def test_capped_substitution_is_truncated_exact_substitution(case, data):
    cap, ((a, ea),) = case
    n = a.ring.n_fields
    images, exact_images = {}, {}
    for alpha in range(1, n + 1):
        items = data.draw(term_dicts(n, max_terms=2, max_order=2, max_power=1)).items()
        images[alpha] = DiffPoly.from_items(a.ring, items)
        exact_images[alpha] = DiffPoly.from_items(ea.ring, items)
    agree(a.substitute(images), ea.substitute(exact_images), cap)


def test_capped_and_exact_rings_never_mix():
    exact, capped, other_cap = Ring(2), Ring(2, cap=0), Ring(2, cap=1)
    assert exact != capped != other_cap and hash(exact) != hash(capped)
    u = DiffPoly.jet(exact, 1, 0)
    for ring in (capped, other_cap):
        v = DiffPoly.jet(ring, 1, 0)
        assert u != v
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            for left, right in ((u, v), (v, u), (DiffPoly.zero(ring), u)):
                with pytest.raises(ValueError, match="ring context mismatch"):
                    op(left, right)
        for triple in ((1, u, v), (1, v, u), (1, v, v)):
            with pytest.raises(ValueError, match="ring context mismatch"):
                sum_of_products(exact, [triple])
        with pytest.raises(ValueError, match="ring context mismatch"):
            sum_of_products(ring, [(1, u, u)])
        a, b = PseudoDiffOp.from_poly(exact, u), PseudoDiffOp.from_poly(ring, v)
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="ring context mismatch"):
                left * right
            with pytest.raises(ValueError, match="ring context mismatch"):
                left + right
    # an equal capped ring built apart is the same ring
    w = DiffPoly.jet(Ring(2, cap=0), 2, 0)
    v = DiffPoly.jet(capped, 1, 0)
    assert w.ring is not v.ring and (v * w).ring is v.ring
    with pytest.raises(ValueError, match="derivative-degree cap"):
        Ring(2, cap=-1)
    with pytest.raises(ValueError, match="derivative-degree cap"):
        Ring(2, cap=1.0)


def test_a_capped_ring_drops_what_it_cannot_hold():
    ring = Ring(1, cap=1)
    assert DiffPoly.jet(ring, 1, 2).is_zero()
    assert DiffPoly.jet(ring, 1, 1, 2).is_zero()
    u1 = DiffPoly.jet(ring, 1, 1)
    assert (u1 * u1).is_zero() and u1.dx().is_zero()
    assert DiffPoly.from_items(ring, [((0, ((1, 1, 1),)), 2), ((0, ((1, 3, 1),)), 1)]) == 2 * u1


# -- the E = 0 view ------------------------------------------------------------------


def exact_eps0(ctx, alpha, p) -> DiffPoly:
    density = rspin_hamiltonian(ctx, alpha, p).density.eps_coefficient(0)
    return density - density.constant_term()


@pytest.mark.parametrize("r, p_max, levels", [(3, 3, 16), (4, 2, 17), (5, 1, 16)])
def test_the_view_gives_the_exact_eps0_part(r, p_max, levels):
    # the residues compared are those whose root reads at most ``levels`` levels
    ctx = gd_context(r)
    view = ctx.dispersionless()
    assert view.ring_f == Ring(r - 1, ctx.ring_f.d, cap=0) and view.dispersionless() is view
    assert ctx.dispersionless() is view and view.root is not ctx.root
    for alpha in range(1, r):
        for p in range(p_max + 1):
            omega = dispersionless_omega(ctx, alpha, p)
            assert omega.ring is ctx.ring_w and omega.max_order() <= 0
            assert omega == exact_eps0(ctx, alpha, p)
    for p in range(1, levels - 1):
        assert dict(view.residue(p).items()) == truncation(ctx.residue(p), 0)
    change, view_change = rspin_change(ctx), rspin_change(view)
    for exact, capped in zip(change.inverse, view_change.inverse):
        assert dict(capped.items()) == truncation(exact, 0)


def test_the_view_never_truncates_the_exact_root():
    ctx = GDContext(3, 13)
    dispersionless_omega(ctx, 2, 2)  # res L^(11/3) needs 13 levels of the root
    assert ctx.root.depth == 1 and not ctx._residues
    assert ctx.dispersionless().root.depth == 13
    # the exact pipeline afterwards still carries its jets
    assert rspin_hamiltonian(ctx, 1, 1).density.max_order() > 0


def test_the_view_refuses_what_the_context_refuses():
    ctx = GDContext(3, 6)
    assert dispersionless_omega(ctx, 1, 0) == exact_eps0(ctx, 1, 0)
    with pytest.raises(ValueError, match="depth 6 insufficient"):
        dispersionless_omega(ctx, 1, 1)
    with pytest.raises(ValueError, match="alpha must be in 1..2"):
        dispersionless_omega(ctx, 3, 0)
