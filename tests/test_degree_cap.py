"""Jet-free rings, and the jet-free view of a context.

A jet-free ring keeps only the monomials of derivative degree (sum of order
times power over the jets) 0.  Every operation that never lowers that
degree must give, in the jet-free ring, exactly the degree-0 part of its
exact result: that part is computed here on the decoded terms of the exact
result, apart from the kernel.
"""

import math
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhier import diffpoly, gdhier, psido
from drhier.diffpoly import DiffPoly, Ring, derivatives, sum_of_products
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


def degree_zero_part(poly: DiffPoly) -> dict:
    return {mon: c for mon, c in poly.items() if not degree(mon)}


def agree(jet_free: DiffPoly, exact: DiffPoly):
    assert jet_free.ring.jet_free and not exact.ring.jet_free
    assert jet_free.den > 0 and all(jet_free.terms.values())
    assert gcd(jet_free.den, *jet_free.terms.values()) == 1
    assert dict(jet_free.items()) == degree_zero_part(exact)


@st.composite
def jet_free_cases(draw, count, **kwargs):
    """`count` polynomials as (jet-free, exact) pairs built from the same items."""
    n = draw(st.integers(1, 3))
    exact, jet_free = Ring(n), Ring(n, jet_free=True)
    polys = []
    for _ in range(count):
        items = draw(term_dicts(n, max_order=3, **kwargs)).items()
        polys.append((DiffPoly.from_items(jet_free, items), DiffPoly.from_items(exact, items)))
    return polys


@SOME
@given(jet_free_cases(4), st.lists(rationals, min_size=2, max_size=2))
def test_capped_products_are_truncated_exact_products(case, coeffs):
    (a, ea), (b, eb), (c, ec), (d, ed) = case
    agree(a, ea)  # the constructor drops the jets too
    agree(sum_of_products(a.ring, [(coeffs[0], a, b), (coeffs[1], c, d)]),
          sum_of_products(ea.ring, [(coeffs[0], ea, eb), (coeffs[1], ec, ed)]))
    agree(a * b, ea * eb)
    agree(a + b - c, ea + eb - ec)


@SOME
@given(jet_free_cases(1), st.data())
def test_capped_calculus_is_truncated_exact_calculus(case, data):
    ((a, ea),) = case
    agree(a.dx(), ea.dx())
    assert not a.dx() and not a.dx_pow(2)
    alpha = data.draw(st.integers(1, a.ring.n_fields))
    agree(a.var_der(alpha), ea.var_der(alpha))
    agree(a.partial(alpha, 0), ea.partial(alpha, 0))


@SOME
@given(jet_free_cases(1, max_power=2), st.data())
def test_capped_substitution_is_truncated_exact_substitution(case, data):
    ((a, ea),) = case
    n = a.ring.n_fields
    images, exact_images = {}, {}
    for alpha in range(1, n + 1):
        items = data.draw(term_dicts(n, max_terms=2, max_order=2, max_power=1)).items()
        images[alpha] = DiffPoly.from_items(a.ring, items)
        exact_images[alpha] = DiffPoly.from_items(ea.ring, items)
    agree(a.substitute(images), ea.substitute(exact_images))


def test_capped_and_exact_rings_never_mix():
    exact, jet_free = Ring(2), Ring(2, jet_free=True)
    assert exact != jet_free and hash(exact) != hash(jet_free)
    assert repr(jet_free) == "Ring(n_fields=2, d=1, jet_free=True)"
    u, v = DiffPoly.jet(exact, 1, 0), DiffPoly.jet(jet_free, 1, 0)
    assert u != v
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for left, right in ((u, v), (v, u), (DiffPoly.zero(jet_free), u)):
            with pytest.raises(ValueError, match="ring context mismatch"):
                op(left, right)
    for triple in ((1, u, v), (1, v, u), (1, v, v)):
        with pytest.raises(ValueError, match="ring context mismatch"):
            sum_of_products(exact, [triple])
    with pytest.raises(ValueError, match="ring context mismatch"):
        sum_of_products(jet_free, [(1, u, u)])
    a, b = PseudoDiffOp.from_poly(exact, u), PseudoDiffOp.from_poly(jet_free, v)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="ring context mismatch"):
            left * right
        with pytest.raises(ValueError, match="ring context mismatch"):
            left + right
    # an equal jet-free ring built apart is the same ring
    w = DiffPoly.jet(Ring(2, jet_free=True), 2, 0)
    assert w.ring is not v.ring and (v * w).ring is v.ring


def test_a_capped_ring_drops_what_it_cannot_hold():
    ring = Ring(1, jet_free=True)
    u = DiffPoly.jet(ring, 1, 0)
    assert DiffPoly.jet(ring, 1, 1).is_zero() and DiffPoly.jet(ring, 1, 2, 2).is_zero()
    assert u.dx().is_zero() and (u * u).dx().is_zero()
    items = [((0, ((1, 0, 1),)), 2), ((0, ((1, 1, 1),)), 1), ((1, ((1, 0, 1), (1, 3, 1))), 5)]
    assert DiffPoly.from_items(ring, items) == 2 * u
    # var_der reads the order-0 partial alone: there is no higher jet
    assert (u ** 3).var_der(1) == 3 * u * u


# -- the jet-free view ------------------------------------------------------------------


def exact_eps0(ctx, alpha, p) -> DiffPoly:
    density = rspin_hamiltonian(ctx, alpha, p).density.eps_coefficient(0)
    return density - density.constant_term()


@pytest.mark.parametrize("r, p_max, levels", [(3, 3, 16), (4, 2, 17), (5, 1, 16)])
def test_the_view_gives_the_exact_eps0_part(r, p_max, levels):
    # the residues compared are those whose root reads at most ``levels`` levels
    ctx = gd_context(r)
    view = ctx.dispersionless()
    assert view.ring_f == Ring(r - 1, ctx.ring_f.d, jet_free=True)
    assert view.dispersionless() is view
    assert ctx.dispersionless() is view and view.root is not ctx.root
    for alpha in range(1, r):
        for p in range(p_max + 1):
            omega = dispersionless_omega(ctx, alpha, p)
            assert omega.ring is ctx.ring_w and omega.max_order() <= 0
            assert omega == exact_eps0(ctx, alpha, p)
    for p in range(1, levels - 1):
        assert dict(view.residue(p).items()) == degree_zero_part(ctx.residue(p))
    change, view_change = rspin_change(ctx), rspin_change(view)
    for exact, jet_free in zip(change.inverse, view_change.inverse):
        assert dict(jet_free.items()) == degree_zero_part(exact)


def test_the_view_asks_no_memo_for_a_positive_order_derivative(monkeypatch):
    # d_x is zero in a jet-free ring, so the view's Leibniz terms read every
    # derivative memo at order 0 alone, and nothing calls d_x
    lookups = Counter()

    def counting(coeffs):
        deriv = derivatives(coeffs)

        def counted(k, l):
            lookups["positive" if l else "zero"] += 1
            return deriv(k, l)
        return counted

    def refuse(self):
        raise AssertionError("the view took a derivative")

    for module in (diffpoly, gdhier, psido):
        monkeypatch.setattr(module, "derivatives", counting)
    monkeypatch.setattr(DiffPoly, "dx", refuse)
    ctx = GDContext(5, math.inf)
    for alpha in range(1, 5):
        for p in range(4):
            assert dispersionless_omega(ctx, alpha, p)
    assert lookups["zero"] and not lookups["positive"]


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
