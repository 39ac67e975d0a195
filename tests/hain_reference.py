"""References for ``drspin.hain_expand``, with its own polynomial
arithmetic, and for ``drspin.pair_with_table``.

The g-th power of Hain's divisor combination is summed over multisets of g
base terms, each multiset with weight 1/prod m_j! for its multiplicities
m_j: the multinomial coefficient over g!.  A polynomial in the weights
a_1..a_n is a dict from exponent keys to ints while it is multiplied: the
exponents (e_1..e_n) are the digits of sum e_i B^(i-1) in base B = 2g + 1,
so a product of monomials of total degree <= 2g adds keys without a carry,
and each base term is kept times 4, which makes its coefficients integers.
A product of g base terms is then divided by 4^g prod m_j! and keyed by
exponent tuples.  Only the monomial keys (``TautMonomial`` and
``boundary_names``) come from ``drhier``.

The reference pairing walks the whole of ``hain_expand`` and looks each
monomial up in the table: absent keys are zero under ``default_zero`` and
a miss otherwise.  The reference monomial walk builds its whole pool of
base terms first and hands it to ``combinations_with_replacement``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

from drhier.diffpoly import DiffPoly, Ring, sum_of_products
from drhier.drspin import TableMissError, TautMonomial, boundary_names, hain_expand


def poly_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def exponents(poly: DiffPoly, n: int) -> dict:
    """A polynomial of Ring(n) in a_i = u^i_0 as exponent tuple -> Fraction."""
    assert poly.ring == Ring(n)
    out = {}
    for (eps, jets), c in poly.items():
        assert eps == 0 and all(order == 0 for _, order, _ in jets)
        exps = [0] * n
        for i, _, power in jets:
            exps[i - 1] = power
        out[tuple(exps)] = c
    return out


def weight_poly(n: int, coeffs: dict) -> DiffPoly:
    """Inverse of ``exponents``: exponent tuple -> value as a polynomial of Ring(n)."""
    return DiffPoly.from_items(Ring(n), (
        ((0, [(i, 0, e) for i, e in enumerate(exps, start=1) if e]), c)
        for exps, c in coeffs.items()))


def decoded(expansion: dict, n: int) -> dict:
    """An expansion with every polynomial in exponent-tuple form."""
    return {sym: exponents(poly, n) for sym, poly in expansion.items()}


def reference_hain_expand(g: int, n: int) -> dict:
    """hain_expand(g, n), polynomials as exponent-tuple dicts of Fractions."""
    markings = tuple(range(1, n + 1))
    flat = (0,) * len(markings)
    radix = 2 * g + 1

    def weight_squared(J) -> dict:
        linear = {radix ** (m - 1): 1 for m in J}
        return poly_mul(linear, linear)

    base: dict = {}  # the degree-1 terms of Hain's combination, times 4
    for pos, m in enumerate(markings):
        square = weight_squared((m,))
        if square:
            psi = list(flat)
            psi[pos] = 1
            base[TautMonomial(psi=tuple(psi))] = poly_add({}, square, 2)
    for h in range(g):
        for size in range(0 if h else 2, len(markings) + 1):
            for J in combinations(markings, size):
                square = weight_squared(J)
                if square:
                    sym = TautMonomial(psi=flat,
                                       boundary=(min(boundary_names(h, J, g, markings)),))
                    base[sym] = poly_add(base.get(sym, {}), square, -1 if h else -2)

    out: dict = {}
    for choice in combinations_with_replacement(list(base), g):
        poly = {0: 1}
        for sym in choice:
            poly = poly_mul(poly, base[sym])
        den = 4 ** g * prod(map(factorial, Counter(choice).values()))
        term = {tuple(k // radix ** i % radix for i in range(n)): Fraction(v, den)
                for k, v in poly.items()}
        key = TautMonomial(
            psi=tuple(sum(sym.psi[i] for sym in choice) for i in range(len(markings))),
            boundary=tuple(sorted(b for sym in choice for b in sym.boundary)))
        out[key] = poly_add(out[key], term) if key in out else term
    return {sym: poly for sym, poly in out.items() if poly}


@cache
def expansion(g: int, n: int) -> dict:
    """hain_expand(g, n), computed once per (g, n) for the reference pairing."""
    return hain_expand(g, n)


def reference_pair(table, dilaton: bool) -> DiffPoly:
    """pair_with_table(table, dilaton) as the sum over every monomial of
    hain_expand of its looked-up value times its polynomial."""
    ring = Ring(table.n)
    one = DiffPoly.const(ring, 1)
    factor = 2 * table.g - 2 + table.n if dilaton else 1
    triples = []
    for sym, poly in expansion(table.g, table.n).items():
        if sym in table.entries:
            triples.append((table.entries[sym] * factor, poly, one))
        elif not table.default_zero:
            raise TableMissError(f"no table entry for {sym}")
    return sum_of_products(ring, triples)


def reference_monomials(g: int, n: int) -> list:
    """hain_monomials(g, n) as a list, walked over the full pool: the
    markings, then every sorted canonical symbol of a class with a divisor
    name (h < g, J not empty, and h >= 1 or |J| >= 2)."""
    markings = tuple(range(1, n + 1))
    classes = {min(boundary_names(h, J, g, markings)) for h in range(g)
               for size in range(1 if h else 2, n + 1) for J in combinations(markings, size)}
    return [TautMonomial(psi=tuple(map(choice.count, markings)),
                         boundary=tuple(b for b in choice if type(b) is tuple))
            for choice in combinations_with_replacement([*markings, *sorted(classes)], g)]


def reference_first_miss(table) -> str | None:
    """The miss message of a strict table under the reference walk, None
    when the table holds every monomial."""
    for sym in reference_monomials(table.g, table.n):
        if sym not in table.entries:
            return f"no table entry for {sym}"
    return None
