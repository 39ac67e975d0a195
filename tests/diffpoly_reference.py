"""A reference differential-polynomial kernel: tuple monomials, Fraction values.

This is the plain representation the packed kernel in ``drhier.diffpoly``
replaced, kept as an independent oracle: ``terms`` maps ``(eps, jets)``,
with ``jets`` a tuple of ``(alpha, order, power)`` sorted by (alpha,
order), to a nonzero ``Fraction``.  It shares nothing with the kernel but
the monomial order, so the two agree only if both compute correctly.
"""

from __future__ import annotations

from fractions import Fraction


def _add_into(terms: dict, mon, c) -> None:
    new = terms.get(mon, 0) + c
    if new:
        terms[mon] = new
    else:
        terms.pop(mon, None)


def _mul_jets(j1, j2):
    acc = {}
    for alpha, order, power in j1 + j2:
        acc[alpha, order] = acc.get((alpha, order), 0) + power
    return tuple((a, o, p) for (a, o), p in sorted(acc.items()))


class RefPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (eps, jets), c in (terms or {}).items():
            _add_into(self.terms, (eps, _mul_jets(tuple(jets), ())), Fraction(c))

    @staticmethod
    def const(c) -> "RefPoly":
        return RefPoly({(0, ()): c})

    def __add__(self, other: "RefPoly") -> "RefPoly":
        out = RefPoly(self.terms)
        for mon, c in other.terms.items():
            _add_into(out.terms, mon, c)
        return out

    def __neg__(self) -> "RefPoly":
        return RefPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def __mul__(self, other) -> "RefPoly":
        if not isinstance(other, RefPoly):
            return RefPoly({m: c * other for m, c in self.terms.items()})
        out = RefPoly()
        for (e1, j1), c1 in self.terms.items():
            for (e2, j2), c2 in other.terms.items():
                _add_into(out.terms, (e1 + e2, _mul_jets(j1, j2)), c1 * c2)
        return out

    def __truediv__(self, c) -> "RefPoly":
        return self * (1 / Fraction(c))

    def __pow__(self, n: int) -> "RefPoly":
        out = RefPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def dx(self) -> "RefPoly":
        out = RefPoly()
        for (eps, jets), c in self.terms.items():
            for idx, (alpha, order, power) in enumerate(jets):
                lowered = jets[:idx] + ((alpha, order, power - 1),) + jets[idx + 1:]
                lowered = tuple(t for t in lowered if t[2])
                mon = (eps, _mul_jets(lowered, ((alpha, order + 1, 1),)))
                _add_into(out.terms, mon, c * power)
        return out

    def dx_pow(self, k: int) -> "RefPoly":
        f = self
        for _ in range(k):
            f = f.dx()
        return f

    def partial(self, alpha: int, order: int) -> "RefPoly":
        out = RefPoly()
        for (eps, jets), c in self.terms.items():
            for idx, (a, o, power) in enumerate(jets):
                if (a, o) == (alpha, order):
                    lowered = jets[:idx] + ((a, o, power - 1),) + jets[idx + 1:]
                    lowered = tuple(t for t in lowered if t[2])
                    _add_into(out.terms, (eps, lowered), c * power)
        return out

    def var_der(self, alpha: int) -> "RefPoly":
        orders = [o for _, jets in self.terms for a, o, _ in jets if a == alpha]
        out = RefPoly()
        for i in range(max(orders, default=-1) + 1):
            q = self.partial(alpha, i).dx_pow(i)
            out = out + (q if i % 2 == 0 else -q)
        return out

    def eps_shift(self, k: int) -> "RefPoly":
        if any(eps + k < 0 for eps, _ in self.terms):
            raise ValueError("negative eps exponent")
        return RefPoly({(eps + k, jets): c for (eps, jets), c in self.terms.items()})

    def truncate_eps(self, emax: int) -> "RefPoly":
        return RefPoly({(eps, jets): c for (eps, jets), c in self.terms.items()
                        if eps <= emax})

    def substitute(self, images: dict[int, "RefPoly"]) -> "RefPoly":
        out = RefPoly()
        for (eps, jets), c in self.terms.items():
            prod = RefPoly.const(c)
            for alpha, order, power in jets:
                prod = prod * images[alpha].dx_pow(order) ** power
            out = out + prod.eps_shift(eps)
        return out


def canonical_density(poly: RefPoly) -> RefPoly:
    """The integration-by-parts normal form, rule for rule as in drhier."""
    def sort_key(mon):
        eps, jets = mon
        return (eps, sum(p for _, _, p in jets), jets)

    work = {mon: c for mon, c in poly.terms.items() if mon[1]}
    out = RefPoly()
    while work:
        mon = max(work, key=sort_key)
        coeff = work.pop(mon)
        eps, jets = mon
        occurrences = [(o, a, p) for a, o, p in jets]
        o_max, a_max, p_max = max(occurrences)
        reducible = o_max > 0 and p_max == 1 and all(
            (o, a) == (o_max, a_max) or (o + 1, a) < (o_max, a_max)
            or (a, o) == (a_max, o_max - 1)
            for o, a, _ in occurrences)
        if not reducible:
            _add_into(out.terms, mon, coeff)
            continue
        rest = RefPoly({(eps, tuple(t for t in jets if t != (a_max, o_max, 1))): 1})
        repl = -(rest.dx()) * RefPoly({(0, ((a_max, o_max - 1, 1),)): 1})
        scale = Fraction(1)
        self_coeff = repl.terms.pop(mon, None)
        if self_coeff is not None:
            scale = 1 / (1 - self_coeff)
        for m2, c2 in repl.terms.items():
            _add_into(work, m2, coeff * c2 * scale)
    return out
