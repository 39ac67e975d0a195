"""Truncated pseudo-differential operator calculus.

A pseudo-differential operator is a Laurent series sum_{n <= m} a_n d_x^n
with differential-polynomial coefficients.  Truncation is explicit-window:
every operator carries the lowest order ``lo`` at which its coefficients
are still trustworthy (``lo = None`` marks a genuinely finite operator,
exact all the way down).  Products intersect windows pessimistically, so a
coefficient is either exact or unavailable, never silently wrong.

The commutation rule is d_x^k o a = sum_l binom(k, l) (d_x^l a) d_x^{k-l}
with the generalized binomial k(k-1)...(k-l+1)/l!, valid for k < 0 as well.
A differential operator (the entries of a Hamiltonian operator) is the
finite case: ``lo = None`` and orders >= 0 only.
"""

from __future__ import annotations

from fractions import Fraction

from .diffpoly import DiffPoly, Ring, derivatives, sum_of_products
from .scalars import add_term, power_by_squaring


def gen_binom(k: int, l: int) -> Fraction:
    """Generalized binomial coefficient k(k-1)...(k-l+1)/l! for integer k."""
    num = 1
    for s in range(l):
        num *= k - s
    den = 1
    for s in range(2, l + 1):
        den *= s
    return Fraction(num, den)


def product_coeff(a: dict[int, DiffPoly], b: dict[int, DiffPoly], n: int,
                  deriv) -> DiffPoly:
    """[A o B]_n = sum binom(j, l) a_j (d_x^l b_k) over j + k - l = n.

    The one Leibniz rule.  a and b map order -> coefficient (a nonempty);
    deriv(k, l) gives d_x^l b_k.  Each pair (j, k) contributes once, with
    l = j + k - n >= 0 and, for a differential power j >= 0, l <= j.  The
    terms go into one ``sum_of_products``, with no intermediate products.
    """
    triples = []
    for j, aj in a.items():
        for k in b:
            l = j + k - n
            if l < 0 or 0 <= j < l:
                continue
            dbk = deriv(k, l)
            if dbk:
                triples.append((gen_binom(j, l), aj, dbk))
    return sum_of_products(next(iter(a.values())).ring, triples)


class PseudoDiffOp:
    """Laurent series in d_x over a differential-polynomial ring.

    coeffs maps order -> DiffPoly for the stored window [lo, top]; orders
    below ``lo`` are unknown (unless lo is None), orders above ``top`` are
    exactly zero.
    """

    __slots__ = ("ring", "top", "lo", "coeffs")

    def __init__(self, ring: Ring, top: int, lo: int | None,
                 coeffs: dict[int, DiffPoly] | None = None):
        if lo is not None and lo > top:
            raise ValueError("empty validity window")
        self.ring = ring
        self.top = top
        self.lo = lo
        self.coeffs = {}
        if coeffs:
            for n, c in coeffs.items():
                if n > top or (lo is not None and n < lo):
                    raise ValueError(f"coefficient at order {n} outside window")
                if not c.is_zero():
                    self.coeffs[n] = c

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def dx(ring: Ring, power: int = 1, coeff=1) -> "PseudoDiffOp":
        c = DiffPoly.const(ring, coeff)
        return PseudoDiffOp(ring, power, None, {power: c})

    @staticmethod
    def from_poly(ring: Ring, f: DiffPoly) -> "PseudoDiffOp":
        return PseudoDiffOp(ring, 0, None, {0: f})

    @staticmethod
    def finite(ring: Ring, coeffs: dict[int, DiffPoly] | None = None) -> "PseudoDiffOp":
        """The differential operator sum c_j d_x^j; no coefficients give zero."""
        coeffs = coeffs or {}
        if any(j < 0 for j in coeffs):
            raise ValueError("differential operators have powers >= 0")
        return PseudoDiffOp(ring, max(coeffs, default=0), None, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> DiffPoly:
        if n > self.top:
            return DiffPoly.zero(self.ring)
        if self.lo is not None and n < self.lo:
            raise ValueError(f"order {n} is below the validity window [{self.lo}, {self.top}]")
        return self.coeffs.get(n, DiffPoly.zero(self.ring))

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        self.ring.check_compatible(other.ring)
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        top = max(self.top, other.top)
        out = {n: c for n, c in self.coeffs.items() if lo is None or n >= lo}
        for n, c in other.coeffs.items():
            if lo is None or n >= lo:
                add_term(out, n, c)
        return PseudoDiffOp(self.ring, top, lo, out)

    def __neg__(self) -> "PseudoDiffOp":
        return PseudoDiffOp(self.ring, self.top, self.lo,
                            {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        return self + (-other)

    def truncate_eps(self, emax: int) -> "PseudoDiffOp":
        return PseudoDiffOp(self.ring, self.top, self.lo,
                            {n: c.truncate_eps(emax) for n, c in self.coeffs.items()})

    def __mul__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        """Composition; output window is the pessimistic intersection.

        Unknown coefficients of the left factor below its window can feed
        output orders < self.lo + other.top, and symmetrically; both bounds
        are honoured.
        """
        self.ring.check_compatible(other.ring)
        top = self.top + other.top
        if self.lo is None and other.lo is None:
            lo = None
        elif self.lo is None:
            lo = other.lo + self.top
        elif other.lo is None:
            lo = self.lo + other.top
        else:
            lo = max(self.lo + other.top, other.lo + self.top)
        assert lo is None or lo <= top, "the factors' windows are nonempty"
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            return PseudoDiffOp(self.ring, top, lo)
        if lo is None and min(a) < 0 and not all(c.is_constant() for c in b.values()):
            raise ValueError("product with negative orders is an infinite series")
        # a finite product reaches no lower than min(b), or min(a) + min(b)
        # when a has negative orders (and b is then constant)
        bottom = lo if lo is not None else min(b) + min(0, min(a))
        deriv = derivatives(b)
        return PseudoDiffOp(self.ring, top, lo,
                            {n: product_coeff(a, b, n, deriv)
                             for n in range(bottom, top + 1)})

    def power(self, p: int) -> "PseudoDiffOp":
        if p < 1:
            raise ValueError("power must be >= 1")
        return power_by_squaring(self, p)

    def commutator(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        return self * other - other * self

    # -- projections ------------------------------------------------------------------

    def plus_part(self) -> "PseudoDiffOp":
        """The differential-operator part (orders >= 0)."""
        if self.lo is not None and self.lo > 0:
            raise ValueError("window does not reach order 0")
        return PseudoDiffOp(self.ring, max(self.top, 0), None,
                            {n: c for n, c in self.coeffs.items() if n >= 0})

    def residue(self) -> DiffPoly:
        """The coefficient of d_x^{-1}."""
        return self.coeff(-1)

    def __eq__(self, other):
        if not isinstance(other, PseudoDiffOp):
            return NotImplemented
        # a finite operator's top is only the bound a cancelling sum left
        return (self.ring == other.ring and self.lo == other.lo
                and (self.lo is None or self.top == other.top)
                and self.coeffs == other.coeffs)

    def render(self, names=None) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs, reverse=True):
            body = self.coeffs[n].render(names)
            if n == 0:
                parts.append(body)
                continue
            dx = "d_x" if n == 1 else f"d_x^{n}"
            if body == "1":
                parts.append(dx)
            elif body == "-1":
                parts.append(f"-{dx}")
            elif "+" in body or "-" in body[1:]:
                parts.append(f"({body})*{dx}")
            else:
                parts.append(f"{body}*{dx}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        window = f"[{self.lo}, {self.top}]" if self.lo is not None else f"(-inf, {self.top}]"
        return f"PseudoDiffOp({self.render()}; window {window})"


class LaxRoot:
    """The root S = d_x + sum_{n>=0} s_n d_x^{-n} of a monic A = S^m, m >= 2.

    ``depth`` counts the coefficients of S solved so far (window
    [2 - depth, 1]).  A deeper request runs only the levels not yet solved,
    and A's window must cover [m - depth + 1, m] for it.  Online recursion
    (van der Hoeven, "Relax, but don't be too lazy", JSC 34, 2002):
    ``powers[k]``, k < m, holds S^k down to the last solved level, and
    ``deriv`` memoizes the x-derivatives of S alone.  Step t computes, for
    each k, only the order k - 1 - t coefficient F_k of S^{k-1} o S with
    s_{-t} = 0: F_{k-1} (from F_{k-1} d^{k-2-t} o d_x) plus
    ``product_coeff`` over the solved levels, whose derivatives all fall on
    S.  Since [S^k]_{k-1-t} = F_k + k s_{-t}, the step solves
    s_{-t} = (a_{m-1-t} - F_m) / m and completes every power's new level.
    """

    __slots__ = ("a", "m", "depth", "powers", "deriv")

    def __init__(self, a: PseudoDiffOp, m: int):
        if m < 2:
            raise ValueError("root degree must be >= 2")
        one = DiffPoly.const(a.ring, 1)
        if a.top != m or a.coeff(m) != one:
            raise ValueError("operator must be monic of top order m")
        self.a, self.m, self.depth = a, m, 1
        self.powers = [{}] + [{k: one} for k in range(1, m)]
        self.deriv = derivatives(self.powers[1])

    def power(self, s: int, depth: int) -> PseudoDiffOp:
        """S^s, 0 < s < m, on the window [s + 1 - depth, s]; solves missing levels first."""
        a, m, powers, deriv = self.a, self.m, self.powers, self.deriv
        if a.lo is not None and a.lo > m - depth + 1:
            raise ValueError(
                f"input window [{a.lo}, {a.top}] too shallow for depth {depth}")
        for t in range(self.depth - 1, depth - 1):
            fresh = [None, DiffPoly.zero(a.ring)]  # F_1 = 0: s_{-t} itself is the unknown
            for k in range(2, m + 1):
                fresh.append(fresh[k - 1] + product_coeff(
                    powers[k - 1], powers[1], k - 1 - t, deriv))
            level = (a.coeff(m - 1 - t) - fresh[m]) / m
            for k in range(1, m):
                c = fresh[k] + level * k
                if c:
                    powers[k][k - 1 - t] = c
            self.depth = t + 2
        lo = s + 1 - depth
        return PseudoDiffOp(a.ring, s, lo, {n: c for n, c in powers[s].items() if n >= lo})


def pdo_root(a: PseudoDiffOp, m: int, depth: int) -> PseudoDiffOp:
    """S with S^m = A on the window [2 - depth, 1], from a one-shot ``LaxRoot``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return LaxRoot(a, m).power(1, depth)


def root_depth_for_residue(p: int) -> int:
    """A depth cap under which the residue of the p-th root power is allowed.

    S to depth D gives S^p the window [p + 1 - D, p]; reaching order -1
    needs D >= p + 2.  The two extra levels are a cap only and cost
    nothing: ``GDContext.residue`` roots just as deep as each residue
    reads.  Only an explicitly capped ``GDContext`` needs this;
    ``gd_context`` caps nothing.
    """
    return p + 4
