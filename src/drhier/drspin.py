"""Double ramification Hamiltonians for the r-spin theory.

The pipeline: enumerate the (g, n_1..n_{r-1}) profiles allowed by the
degree selection rule, expand the g-th power of Hain's divisor combination
into tautological monomials with polynomial weights in the ramification
multiplicities a_i, pair the monomials with externally supplied
intersection-number tables, and assemble the surviving polynomials into a
local functional (a-monomial a^{b_1}..a^{b_n} becomes the jet monomial
u^{alpha_1}_{b_1}..u^{alpha_n}_{b_n} with the prefactor eps^{2g} over the
multiset symmetry factor).  Boundary classes are never evaluated here:
they are table keys, and vanishing statements are explicit zero entries.

The reference g_{1,1} Hamiltonians for r = 3, 4, 5 ship as exact built-in
data for the hierarchy-comparison checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from .diffpoly import DiffPoly, LocalFunctional, Ring, integrate, rspin_ring
from .scalars import Frozen, add_term, exact_rational

# a-polynomials: exponent tuple (over markings carrying weights) -> Fraction
APoly = dict[tuple[int, ...], Fraction]


def apoly_add(a: APoly, b: APoly) -> APoly:
    out = dict(a)
    for k, v in b.items():
        add_term(out, k, v)
    return out


def apoly_mul(a: APoly, b: APoly) -> APoly:
    out: APoly = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            add_term(out, tuple(x + y for x, y in zip(k1, k2)), v1 * v2)
    return out


def apoly_scale(a: APoly, c: Fraction) -> APoly:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


# -- profiles --------------------------------------------------------------------------


def counts_labels(counts) -> tuple[int, ...]:
    """The sorted marking labels: n_k markings labelled k."""
    return tuple(k for k, nk in enumerate(counts, start=1) for _ in range(nk))


class Profile(Frozen):
    """One (g; n_1..n_{r-1}) contribution to g_{alpha,d} for the r-spin theory."""

    __slots__ = ("r", "alpha", "d", "g", "counts")

    def __init__(self, r: int, alpha: int, d: int, g: int, counts: tuple[int, ...]):
        self._init(r, alpha, d, g, counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def labels(self) -> tuple[int, ...]:
        return counts_labels(self.counts)

    def selection_holds(self) -> bool:
        lhs = sum(k * nk for k, nk in enumerate(self.counts, start=1))
        rhs = (self.r + 1) * self.n + (2 * self.g - 1 - self.alpha) \
            - self.r * (self.d + 1)
        return lhs == rhs


def enumerate_profiles(r: int, alpha: int, d: int) -> list[Profile]:
    """All profiles satisfying the selection equality with n >= 2.

    The equality reads sum_k (r+1-k) n_k = r(d+1) + alpha + 1 - 2g; each
    insertion costs at least 2, so the list is finite.
    """
    if r < 2 or not 1 <= alpha <= r - 1 or d < 0:
        raise ValueError("need r >= 2, 1 <= alpha <= r-1, d >= 0")
    out = []
    g = 0
    while True:
        target = r * (d + 1) + alpha + 1 - 2 * g
        if target < 4:  # n >= 2 costs at least 4
            break
        counts_list: list[tuple[int, ...]] = []

        def fill(k, remaining, acc):
            if k == r - 1:
                weight = r + 1 - k  # = 2
                if remaining % weight == 0:
                    counts_list.append(tuple(acc + [remaining // weight]))
                return
            weight = r + 1 - k
            for nk in range(remaining // weight + 1):
                fill(k + 1, remaining - nk * weight, acc + [nk])

        fill(1, target, [])
        for counts in sorted(counts_list):
            p = Profile(r, alpha, d, g, counts)
            if p.n >= 2:
                assert p.selection_holds()
                out.append(p)
        g += 1
    return out


# -- tautological monomials and Hain's expansion --------------------------------------------


class TautMonomial(Frozen):
    """psi-exponents per marking plus a multiset of boundary divisors.

    ``psi`` is indexed by marking position; ``boundary`` is a sorted tuple
    of (h, J) symbols with multiplicity, each canonicalized under the
    identification delta_h^J = delta_{g-h} ^ {complement of J}.
    """

    __slots__ = ("psi", "boundary")

    def __init__(self, psi: tuple[int, ...],
                 boundary: tuple[tuple[int, tuple[int, ...]], ...] = ()):
        self._init(psi, boundary)

    def degree(self) -> int:
        return sum(self.psi) + len(self.boundary)

    def __str__(self):
        parts = []
        for j, e in enumerate(self.psi, start=1):
            if e:
                parts.append(f"psi{j}" if e == 1 else f"psi{j}^{e}")
        for h, J in self.boundary:
            parts.append(f"delta_{h}^{{{','.join(map(str, J))}}}")
        return "*".join(parts) if parts else "1"


def canonical_boundary(h: int, J: tuple[int, ...], g: int,
                       markings: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    J = tuple(sorted(J))
    comp = tuple(m for m in markings if m not in J)
    return min((h, J), (g - h, comp))


def hain_expand(g: int, n: int, zero_weight_marking: bool = False
                ) -> dict[TautMonomial, APoly]:
    """(sum a_j^2 psi_j/2 - 1/2 sum_{|J|>=2} a_J^2 d_0^J
        - 1/4 sum_J sum_{h=1..g-1} a_J^2 d_h^J)^g / g!

    Markings are 1..n carrying the weights a_1..a_n; with
    ``zero_weight_marking`` an extra first marking of weight 0 is prepended
    (markings become 1..n+1 with marking 1 the weightless one).  The a_i
    are kept as free polynomial variables: representatives are only
    meaningful modulo sum a_i = 0, which downstream assembly respects.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    offset = 1 if zero_weight_marking else 0
    markings = tuple(range(1, n + offset + 1))
    n_mark = len(markings)

    def weight_vector(marking: int) -> APoly:
        """a_marking as an APoly over the n weighted positions."""
        if zero_weight_marking and marking == 1:
            return {}
        idx = marking - 1 - offset
        e = [0] * n
        e[idx] = 1
        return {tuple(e): Fraction(1)}

    def subset_weight(J) -> APoly:
        acc: APoly = {}
        for m in J:
            acc = apoly_add(acc, weight_vector(m))
        return acc

    one = TautMonomial(psi=(0,) * n_mark)
    if g == 0:
        return {one: {(0,) * n: Fraction(1)}}

    base: list[tuple[TautMonomial, APoly]] = []
    for pos, m in enumerate(markings):
        w = weight_vector(m)
        if not w:
            continue
        psi = [0] * n_mark
        psi[pos] = 1
        base.append((TautMonomial(psi=tuple(psi)),
                     apoly_scale(apoly_mul(w, w), Fraction(1, 2))))
    subsets: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n_mark):
        subsets.append(tuple(markings[i] for i in range(n_mark) if mask >> i & 1))
    boundary_terms: dict[tuple[int, tuple[int, ...]], APoly] = {}
    for J in subsets:
        if len(J) < 2:
            continue
        w2 = subset_weight(J)
        if not w2:
            continue
        sym = canonical_boundary(0, J, g, markings)
        contribution = apoly_scale(apoly_mul(w2, w2), Fraction(-1, 2))
        boundary_terms[sym] = apoly_add(boundary_terms.get(sym, {}), contribution)
    for h in range(1, g):
        for J in subsets:
            w2 = subset_weight(J)
            if not w2:
                continue
            sym = canonical_boundary(h, J, g, markings)
            contribution = apoly_scale(apoly_mul(w2, w2), Fraction(-1, 4))
            boundary_terms[sym] = apoly_add(boundary_terms.get(sym, {}), contribution)
    for sym, apoly in sorted(boundary_terms.items()):
        base.append((TautMonomial(psi=(0,) * n_mark, boundary=(sym,)), apoly))

    # multinomial expansion of the g-th power over the base terms, divided by g!
    out: dict[TautMonomial, APoly] = {}

    def choose(idx: int, remaining: int, taut_psi, taut_bnd, apoly: APoly,
               denominator: int):
        if remaining == 0:
            sym = TautMonomial(psi=tuple(taut_psi), boundary=tuple(sorted(taut_bnd)))
            out[sym] = apoly_add(out.get(sym, {}),
                                 apoly_scale(apoly, Fraction(1, denominator)))
            return
        if idx == len(base):
            return
        term_sym, term_poly = base[idx]
        power_poly: APoly = {(0,) * n: Fraction(1)}
        for mult in range(remaining + 1):
            if mult:
                power_poly = apoly_mul(power_poly, term_poly)
                if not power_poly:
                    break
            new_psi = [a + mult * b for a, b in zip(taut_psi, term_sym.psi)]
            new_bnd = taut_bnd + list(term_sym.boundary) * mult
            choose(idx + 1, remaining - mult, new_psi, new_bnd,
                   apoly_mul(apoly, power_poly) if mult else apoly,
                   denominator * factorial(mult))

    choose(0, g, [0] * n_mark, [], {(0,) * n: Fraction(1)}, 1)
    return {sym: poly for sym, poly in out.items() if poly}


# -- intersection-number tables ----------------------------------------------------------------


class TableMissError(KeyError):
    """A strict-policy table was asked for a monomial it does not cover."""


class TableFileError(ValueError):
    """A table file cannot be read or does not hold a well-formed table."""


class IntegralTable:
    """Map from tautological monomials to exact intersection numbers.

    ``labels`` records the r-spin multiplicities at the markings; the
    integrand is understood as lambda_g c^{r-spin} times the keyed
    monomial.  Lookups of absent keys return 0 under ``default_zero`` and
    raise TableMissError otherwise.
    """

    __slots__ = ("g", "n", "labels", "entries", "default_zero")

    def __init__(self, g: int, n: int, labels: tuple[int, ...],
                 entries: dict[TautMonomial, Fraction], default_zero: bool = False):
        self.g = g
        self.n = n
        self.labels = labels
        self.entries = entries
        self.default_zero = default_zero

    def canonicalize(self):
        markings = tuple(range(1, self.n + 1))
        canon = {}
        for sym, value in self.entries.items():
            boundary = tuple(sorted(canonical_boundary(h, J, self.g, markings)
                                    for h, J in sym.boundary))
            canon[TautMonomial(psi=sym.psi, boundary=boundary)] = value
        self.entries = canon
        return self

    def lookup(self, sym: TautMonomial) -> Fraction:
        if sym in self.entries:
            return self.entries[sym]
        if self.default_zero:
            return Fraction(0)
        raise TableMissError(f"no table entry for {sym}")

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "labels": list(self.labels),
            "default_zero": self.default_zero,
            "entries": [
                {"psi": list(sym.psi),
                 "boundary": [[h, list(J)] for h, J in sym.boundary],
                 "value": str(value)}
                for sym, value in sorted(self.entries.items(),
                                         key=lambda kv: (kv[0].psi, kv[0].boundary))
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "IntegralTable":
        """Inverse of to_json_dict; a malformed payload raises TableFileError."""
        def integers(value, what, least=0, length=None):
            if (not isinstance(value, list)
                    or any(type(x) is not int or x < least for x in value)
                    or length is not None and len(value) != length):
                size = "" if length is None else f"{length} "
                raise TableFileError(
                    f"{what} must be a list of {size}integers >= {least}, got {value!r}")
            return tuple(value)

        def rational(value):
            try:
                return exact_rational(value)
            except ValueError:
                raise TableFileError(
                    f"value must be an exact rational, got {value!r}") from None

        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise TableFileError("expected an object with an 'entries' list")
        g, n, default_zero = data.get("g"), data.get("n"), data.get("default_zero", False)
        if not (type(g) is int and type(n) is int and g >= 0 and n >= 1
                and isinstance(default_zero, bool)):
            raise TableFileError("need integers g >= 0, n >= 1 and a boolean default_zero, "
                                 f"got {g!r}, {n!r}, {default_zero!r}")
        entries = {}
        for item in data["entries"]:
            if not isinstance(item, dict):
                raise TableFileError(f"malformed entry {item!r}")
            boundary = item.get("boundary", [])
            if not isinstance(boundary, list) or not all(
                    isinstance(b, list) and len(b) == 2 and type(b[0]) is int
                    for b in boundary):
                raise TableFileError(f"boundary is a list of [h, J] pairs, got {boundary!r}")
            sym = TautMonomial(
                psi=integers(item.get("psi"), "psi", length=n),
                boundary=tuple(sorted((h, integers(J, "J", least=1))
                                      for h, J in boundary)))
            entries[sym] = rational(item.get("value"))
        table = IntegralTable(g=g, n=n,
                              labels=integers(data.get("labels", []), "labels", least=1),
                              entries=entries, default_zero=default_zero)
        return table.canonicalize()

    @staticmethod
    def load(path) -> "IntegralTable":
        """Read a table file; an unreadable, non-JSON or malformed one raises
        TableFileError naming the path."""
        try:
            with open(path) as fh:
                return IntegralTable.from_json_dict(json.load(fh))
        except (OSError, ValueError) as exc:  # bad JSON or encoding: ValueError
            raise TableFileError(f"{path}: {exc}") from None


# -- pairing and assembly ------------------------------------------------------------------------


class DRPolynomial(Frozen):
    """Homogeneous degree-2g polynomial in the weights a_1..a_n, modulo
    the ideal generated by sum a_i."""

    __slots__ = ("g", "n", "coeffs")

    def __init__(self, g: int, n: int, coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]):
        self._init(g, n, coeffs)

    @staticmethod
    def from_apoly(g: int, n: int, poly: APoly) -> "DRPolynomial":
        for exps in poly:
            if sum(exps) != 2 * g:
                raise ValueError(
                    f"monomial a^{exps} is not homogeneous of degree {2 * g}")
        return DRPolynomial(g, n, tuple(sorted(poly.items())))

    def as_apoly(self) -> APoly:
        return dict(self.coeffs)


def pair_with_table(expansion: dict[TautMonomial, APoly], table: IntegralTable,
                    dilaton: bool, g: int, n: int) -> DRPolynomial:
    """Substitute table values for the tautological monomials.

    With ``dilaton`` the psi_1-insertion at the extra marked point has been
    removed beforehand, which costs the factor (2g - 2 + n).
    """
    total: APoly = {}
    for sym, poly in expansion.items():
        value = table.lookup(sym)
        if value:
            total = apoly_add(total, apoly_scale(poly, value))
    if dilaton:
        total = apoly_scale(total, Fraction(2 * g - 2 + n))
    if not total:
        total = {}
    return DRPolynomial.from_apoly(g, n, total)


def assemble_hamiltonian(r: int, contributions, ring: Ring | None = None
                         ) -> LocalFunctional:
    """Sum the profile contributions into a local functional.

    The a-monomial a_1^{b_1}..a_n^{b_n} of a profile with sorted labels
    alpha_1..alpha_n maps to u^{alpha_1}_{b_1}..u^{alpha_n}_{b_n}; the
    prefactor is eps^{2g} divided by the product of the n_k! multiset
    symmetry factors (the per-profile remnant of the 1/n! over ordered
    insertions).
    """
    if ring is None:
        ring = rspin_ring(r)
    density = DiffPoly.zero(ring)
    for profile, poly in contributions:
        if profile.r != r:
            raise ValueError("profile belongs to a different r")
        labels = profile.labels
        sym_factor = Fraction(1)
        for nk in profile.counts:
            sym_factor /= factorial(nk)
        for exps, coeff in poly.coeffs:
            if len(exps) != profile.n:
                raise ValueError("polynomial arity does not match the profile")
            term = DiffPoly.const(ring, coeff * sym_factor)
            for label, b in zip(labels, exps):
                term = term * DiffPoly.jet(ring, label, b)
            density = density + term.eps_shift(2 * profile.g)
    return integrate(density)


# -- built-in reference Hamiltonians ------------------------------------------------------------------

_G11_DATA = {
    3: [
        (Fraction(1, 2), 0, ((1, 0, 2), (2, 0, 1))),
        (Fraction(1, 36), 0, ((2, 0, 4),)),
        (Fraction(1, 48), 2, ((2, 0, 2), (2, 2, 1))),
        (Fraction(1, 12), 2, ((1, 0, 1), (1, 2, 1))),
        (Fraction(1, 432), 4, ((2, 0, 1), (2, 4, 1))),
    ],
    4: [
        (Fraction(1, 2), 0, ((1, 0, 2), (3, 0, 1))),
        (Fraction(1, 2), 0, ((1, 0, 1), (2, 0, 2))),
        (Fraction(1, 8), 0, ((2, 0, 2), (3, 0, 2))),
        (Fraction(1, 320), 0, ((3, 0, 5),)),
        (Fraction(1, 8), 2, ((1, 0, 1), (1, 2, 1))),
        (Fraction(1, 64), 2, ((2, 0, 2), (3, 2, 1))),
        (Fraction(1, 16), 2, ((2, 0, 1), (2, 2, 1), (3, 0, 1))),
        (Fraction(1, 64), 2, ((1, 2, 1), (3, 0, 2))),
        (Fraction(1, 192), 2, ((3, 0, 3), (3, 2, 1))),
        (Fraction(1, 160), 4, ((2, 0, 1), (2, 4, 1))),
        (Fraction(5, 4096), 4, ((3, 0, 2), (3, 4, 1))),
        (Fraction(3, 640), 4, ((1, 0, 1), (3, 4, 1))),
        (Fraction(1, 8192), 6, ((3, 0, 1), (3, 6, 1))),
    ],
    5: [
        (Fraction(1, 2), 0, ((1, 0, 2), (4, 0, 1))),
        (Fraction(1), 0, ((1, 0, 1), (2, 0, 1), (3, 0, 1))),
        (Fraction(1, 6), 0, ((2, 0, 3),)),
        (Fraction(1, 30), 0, ((3, 0, 4),)),
        (Fraction(1, 5), 0, ((2, 0, 1), (3, 0, 2), (4, 0, 1))),
        (Fraction(1, 10), 0, ((2, 0, 2), (4, 0, 2))),
        (Fraction(1, 50), 0, ((3, 0, 2), (4, 0, 3))),
        (Fraction(1, 3750), 0, ((4, 0, 6),)),
        (Fraction(1, 6), 2, ((1, 0, 1), (1, 2, 1))),
        (Fraction(3, 20), 2, ((2, 0, 1), (3, 0, 1), (3, 2, 1))),
        (Fraction(1, 10), 2, ((2, 0, 1), (3, 1, 2))),
        (Fraction(1, 20), 2, ((1, 2, 1), (3, 0, 1), (4, 0, 1))),
        (Fraction(1, 10), 2, ((2, 0, 1), (2, 2, 1), (4, 0, 1))),
        (Fraction(1, 40), 2, ((2, 1, 2), (4, 0, 1))),
        (Fraction(1, 50), 2, ((2, 0, 1), (4, 0, 1), (4, 1, 2))),
        (Fraction(1, 75), 2, ((2, 0, 1), (4, 0, 2), (4, 2, 1))),
        (Fraction(1, 75), 2, ((3, 0, 2), (4, 0, 1), (4, 2, 1))),
        (Fraction(1, 50), 2, ((3, 0, 1), (3, 2, 1), (4, 0, 2))),
        (Fraction(1, 1200), 2, ((4, 0, 4), (4, 2, 1))),
        (Fraction(7, 600), 4, ((2, 0, 1), (2, 4, 1))),
        (Fraction(11, 900), 4, ((1, 0, 1), (3, 4, 1))),
        (Fraction(7, 1200), 4, ((2, 0, 1), (4, 0, 1), (4, 4, 1))),
        (Fraction(17, 1200), 4, ((2, 0, 1), (4, 1, 1), (4, 3, 1))),
        (Fraction(71, 7200), 4, ((2, 0, 1), (4, 2, 2))),
        (Fraction(31, 3600), 4, ((3, 0, 1), (3, 4, 1), (4, 0, 1))),
        (Fraction(7, 450), 4, ((3, 1, 1), (3, 3, 1), (4, 0, 1))),
        (Fraction(91, 7200), 4, ((3, 2, 2), (4, 0, 1))),
        (Fraction(13, 12000), 4, ((4, 0, 2), (4, 2, 2))),
        (Fraction(3, 4000), 4, ((4, 0, 1), (4, 1, 2), (4, 2, 1))),
        (Fraction(53, 108000), 6, ((3, 0, 1), (3, 6, 1))),
        (Fraction(11, 18000), 6, ((2, 0, 1), (4, 6, 1))),
        (Fraction(1397, 6480000), 6, ((4, 0, 1), (4, 3, 2))),
        (Fraction(617, 1620000), 6, ((4, 0, 1), (4, 2, 1), (4, 4, 1))),
        (Fraction(107, 10800000), 8, ((4, 0, 1), (4, 8, 1))),
    ],
}


# The reference change from DR to DZ variables, w^alpha = u^alpha + c eps^2
# u^beta_2 for alpha -> (beta, c); the identity for r = 3.
DR_DZ_SHIFTS: dict[int, dict[int, tuple[int, Fraction]]] = {
    3: {},
    4: {1: (3, Fraction(1, 96))},
    5: {1: (3, Fraction(1, 60)), 2: (4, Fraction(1, 60))},
}


def builtin_g11(r: int, ring: Ring | None = None) -> LocalFunctional:
    """The reference double ramification Hamiltonian g_{1,1} for r = 3, 4, 5."""
    if r not in _G11_DATA:
        raise ValueError(f"no built-in g_{{1,1}} data for r = {r}")
    if ring is None:
        ring = rspin_ring(r)
    density = DiffPoly.zero(ring)
    for coeff, eps, jets in _G11_DATA[r]:
        term = DiffPoly.const(ring, coeff)
        for alpha, order, power in jets:
            term = term * DiffPoly.jet(ring, alpha, order, power)
        density = density + term.eps_shift(eps)
    return integrate(density)
