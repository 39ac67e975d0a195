"""Double ramification Hamiltonians for the r-spin theory.

The pipeline: enumerate the (g, n_1..n_{r-1}) profiles allowed by the
degree selection rule, expand the g-th power of Hain's divisor combination
over g! into tautological monomials with polynomial weights in the
ramification multiplicities a_i, pair the monomials with externally
supplied intersection-number tables, and assemble the surviving
polynomials into a local functional (a-monomial a^{b_1}..a^{b_n} becomes
the jet monomial u^{alpha_1}_{b_1}..u^{alpha_n}_{b_n} with the prefactor
eps^{2g} over the multiset symmetry factor).  Boundary classes are never
evaluated here: they are table keys, and vanishing statements are explicit
zero entries.

A monomial of the expansion is a multiset of g base terms (psi_j or a
boundary class) with a closed-form coefficient, so a pairing sums over the
table's own entries; only a strict table walks the monomials, for a miss.

A polynomial in the weights a_1..a_n is a ``DiffPoly`` of ``Ring(n)`` whose
only jets are a_i = u^i_0, so the expansion, the pairing and the assembly
carry one such polynomial; ``a_coefficients`` decodes it into sorted
exponent tuples where they are read.

The reference g_{1,1} Hamiltonians for r = 3, 4, 5 ship as exact built-in
data for the hierarchy-comparison checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from math import factorial, prod

from .diffpoly import DiffPoly, LocalFunctional, Ring, integrate, rspin_ring, sum_of_products
from .scalars import Frozen, excerpt, read_rational


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


def boundary_names(h: int, J, g: int, markings) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The names (h, J), J sorted, and (g - h, J^c) of one boundary class."""
    J = tuple(sorted(J))
    return (h, J), (g - h, tuple(m for m in markings if m not in J))


def is_divisor(g: int, h: int, J) -> bool:
    """delta_h^J is a divisor of Hain's combination: h < g, J not empty, h >= 1 or |J| >= 2."""
    return h < g and len(J) >= (1 if h else 2)


def hain_monomials(g: int, n: int):
    """The monomials of Hain's expansion for (g, n), lazily: one per multiset
    of g base terms, a base term being a marking j (for psi_j) or the
    canonical symbol of a boundary class with a divisor name, in
    ``combinations_with_replacement`` order over the markings and then the
    sorted symbols, each symbol made only when the walk reaches it."""
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    markings = tuple(range(1, n + 1))

    def subsets(start: int, J: tuple):  # J and its extensions, lexicographically
        yield J
        for m in range(start, n + 1):
            yield from subsets(m + 1, (*J, m))

    source = chain(markings, ((h, J) for h in range(g) for J in subsets(1, ())
                              if (h, J) == min(names := boundary_names(h, J, g, markings))
                              and any(is_divisor(g, *name) for name in names)))
    pool: list = []

    def reached(i: int) -> bool:  # pool[i] exists, once drawn from source
        if i == len(pool):
            pool.extend(islice(source, 1))
        return i < len(pool)

    def multisets(start: int, prefix: tuple):  # combinations_with_replacement(pool, g)
        if len(prefix) == g:
            yield prefix
            return
        i = start
        while reached(i):
            yield from multisets(i, (*prefix, pool[i]))
            i += 1

    return (TautMonomial(psi=tuple(map(choice.count, markings)),
                         boundary=tuple(b for b in choice if type(b) is tuple))
            for choice in multisets(0, ()))


def hain_coefficients(g: int, n: int):
    """The coefficient of a monomial of Hain's expansion for (g, n), as a
    function: the product of t^m / m! over its base terms t taken m times,
    t = a_j^2 / 2 for psi_j and, for a boundary class, the sum of -a_J^2 / 2
    (h = 0) or -a_J^2 / 4 over its names (h, J) that are divisors."""
    ring = Ring(n)
    a = (None, *(DiffPoly.jet(ring, m, 0) for m in range(1, n + 1)))

    @cache  # t^m / m!, kept for the life of this function
    def power(term, m: int) -> DiffPoly:
        if m > 1:
            return power(term, m - 1) * power(term, 1) / m
        if type(term) is int:
            return a[term] ** 2 / 2
        return sum(sum(a[i] for i in J) ** 2 / (-4 if h else -2)
                   for h, J in boundary_names(*term, g, range(1, n + 1)) if is_divisor(g, h, J))

    def coefficient(sym: TautMonomial) -> DiffPoly:
        factors = [power(j, e) for j, e in enumerate(sym.psi, start=1) if e]
        factors += [power(b, sym.boundary.count(b)) for b in set(sym.boundary)]
        return prod(factors, start=DiffPoly.const(ring, 1))

    return coefficient


def hain_expand(g: int, n: int) -> dict[TautMonomial, DiffPoly]:
    """(sum a_j^2 psi_j/2 - 1/2 sum_{|J|>=2} a_J^2 d_0^J
        - 1/4 sum_J sum_{h=1..g-1} a_J^2 d_h^J)^g / g!

    by ``hain_monomials`` and ``hain_coefficients``.  Markings are 1..n
    carrying the weights a_1..a_n, the jets u^1_0..u^n_0 of ``Ring(n)``.
    The a_i are kept as free polynomial variables: representatives are only
    meaningful modulo sum a_i = 0, which downstream assembly respects.
    """
    monomials, coefficient = hain_monomials(g, n), hain_coefficients(g, n)
    return {sym: coefficient(sym) for sym in monomials}


# -- intersection-number tables ----------------------------------------------------------------


class TableMissError(KeyError):
    """A strict-policy table was asked for a monomial it does not cover."""


class TableFileError(ValueError):
    """A table file cannot be read or does not hold a well-formed table."""


def canonical_entries(g: int, n: int, entries) -> dict[TautMonomial, Fraction]:
    """The (monomial, value) pairs keyed by canonical boundary symbols.

    A symbol that no expansion for (g, n) holds (h outside 0..g, J not a
    set of markings in 1..n, or a class without a divisor name, such as
    delta_0^{i} or delta_0^{}), a monomial of degree other than g, and two
    different values for one class, raise TableFileError.
    """
    markings = tuple(range(1, n + 1))
    canon: dict[TautMonomial, Fraction] = {}
    for sym, value in entries:
        boundary = []
        for h, J in sym.boundary:
            if not (0 <= h <= g and all(1 <= m <= n for m in J) and len(set(J)) == len(J)):
                raise TableFileError(
                    f"boundary symbol {excerpt([h, list(J)])} needs 0 <= h <= "
                    f"{excerpt(g)} and distinct markings in 1..{excerpt(n)}")
            names = boundary_names(h, J, g, markings)
            if not any(is_divisor(g, *name) for name in names):
                raise TableFileError(
                    f"boundary symbol {excerpt([h, list(J)])} names no divisor of Hain's "
                    f"combination: delta_0^J and delta_{excerpt(g)}^{{J^c}} need |J| >= 2")
            boundary.append(min(names))
        key = TautMonomial(psi=sym.psi, boundary=tuple(sorted(boundary)))
        if key.degree() != g:
            raise TableFileError(f"{excerpt(key)} has degree {excerpt(key.degree())}"
                                 f", not g = {excerpt(g)}")
        if canon.setdefault(key, value) != value:
            raise TableFileError(f"{excerpt(key)} is given twice, as "
                                 f"{excerpt(canon[key])} and {excerpt(value)}")
    return canon


class IntegralTable:
    """Map from tautological monomials to exact intersection numbers.

    ``labels`` records the r-spin multiplicities at the markings; the
    integrand is understood as lambda_g c^{r-spin} times the keyed
    monomial.  The (monomial, value) pairs are keyed by their canonical
    boundary symbols on construction (``canonical_entries``).  A monomial
    of Hain's expansion without an entry is zero under ``default_zero`` and
    a TableMissError otherwise (``pair_with_table``).
    """

    __slots__ = ("g", "n", "labels", "entries", "default_zero")

    def __init__(self, g: int, n: int, labels: tuple[int, ...], entries,
                 default_zero: bool = False):
        self.g = g
        self.n = n
        self.labels = labels
        self.entries = canonical_entries(g, n, entries)
        self.default_zero = default_zero

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
                size = "" if length is None else f"{excerpt(length)} "
                raise TableFileError(f"{what} must be a list of {size}integers >= {least}, "
                                     f"got {excerpt(value)}")
            return tuple(value)

        def rational(value):
            parsed = read_rational(value)
            if parsed is None:
                raise TableFileError(f"value {excerpt(value)} is not p or p/q in "
                                     f"lowest terms written as a string")
            return parsed

        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise TableFileError("expected an object with an 'entries' list")
        g, n, default_zero = data.get("g"), data.get("n"), data.get("default_zero", False)
        if not (type(g) is int and type(n) is int and g >= 0 and n >= 1
                and isinstance(default_zero, bool)):
            raise TableFileError("need integers g >= 0, n >= 1 and a boolean default_zero, "
                                 f"got {', '.join(map(excerpt, (g, n, default_zero)))}")
        entries = []
        for item in data["entries"]:
            if not isinstance(item, dict):
                raise TableFileError(f"malformed entry {excerpt(item)}")
            boundary = item.get("boundary", [])
            if not isinstance(boundary, list) or not all(
                    isinstance(b, list) and len(b) == 2 and type(b[0]) is int
                    for b in boundary):
                raise TableFileError(f"boundary is a list of [h, J] pairs, got "
                                     f"{excerpt(boundary)}")
            sym = TautMonomial(
                psi=integers(item.get("psi"), "psi", length=n),
                boundary=tuple((h, integers(J, "J", least=1)) for h, J in boundary))
            entries.append((sym, rational(item.get("value"))))
        labels = data.get("labels", [])  # none, or one per marking
        return IntegralTable(g=g, n=n, labels=integers(labels, "labels", least=1,
                                                        length=n if labels else None),
                             entries=entries, default_zero=default_zero)

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


def a_coefficients(g: int, n: int, poly: DiffPoly
                   ) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """poly, a homogeneous degree-2g polynomial of Ring(n) in a_i = u^i_0, as
    sorted (exponent tuple, value) pairs; any other poly raises ValueError."""
    Ring(n).check_compatible(poly.ring)
    coeffs = []
    for (eps, jets), value in poly.items():
        if eps or any(order for _, order, _ in jets):
            raise ValueError(f"the term eps^{eps} with jets {jets} is not a "
                             f"monomial in the weights a_i = u^i_0")
        exps = [0] * n
        for i, _, power in jets:
            exps[i - 1] = power
        if sum(exps) != 2 * g:
            raise ValueError(f"monomial a^{tuple(exps)} is not homogeneous of degree {2 * g}")
        coeffs.append((tuple(exps), value))
    return tuple(sorted(coeffs))


def pair_with_table(table: IntegralTable, dilaton: bool) -> DiffPoly:
    """Hain's expansion for the table's (g, n) with table values substituted
    for the tautological monomials: a polynomial of Ring(n) in the weights.

    Only the nonzero entries are summed, as each is a monomial of the
    expansion; a strict table missing a monomial raises TableMissError.
    With ``dilaton`` the psi_1-insertion at the extra marked point has been
    removed beforehand, which costs the factor (2g - 2 + n).
    """
    if not table.default_zero:
        for sym in hain_monomials(table.g, table.n):
            if sym not in table.entries:
                raise TableMissError(f"no table entry for {sym}")
    ring = Ring(table.n)
    one = DiffPoly.const(ring, 1)
    factor = 2 * table.g - 2 + table.n if dilaton else 1
    coefficient = hain_coefficients(table.g, table.n)
    return sum_of_products(ring, [(value * factor, coefficient(sym), one)
                                  for sym, value in table.entries.items() if value])


def assemble_hamiltonian(r: int, contributions) -> LocalFunctional:
    """Sum the (profile, a-polynomial) contributions into a local functional.

    Each polynomial is read through ``a_coefficients`` for the profile's g
    and n.  The a-monomial a_1^{b_1}..a_n^{b_n} of a profile with sorted
    labels alpha_1..alpha_n maps to u^{alpha_1}_{b_1}..u^{alpha_n}_{b_n};
    the prefactor is eps^{2g} divided by the product of the n_k! multiset
    symmetry factors (the per-profile remnant of the 1/n! over ordered
    insertions).
    """
    items = []
    for profile, poly in contributions:
        if profile.r != r:
            raise ValueError("profile belongs to a different r")
        labels = profile.labels
        sym_factor = prod(factorial(nk) for nk in profile.counts)
        for exps, coeff in a_coefficients(profile.g, profile.n, poly):
            jets = [(label, b, 1) for label, b in zip(labels, exps)]
            items.append(((2 * profile.g, jets), coeff / sym_factor))
    return integrate(DiffPoly.from_items(rspin_ring(r), items))


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


def builtin_g11(r: int) -> LocalFunctional:
    """The reference double ramification Hamiltonian g_{1,1} for r = 3, 4, 5,
    in ``rspin_ring(r)``."""
    if r not in _G11_DATA:
        raise ValueError(f"no built-in g_{{1,1}} data for r = {r}")
    return integrate(DiffPoly.from_items(
        rspin_ring(r), (((eps, jets), coeff) for coeff, eps, jets in _G11_DATA[r])))
