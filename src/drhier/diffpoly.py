"""Differential polynomials and local functionals.

A differential polynomial is a polynomial in jet variables u^alpha_i
(alpha = 1..N fields, i >= 0 the number of x-derivatives) together with a
formal parameter eps carrying degree -1 against deg u^alpha_i = i.  A local
functional is a differential polynomial considered modulo constants and
total x-derivatives; equality of local functionals is decided through the
variational derivative, whose kernel is exactly that quotient.

Representation: every ring computes over Q.  A polynomial stores integer
numerators over one common denominator: ``terms`` maps a packed monomial
to a nonzero int numerator, ``den`` > 0, and gcd(den, numerators) = 1, so
equal polynomials are equal structurally.  A packed monomial is one int of
16-bit slots (packed exponent vectors; Monagan-Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007):
slot 0 holds the eps exponent, slot 1 the derivative degree sum
order * power, and slot 1 + order * N + alpha the power of u^alpha_order.
A product of monomials is the sum of their keys, and d_x moves one unit N
slots up.  The top bit of every slot is a guard: an exponent that would
overflow its slot, or an eps exponent that would go negative, sets it and is
refused with ``ValueError``.

A jet-free ring (``Ring(n, d, jet_free=True)``) is the quotient by every
monomial of positive derivative degree: its polynomials are polynomials in
eps and the u^alpha_0 alone.  Only d_x and the constructors know it: d_x is
zero there, and ``from_items`` and the one-term constructors drop the
monomials of positive degree.  Every other operation keeps a jet-free
polynomial jet-free.  The quotient gives the degree-0 part of the exact
result of whatever never lowers derivative degree: products add degrees,
and sums, scalar multiples, ``substitute``, ``var_der``, the
pseudo-differential Leibniz terms and residues never lower one.  Jet-free
and exact rings compare unequal, so their polynomials never mix.

Code outside this module reads a polynomial through ``items()``, which
yields ``((eps, jets), Fraction)`` with ``jets`` a tuple of ``(alpha, order,
power)`` triples sorted by (alpha, order), and builds one from such pairs
with ``from_items``.  Coefficients in the underived fields are polynomial,
not formal power series: an operation that would need a series inverse
fails loudly instead of truncating.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

from .scalars import (add_term, exact_rational, excerpt, power_by_squaring, read_rational,
                      squarefree_part)
from .slots import (GUARD, MASK, SLOT_MAX, TOP_SLOT, W, canonical, canonical_scale,
                    canonical_sum, check_slots, nonzero_slots, over_one_den)

Monomial = tuple[int, tuple[tuple[int, int, int], ...]]

_DEG = 1 << W           # one unit of derivative degree
_JETS = 2 * W           # bit offset of the first jet slot


class Ring:
    """Context for differential polynomials over Q: the number of fields,
    and whether the ring is jet-free.

    d, the squarefree part of r in an r-spin context, is recorded in the
    JSON form.  A ``jet_free`` ring keeps only the monomials of derivative
    degree 0 (see the module docstring).  Rings with different field
    counts, d or jet-freeness are unequal, so their polynomials never mix.
    A field count whose u^N_0 needs a packed slot above ``TOP_SLOT`` is
    refused.  The JSON form does not record jet-freeness.
    """

    __slots__ = ("n_fields", "d", "jet_free")

    def __init__(self, n_fields: int, d: int = 1, jet_free: bool = False):
        if n_fields < 1:
            raise ValueError("need at least one field")
        if 1 + n_fields > TOP_SLOT:
            raise ValueError(f"{excerpt(n_fields)} fields need packed slot {excerpt(1 + n_fields)}"
                             f" for u^{excerpt(n_fields)}_0, above {TOP_SLOT}")
        self.n_fields = n_fields
        self.d = d
        self.jet_free = bool(jet_free)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.n_fields == other.n_fields
                and self.d == other.d and self.jet_free == other.jet_free)

    def __hash__(self):
        return hash((self.n_fields, self.d, self.jet_free))

    def __repr__(self):
        jet_free = ", jet_free=True" if self.jet_free else ""
        return f"Ring(n_fields={self.n_fields}, d={self.d}{jet_free})"

    def check_compatible(self, other: "Ring"):
        if self != other:
            raise ValueError(f"ring context mismatch: {self} vs {other}")

    def scalar(self, value) -> Fraction:
        """value as a coefficient; a float, or a value outside Q, is refused."""
        if type(value) is Fraction:
            return value
        try:
            return exact_rational(value)
        except ValueError:
            raise ValueError(
                f"{self} has exact rational coefficients, got {value!r}") from None


def rspin_ring(r: int) -> Ring:
    """The ring of an r-spin context: r - 1 fields, d the squarefree part of r."""
    Ring(r - 1)  # refuses r - 1 beyond the packed slots before r's trial division
    return Ring(r - 1, squarefree_part(r))


# -- packed monomials ------------------------------------------------------------


def _pack(ring: Ring, eps: int, jets) -> int:
    """The packed key of eps^eps prod (u^alpha_order)^power over jets.

    A field outside 1..N, a negative exponent, a slot above ``TOP_SLOT`` or
    an exponent above ``SLOT_MAX`` is refused with ValueError before any shift.
    """
    n = ring.n_fields
    key = degree = total = 0
    for alpha, order, power in jets:
        if not 1 <= alpha <= n:
            raise ValueError(f"field index {excerpt(alpha)} out of range 1..{n}")
        if order < 0 or power < 0:
            raise ValueError("order and power must be >= 0")
        slot = 1 + order * n + alpha
        if slot > TOP_SLOT:
            raise ValueError(f"u^{alpha}_{excerpt(order)} needs packed slot "
                             f"{excerpt(slot)}, above {TOP_SLOT}")
        if power > SLOT_MAX:
            raise ValueError(f"a monomial exponent exceeds {SLOT_MAX}")
        key += power << (W * slot)
        degree += order * power
        total += power
    if eps < 0:
        raise ValueError(f"negative eps exponent {eps}")
    if max(eps, degree, total) > SLOT_MAX:
        # a repeated jet may have overflowed its slot: add its powers up
        powers: dict[tuple[int, int], int] = {}
        for alpha, order, power in jets:
            powers[alpha, order] = powers.get((alpha, order), 0) + power
        if max(eps, degree, *powers.values()) > SLOT_MAX:
            raise ValueError(f"a monomial exponent exceeds {SLOT_MAX}")
    return key + eps + (degree << W)


def _unpack(key: int, n: int) -> Monomial:
    """(eps, jets) of a packed monomial in an n-field ring."""
    jets = []
    for shift, power in nonzero_slots(key, _JETS):
        order, alpha = divmod(shift // W - 2, n)
        jets.append((alpha + 1, order, power))
    jets.sort()
    return key & MASK, tuple(jets)


def monomial_sort_key(mon: Monomial):
    """Canonical term order: eps exponent, then graded-lex on jet variables."""
    eps, jets = mon
    return (eps, sum(p for _, _, p in jets), jets)


class DiffPoly:
    """Sparse differential polynomial over a fixed ring context.

    ``terms`` maps packed monomials to nonzero int numerators over ``den``,
    in the canonical form of ``slots``; the constructor takes that form as
    it is.  Build a polynomial from decoded terms with ``from_items``.
    """

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: Ring, terms: dict | None = None, den: int = 1):
        self.ring = ring
        self.terms = terms if terms is not None else {}
        self.den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "DiffPoly":
        return DiffPoly(ring)

    @staticmethod
    def _term(ring: Ring, key: int, coeff) -> "DiffPoly":
        """coeff times the packed monomial key."""
        if type(coeff) is int:
            num, den = coeff, 1
        else:
            c = ring.scalar(coeff)
            num, den = c.numerator, c.denominator
        if not num or (ring.jet_free and (key >> W) & MASK):
            return DiffPoly(ring)
        return DiffPoly(ring, {key: num}, den)

    @staticmethod
    def const(ring: Ring, value) -> "DiffPoly":
        return DiffPoly._term(ring, 0, value)

    @staticmethod
    def jet(ring: Ring, alpha: int, order: int, power: int = 1, coeff=1) -> "DiffPoly":
        return DiffPoly._term(ring, _pack(ring, 0, ((alpha, order, power),)), coeff)

    @staticmethod
    def eps(ring: Ring, k: int = 1, coeff=1) -> "DiffPoly":
        return DiffPoly._term(ring, _pack(ring, k, ()), coeff)

    @staticmethod
    def from_items(ring: Ring, items) -> "DiffPoly":
        """sum c eps^e prod (u^alpha_order)^power over ((e, jets), c) pairs;
        the jets need not be sorted, and repeated monomials add up; a
        jet-free ring drops the monomials of positive derivative degree."""
        coeffs: dict = {}
        for (eps, jets), c in items:
            add_term(coeffs, _pack(ring, eps, jets), ring.scalar(c))
        if ring.jet_free:
            coeffs = {key: c for key, c in coeffs.items() if not (key >> W) & MASK}
        return DiffPoly(ring, *over_one_den(coeffs))

    # -- the decoded view ----------------------------------------------------

    def items(self):
        """((eps, jets), Fraction) per term, jets sorted by (alpha, order)."""
        n, den = self.ring.n_fields, self.den
        for key, v in self.terms.items():
            yield _unpack(key, n), Fraction(v, den)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def is_constant(self) -> bool:
        return not any(self.terms)

    def max_order(self, alpha: int | None = None) -> int:
        n = self.ring.n_fields
        orders = [o for key in self.terms for a, o, _ in _unpack(key, n)[1]
                  if alpha is None or a == alpha]
        return max(orders, default=-1)

    def max_eps(self) -> int:
        return max((key & MASK for key in self.terms), default=0)

    # -- arithmetic ------------------------------------------------------------

    def _operand(self, other) -> "DiffPoly":
        """other as a polynomial of self's ring; another ring is refused."""
        if not isinstance(other, DiffPoly):
            return DiffPoly.const(self.ring, other)
        if other.ring is not self.ring:
            self.ring.check_compatible(other.ring)
        return other

    def __add__(self, other):
        other = self._operand(other)
        return DiffPoly(self.ring, *canonical_sum(self.terms, self.den,
                                                  other.terms, other.den))

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ring, {key: -v for key, v in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._operand(other)
        return DiffPoly(self.ring, *canonical_sum(self.terms, self.den,
                                                  other.terms, other.den, -1))

    def __mul__(self, other):
        if isinstance(other, DiffPoly):
            return sum_of_products(self.ring, ((1, self, other),))
        if type(other) is int:
            num, den = other, 1
        else:
            c = self.ring.scalar(other)
            num, den = c.numerator, c.denominator
        return DiffPoly(self.ring, *canonical_scale(self.terms, self.den, num, den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            num, den = 1, other
        else:
            c = self.ring.scalar(other)
            num, den = c.denominator, c.numerator
        if not den:
            raise ZeroDivisionError("division of a differential polynomial by zero")
        if den < 0:
            num, den = -num, -den
        return DiffPoly(self.ring, *canonical_scale(self.terms, self.den, num, den))

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers of differential polynomials")
        return power_by_squaring(self, n) if n else DiffPoly.const(self.ring, 1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(self.ring, other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return (self.ring == other.ring and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        if self.is_constant():  # a constant equals, so hashes like, its Fraction
            return hash(Fraction(self.terms.get(0, 0), self.den))
        return hash((self.ring, self.den, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------------

    def dx(self) -> "DiffPoly":
        """Total x-derivative: sum over jets of u^alpha_{i+1} d/du^alpha_i;
        zero in a jet-free ring."""
        ring = self.ring
        if ring.jet_free:
            return DiffPoly(ring)
        up = (1 << (W * ring.n_fields)) - 1  # times a slot's unit: one order up
        acc: dict = {}
        get = acc.get
        for key, v in self.terms.items():
            base = key + _DEG
            for shift, power in nonzero_slots(key, _JETS):
                k = base + (up << shift)
                acc[k] = get(k, 0) + v * power
        check_slots(acc)
        return DiffPoly(ring, *canonical(acc, self.den))

    def dx_pow(self, k: int) -> "DiffPoly":
        f = self
        for _ in range(k):
            f = f.dx()
        return f

    def partial(self, alpha: int, order: int) -> "DiffPoly":
        """Plain partial derivative with respect to the jet variable u^alpha_order."""
        shift = W * (1 + order * self.ring.n_fields + alpha)
        lower = (1 << shift) + order * _DEG
        acc = {}
        for key, v in self.terms.items():
            power = (key >> shift) & MASK
            if power:
                acc[key - lower] = v * power
        return DiffPoly(self.ring, *canonical(acc, self.den))

    def var_der(self, alpha: int) -> "DiffPoly":
        """Variational derivative sum_i (-d_x)^i d/du^alpha_i."""
        one = DiffPoly.const(self.ring, 1)
        return sum_of_products(self.ring, (
            (-1 if i % 2 else 1, self.partial(alpha, i).dx_pow(i), one)
            for i in range(self.max_order(alpha) + 1)))

    # -- grading ------------------------------------------------------------------

    def _split(self, label) -> dict[int, "DiffPoly"]:
        """The pieces of self grouped by label(key) -> (group, new key)."""
        groups: dict[int, dict] = {}
        for key, v in self.terms.items():
            group, new = label(key)
            groups.setdefault(group, {})[new] = v
        return {g: DiffPoly(self.ring, *canonical(acc, self.den)) for g, acc in groups.items()}

    def degree_decompose(self) -> dict[int, "DiffPoly"]:
        """Split by differential degree: sum of jet orders times powers, minus eps."""
        return self._split(lambda key: (((key >> W) & MASK) - (key & MASK), key))

    def is_homogeneous(self, degree: int) -> bool:
        return all(((key >> W) & MASK) - (key & MASK) == degree for key in self.terms)

    def eps_decompose(self) -> dict[int, "DiffPoly"]:
        """Split by eps exponent; the pieces carry no eps factor."""
        return self._split(lambda key: (key & MASK, key & ~MASK))

    def eps_coefficient(self, k: int) -> "DiffPoly":
        acc = {key & ~MASK: v for key, v in self.terms.items() if key & MASK == k}
        return DiffPoly(self.ring, *canonical(acc, self.den))

    def eps_shift(self, k: int) -> "DiffPoly":
        """eps^k self; an eps exponent pushed below 0 or above the slot is refused."""
        if k == 0:
            return self
        if abs(k) > SLOT_MAX:
            raise ValueError(f"eps shift {k} exceeds {SLOT_MAX}")
        terms = {key + k: v for key, v in self.terms.items()}
        # a negative exponent borrows from slot 1 and leaves slot 0's guard set
        if any(key & GUARD for key in terms):
            raise ValueError(f"eps shift {k} leaves the eps exponents 0..{SLOT_MAX}")
        return DiffPoly(self.ring, terms, self.den)

    def truncate_eps(self, emax: int) -> "DiffPoly":
        acc = {key: v for key, v in self.terms.items() if key & MASK <= emax}
        return DiffPoly(self.ring, *canonical(acc, self.den))

    # -- evaluation / substitution ---------------------------------------------

    def substitute(self, images: dict[int, "DiffPoly"]) -> "DiffPoly":
        """Replace u^alpha_j by dx^j(images[alpha]); fields must be covered."""
        image_jet = derivatives(images)
        triples = []
        for (eps, jets), c in self.items():
            prod = DiffPoly.const(self.ring, 1)
            for alpha, order, power in jets:
                if alpha not in images:
                    raise KeyError(f"no substitution image for field {alpha}")
                prod = prod * image_jet(alpha, order) ** power
            triples.append((c, DiffPoly.eps(self.ring, eps), prod))
        return sum_of_products(self.ring, triples)

    # -- rendering / serialization ------------------------------------------------

    def sorted_terms(self):
        return sorted(self.items(), key=lambda kv: monomial_sort_key(kv[0]))

    def render(self, names=None) -> str:
        """Deterministic plain-text rendering; names maps field index to symbol."""
        if self.is_zero():
            return "0"
        if names is None:
            names = {a: (f"u{a}" if self.ring.n_fields > 1 else "u")
                     for a in range(1, self.ring.n_fields + 1)}
        chunks = []
        for (eps, jets), c in self.sorted_terms():
            factors = []
            if eps:
                factors.append("eps" if eps == 1 else f"eps^{eps}")
            for alpha, order, power in jets:
                base = names[alpha] if order == 0 else f"{names[alpha]}_{order}"
                factors.append(base if power == 1 else f"{base}^{power}")
            body = "*".join(factors)
            if not body:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(body)
            elif c == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{c}*{body}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"DiffPoly({self.render()})"

    def to_json_dict(self) -> dict:
        """Each coefficient as one string str(c), the terms in render order."""
        return {
            "N": self.ring.n_fields,
            "d": self.ring.d,
            "terms": [
                {"coeff": str(c), "eps": eps, "jets": [[a, o, p] for a, o, p in jets]}
                for (eps, jets), c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiffPoly":
        """Inverse of to_json_dict, and the one reader of its form: a payload
        to_json_dict cannot emit raises ValueError.  That takes N, d and terms
        present, d = 1 or the squarefree part of N + 1 (the d of
        ``rspin_ring(N + 1)``), each term with a nonzero coefficient string
        equal to str(Fraction(s)), jets in strictly increasing (field, order)
        with powers >= 1, and no monomial twice.  It reads into an exact ring."""
        def integer(value, what, least=None):
            if type(value) is not int or (least is not None and value < least):
                bound = "" if least is None else f" >= {least}"
                raise ValueError(f"{what} must be an integer{bound}, got {excerpt(value)}")
            return value

        def require(obj, keys, what):
            missing = [k for k in keys if k not in obj] if isinstance(obj, dict) else keys
            if missing:
                raise ValueError(f"{what} has no {missing[0]!r}: {excerpt(obj)}")

        require(data, ("N", "d", "terms"), "a payload")
        n, d = integer(data["N"], "N", 1), integer(data["d"], "d")
        Ring(n)  # refuses an N beyond the packed slots before d's trial division
        if d != 1 and d != squarefree_part(n + 1):
            raise ValueError(f"d = {excerpt(d)} is neither 1 nor the squarefree part "
                             f"of N + 1 = {n + 1}")
        if not isinstance(data["terms"], list):
            raise ValueError(f"terms must be a list, got {excerpt(data['terms'])}")
        items = {}
        for term in data["terms"]:
            require(term, ("coeff", "eps", "jets"), "a term")
            if not isinstance(term["jets"], list):
                raise ValueError(f"jets must be a list, got {excerpt(term['jets'])}")
            jets = []
            for jet in term["jets"]:
                if not isinstance(jet, list) or len(jet) != 3:
                    raise ValueError(f"a jet is [field, order, power], got {excerpt(jet)}")
                alpha, order, power = jet
                jets.append((integer(alpha, "field index"), integer(order, "order", 0),
                             integer(power, "power", 1)))
            if any(p[:2] >= q[:2] for p, q in zip(jets, jets[1:])):
                raise ValueError(f"jets {excerpt(term['jets'])} are not in strictly "
                                 f"increasing (field, order)")
            monomial = (integer(term["eps"], "eps", 0), tuple(jets))
            if monomial in items:
                raise ValueError(f"two terms at eps^{excerpt(monomial[0])} and jets "
                                 f"{excerpt(term['jets'])}")
            items[monomial] = _coefficient(term["coeff"])
        return DiffPoly.from_items(Ring(n, d), items.items())


def _coefficient(text) -> Fraction:
    """The value of a JSON coefficient, a nonzero string str(Fraction(s))."""
    value = read_rational(text)
    if not value:
        raise ValueError(f"coefficient {excerpt(text)} is not a nonzero p or p/q "
                         f"in lowest terms written as a string")
    return value


def derivatives(coeffs: dict[int, DiffPoly]):
    """deriv(k, l) = d_x^l coeffs[k], each derivative computed once.

    coeffs is read on demand, so entries added to it later are seen.
    """
    chains: dict[int, list[DiffPoly]] = {}

    def deriv(k: int, l: int) -> DiffPoly:
        chain = chains.setdefault(k, [coeffs[k]])
        while len(chain) <= l:
            last = chain[-1]
            chain.append(last.dx() if last else last)  # d_x 0 = 0 without a call
        return chain[l]

    return deriv


def sum_of_products(ring: Ring, triples) -> DiffPoly:
    """sum c f g over (c, f, g) triples, c rational and f, g in ring.

    The one product loop: a product of monomials is the sum of their packed
    keys, and every term goes straight into one accumulator of integer
    numerators over the least common denominator of all the triples.
    """
    triples = list(triples)
    for _, f, g in triples:
        if f.ring is not ring:
            ring.check_compatible(f.ring)
        if g.ring is not ring:
            ring.check_compatible(g.ring)
    triples = [(c, f, g) for c, f, g in triples if c and f.terms and g.terms]
    acc: dict = {}
    get = acc.get
    den = lcm(*(c.denominator * f.den * g.den for c, f, g in triples))
    for c, f, g in triples:
        if len(f.terms) > len(g.terms):
            f, g = g, f
        scale = den // (c.denominator * f.den * g.den) * c.numerator
        right = list(g.terms.items())
        for k1, v1 in f.terms.items():
            v1 *= scale
            for k2, v2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + v1 * v2
    check_slots(acc)
    return DiffPoly(ring, *canonical(acc, den))


class LocalFunctional:
    """A differential polynomial modulo constants and total x-derivatives."""

    __slots__ = ("density",)

    def __init__(self, density: DiffPoly):
        self.density = density

    @property
    def ring(self) -> Ring:
        return self.density.ring

    def var_der(self, alpha: int) -> DiffPoly:
        return self.density.var_der(alpha)

    def __add__(self, other):
        return LocalFunctional(self.density + other.density)

    def __sub__(self, other):
        return LocalFunctional(self.density - other.density)

    def __neg__(self):
        return LocalFunctional(-self.density)

    def truncate_eps(self, emax: int) -> "LocalFunctional":
        return LocalFunctional(self.density.truncate_eps(emax))

    def eps_coefficient(self, k: int) -> "LocalFunctional":
        return LocalFunctional(self.density.eps_coefficient(k))

    def __eq__(self, other):
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return local_eq(self, other)

    def __hash__(self):
        raise TypeError("LocalFunctional compares up to total derivatives; not hashable")

    def is_zero(self) -> bool:
        diff = self.density
        return all(diff.var_der(alpha).is_zero()
                   for alpha in range(1, self.ring.n_fields + 1))

    def canonical_density(self) -> DiffPoly:
        """Deterministic representative obtained by integration by parts.

        Write a monomial as m = A u^a_o, u^a_o its largest jet variable in
        (order, field) order.  When o > 0, u^a_o has power 1 and every other
        jet of A stays below u^a_o after one more derivative, m is rewritten
        as -d_x(A) u^a_{o-1}; a jet u^a_{o-1} of A gives back m itself, which
        is solved in place.  Other monomials are kept, constants dropped.
        Distinct functionals get distinct canonical densities within a ring.

        Descent: the top slot of a packed key holds its largest jet variable,
        so every monomial a rewrite yields has a lower top slot, and is a
        smaller int.  Popping the keys off a max-heap meets each monomial
        once, after all of its contributions.
        """
        step = W * self.ring.n_fields     # one derivative order, in bits
        up = (1 << step) - 1              # times a slot's unit: one order up
        density = self.density
        work = {key: Fraction(v, density.den)
                for key, v in density.terms.items() if key >> _JETS}
        heap = [-key for key in work]     # a max-heap of the pending keys
        heapify(heap)
        out: dict = {}
        while heap:
            key = -heappop(heap)
            coeff = work.pop(key)
            if not coeff:
                continue
            *rest, (top, power) = nonzero_slots(key, _JETS)
            below = rest[-1][0] + step if rest else 0  # the next jet, derived once
            if power != 1 or top < _JETS + step or below > top:
                out[key] = coeff
                continue
            if below == top:
                # m appears in its own rewrite with coefficient -p: (1 + p) m = ...
                coeff /= 1 + rest.pop()[1]
            base = key - (1 << top) + (1 << (top - step))
            for shift, p in rest:
                m2 = base + (up << shift)
                assert m2 < key, "a rewrite must descend in key order"
                if m2 in work:
                    work[m2] -= p * coeff
                else:
                    work[m2] = -p * coeff
                    heappush(heap, -m2)
        check_slots(out)
        return DiffPoly(self.ring, *over_one_den(out))

    def render(self, names=None) -> str:
        return self.canonical_density().render(names)

    def __repr__(self):
        return f"LocalFunctional(int {self.density.render()} dx)"

    def to_json_dict(self) -> dict:
        data = self.canonical_density().to_json_dict()
        data["integrated"] = True
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "LocalFunctional":
        return LocalFunctional(DiffPoly.from_json_dict(data))


def integrate(density: DiffPoly) -> LocalFunctional:
    return LocalFunctional(density)


def local_eq(h1: LocalFunctional, h2: LocalFunctional) -> bool:
    """True iff h1 and h2 differ by a constant plus a total x-derivative."""
    h1.ring.check_compatible(h2.ring)
    return (h1 - h2).is_zero()


def eps_dress(h: LocalFunctional) -> LocalFunctional:
    """Promote an eps-free functional to total degree zero: the piece of its
    density of differential degree k gains eps^k."""
    density = h.density
    if density.max_eps() > 0:
        raise ValueError("eps dressing expects an eps-free input")
    return LocalFunctional(DiffPoly(density.ring, {key + ((key >> W) & MASK): v
                                                   for key, v in density.terms.items()},
                                    density.den))
