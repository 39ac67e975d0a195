"""Differential polynomials and local functionals.

A differential polynomial is a polynomial in jet variables u^alpha_i
(alpha = 1..N fields, i >= 0 the number of x-derivatives) together with a
formal parameter eps carrying degree -1 against deg u^alpha_i = i.  A local
functional is a differential polynomial considered modulo constants and
total x-derivatives; equality of local functionals is decided through the
variational derivative, whose kernel is exactly that quotient.

Representation: sparse dict from monomials to rational coefficients,
plain ``Fraction``; every ring computes over Q.  A monomial is
``(eps_exponent, jets)`` where ``jets`` is a tuple of ``(alpha, order,
power)`` triples sorted by (alpha, order); zero coefficients are never
stored.  Coefficients in the underived fields are polynomial, not formal
power series: an operation that would need a series inverse fails loudly
instead of truncating.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import add_term, power_by_squaring, squarefree_part

Monomial = tuple[int, tuple[tuple[int, int, int], ...]]


class Ring:
    """Context for differential polynomials over Q: the number of fields.

    d, the squarefree part of r in an r-spin context, is recorded in the
    JSON form; rings with different field counts or d are unequal, so their
    polynomials never mix.
    """

    __slots__ = ("n_fields", "d")

    def __init__(self, n_fields: int, d: int = 1):
        if n_fields < 1:
            raise ValueError("need at least one field")
        self.n_fields = n_fields
        self.d = d

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.n_fields == other.n_fields
                and self.d == other.d)

    def __hash__(self):
        return hash((self.n_fields, self.d))

    def __repr__(self):
        return f"Ring(n_fields={self.n_fields}, d={self.d})"

    def check_compatible(self, other: "Ring"):
        if self != other:
            raise ValueError(f"ring context mismatch: {self} vs {other}")

    def scalar(self, value) -> Fraction:
        """value as a coefficient; a value outside Q is refused."""
        if type(value) is Fraction:
            return value
        try:
            return Fraction(value)
        except TypeError:
            raise ValueError(f"{self} has rational coefficients, got {value}") from None


def rspin_ring(r: int) -> Ring:
    """The ring of an r-spin context: r - 1 fields, d the squarefree part of r."""
    return Ring(r - 1, squarefree_part(r))


def _mul_jets(j1, j2):
    if not j1:
        return j2
    if not j2:
        return j1
    acc = dict()
    for alpha, order, power in j1:
        acc[(alpha, order)] = power
    for alpha, order, power in j2:
        key = (alpha, order)
        acc[key] = acc.get(key, 0) + power
    return tuple((a, o, p) for (a, o), p in sorted(acc.items()))


def monomial_sort_key(mon: Monomial):
    """Canonical term order: eps exponent, then graded-lex on jet variables."""
    eps, jets = mon
    return (eps, sum(p for _, _, p in jets), jets)


class DiffPoly:
    """Sparse differential polynomial over a fixed ring context."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict | None = None):
        self.ring = ring
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "DiffPoly":
        return DiffPoly(ring)

    @staticmethod
    def const(ring: Ring, value) -> "DiffPoly":
        c = ring.scalar(value)
        if not c:
            return DiffPoly(ring)
        return DiffPoly(ring, {(0, ()): c})

    @staticmethod
    def jet(ring: Ring, alpha: int, order: int, power: int = 1, coeff=1) -> "DiffPoly":
        if not 1 <= alpha <= ring.n_fields:
            raise ValueError(f"field index {alpha} out of range 1..{ring.n_fields}")
        if order < 0 or power < 0:
            raise ValueError("order and power must be >= 0")
        c = ring.scalar(coeff)
        if not c:
            return DiffPoly(ring)
        if power == 0:
            return DiffPoly(ring, {(0, ()): c})
        return DiffPoly(ring, {(0, ((alpha, order, power),)): c})

    @staticmethod
    def eps(ring: Ring, k: int = 1, coeff=1) -> "DiffPoly":
        c = ring.scalar(coeff)
        if not c:
            return DiffPoly(ring)
        return DiffPoly(ring, {(k, ()): c})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self):
        return self.terms.get((0, ()), Fraction(0))

    def is_constant(self) -> bool:
        return all(not jets and eps == 0 for eps, jets in self.terms)

    def max_order(self, alpha: int | None = None) -> int:
        orders = [o for _, jets in self.terms for a, o, _ in jets
                  if alpha is None or a == alpha]
        return max(orders, default=-1)

    def max_eps(self) -> int:
        return max((eps for eps, _ in self.terms), default=0)

    def has_jets(self) -> bool:
        return any(o > 0 for _, jets in self.terms for _, o, _ in jets)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffPoly):
            other = DiffPoly.const(self.ring, other)
        self.ring.check_compatible(other.ring)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            add_term(terms, mon, c)
        return DiffPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DiffPoly):
            other = DiffPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            c = self.ring.scalar(other)
            if not c:
                return DiffPoly(self.ring)
            return DiffPoly(self.ring, {m: v * c for m, v in self.terms.items()})
        self.ring.check_compatible(other.ring)
        terms: dict = {}
        if len(self.terms) > len(other.terms):
            left, right = other, self
        else:
            left, right = self, other
        for (e1, j1), c1 in left.terms.items():
            for (e2, j2), c2 in right.terms.items():
                add_term(terms, (e1 + e2, _mul_jets(j1, j2)), c1 * c2)
        return DiffPoly(self.ring, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / self.ring.scalar(other))

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers of differential polynomials")
        return power_by_squaring(self, n) if n else DiffPoly.const(self.ring, 1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(self.ring, other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(),
                                             key=lambda kv: monomial_sort_key(kv[0])))))

    # -- calculus ---------------------------------------------------------------

    def dx(self) -> "DiffPoly":
        """Total x-derivative: sum over jets of u^alpha_{i+1} d/du^alpha_i."""
        terms: dict = {}
        for (eps, jets), c in self.terms.items():
            for idx, (alpha, order, power) in enumerate(jets):
                lowered = list(jets)
                if power == 1:
                    del lowered[idx]
                else:
                    lowered[idx] = (alpha, order, power - 1)
                mon = (eps, _mul_jets(tuple(lowered), ((alpha, order + 1, 1),)))
                add_term(terms, mon, c * power)
        return DiffPoly(self.ring, terms)

    def dx_pow(self, k: int) -> "DiffPoly":
        f = self
        for _ in range(k):
            f = f.dx()
        return f

    def partial(self, alpha: int, order: int) -> "DiffPoly":
        """Plain partial derivative with respect to the jet variable u^alpha_order."""
        terms: dict = {}
        for (eps, jets), c in self.terms.items():
            for idx, (a, o, power) in enumerate(jets):
                if a == alpha and o == order:
                    lowered = list(jets)
                    if power == 1:
                        del lowered[idx]
                    else:
                        lowered[idx] = (a, o, power - 1)
                    add_term(terms, (eps, tuple(lowered)), c * power)
                    break
        return DiffPoly(self.ring, terms)

    def var_der(self, alpha: int) -> "DiffPoly":
        """Variational derivative sum_i (-d_x)^i d/du^alpha_i."""
        out = DiffPoly(self.ring)
        for i in range(self.max_order(alpha) + 1):
            p = self.partial(alpha, i)
            if p.is_zero():
                continue
            q = p.dx_pow(i)
            out = out + (q if i % 2 == 0 else -q)
        return out

    # -- grading ------------------------------------------------------------------

    @staticmethod
    def monomial_degree(mon: Monomial) -> int:
        """Differential degree: sum of jet orders times powers, minus eps exponent."""
        eps, jets = mon
        return sum(o * p for _, o, p in jets) - eps

    def degree_decompose(self) -> dict[int, "DiffPoly"]:
        pieces: dict[int, DiffPoly] = {}
        for mon, c in self.terms.items():
            deg = DiffPoly.monomial_degree(mon)
            pieces.setdefault(deg, DiffPoly(self.ring)).terms[mon] = c
        return pieces

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {DiffPoly.monomial_degree(m) for m in self.terms}
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == {degree}

    def eps_decompose(self) -> dict[int, "DiffPoly"]:
        """Split by eps exponent; the pieces carry no eps factor."""
        pieces: dict[int, DiffPoly] = {}
        for (eps, jets), c in self.terms.items():
            pieces.setdefault(eps, DiffPoly(self.ring)).terms[(0, jets)] = c
        return pieces

    def eps_coefficient(self, k: int) -> "DiffPoly":
        out = DiffPoly(self.ring)
        for (eps, jets), c in self.terms.items():
            if eps == k:
                out.terms[(0, jets)] = c
        return out

    def eps_shift(self, k: int) -> "DiffPoly":
        if k == 0:
            return self
        return DiffPoly(self.ring, {(eps + k, jets): c
                                    for (eps, jets), c in self.terms.items()})

    def truncate_eps(self, emax: int) -> "DiffPoly":
        return DiffPoly(self.ring, {(eps, jets): c
                                    for (eps, jets), c in self.terms.items()
                                    if eps <= emax})

    # -- evaluation / substitution ---------------------------------------------

    def substitute(self, images: dict[int, "DiffPoly"]) -> "DiffPoly":
        """Replace u^alpha_j by dx^j(images[alpha]); fields must be covered."""
        cache: dict[tuple[int, int], DiffPoly] = {}

        def image_jet(alpha: int, order: int) -> DiffPoly:
            key = (alpha, order)
            if key not in cache:
                if alpha not in images:
                    raise KeyError(f"no substitution image for field {alpha}")
                if order == 0:
                    cache[key] = images[alpha]
                else:
                    cache[key] = image_jet(alpha, order - 1).dx()
            return cache[key]

        terms: dict = {}
        for (eps, jets), c in self.terms.items():
            prod = DiffPoly.const(self.ring, 1)
            for alpha, order, power in jets:
                prod = prod * image_jet(alpha, order) ** power
            contribution = (prod * c).eps_shift(eps)
            for mon, v in contribution.terms.items():
                add_term(terms, mon, v)
        return DiffPoly(self.ring, terms)

    def map_fields(self, field_map: dict[int, int], out_ring: Ring) -> "DiffPoly":
        """Relabel field indices (a pure renaming, no calculus)."""
        terms: dict = {}
        for (eps, jets), c in self.terms.items():
            new = tuple(sorted((field_map[a], o, p) for a, o, p in jets))
            add_term(terms, (eps, new), c)
        return DiffPoly(out_ring, terms)

    # -- rendering / serialization ------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_sort_key(kv[0]))

    def render(self, names=None, eps_name: str = "eps") -> str:
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
                factors.append(eps_name if eps == 1 else f"{eps_name}^{eps}")
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
        """Coefficients in the four-part form [a, b, c, e] of
        a + b*i + c*sqrt(d) + e*i*sqrt(d); over Q, b = c = e = 0."""
        return {
            "N": self.ring.n_fields,
            "d": self.ring.d,
            "terms": [
                {"coeff": [str(c), "0", "0", "0"],
                 "eps": eps,
                 "jets": [[a, o, p] for a, o, p in jets]}
                for (eps, jets), c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiffPoly":
        """Inverse of to_json_dict; a malformed payload, or a coefficient
        outside Q, raises ValueError."""
        def integer(value, what, least=None):
            if type(value) is not int or (least is not None and value < least):
                bound = "" if least is None else f" >= {least}"
                raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
            return value

        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError("expected an object with a 'terms' list")
        ring = Ring(integer(data.get("N"), "N", 1), integer(data.get("d", 1), "d", 1))
        out = DiffPoly(ring)
        for term in data["terms"]:
            if not (isinstance(term, dict) and isinstance(term.get("jets"), list)
                    and isinstance(term.get("coeff"), list) and len(term["coeff"]) == 4):
                raise ValueError(f"malformed term {term!r}")
            try:
                coeff, *irrational = (Fraction(x) for x in term["coeff"])
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(f"malformed coefficient {term['coeff']!r}") from None
            if any(irrational):
                raise ValueError(f"coefficient {term['coeff']!r} is not rational")
            poly = DiffPoly.const(ring, coeff).eps_shift(integer(term.get("eps", 0), "eps", 0))
            for jet in term["jets"]:
                if not isinstance(jet, list) or len(jet) != 3:
                    raise ValueError(f"a jet is [field, order, power], got {jet!r}")
                alpha, order, power = jet
                poly = poly * DiffPoly.jet(ring, integer(alpha, "field index"),
                                           integer(order, "order", 0),
                                           integer(power, "power", 1))
            out = out + poly
        return out


class LocalFunctional:
    """A differential polynomial modulo constants and total x-derivatives."""

    __slots__ = ("density",)

    def __init__(self, density: DiffPoly):
        self.density = density

    @property
    def ring(self) -> Ring:
        return self.density.ring

    @staticmethod
    def zero(ring: Ring) -> "LocalFunctional":
        return LocalFunctional(DiffPoly.zero(ring))

    def var_der(self, alpha: int) -> DiffPoly:
        return self.density.var_der(alpha)

    def __add__(self, other):
        return LocalFunctional(self.density + other.density)

    def __sub__(self, other):
        return LocalFunctional(self.density - other.density)

    def __neg__(self):
        return LocalFunctional(-self.density)

    def __mul__(self, scalar):
        return LocalFunctional(self.density * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return LocalFunctional(self.density / scalar)

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

        Repeatedly rewrites the largest monomial whose maximal jet variable
        (ordered by (order, field)) can shed one derivative without creating
        a larger monomial; pure constants are dropped.  Distinct functionals
        get distinct canonical densities within a fixed ring.
        """
        work = {mon: c for mon, c in self.density.terms.items() if mon[1]}
        out: dict = {}
        ring = self.ring
        guard = 0
        while work:
            guard += 1
            if guard > 200000:
                raise RuntimeError("canonical_density failed to terminate")
            mon = max(work, key=monomial_sort_key)
            coeff = work.pop(mon)
            eps, jets = mon
            occurrences = [(o, a, p) for a, o, p in jets]
            o_max, a_max, p_max = max(occurrences)
            reducible = o_max > 0 and p_max == 1
            if reducible:
                for o, a, p in occurrences:
                    if (o, a) == (o_max, a_max):
                        continue
                    if (o + 1, a) < (o_max, a_max) or (a, o) == (a_max, o_max - 1):
                        continue
                    reducible = False
                    break
            if not reducible:
                add_term(out, mon, coeff)
                continue
            # m = A * u^{a}_{o}: replace by -dx(A) * u^{a}_{o-1} mod im(dx)
            rest = tuple(t for t in jets if t != (a_max, o_max, 1))
            a_poly = DiffPoly(ring, {(eps, rest): Fraction(1)})
            repl = -(a_poly.dx()) * DiffPoly.jet(ring, a_max, o_max - 1)
            self_coeff = repl.terms.pop(mon, None)
            scale = Fraction(1)
            if self_coeff is not None:
                # m appears in its own rewrite: solve (1 - c) m = rest
                scale = 1 / (1 - self_coeff)
            for m2, c2 in repl.terms.items():
                if not m2[1]:
                    continue
                add_term(work, m2, coeff * c2 * scale)
        return DiffPoly(ring, out)

    def render(self, names=None, eps_name: str = "eps") -> str:
        return self.canonical_density().render(names, eps_name)

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


def eps_dress(h: LocalFunctional | DiffPoly):
    """Promote an eps-free element to total degree zero: piece of differential
    degree k gains eps^k."""
    density = h.density if isinstance(h, LocalFunctional) else h
    if density.max_eps() > 0:
        raise ValueError("eps dressing expects an eps-free input")
    terms: dict = {}
    for (_, jets), c in density.terms.items():
        add_term(terms, (sum(o * p for _, o, p in jets), jets), c)
    out = DiffPoly(density.ring, terms)
    return LocalFunctional(out) if isinstance(h, LocalFunctional) else out

