"""Truncated Weyl algebra: star product, deformed commutators, f_r maps.

Elements are polynomials in Fourier modes p^alpha_k with |k| <= window and
coefficients polynomial in hbar and eps; the stored form is always normal
ordered (all nonpositive modes to the left, which is canonical because
modes of equal sign commute).  The star product moves the positive modes
of the left factor through the nonpositive modes of the right factor with
the chosen commutation rule:

  standard:  [p^a_k, p^b_j] = i hbar k eta^{ab} delta_{k+j,0}
  deformed:  [p^a_m, p^b_n] = hbar delta_{m+n,0} sum_j eps^j (im)^{j+1} K^{ab}_j

with the deformed constants read off a constant-coefficient hamiltonian
operator (entries sum_j K_j eps^j d_x^{j+1}) rather than hard-coded.
Both brackets vanish unless the momenta add to zero, so only the modes
whose momentum meets an opposite one on the other side are contracted;
the rest commute through.  The f_r images keep each generator's momentum,
so f_r is a commutative substitution that needs no star product.
Within the finite window everything is exact.

A coefficient c of hbar^h eps^e is always i^{h+e} times a rational, so a
term stores q = c / i^{h+e} (hbar = i hbar', eps = i eps'): the brackets
read k eta^{ab} and m^{j+1} K^{ab}_j.  An element keeps its q's as int
numerators over one denominator ``den`` in lowest terms (den > 0 and
gcd(den, numerators) = 1), so equal elements are equal structurally and
the star product and f_r build no ``Fraction``.  A term's key is
(h, e, word), the word listing the modes as (k, alpha) in ascending order
with repeats, which is normal order; a product key is one sort of sorted
runs.  The constructor, ``mode``, ``scale`` and ``lf_to_p_series`` refuse
a c outside i^{h+e} Q with ``ValueError``; ``items`` and ``render`` give c
back.

Each rule has an integer ``scale``, the lcm of its constants'
denominators.  The reorder memo holds the normal order of a word pair
whose modes all contract as numerators over scale^(number of positive
modes); a bracket value that the scale does not make integral is refused.
The memo stays module-level, as the benchmark reads its size.

The classical (hbar^0) part is the Fourier dictionary of local functionals:
u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx}, of which a local
functional keeps the frequency-zero part (``lf_to_p_series``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import comb, gcd, lcm

from .diffpoly import LocalFunctional
from .drspin import DR_DZ_SHIFTS
from .hamops import HamiltonianOperator
from .scalars import AlgScalar, add_term, exact_rational, over_one_den

Mode = tuple[int, int]  # (k, alpha): tuple order is normal order

_FIRST_POSITIVE = (1,)  # sorts before every mode with k >= 1


_RULE_TOKENS: dict = {}


@dataclass(frozen=True)
class _Rule:
    """A commutation rule with the small integer ``token`` of its value and
    its ``scale``, the lcm of the denominators of its constants.

    Equal rules share a token and different rules never do, so the reorder
    memo hashes a rule's table once per rule object, not once per lookup.
    """

    token: int = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "token",
                           _RULE_TOKENS.setdefault(self, len(_RULE_TOKENS)))
        object.__setattr__(self, "scale",
                           lcm(*(c.denominator for c in self._constants())))


@dataclass(frozen=True)
class StandardRule(_Rule):
    """[p^a_k, p^b_j] = i hbar k eta^{ab} delta_{k+j,0}."""

    n_fields: int
    eta: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_eta(eta) -> "StandardRule":
        rows = tuple(tuple(Fraction(x) for x in row) for row in eta)
        return StandardRule(len(rows), rows)

    def _constants(self):
        return (x for row in self.eta for x in row)

    def bracket(self, x: Mode, y: Mode):
        """[p_x, p_y] as a list of (hbar_exp, eps_exp, q)."""
        (k, a), (j, b) = x, y
        coeff = self.eta[a - 1][b - 1] if k + j == 0 else 0
        return [(1, 0, coeff * k)] if coeff else []


@dataclass(frozen=True)
class DeformedRule(_Rule):
    """Constants K^{ab}_j of a good-form operator sum_j K_j eps^j d_x^{j+1}."""

    n_fields: int
    constants: tuple[tuple[int, int, int, Fraction], ...]  # (a, b, j, K_j)

    @staticmethod
    def from_operator(K: HamiltonianOperator) -> "DeformedRule":
        consts = []
        n = K.ring.n_fields
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                entry = K.entries[a - 1][b - 1]
                for power, coeff in entry.coeffs.items():
                    for (eps, jets), value in coeff.items():
                        if jets or eps != power - 1:
                            raise ValueError(
                                "operator is not of the constant good form")
                        consts.append((a, b, eps, value))
        return DeformedRule(n, tuple(sorted(consts)))

    def _constants(self):
        return (const for _, _, _, const in self.constants)

    def bracket(self, x: Mode, y: Mode):
        (m, a), (n, b) = x, y
        if m + n != 0:
            return []
        return [(1, j, m ** (j + 1) * const)
                for aa, bb, j, const in self.constants
                if (aa, bb) == (a, b) and const]


@dataclass(frozen=True)
class WeylContext:
    n_fields: int
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("mode window must be >= 1")


def monomial(pkey) -> str:
    """A mode monomial as render prints it, "1" when empty."""
    return "*".join(f"p{alpha}[{k}]" + (f"^{power}" if power > 1 else "")
                    for alpha, k, power in pkey) or "1"


def _pkey(word) -> tuple:
    """The (alpha, k, power) factors of a word, sorted."""
    return tuple(sorted((alpha, k, len(list(run))) for (k, alpha), run in groupby(word)))


def _to_q(c, h: int, e: int, pkey) -> Fraction:
    """q = c / i^(h+e), read off c's parts: +-a when h+e is even, +-b when it
    is odd; refuses a c outside i^(h+e) Q."""
    re, im = (c.a, c.b) if isinstance(c, AlgScalar) else (exact_rational(c), 0)
    n = (h + e) % 4
    q, other = (im, re) if n % 2 else (re, im)
    if other:
        raise ValueError(f"coefficient {c} of hbar^{h} eps^{e} {monomial(pkey)} "
                         f"is not in i^{h + e}*Q")
    return -q if n >= 2 else q


def _to_c(q: Fraction, h: int, e: int) -> AlgScalar:
    """c = q i^(h+e)."""
    n = (h + e) % 4
    part = -q if n >= 2 else q
    return AlgScalar(0, part) if n % 2 else AlgScalar(part)


class WeylElement:
    """Normal-ordered polynomial in the modes with hbar/eps coefficients.

    terms: (hbar_exp, eps_exp, word) -> nonzero int numerator n over ``den``,
    with the word a sorted tuple of (k, alpha) modes and n / den the q =
    c / i^(hbar_exp + eps_exp) of the term; den > 0 and gcd(den, numerators)
    = 1.  The constructor takes {(hbar_exp, eps_exp, pkey): c} with pkey a
    tuple of (alpha, k, power) factors and c a Fraction, int or AlgScalar.
    """

    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx: WeylContext, terms: dict | None = None):
        self.ctx = ctx
        nums: dict = {}
        den = 1
        for (h, e, pkey), c in (terms or {}).items():
            n, d = _to_q(c, h, e, pkey).as_integer_ratio()
            if n:
                if den % d:  # move the numerators so far to the new lcm
                    lift = d // gcd(den, d)
                    den *= lift
                    nums = {key: v * lift for key, v in nums.items()}
                add_term(nums, (h, e, self._word(pkey)), n * (den // d))
        # den is the lcm of reduced denominators: only terms that met on one
        # word can leave a factor common to den and every numerator
        g = gcd(den, *nums.values())
        self.terms = {key: v // g for key, v in nums.items()} if g != 1 else nums
        self.den = den // g

    @classmethod
    def _of(cls, ctx: WeylContext, terms: dict, den: int = 1) -> "WeylElement":
        """Wrap word-keyed numerators that are already in canonical form."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.terms = terms
        out.den = den
        return out

    @classmethod
    def _normal(cls, ctx: WeylContext, acc: dict, den: int) -> "WeylElement":
        """sum acc[key] / den in canonical form: zeros dropped, content divided out."""
        terms = {key: n for key, n in acc.items() if n}
        if not terms:
            return cls._of(ctx, {})
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {key: n // g for key, n in terms.items()}
        return cls._of(ctx, terms, den)

    def _word(self, pkey) -> tuple:
        n_fields, window = self.ctx.n_fields, self.ctx.window
        word = []
        for alpha, k, power in pkey:
            if not 1 <= alpha <= n_fields:
                raise ValueError(f"field index {alpha} out of range")
            if not -window <= k <= window:
                raise ValueError(f"mode {k} outside window {window}")
            if power < 1:
                raise ValueError("powers must be positive")
            word += [(k, alpha)] * power
        word.sort()
        return tuple(word)

    @staticmethod
    def mode(ctx: WeylContext, alpha: int, k: int, coeff=1) -> "WeylElement":
        return WeylElement(ctx, {(0, 0, ((alpha, k, 1),)): coeff})

    # -- linear structure ---------------------------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if self.ctx != other.ctx:
            raise ValueError("window/context mismatch")
        den = lcm(self.den, other.den)
        lift = den // self.den
        acc = {key: n * lift for key, n in self.terms.items()}
        lift = den // other.den
        for key, n in other.terms.items():
            acc[key] = acc.get(key, 0) + n * lift
        return WeylElement._normal(self.ctx, acc, den)

    def __neg__(self):
        return WeylElement._of(self.ctx, {k: -n for k, n in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "WeylElement":
        """Multiply by a rational scalar (Fraction, int or AlgScalar)."""
        s = _to_q(scalar, 0, 0, ())
        return WeylElement._normal(self.ctx, {k: n * s.numerator for k, n in self.terms.items()},
                                   self.den * s.denominator)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def hbar_order(self) -> int:
        return min((h for h, _, _ in self.terms), default=0)

    def classical_limit(self) -> "WeylElement":
        """Set hbar = 0: the hbar^0 part, a commutative mode polynomial."""
        return WeylElement._normal(self.ctx, {key: n for key, n in self.terms.items()
                                              if key[0] == 0}, self.den)

    def items(self) -> list:
        """[((hbar_exp, eps_exp, pkey), c)] in render order, c an AlgScalar."""
        return sorted(((h, e, _pkey(word)), _to_c(Fraction(n, self.den), h, e))
                      for (h, e, word), n in self.terms.items())

    def render(self) -> str:
        chunks = []
        for (h, eps, pkey), c in self.items():
            factors = [name if n == 1 else f"{name}^{n}"
                       for name, n in (("hbar", h), ("eps", eps)) if n]
            if pkey:
                factors.append(monomial(pkey))
            chunks.append(f"({c})*{'*'.join(factors) or '1'}")
        return " + ".join(chunks) or "0"

    def __repr__(self):
        return f"WeylElement({self.render()})"


_REORDER_MEMO: dict = {}


def _numerator(q, scale: int) -> int:
    """q * scale for a rational constant q, refused unless it is an integer."""
    n, rem = divmod(q.numerator * scale, q.denominator)
    if rem:
        raise ValueError(f"the denominator of {q} does not divide the scale {scale}")
    return n


def _normal_order(pos, nonpos, rule) -> dict:
    """Normal-order (product of positive modes) x (product of nonpositive).

    Returns {(hbar, eps, word): n}, numerators over rule.scale^len(pos).
    Only the modes whose momenta cancel go to ``_reorder``; the rest, which
    commutes with every mode of the other word because both rules' brackets
    vanish unless the momenta add to zero, is sorted into each of its words.
    """
    cancel = {k for k, _ in pos}.intersection([-k for k, _ in nonpos])
    if not cancel:
        return {(0, 0, nonpos + pos): rule.scale ** len(pos)}
    c_pos, c_nonpos, rest = [], [], []
    for m in pos:
        (c_pos if m[0] in cancel else rest).append(m)
    for m in nonpos:
        (c_nonpos if -m[0] in cancel else rest).append(m)
    inner = _reorder(tuple(c_pos), tuple(c_nonpos), rule)
    lift = rule.scale ** (len(pos) - len(c_pos))
    rest = tuple(rest)
    return {(h, e, tuple(sorted(rest + mid))): n * lift for (h, e, mid), n in inner.items()}


def _reorder(pos, nonpos, rule) -> dict:
    """``_normal_order`` of two words in which every mode contracts.

    Each positive mode's momentum k meets a -k in ``nonpos`` and vice versa.
    Memoized in ``_REORDER_MEMO`` under (rule token, pos, nonpos), so a key
    holds contracting modes alone; the value's numerators are over
    rule.scale^len(pos).
    """
    key = (rule.token, pos, nonpos)
    out = _REORDER_MEMO.get(key)
    if out is not None:
        return out
    x = pos[-1]
    head = pos[:-1]
    scale = rule.scale
    acc: dict = {}

    # x through the whole nonpositive word: commutator terms first, each a
    # bracket over scale^1 times a head order over scale^len(head)
    for s, y in enumerate(nonpos):
        if x[0] + y[0]:
            continue
        for h, e, q in rule.bracket(x, y):
            n = _numerator(q, scale)
            reduced = nonpos[:s] + nonpos[s + 1:]
            for (h2, e2, w2), n2 in _normal_order(head, reduced, rule).items():
                term = (h + h2, e + e2, w2)
                acc[term] = acc.get(term, 0) + n * n2
    # and the fully commuted term with x, the largest mode, appended
    for (h2, e2, w2), n2 in _normal_order(head, nonpos, rule).items():
        term = (h2, e2, w2 + (x,))
        acc[term] = acc.get(term, 0) + n2 * scale
    out = _REORDER_MEMO[key] = {term: n for term, n in acc.items() if n}
    return out


def weyl_star(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    """The star product under the given commutation rule.

    For each pair of terms, the left positive modes meet the right
    nonpositive ones.  Only the modes whose momenta cancel contract, and
    only they go to the memoized ``_reorder``; the others commute through
    and join the sorted key directly.  A pair with no cancelling momentum is
    already normal ordered.  The result accumulates as int numerators over
    a.den * b.den * scale^M, M the most positive modes of a word of a: a
    pair that contracts m modes lifts its memo numerators by scale^(M - m).
    """
    if a.ctx != b.ctx:
        raise ValueError("window/context mismatch")
    if rule.n_fields != a.ctx.n_fields:
        raise ValueError("rule and element field counts differ")
    right = []
    for (h2, e2, w2), n2 in b.terms.items():
        cut = bisect_left(w2, _FIRST_POSITIVE)
        np2 = w2[:cut]
        right.append((h2, e2, w2, np2, w2[cut:], frozenset(-k for k, _ in np2), n2))
    left = []
    for (h1, e1, w1), n1 in a.terms.items():
        cut = bisect_left(w1, _FIRST_POSITIVE)
        pos1 = w1[cut:]
        left.append((h1, e1, w1, w1[:cut], pos1, frozenset(k for k, _ in pos1), n1))
    most = max((len(pos1) for _, _, _, _, pos1, _, _ in left), default=0)
    lift = [rule.scale ** (most - m) for m in range(most + 1)]
    top = lift[0]
    acc: dict = {}
    get = acc.get
    for h1, e1, w1, np1, pos1, momenta, n1 in left:
        n1_top = n1 * top
        for h2, e2, w2, np2, pos2, opposite, n2 in right:
            if momenta.isdisjoint(opposite):  # already normal ordered
                term = (h1 + h2, e1 + e2, tuple(sorted(w1 + w2)))
                acc[term] = get(term, 0) + n1_top * n2
                continue
            cancel = momenta & opposite
            c_pos, c_nonpos, rest = [], [], [*np1, *pos2]
            for m in pos1:
                (c_pos if m[0] in cancel else rest).append(m)
            for m in np2:
                (c_nonpos if -m[0] in cancel else rest).append(m)
            n = n1 * n2 * lift[len(c_pos)]
            h, e, rest = h1 + h2, e1 + e2, tuple(rest)
            for (hc, ec, mid), nc in _reorder(tuple(c_pos), tuple(c_nonpos), rule).items():
                term = (h + hc, e + ec, tuple(sorted(rest + mid)))
                acc[term] = get(term, 0) + n * nc
    return WeylElement._normal(a.ctx, acc, a.den * b.den * top)


def weyl_commutator(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    return weyl_star(a, b, rule) - weyl_star(b, a, rule)


def f_r_map(r: int, a: WeylElement) -> WeylElement:
    """The isomorphism from the deformed to the standard algebra for r = 4, 5.

    On generators it mirrors the hierarchy-comparison Miura map, e.g.
    f_4(p~^1_n) = p^1_n - (eps^2/96) n^2 p^3_n, extended multiplicatively
    on normal-form monomials.  Each image keeps the momentum n of its
    generator, so the images of a normal-ordered word come in normal order:
    their standard star product contracts nothing and is the commutative
    product, expanded here with one binomial per run of equal modes.  The
    shift denominators come out as a power of their lcm L: a word with t
    shifted modes expands over L^t, lifted to the common L^T.
    """
    if r not in (4, 5) or r not in DR_DZ_SHIFTS:
        raise ValueError("f_r is defined for r = 4, 5")
    if a.ctx.n_fields != r - 1:
        raise ValueError(f"f_{r} acts on {r - 1} fields, not {a.ctx.n_fields}")
    shifts = DR_DZ_SHIFTS[r]
    L = lcm(*(c.denominator for _, c in shifts.values()))
    # in q form f_r(p^alpha_n) = p^alpha_n + c n^2 eps^2 p^beta_n (the
    # coefficient -c n^2 over i^2), that is (L p^alpha_n + cL n^2 eps^2 p^beta_n) / L
    scaled = {alpha: (beta, _numerator(c, L)) for alpha, (beta, c) in shifts.items()}
    expanded = []
    for (h, e, word), n in a.terms.items():
        partial = {(e, ()): n}  # (eps_exp, modes so far) -> numerator over L^t
        t = 0
        for mode, run in groupby(word):
            power = len(list(run))
            k, alpha = mode
            shift = scaled.get(alpha) if k else None
            if shift is None:
                partial = {(e2, w + (mode,) * power): n2 for (e2, w), n2 in partial.items()}
                continue
            # (L p + s eps^2 p')^power, s = cL k^2, by the binomial theorem
            beta, s = shift
            t += power
            step = s * k * k
            choices = [(2 * j, (mode,) * (power - j) + ((k, beta),) * j,
                        comb(power, j) * step ** j * L ** (power - j))
                       for j in range(power + 1)]
            partial = {(e2 + de, w + dw): n2 * f
                       for (e2, w), n2 in partial.items() for de, dw, f in choices}
        expanded.append((h, t, partial))
    most = max((t for _, t, _ in expanded), default=0)
    acc: dict = {}
    for h, t, partial in expanded:
        lift = L ** (most - t)
        for (e2, w), n2 in partial.items():
            term = (h, e2, tuple(sorted(w)))
            acc[term] = acc.get(term, 0) + n2 * lift
    return WeylElement._normal(a.ctx, acc, a.den * L ** most)


# -- the Fourier dictionary ------------------------------------------------------------


def lf_to_p_series(h: LocalFunctional, window: int) -> WeylElement:
    """Mode-zero Fourier image of a local functional, as an hbar^0 element.

    Substitutes u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx} and
    keeps the frequency-zero part; exact for every retained monomial.  A
    monomial of eps order e and derivative degree D gains i^D, which lies in
    i^e Q when D - e is even; an image with a nonzero part off i^e Q is refused.
    """
    # q = c / i^e of the monomials of even D - e; c / i^(e+1) of the odd ones
    images: tuple[dict, dict] = ({}, {})
    for (eps, jets), coeff in h.density.items():
        factors = [(alpha, order) for alpha, order, power in jets for _ in range(power)]
        twist = sum(order for _, order in factors) - eps
        target = images[twist % 2]

        def expand(modes, total, c):
            if len(modes) == len(factors):
                if total == 0:
                    add_term(target, (0, eps, tuple(sorted(modes))), c)
                return
            alpha, order = factors[len(modes)]
            # the factors left can shift the sum by at most window each
            slack = (len(factors) - len(modes) - 1) * window
            for k in range(max(-window, -slack - total), min(window, slack - total) + 1):
                if k or not order:
                    expand(modes + ((k, alpha),), total + k, c * k ** order)

        if factors:  # constants are quotiented away
            expand((), 0, -coeff if twist % 4 >= 2 else coeff)
    for (_, eps, word), q in images[1].items():
        raise ValueError(f"the coefficient of hbar^0 eps^{eps} {monomial(_pkey(word))} "
                         f"has a part {_to_c(q, 0, eps + 1)} outside i^{eps}*Q")
    return WeylElement._of(WeylContext(h.ring.n_fields, window), *over_one_den(images[0]))
