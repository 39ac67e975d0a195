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
term stores the ``Fraction`` q = c / i^{h+e} (hbar = i hbar', eps = i eps'):
the brackets read k eta^{ab} and m^{j+1} K^{ab}_j.  Its key is (h, e, word),
the word listing the modes as (k, alpha) in ascending order with repeats,
which is normal order; a product key is one sort of sorted runs.  The
constructor, ``mode``, ``scale`` and ``lf_to_p_series`` refuse a c outside
i^{h+e} Q with ``ValueError``; ``items`` and ``render`` give c back.  The
reorder memo stays module-level, as the benchmark reads its size.

The classical (hbar^0) part is the Fourier dictionary of local functionals:
u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx}, of which a local
functional keeps the frequency-zero part (``lf_to_p_series``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import comb

from .diffpoly import LocalFunctional
from .drspin import DR_DZ_SHIFTS
from .hamops import HamiltonianOperator
from .scalars import AlgScalar, add_term, exact_rational

Mode = tuple[int, int]  # (k, alpha): tuple order is normal order

_ONE = Fraction(1)
_FIRST_POSITIVE = (1,)  # sorts before every mode with k >= 1


_RULE_TOKENS: dict = {}


@dataclass(frozen=True)
class _Rule:
    """A commutation rule with the small integer ``token`` of its value.

    Equal rules share a token and different rules never do, so the reorder
    memo hashes a rule's table once per rule object, not once per lookup.
    """

    token: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "token",
                           _RULE_TOKENS.setdefault(self, len(_RULE_TOKENS)))


@dataclass(frozen=True)
class StandardRule(_Rule):
    """[p^a_k, p^b_j] = i hbar k eta^{ab} delta_{k+j,0}."""

    n_fields: int
    eta: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_eta(eta) -> "StandardRule":
        rows = tuple(tuple(Fraction(x) for x in row) for row in eta)
        return StandardRule(len(rows), rows)

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

    terms: (hbar_exp, eps_exp, word) -> q, with the word a sorted tuple of
    (k, alpha) modes and q = c / i^(hbar_exp + eps_exp) a nonzero Fraction.
    The constructor takes {(hbar_exp, eps_exp, pkey): c} with pkey a tuple
    of (alpha, k, power) factors and c a Fraction, int or AlgScalar.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: WeylContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms = {}
        for (h, e, pkey), c in (terms or {}).items():
            if c:
                add_term(self.terms, (h, e, self._word(pkey)), _to_q(c, h, e, pkey))

    @classmethod
    def _of(cls, ctx: WeylContext, terms: dict) -> "WeylElement":
        """Wrap word-keyed terms whose values are nonzero q."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.terms = terms
        return out

    def _word(self, pkey) -> tuple:
        word = []
        for alpha, k, power in pkey:
            if not 1 <= alpha <= self.ctx.n_fields:
                raise ValueError(f"field index {alpha} out of range")
            if abs(k) > self.ctx.window:
                raise ValueError(f"mode {k} outside window {self.ctx.window}")
            if power < 1:
                raise ValueError("powers must be positive")
            word.extend([(k, alpha)] * power)
        return tuple(sorted(word))

    @staticmethod
    def mode(ctx: WeylContext, alpha: int, k: int, coeff=1) -> "WeylElement":
        return WeylElement(ctx, {(0, 0, ((alpha, k, 1),)): coeff})

    # -- linear structure ---------------------------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if self.ctx != other.ctx:
            raise ValueError("window/context mismatch")
        terms = dict(self.terms)
        for key, q in other.terms.items():
            add_term(terms, key, q)
        return WeylElement._of(self.ctx, terms)

    def __neg__(self):
        return WeylElement._of(self.ctx, {k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "WeylElement":
        """Multiply by a rational scalar (Fraction, int or AlgScalar)."""
        s = _to_q(scalar, 0, 0, ())
        return WeylElement._of(self.ctx, {k: q * s for k, q in self.terms.items()}
                               if s else {})

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def hbar_order(self) -> int:
        return min((h for h, _, _ in self.terms), default=0)

    def classical_limit(self) -> "WeylElement":
        """Set hbar = 0: the hbar^0 part, a commutative mode polynomial."""
        return WeylElement._of(self.ctx, {key: q for key, q in self.terms.items()
                                          if key[0] == 0})

    def items(self) -> list:
        """[((hbar_exp, eps_exp, pkey), c)] in render order, c an AlgScalar."""
        return sorted(((h, e, _pkey(word)), _to_c(q, h, e))
                      for (h, e, word), q in self.terms.items())

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


def _split(pos, nonpos, cancel) -> tuple:
    """(pos modes whose momentum k is in cancel, nonpos modes whose -k is, the rest).

    The rest commutes with every mode of the other word, because both rules'
    brackets vanish unless the momenta add to zero; it is normal ordered.
    """
    return (tuple(m for m in pos if m[0] in cancel),
            tuple(m for m in nonpos if -m[0] in cancel),
            tuple(m for m in nonpos if -m[0] not in cancel)
            + tuple(m for m in pos if m[0] not in cancel))


def _normal_order(pos, nonpos, rule) -> dict:
    """Normal-order (product of positive modes) x (product of nonpositive).

    Returns {(hbar, eps, word): q}.  Only the modes whose momenta cancel go
    to ``_reorder``; the rest is sorted into each of its words.
    """
    cancel = {k for k, _ in pos}.intersection([-k for k, _ in nonpos])
    if not cancel:
        return {(0, 0, nonpos + pos): _ONE}
    c_pos, c_nonpos, rest = _split(pos, nonpos, cancel)
    inner = _reorder(c_pos, c_nonpos, rule)
    if not rest:
        return inner
    return {(h, e, tuple(sorted(rest + mid))): q for (h, e, mid), q in inner.items()}


def _reorder(pos, nonpos, rule) -> dict:
    """``_normal_order`` of two words in which every mode contracts.

    Each positive mode's momentum k meets a -k in ``nonpos`` and vice versa.
    Memoized in ``_REORDER_MEMO`` under (rule token, pos, nonpos), so a key
    holds contracting modes alone.
    """
    key = (rule.token, pos, nonpos)
    out = _REORDER_MEMO.get(key)
    if out is not None:
        return out
    x = pos[-1]
    head = pos[:-1]
    out = {}

    # x through the whole nonpositive word: commutator terms first
    for s, y in enumerate(nonpos):
        if x[0] + y[0]:
            continue
        for h, e, q in rule.bracket(x, y):
            reduced = nonpos[:s] + nonpos[s + 1:]
            for (h2, e2, w2), q2 in _normal_order(head, reduced, rule).items():
                add_term(out, (h + h2, e + e2, w2), q * q2)
    # and the fully commuted term with x, the largest mode, appended
    for (h2, e2, w2), q2 in _normal_order(head, nonpos, rule).items():
        add_term(out, (h2, e2, w2 + (x,)), q2)
    _REORDER_MEMO[key] = out
    return out


def weyl_star(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    """The star product under the given commutation rule.

    For each pair of terms, the left positive modes meet the right
    nonpositive ones.  Only the modes whose momenta cancel contract, and
    only they go to the memoized ``_reorder``; the others commute through
    and join the sorted key directly.  A pair with no cancelling momentum is
    already normal ordered, and a fully commuted term (q = 1) costs no
    ``Fraction`` product.
    """
    if a.ctx != b.ctx:
        raise ValueError("window/context mismatch")
    if rule.n_fields != a.ctx.n_fields:
        raise ValueError("rule and element field counts differ")
    right = []
    for (h2, e2, w2), q2 in b.terms.items():
        cut = bisect_left(w2, _FIRST_POSITIVE)
        np2 = w2[:cut]
        right.append((h2, e2, w2, np2, w2[cut:], frozenset(-k for k, _ in np2), q2))
    terms: dict = {}
    for (h1, e1, w1), q1 in a.terms.items():
        cut = bisect_left(w1, _FIRST_POSITIVE)
        np1, pos1 = w1[:cut], w1[cut:]
        momenta = frozenset(k for k, _ in pos1)
        for h2, e2, w2, np2, pos2, opposite, q2 in right:
            q = q1 * q2
            cancel = momenta & opposite
            if not cancel:  # already normal ordered
                add_term(terms, (h1 + h2, e1 + e2, tuple(sorted(w1 + w2))), q)
                continue
            c_pos, c_nonpos, rest = _split(pos1, np2, cancel)
            rest = np1 + rest + pos2
            for (hc, ec, mid), qc in _reorder(c_pos, c_nonpos, rule).items():
                add_term(terms, (h1 + h2 + hc, e1 + e2 + ec, tuple(sorted(rest + mid))),
                         q if qc is _ONE else q * qc)
    return WeylElement._of(a.ctx, terms)


def weyl_commutator(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    return weyl_star(a, b, rule) - weyl_star(b, a, rule)


def f_r_map(r: int, a: WeylElement) -> WeylElement:
    """The isomorphism from the deformed to the standard algebra for r = 4, 5.

    On generators it mirrors the hierarchy-comparison Miura map, e.g.
    f_4(p~^1_n) = p^1_n - (eps^2/96) n^2 p^3_n, extended multiplicatively
    on normal-form monomials.  Each image keeps the momentum n of its
    generator, so the images of a normal-ordered word come in normal order:
    their standard star product contracts nothing and is the commutative
    product, expanded here with one binomial per run of equal modes.
    """
    if r not in (4, 5) or r not in DR_DZ_SHIFTS:
        raise ValueError("f_r is defined for r = 4, 5")
    shifts = DR_DZ_SHIFTS[r]
    terms: dict = {}
    for (h, e, word), q in a.terms.items():
        partial = {(e, ()): q}  # (eps_exp, modes so far) -> q
        for mode, run in groupby(word):
            power = len(list(run))
            n, alpha = mode
            shift = shifts.get(alpha) if n else None
            if shift is None:
                partial = {(e2, w + (mode,) * power): q2 for (e2, w), q2 in partial.items()}
                continue
            # in q form f_r(p^alpha_n) = p^alpha_n + c n^2 eps^2 p^beta_n (the
            # coefficient -c n^2 over i^2); its power is a binomial sum
            beta, c = shift
            step = c * (n * n)
            choices = [(2 * j, (mode,) * (power - j) + ((n, beta),) * j,
                        comb(power, j) * step ** j) for j in range(power + 1)]
            partial = {(e2 + de, w + dw): q2 * f if de else q2
                       for (e2, w), q2 in partial.items() for de, dw, f in choices}
        for (e2, w), q2 in partial.items():
            add_term(terms, (h, e2, tuple(sorted(w))), q2)
    return WeylElement._of(a.ctx, terms)


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
    return WeylElement._of(WeylContext(h.ring.n_fields, window), images[0])
