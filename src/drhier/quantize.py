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
Within the finite window everything is exact.

The classical (hbar^0) part is the Fourier dictionary of local functionals:
u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx}, of which a local
functional keeps the frequency-zero part (``lf_to_p_series``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .diffpoly import LocalFunctional
from .drspin import DR_DZ_SHIFTS
from .gdhier import eta_matrix
from .hamops import HamiltonianOperator
from .scalars import AlgScalar, add_term

Mode = tuple[int, int]  # (alpha, k)


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
        """[(p_x, p_y)] as a list of (hbar_exp, eps_exp, AlgScalar)."""
        (a, k), (b, j) = x, y
        if k + j != 0:
            return []
        coeff = self.eta[a - 1][b - 1]
        if not coeff:
            return []
        return [(1, 0, AlgScalar(0, coeff * k))]


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
                    for (eps, jets), value in coeff.terms.items():
                        if jets or eps != power - 1:
                            raise ValueError(
                                "operator is not of the constant good form")
                        consts.append((a, b, eps, value))
        return DeformedRule(n, tuple(sorted(consts)))

    def bracket(self, x: Mode, y: Mode):
        (a, m), (b, n) = x, y
        if m + n != 0:
            return []
        out = []
        im = AlgScalar(0, m)
        for aa, bb, j, const in self.constants:
            if (aa, bb) != (a, b) or not const:
                continue
            out.append((1, j, im ** (j + 1) * const))
        return out


@dataclass(frozen=True)
class WeylContext:
    n_fields: int
    window: int
    d: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("mode window must be >= 1")


class WeylElement:
    """Normal-ordered polynomial in the modes with hbar/eps coefficients.

    terms: (hbar_exp, eps_exp, pkey) -> AlgScalar with pkey a sorted tuple
    of (alpha, k, power).
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: WeylContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self._check_key(key)
                    self.terms[key] = c

    @classmethod
    def _of(cls, ctx: WeylContext, terms: dict) -> "WeylElement":
        """Wrap terms whose keys are already checked and values nonzero."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.terms = terms
        return out

    def _check_key(self, key):
        _, _, pkey = key
        for alpha, k, power in pkey:
            if not 1 <= alpha <= self.ctx.n_fields:
                raise ValueError(f"field index {alpha} out of range")
            if abs(k) > self.ctx.window:
                raise ValueError(f"mode {k} outside window {self.ctx.window}")
            if power < 1:
                raise ValueError("powers must be positive")

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def zero(ctx: WeylContext) -> "WeylElement":
        return WeylElement(ctx)

    @staticmethod
    def one(ctx: WeylContext) -> "WeylElement":
        return WeylElement(ctx, {(0, 0, ()): AlgScalar(1)})

    @staticmethod
    def mode(ctx: WeylContext, alpha: int, k: int, coeff=1) -> "WeylElement":
        return WeylElement(ctx, {(0, 0, ((alpha, k, 1),)):
                                 AlgScalar.coerce(coeff)})

    # -- linear structure ---------------------------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if self.ctx != other.ctx:
            raise ValueError("window/context mismatch")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_term(terms, key, c)
        return WeylElement._of(self.ctx, terms)

    def __neg__(self):
        return WeylElement._of(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "WeylElement":
        c = AlgScalar.coerce(scalar)
        return WeylElement(self.ctx, {k: v * c for k, v in self.terms.items()})

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
        return WeylElement(self.ctx, {key: c for key, c in self.terms.items()
                                      if key[0] == 0})

    def render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (h, eps, pkey), c in sorted(self.terms.items()):
            factors = []
            if h:
                factors.append("hbar" if h == 1 else f"hbar^{h}")
            if eps:
                factors.append("eps" if eps == 1 else f"eps^{eps}")
            for alpha, k, power in pkey:
                base = f"p{alpha}[{k}]"
                factors.append(base if power == 1 else f"{base}^{power}")
            body = "*".join(factors) or "1"
            chunks.append(f"({c})*{body}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"WeylElement({self.render()})"


def _split_blocks(pkey):
    """Expand a stored monomial into (nonpositive, positive) factor words."""
    nonpos, pos = [], []
    for alpha, k, power in pkey:
        target = nonpos if k <= 0 else pos
        target.extend([(alpha, k)] * power)
    return tuple(sorted(nonpos, key=lambda m: (m[1], m[0]))), \
        tuple(sorted(pos, key=lambda m: (m[1], m[0])))


def word_to_pkey(word) -> tuple:
    counts: dict = {}
    for mode in word:
        counts[mode] = counts.get(mode, 0) + 1
    return tuple(sorted((a, k, p) for (a, k), p in counts.items()))


_REORDER_MEMO: dict = {}


def _reorder(pos, nonpos, rule):
    """Normal-order (product of positive modes) x (product of nonpositive).

    Returns {(hbar, eps, nonpos_word, pos_word): AlgScalar}, memoized in
    ``_REORDER_MEMO`` under (rule token, pos, nonpos).
    """
    if not pos or not nonpos:
        return {(0, 0, nonpos, pos): AlgScalar(1)}
    key = (rule.token, pos, nonpos)
    if key in _REORDER_MEMO:
        return _REORDER_MEMO[key]
    x = pos[-1]
    head = pos[:-1]
    out: dict = {}

    # x through the whole nonpositive word: commutator terms first
    for s, y in enumerate(nonpos):
        for h, e, c in rule.bracket(x, y):
            reduced = nonpos[:s] + nonpos[s + 1:]
            for (h2, e2, np2, p2), c2 in _reorder(head, reduced, rule).items():
                add_term(out, (h + h2, e + e2, np2, p2), c * c2)
    # and the fully commuted term with x appended on the right
    for (h2, e2, np2, p2), c2 in _reorder(head, nonpos, rule).items():
        add_term(out, (h2, e2, np2,
                       tuple(sorted(p2 + (x,), key=lambda m: (m[1], m[0])))), c2)
    _REORDER_MEMO[key] = out
    return out


def weyl_star(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    """The star product under the given commutation rule."""
    if a.ctx != b.ctx:
        raise ValueError("window/context mismatch")
    if rule.n_fields != a.ctx.n_fields:
        raise ValueError("rule and element field counts differ")
    right = [(h2, e2, *_split_blocks(pk2), c2)
             for (h2, e2, pk2), c2 in b.terms.items()]
    terms: dict = {}
    for (h1, e1, pk1), c1 in a.terms.items():
        np1, pos1 = _split_blocks(pk1)
        for h2, e2, np2, pos2, c2 in right:
            coeff = c1 * c2
            if not pos1 or not np2:  # already normal ordered
                add_term(terms, (h1 + h2, e1 + e2,
                                 word_to_pkey(np1 + np2 + pos1 + pos2)), coeff)
                continue
            for (hc, ec, np_mid, pos_mid), cmid in _reorder(pos1, np2, rule).items():
                word = np1 + np_mid + pos_mid + pos2
                key = (h1 + h2 + hc, e1 + e2 + ec, word_to_pkey(word))
                add_term(terms, key, coeff * cmid)
    return WeylElement._of(a.ctx, terms)


def weyl_commutator(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    return weyl_star(a, b, rule) - weyl_star(b, a, rule)


def f_r_map(r: int, a: WeylElement) -> WeylElement:
    """The isomorphism from the deformed to the standard algebra for r = 4, 5.

    On generators it mirrors the hierarchy-comparison Miura map, e.g.
    f_4(p~^1_n) = p^1_n - (eps^2/96) n^2 p^3_n, extended multiplicatively
    on normal-form monomials (images multiply with the standard star).
    """
    if r not in (4, 5) or r not in DR_DZ_SHIFTS:
        raise ValueError("f_r is defined for r = 4, 5")
    shifts = DR_DZ_SHIFTS[r]
    rule = StandardRule.from_eta(eta_matrix(r))
    ctx = a.ctx

    @cache
    def image(mode: Mode) -> WeylElement:
        alpha, n = mode
        out = WeylElement.mode(ctx, alpha, n)
        shift = shifts.get(alpha)
        if shift:
            beta, c = shift
            add_term(out.terms, (0, 2, ((beta, n, 1),)), AlgScalar(-c * n * n))
        return out

    terms: dict = {}
    for (h, eps, pkey), coeff in a.terms.items():
        nonpos, pos = _split_blocks(pkey)
        acc = WeylElement(ctx, {(h, eps, ()): coeff})
        for mode in nonpos + pos:
            acc = weyl_star(acc, image(mode), rule)
        for key, c in acc.terms.items():
            add_term(terms, key, c)
    return WeylElement._of(ctx, terms)


# -- the Fourier dictionary ------------------------------------------------------------


def mode_sum(pkey) -> int:
    """Total frequency sum k * power of a mode monomial."""
    return sum(k * p for _, k, p in pkey)


def lf_to_p_series(h: LocalFunctional, window: int) -> WeylElement:
    """Mode-zero Fourier image of a local functional, as an hbar^0 element.

    Substitutes u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx} and
    keeps the frequency-zero part; exact for every retained monomial.
    """
    ring = h.ring
    ctx = WeylContext(ring.n_fields, window, ring.d)
    terms: dict = {}
    i_unit = AlgScalar(0, 1)
    mode_range = range(-window, window + 1)
    for (eps, jets), coeff in h.density.terms.items():
        factors = []
        for alpha, order, power in jets:
            factors.extend([(alpha, order)] * power)
        if not factors:
            continue  # constants are quotiented away

        def expand(idx, mode_total, acc_coeff, acc_modes):
            if idx == len(factors):
                if mode_total == 0:
                    add_term(terms, (0, eps, word_to_pkey(acc_modes)), acc_coeff)
                return
            alpha, order = factors[idx]
            remaining = len(factors) - idx - 1
            for k in mode_range:
                if k == 0 and order > 0:
                    continue
                # prune: remaining factors can shift the sum by at most window each
                if abs(mode_total + k) > remaining * window:
                    continue
                factor = (i_unit * k) ** order if order else AlgScalar(1)
                expand(idx + 1, mode_total + k, acc_coeff * factor,
                       acc_modes + ((alpha, k),))

        expand(0, 0, AlgScalar(coeff), ())
    return WeylElement(ctx, terms)
