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
operator (entries sum_j K_j eps^j d_x^{j+1}) rather than hard-coded.  One
bracket serves both: a rule is its constants (a, b, j, K^{ab}_j), and the
standard rule is the eps-free case, eta^{ab} its j = 0 constants.
Both brackets vanish unless the momenta add to zero, so only the modes
whose momentum meets an opposite one on the other side are contracted;
the rest commute through.  The f_r images keep each generator's momentum,
so f_r is a commutative substitution that needs no star product.
Within the finite window everything is exact.

A coefficient c of hbar^h eps^e is always i^{h+e} times a rational, so a
term stores q = c / i^{h+e} (hbar = i hbar', eps = i eps'): the brackets
read k eta^{ab} and m^{j+1} K^{ab}_j.  An element keeps its q's as int
numerators over one denominator ``den`` in the canonical form of
``slots`` (den > 0, no zero stored and gcd(den, numerators) = 1), so equal
elements are equal structurally and the star product and f_r build no
``Fraction``.

A term's key packs hbar^h eps^e and the mode counts into one int in the
slot format of ``slots``, since a normal-ordered monomial is fixed by how
often each mode occurs: slot 0 holds h, slot 1 e, and mode (k, alpha) of an N-field
context sits at slot 2 + b(k) N + alpha - 1 with b(0) = 0, b(-k) = 2k - 1
and b(k) = 2k, so the block of the N modes of momentum +k sits N slots
above that of -k.  A product of monomials is the sum of their keys, and
the star product finds the contracting modes of a pair of keys with ANDs
and shifts over per-block occupancy bits, then takes each cancelling
block's (+k, -k) slot masks from a table kept with the layout; no key is
decoded on the product path.  No slot position depends on the window.  A
``WeylContext`` whose top mode slot passes ``slots.TOP_SLOT`` is refused,
and so is a term or product with an exponent above ``slots.SLOT_MAX``.
The constructor, ``mode``, ``scale`` and ``lf_to_p_series`` refuse a c
outside i^{h+e} Q with ``ValueError``; ``items`` and ``render`` decode the
keys and give c back.

Each rule has an integer ``scale``, the lcm of its constants'
denominators.  The reorder memo maps (rule token, positive key, nonpositive
key), two keys of one momentum block, the modes p_k and p_{-k} of a single
k >= 1, to the normal order of their product: (packed key, numerator)
pairs, numerators over scale^(number of positive modes).  Since both
brackets vanish unless the momenta add to zero, modes of different |k|
commute, so by Wick's theorem a pair that contracts at several momenta
normal-orders to the commutative product of its blocks' normal orders,
and the memo holds single-block keys only.  The star product takes the
cancelling blocks of a pair in one loop, lowest first, reads the memo for
each and calls ``_reorder`` only on a miss, and multiplies their orders.
A bracket value that the scale does not make integral is refused.  The
memo stays module-level, as the benchmark reads its size.

The classical (hbar^0) part is the Fourier dictionary of local functionals:
u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx}, of which a local
functional keeps the frequency-zero part (``lf_to_p_series``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .diffpoly import LocalFunctional
from .drspin import DR_DZ_SHIFTS
from .hamops import HamiltonianOperator
from .scalars import AlgScalar, Frozen, add_term, exact_rational
from .slots import (GUARD, MASK, SLOT_MAX, TOP_SLOT, W, canonical, canonical_scale,
                    canonical_sum, check_slots, nonzero_slots, over_one_den)

Mode = tuple[int, int]  # (k, alpha)

_EPS = 1 << W  # one unit of eps


_RULE_TOKENS: dict = {}


class _Rule(Frozen):
    """A commutation rule given by constants (a, b, j, K^{ab}_j):

        [p^a_m, p^b_n] = hbar delta_{m+n,0} sum_j eps^j (im)^{j+1} K^{ab}_j

    with the small integer ``token`` of its value and its ``scale``, the lcm
    of the denominators of its constants.  The one ``bracket`` serves both
    rules: the standard rule is the eps-free case, its eta^{ab} the j = 0
    constants.  Equal rules share a token and different rules never do, so
    the reorder memo hashes a rule's table once per rule object, not once
    per lookup.
    """

    __slots__ = ("token", "scale")

    def __init__(self, n_fields: int,
                 constants: tuple[tuple[int, int, int, Fraction], ...]):  # (a, b, j, K_j)
        self._init(n_fields, constants)

    def _init(self, *values):
        super()._init(*values)
        object.__setattr__(self, "token",
                           _RULE_TOKENS.setdefault(self, len(_RULE_TOKENS)))
        object.__setattr__(self, "scale",
                           lcm(*(const.denominator for *_, const in self.constants)))

    def bracket(self, x: Mode, y: Mode):
        """[p_x, p_y] as a list of (hbar_exp, eps_exp, q)."""
        (m, a), (n, b) = x, y
        if m + n != 0:
            return []
        return [(1, j, m ** (j + 1) * const)
                for aa, bb, j, const in self.constants
                if (aa, bb) == (a, b) and const]


class StandardRule(_Rule):
    """[p^a_k, p^b_j] = i hbar k eta^{ab} delta_{k+j,0}: the constants
    (a, b, 0, eta^{ab}) of the nonzero entries of eta."""

    __slots__ = ("n_fields", "constants")

    @staticmethod
    def from_eta(eta) -> "StandardRule":
        rows = tuple(tuple(Fraction(x) for x in row) for row in eta)
        return StandardRule(len(rows), tuple(
            (a, b, 0, x) for a, row in enumerate(rows, 1) for b, x in enumerate(row, 1) if x))


class DeformedRule(_Rule):
    """Constants K^{ab}_j of a good-form operator sum_j K_j eps^j d_x^{j+1}."""

    __slots__ = ("n_fields", "constants")

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


class WeylContext(Frozen):
    __slots__ = ("n_fields", "window")

    def __init__(self, n_fields: int, window: int):
        if window < 1:
            raise ValueError("mode window must be >= 1")
        top = 2 + (2 * window + 1) * n_fields - 1
        if top > TOP_SLOT:
            raise ValueError(f"mode window {window} over {n_fields} fields needs packed "
                             f"slot {top}, above {TOP_SLOT}")
        self._init(n_fields, window)


# -- packed keys ---------------------------------------------------------------------


def _slot(n: int, k: int, alpha: int) -> int:
    """The slot of mode (k, alpha) in an n-field key."""
    return 2 + (2 * k if k > 0 else -2 * k - 1 if k else 0) * n + alpha - 1


def _mode(n: int, slot: int) -> Mode:
    """The (k, alpha) of a mode slot of an n-field key."""
    b, a = divmod(slot - 2, n)
    return (-(b + 1) // 2 if b & 1 else b // 2), a + 1


def monomial(pkey) -> str:
    """A mode monomial as render prints it, "1" when empty."""
    return "*".join(f"p{alpha}[{k}]" + (f"^{power}" if power > 1 else "")
                    for alpha, k, power in pkey) or "1"


@lru_cache(maxsize=16)
def _mode_offsets(n: int, window: int) -> dict:
    """(alpha, k) -> the bit offset of its slot, for the modes of an n-field
    context within the window."""
    return {(alpha, k): W * _slot(n, k, alpha)
            for alpha in range(1, n + 1) for k in range(-window, window + 1)}


def pack_key(ctx: WeylContext, offsets: dict, h: int, e: int, pkey) -> int:
    """The key of hbar^h eps^e times the (alpha, k, power) factors of pkey;
    offsets is ``_mode_offsets`` of ctx.

    A field outside 1..N, a mode outside the window, a power below 1 or an
    exponent above ``SLOT_MAX`` (repeated factors added up) is refused.
    """
    if not (0 <= h <= SLOT_MAX and 0 <= e <= SLOT_MAX):
        raise ValueError(f"hbar and eps exponents must lie in 0..{SLOT_MAX}, got {h}, {e}")
    key = h + e * _EPS
    for alpha, k, power in pkey:
        shift = offsets.get((alpha, k))
        if shift is None:
            if not 1 <= alpha <= ctx.n_fields:
                raise ValueError(f"field index {alpha} out of range")
            raise ValueError(f"mode {k} outside window {ctx.window}")
        if not 1 <= power <= SLOT_MAX:
            raise ValueError(f"powers must lie in 1..{SLOT_MAX}, got {power}")
        key += power << shift
        if key >> shift & GUARD:  # two in-range powers never carry past the guard
            raise ValueError(f"a mode exponent exceeds {SLOT_MAX}")
    return key


def unpack_key(key: int, n: int) -> tuple:
    """(h, e, pkey) of a key of an n-field context, pkey sorted (alpha, k, power)."""
    pkey = []
    for shift, power in nonzero_slots(key, 2 * W):
        k, alpha = _mode(n, shift // W)
        pkey.append((alpha, k, power))
    pkey.sort()
    return key & MASK, (key >> W) & MASK, tuple(pkey)


def _count(key: int) -> int:
    """The sum of the slots of a key."""
    return sum(value for _, value in nonzero_slots(key))


@lru_cache(maxsize=16)
def _layout(n: int, window: int) -> tuple:
    """Masks of the n-field keys within a window, all over the mode slots:

    vals, the low W - 1 bits of every slot; guards, their guard bits;
    spread, the shifts that move each slot of a block onto its first;
    neg and pos, the guard bit of the first slot of each block -k and +k
    (k >= 1); positive, every slot of a positive mode; and blocks, the
    table from the guard bit of the first slot of each block -k to the
    masks of the slots of blocks +k and -k.
    """
    ones = ((1 << (W * (2 * window + 1) * n)) - 1) // MASK << 2 * W
    block = (1 << W * n) - 1
    neg = pos = positive = 0
    blocks = {}
    for k in range(1, window + 1):
        start, opposite = W * _slot(n, -k, 1), W * _slot(n, k, 1)
        neg |= GUARD << start
        pos |= GUARD << opposite
        positive |= block << opposite
        blocks[GUARD << start] = (block << opposite, block << start)
    spread = tuple(W * j for j in range(1, n))
    return ones * SLOT_MAX, ones * GUARD, spread, neg, pos, positive, blocks


def _rows(terms: dict, vals: int, guards: int, spread: tuple, starts: int,
          down: int) -> list:
    """The (key, numerator, occupancy) rows of an element's terms: occupancy
    is the guard bit of the first slot of each block that holds a mode of
    key, among the blocks whose starts are given, moved down ``down`` bits.

    Adding SLOT_MAX to a slot sets its guard exactly when the slot is
    nonzero, and no slot carries: a stored key has its guards clear.
    """
    rows = []
    for key, n in terms.items():
        occupied = (key + vals) & guards
        bits = occupied
        for shift in spread:
            bits |= occupied >> shift
        rows.append((key, n, (bits & starts) >> down))
    return rows


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

    terms: packed key of hbar^h eps^e and the mode counts -> nonzero int
    numerator n over ``den``, with n / den the q = c / i^(h + e) of the
    term, in the canonical form of ``slots``.  The constructor takes
    {(hbar_exp, eps_exp, pkey): c} with pkey a tuple of (alpha, k, power)
    factors and c a Fraction, int or AlgScalar.
    """

    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx: WeylContext, terms: dict | None = None):
        self.ctx = ctx
        offsets = _mode_offsets(ctx.n_fields, ctx.window)
        nums: dict = {}
        den = 1
        for (h, e, pkey), c in (terms or {}).items():
            key = pack_key(ctx, offsets, h, e, pkey)  # the key is refused first
            n, d = _to_q(c, h, e, pkey).as_integer_ratio()
            if den % d:  # move the numerators so far to the new lcm
                lift = d // gcd(den, d)
                den *= lift
                nums = {k: v * lift for k, v in nums.items()}
            nums[key] = nums.get(key, 0) + n * (den // d)
        self.terms, self.den = canonical(nums, den)

    @classmethod
    def _of(cls, ctx: WeylContext, terms: dict, den: int = 1) -> "WeylElement":
        """Wrap key-to-numerator terms that are already in canonical form."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.terms = terms
        out.den = den
        return out

    @staticmethod
    def mode(ctx: WeylContext, alpha: int, k: int, coeff=1) -> "WeylElement":
        return WeylElement(ctx, {(0, 0, ((alpha, k, 1),)): coeff})

    # -- linear structure ---------------------------------------------------------------

    def _plus(self, other: "WeylElement", sign: int) -> "WeylElement":
        if self.ctx != other.ctx:
            raise ValueError("window/context mismatch")
        return WeylElement._of(self.ctx, *canonical_sum(self.terms, self.den,
                                                        other.terms, other.den, sign))

    def __add__(self, other: "WeylElement") -> "WeylElement":
        return self._plus(other, 1)

    def __neg__(self):
        return WeylElement._of(self.ctx, {k: -n for k, n in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, scalar) -> "WeylElement":
        """Multiply by a rational scalar (Fraction, int or AlgScalar)."""
        s = _to_q(scalar, 0, 0, ())
        return WeylElement._of(self.ctx, *canonical_scale(self.terms, self.den,
                                                          s.numerator, s.denominator))

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def classical_limit(self) -> "WeylElement":
        """Set hbar = 0: the hbar^0 part, a commutative mode polynomial."""
        return WeylElement._of(self.ctx, *canonical({key: n for key, n in self.terms.items()
                                                     if not key & MASK}, self.den))

    def items(self) -> list:
        """[((hbar_exp, eps_exp, pkey), c)] in render order, c an AlgScalar."""
        n = self.ctx.n_fields
        out = []
        for key, num in self.terms.items():
            h, e, pkey = unpack_key(key, n)
            out.append(((h, e, pkey), _to_c(Fraction(num, self.den), h, e)))
        return sorted(out)

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


def _reorder(pos: int, nonpos: int, rule) -> tuple:
    """Normal-order (product of the modes of key ``pos``, all p_k) x (product
    of the modes of key ``nonpos``, all p_{-k}) for one k >= 1.

    Returns (key, n) pairs, numerators over rule.scale^(positive modes).
    Unless both keys hold modes, nothing contracts and the product is their
    sum.  Otherwise the result is memoized in ``_REORDER_MEMO`` under
    (rule token, pos, nonpos): the largest positive mode x moves through
    ``nonpos``, and c identical copies of a mode y contract with x to c
    equal terms, so each distinct y gives c [x, y] times one normal order.
    """
    if not (pos and nonpos):
        return ((pos + nonpos, rule.scale ** _count(pos)),)
    key = (rule.token, pos, nonpos)
    out = _REORDER_MEMO.get(key)
    if out is not None:
        return out
    n = rule.n_fields
    shift = (pos.bit_length() - 1) // W * W
    x = 1 << shift
    k, alpha = _mode(n, shift // W)
    head = pos - x
    first = shift - W * (n + alpha - 1)  # the slot of (-k, 1)
    scale = rule.scale
    acc: dict = {}
    # commutator terms first, each a bracket over scale^1 times a head order
    for beta in range(1, n + 1):
        y = first + W * (beta - 1)
        copies = (nonpos >> y) & MASK
        brackets = rule.bracket((k, alpha), (-k, beta)) if copies else None
        if brackets:
            order = _reorder(head, nonpos - (1 << y), rule)
            for h, e, q in brackets:
                num = copies * _numerator(q, scale)
                delta = h + e * _EPS
                for key2, n2 in order:
                    term = key2 + delta
                    acc[term] = acc.get(term, 0) + num * n2
    # and the fully commuted term with x appended
    for key2, n2 in _reorder(head, nonpos, rule):
        term = key2 + x
        acc[term] = acc.get(term, 0) + n2 * scale
    out = {term: n for term, n in acc.items() if n}
    check_slots(out)
    _REORDER_MEMO[key] = out = tuple(out.items())
    return out


def weyl_star(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    """The star product under the given commutation rule.

    For each pair of keys, the momentum blocks that hold a left positive
    mode are ANDed with those that hold a right nonpositive mode of the
    opposite momentum.  A pair with no cancelling momentum is already normal
    ordered: its product key is the sum of the keys.  Otherwise each
    cancelling momentum, lowest first, has its (+k, -k) modes cut out with
    the ``_layout`` block masks and normal-ordered on its own, since modes
    of different |k| commute: the reorder memo is read first and
    ``_reorder`` runs only on a miss.  The product of the block orders (the
    first block's order as it is) is added, shifted by the rest of both
    keys.  The result accumulates as int numerators over
    a.den * b.den * scale^M, M the most positive modes of a key of a: a
    pair that contracts m modes lifts its numerators by scale^(M - m), a
    step that a rule of scale 1 skips.
    """
    ctx = a.ctx
    if ctx is not b.ctx and ctx != b.ctx:
        raise ValueError("window/context mismatch")
    if rule.n_fields != ctx.n_fields:
        raise ValueError("rule and element field counts differ")
    vals, guards, spread, neg, pos, positive, blocks = _layout(ctx.n_fields, ctx.window)
    # the +k occupancy bits of a moved onto the -k blocks, against those of b
    left = _rows(a.terms, vals, guards, spread, pos, W * ctx.n_fields)
    right = _rows(b.terms, vals, guards, spread, neg, 0)
    scale = rule.scale
    lift = None
    top = 1
    if scale != 1:
        most = max((_count(w1 & positive) for w1 in a.terms), default=0)
        lift = [scale ** (most - m) for m in range(most + 1)]
        top = lift[0]
    token = rule.token
    memo = _REORDER_MEMO.get
    acc: dict = {}
    get = acc.get
    for w1, n1, momenta in left:
        n1_top = n1 * top
        for w2, n2, opposite in right:
            cancel = momenta & opposite
            if not cancel:  # already normal ordered
                term = w1 + w2
                acc[term] = get(term, 0) + n1_top * n2
                continue
            rest, terms, contracted = w1 + w2, None, 0
            while cancel:  # one block at a time, lowest first
                low = cancel & -cancel
                cancel ^= low
                mask_pos, mask_nonpos = blocks[low]
                c_pos, c_nonpos = w1 & mask_pos, w2 & mask_nonpos
                rest -= c_pos + c_nonpos
                order = memo((token, c_pos, c_nonpos)) or _reorder(c_pos, c_nonpos, rule)
                terms = order if terms is None else [
                    (t + d, v * nc) for t, v in terms for d, nc in order]
                if lift is not None:
                    contracted += _count(c_pos)
            v = n1 * n2 if lift is None else n1 * n2 * lift[contracted]
            for d, nc in terms:
                term = rest + d
                acc[term] = get(term, 0) + v * nc
    # mode slots never carry: a memo term holds some of the contracted modes.
    # Every block order holds its fully commuted term, so acc holds w1 + w2
    # and each key that swaps one block's memo term in at a time: hbar and
    # eps climb from w1 + w2 by at most SLOT_MAX a step, and the first key to
    # pass SLOT_MAX sets its guard before any carry.
    check_slots(acc)
    return WeylElement._of(ctx, *canonical(acc, a.den * b.den * top))


def weyl_commutator(a: WeylElement, b: WeylElement, rule) -> WeylElement:
    return weyl_star(a, b, rule) - weyl_star(b, a, rule)


@lru_cache(maxsize=16)
def _f_r_table(r: int, window: int) -> tuple:
    """(L, mask) of f_r in an (r - 1)-field context: L the lcm of the shift
    denominators, mask the slots of the shifted modes (k, alpha), k != 0."""
    shifts = DR_DZ_SHIFTS[r]
    mask = 0
    for alpha in shifts:
        for k in range(1, window + 1):
            mask |= MASK << W * _slot(r - 1, k, alpha) | MASK << W * _slot(r - 1, -k, alpha)
    return lcm(*(c.denominator for _, c in shifts.values())), mask


@lru_cache(maxsize=256)
def _f_r_row(r: int, L: int, shift: int, power: int) -> tuple:
    """f_r(p^alpha_k)^power, (k, alpha) the mode at bit offset ``shift``:
    (key delta, numerator over L^power) for j = 0..power of its copies
    traded for eps^2 p^beta_k, the image of one copy being
    (L p^alpha_k + s k^2 eps^2 p^beta_k) / L with s = cL."""
    k, alpha = _mode(r - 1, shift // W)
    beta, c = DR_DZ_SHIFTS[r][alpha]
    delta = (1 << W * _slot(r - 1, k, beta)) - (1 << shift) + 2 * _EPS
    step = _numerator(c, L) * k * k
    return tuple((j * delta, comb(power, j) * step ** j * L ** (power - j))
                 for j in range(power + 1))


def f_r_map(r: int, a: WeylElement) -> WeylElement:
    """The isomorphism from the deformed to the standard algebra for r = 4, 5.

    On generators it mirrors the hierarchy-comparison Miura map, e.g.
    f_4(p~^1_n) = p^1_n - (eps^2/96) n^2 p^3_n, extended multiplicatively
    on normal-form monomials.  Each image keeps the momentum n of its
    generator, so the images of a normal-ordered monomial come in normal
    order: their standard star product contracts nothing and is the
    commutative product, expanded here with one binomial row per occupied
    shifted slot of count p, j = 0..p of its copies traded for eps^2 p^beta
    by adding key deltas.  The shift denominators come out as a power of
    their lcm L: a key with t shifted modes expands over L^t, lifted to the
    common L^T.
    """
    if r not in (4, 5) or r not in DR_DZ_SHIFTS:
        raise ValueError("f_r is defined for r = 4, 5")
    if a.ctx.n_fields != r - 1:
        raise ValueError(f"f_{r} acts on {r - 1} fields, not {a.ctx.n_fields}")
    # in q form f_r(p^alpha_n) = p^alpha_n + c n^2 eps^2 p^beta_n (the
    # coefficient -c n^2 over i^2)
    L, mask = _f_r_table(r, a.ctx.window)
    expanded = []
    for key, n in a.terms.items():
        partial = [(key, n)]  # (key, numerator over L^t) pairs
        t = 0
        for shift, power in nonzero_slots(key & mask):
            t += power
            row = _f_r_row(r, L, shift, power)
            partial = [(k2 + dk, n2 * f) for k2, n2 in partial for dk, f in row]
        expanded.append((t, partial))
    most = max((t for t, _ in expanded), default=0)
    acc: dict = {}
    for t, partial in expanded:
        lift = L ** (most - t)
        for k2, n2 in partial:
            acc[k2] = acc.get(k2, 0) + n2 * lift
    # an eps sum that carries past its guard passes on its way every value
    # that sets the guard: the expansion adds eps^2 one trade at a time
    check_slots(acc)
    return WeylElement._of(a.ctx, *canonical(acc, a.den * L ** most))


# -- the Fourier dictionary ------------------------------------------------------------


def lf_to_p_series(h: LocalFunctional, window: int) -> WeylElement:
    """Mode-zero Fourier image of a local functional, as an hbar^0 element.

    Substitutes u^alpha_j = sum_{|k| <= window} (ik)^j p^alpha_k e^{ikx} and
    keeps the frequency-zero part; exact for every retained monomial.  A
    monomial of eps order e and derivative degree D gains i^D, which lies in
    i^e Q when D - e is even; an image with a nonzero part off i^e Q is refused.
    """
    ctx = WeylContext(h.ring.n_fields, window)
    # q = c / i^e of the monomials of even D - e; c / i^(e+1) of the odd ones
    images: tuple[dict, dict] = ({}, {})
    for (eps, jets), coeff in h.density.items():
        factors = [(alpha, order) for alpha, order, power in jets for _ in range(power)]
        twist = sum(order for _, order in factors) - eps
        target = images[twist % 2]

        def expand(depth, key, total, c):
            if depth == len(factors):
                if total == 0:
                    add_term(target, key, c)
                return
            alpha, order = factors[depth]
            # the factors left can shift the sum by at most window each
            slack = (len(factors) - depth - 1) * window
            for k in range(max(-window, -slack - total), min(window, slack - total) + 1):
                if k or not order:
                    expand(depth + 1, key + (1 << W * _slot(ctx.n_fields, k, alpha)),
                           total + k, c * k ** order)

        if factors:  # constants are quotiented away
            expand(0, eps * _EPS, 0, -coeff if twist % 4 >= 2 else coeff)
    for key, q in images[1].items():
        _, eps, pkey = unpack_key(key, ctx.n_fields)
        raise ValueError(f"the coefficient of hbar^0 eps^{eps} {monomial(pkey)} "
                         f"has a part {_to_c(q, 0, eps + 1)} outside i^{eps}*Q")
    return WeylElement._of(ctx, *over_one_den(images[0]))
