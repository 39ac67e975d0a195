"""The Weyl-algebra kernel in its plain form: an independent oracle.

A term is keyed (h, e, word), the word listing its modes (k, alpha) in
ascending order with repeats, which is normal order, and valued q =
c / i^(h+e) as a ``Fraction``.  This is the representation
``drhier.quantize`` stored before it packed each term into one int of mode
counts: the star product moves the left positive modes through the right
nonpositive ones by recursion over the largest positive mode, contracting
only modes whose momenta cancel, and f_r expands each run of equal modes by
the binomial theorem.  The tests compare the packed kernel, decoded, with it.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from math import comb

from drhier.drspin import DR_DZ_SHIFTS
from drhier.quantize import unpack_key

_FIRST_POSITIVE = (1,)  # sorts before every mode with k >= 1


def word(pkey) -> tuple:
    """The normal-ordered word of a tuple of (alpha, k, power) factors."""
    return tuple(sorted((k, alpha) for alpha, k, power in pkey for _ in range(power)))


def decoded(el) -> dict:
    """The decoded view of an element: (h, e, word) -> q as a Fraction."""
    out = {}
    for key, n in el.terms.items():
        h, e, pkey = unpack_key(key, el.ctx.n_fields)
        out[h, e, word(pkey)] = Fraction(n, el.den)
    return out


def _add(out, key, q):
    q = out.get(key, 0) + q
    if q:
        out[key] = q
    else:
        out.pop(key, None)


def normal_order(pos, nonpos, rule) -> dict:
    """(product of the positive word) x (product of the nonpositive word) in
    normal order: only the modes whose momenta cancel are reordered."""
    cancel = {k for k, _ in pos}.intersection([-k for k, _ in nonpos])
    if not cancel:
        return {(0, 0, nonpos + pos): Fraction(1)}
    c_pos, c_nonpos, rest = [], [], []
    for m in pos:
        (c_pos if m[0] in cancel else rest).append(m)
    for m in nonpos:
        (c_nonpos if -m[0] in cancel else rest).append(m)
    rest = tuple(rest)
    return {(h, e, tuple(sorted(rest + mid))): q
            for (h, e, mid), q in reorder(tuple(c_pos), tuple(c_nonpos), rule).items()}


def reorder(pos, nonpos, rule) -> dict:
    """``normal_order`` of two words in which every mode contracts: the
    largest positive mode x passes each mode y of ``nonpos`` in turn."""
    x, head = pos[-1], pos[:-1]
    acc: dict = {}
    for s, y in enumerate(nonpos):
        if x[0] + y[0]:
            continue
        for h, e, q in rule.bracket(x, y):
            reduced = nonpos[:s] + nonpos[s + 1:]
            for (h2, e2, w2), q2 in normal_order(head, reduced, rule).items():
                _add(acc, (h + h2, e + e2, w2), q * q2)
    for (h2, e2, w2), q2 in normal_order(head, nonpos, rule).items():
        _add(acc, (h2, e2, w2 + (x,)), q2)
    return acc


def star(a: dict, b: dict, rule) -> dict:
    """The star product of two decoded elements."""
    out: dict = {}
    for (h1, e1, w1), q1 in a.items():
        cut1 = bisect_left(w1, _FIRST_POSITIVE)
        for (h2, e2, w2), q2 in b.items():
            cut2 = bisect_left(w2, _FIRST_POSITIVE)
            rest = w1[:cut1] + w2[cut2:]
            for (h, e, mid), q in normal_order(w1[cut1:], w2[:cut2], rule).items():
                _add(out, (h1 + h2 + h, e1 + e2 + e, tuple(sorted(rest + mid))), q1 * q2 * q)
    return out


def f_r(r: int, a: dict) -> dict:
    """f_r of a decoded element: p^alpha_k -> p^alpha_k + c k^2 eps^2 p^beta_k
    on each shifted generator, k != 0, in q form."""
    shifts = DR_DZ_SHIFTS[r]
    out: dict = {}
    for (h, e, w), q in a.items():
        partial = {(e, ()): q}
        for mode, run in groupby(w):
            power = len(list(run))
            k, alpha = mode
            shift = shifts.get(alpha) if k else None
            if shift is None:
                partial = {(e2, w2 + (mode,) * power): q2 for (e2, w2), q2 in partial.items()}
                continue
            beta, c = shift
            choices = [(2 * j, (mode,) * (power - j) + ((k, beta),) * j,
                        comb(power, j) * (c * k * k) ** j) for j in range(power + 1)]
            partial = {(e2 + de, w2 + dw): q2 * f
                       for (e2, w2), q2 in partial.items() for de, dw, f in choices}
        for (e2, w2), q2 in partial.items():
            _add(out, (h, e2, tuple(sorted(w2))), q2)
    return out
