import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weyl_reference as ref
from drhier import quantize
from drhier.diffpoly import DiffPoly, Ring, eps_dress, integrate
from drhier.drspin import DR_DZ_SHIFTS, builtin_g11
from drhier.gdhier import eta_matrix, gd_context, rspin_hamiltonian, rspin_operator
from drhier.quantize import (
    DeformedRule,
    StandardRule,
    WeylContext,
    WeylElement,
    f_r_map,
    lf_to_p_series,
    unpack_key,
    weyl_commutator,
    weyl_star,
)
from drhier.scalars import AlgScalar
from drhier.slots import MASK

CTX1 = WeylContext(n_fields=1, window=3)


def std_rule(r):
    return StandardRule.from_eta(eta_matrix(r))


def deformed_rule(r):
    return DeformedRule.from_operator(rspin_operator(gd_context(r)))


def rand_element(rng, ctx, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = []
        for _ in range(rng.randint(0, max_degree)):
            word.append((rng.randint(1, ctx.n_fields),
                         rng.randint(-ctx.window, ctx.window)))
        counts = {}
        for m in word:
            counts[m] = counts.get(m, 0) + 1
        pkey = tuple(sorted((a, k, p) for (a, k), p in counts.items()))
        key = (0, 0, pkey)
        terms[key] = AlgScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return WeylElement(ctx, {k: v for k, v in terms.items() if v})


# -- star product basics ----------------------------------------------------------

def test_star_one_commutation():
    # p_1 * p_{-1} = p_{-1} p_1 + i hbar  (eta^{11} = 1 for r = 2)
    rule = std_rule(2)
    a = WeylElement.mode(CTX1, 1, 1)
    b = WeylElement.mode(CTX1, 1, -1)
    prod = weyl_star(a, b, rule)
    assert prod == WeylElement(CTX1, {
        (0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1),
        (1, 0, ()): AlgScalar(0, 1),
    })


def test_star_already_normal():
    rule = std_rule(2)
    a = WeylElement.mode(CTX1, 1, -1)
    b = WeylElement.mode(CTX1, 1, 1)
    prod = weyl_star(a, b, rule)
    assert prod == WeylElement(CTX1, {(0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1)})


def test_star_associativity_instance():
    rule = std_rule(2)
    p1 = WeylElement.mode(CTX1, 1, 1)
    pm2 = WeylElement.mode(CTX1, 1, -2)
    left = weyl_star(weyl_star(p1, p1, rule), pm2, rule)
    right = weyl_star(p1, weyl_star(p1, pm2, rule), rule)
    assert left == right


def test_star_reduces_to_product_at_hbar_zero():
    rng = random.Random(61)
    rule = std_rule(2)
    for _ in range(10):
        a = rand_element(rng, CTX1)
        b = rand_element(rng, CTX1)
        classical = weyl_star(a, b, rule).classical_limit()
        direct = WeylElement(CTX1)
        for (_, e1, k1), c1 in a.classical_limit().items():
            for (_, e2, k2), c2 in b.classical_limit().items():
                direct = direct + WeylElement(CTX1, {(0, e1 + e2, k1 + k2): c1 * c2})
        assert classical == direct


def test_star_associativity_random():
    rng = random.Random(67)
    ctx = WeylContext(n_fields=2, window=3)
    rule = std_rule(3)
    for _ in range(30):
        a, b, c = (rand_element(rng, ctx) for _ in range(3))
        assert weyl_star(weyl_star(a, b, rule), c, rule) \
            == weyl_star(a, weyl_star(b, c, rule), rule)


STAR_GOLDEN = Path(__file__).parent / "golden" / "star-products.txt"


def star_product_lines():
    """Rendered seeded star products and f_r images, one per line.

    Each left factor is itself a product, so it carries hbar, eps and
    imaginary coefficients into the second product.
    """
    lines = []
    for label, r, rule in (("std", 3, std_rule(3)), ("std", 4, std_rule(4)),
                           ("def", 4, deformed_rule(4)), ("def", 5, deformed_rule(5))):
        rng = random.Random(f"star-golden:{label}:{r}")
        ctx = WeylContext(n_fields=r - 1, window=3)
        for i in range(4):
            a, b, c = (rand_element(rng, ctx) for _ in range(3))
            ab = weyl_star(a, b, rule)
            lines.append(f"{label} r={r} #{i} a*b: {ab.render()}")
            lines.append(f"{label} r={r} #{i} (a*b)*c: {weyl_star(ab, c, rule).render()}")
    for r in (4, 5):
        rng = random.Random(f"star-golden:f:{r}")
        ctx = WeylContext(n_fields=r - 1, window=3)
        for i in range(3):
            a, b = rand_element(rng, ctx), rand_element(rng, ctx)
            lines.append(f"f_{r} #{i} a: {f_r_map(r, a).render()}")
            lines.append(f"f_{r} #{i} a*b: "
                         f"{f_r_map(r, weyl_star(a, b, deformed_rule(r))).render()}")
    return lines


def test_star_product_golden():
    assert star_product_lines() == STAR_GOLDEN.read_text().splitlines()


def test_reorder_memo_shared_only_by_equal_rules():
    ctx = WeylContext(n_fields=3, window=3)
    a = WeylElement(ctx, {(0, 0, ((1, 1, 1), (2, 1, 1), (3, 2, 1))): AlgScalar(2),
                          (0, 0, ((1, 2, 2),)): AlgScalar(-1)})
    b = WeylElement(ctx, {(0, 0, ((1, -2, 1), (1, -1, 1), (3, -2, 1))): AlgScalar(3),
                          (0, 0, ((3, -1, 1), (3, -2, 1))): AlgScalar(1)})
    rules = (std_rule(4), deformed_rule(4))
    assert rules[0].n_fields == rules[1].n_fields == 3
    cold = []
    for rule in rules:
        quantize._REORDER_MEMO.clear()
        cold.append(weyl_star(a, b, rule))
    assert cold[0] != cold[1]
    for order in ((0, 1), (1, 0)):
        quantize._REORDER_MEMO.clear()
        for i in order:
            assert weyl_star(a, b, rules[i]) == cold[i]
    # an equal rule built from scratch reuses the entries of the first
    size = len(quantize._REORDER_MEMO)
    assert size
    assert weyl_star(a, b, StandardRule.from_eta(eta_matrix(4))) == cold[0]
    assert len(quantize._REORDER_MEMO) == size


def test_window_mismatch_rejected():
    rule = std_rule(2)
    a = WeylElement.mode(CTX1, 1, 1)
    b = WeylElement.mode(WeylContext(1, 4), 1, 1)
    with pytest.raises(ValueError):
        weyl_star(a, b, rule)


def test_window_bound_enforced():
    with pytest.raises(ValueError):
        WeylElement.mode(CTX1, 1, 5)


# -- commutators ----------------------------------------------------------------------

def test_commutator_standard_r3():
    rule = std_rule(3)
    ctx = WeylContext(n_fields=2, window=2)
    a = WeylElement.mode(ctx, 1, 1)
    b = WeylElement.mode(ctx, 2, -1)
    comm = weyl_commutator(a, b, rule)
    assert comm == WeylElement(ctx, {(1, 0, ()): AlgScalar(0, 1)})


def test_commutator_deformed_r4_dispersionless_entry():
    rule = deformed_rule(4)
    ctx = WeylContext(n_fields=3, window=3)
    for m in (1, 2, 3):
        comm = weyl_commutator(WeylElement.mode(ctx, 1, m),
                               WeylElement.mode(ctx, 3, -m), rule)
        assert comm == WeylElement(ctx, {(1, 0, ()): AlgScalar(0, m)})


def test_commutator_deformed_r4_dispersive_entry():
    # [p~^1_m, p~^1_{-m}] = hbar eps^2 (im)^3 / 48
    rule = deformed_rule(4)
    ctx = WeylContext(n_fields=3, window=3)
    for m in (1, 2, 3):
        comm = weyl_commutator(WeylElement.mode(ctx, 1, m),
                               WeylElement.mode(ctx, 1, -m), rule)
        expected = AlgScalar(0, 1) ** 3 * Fraction(m ** 3, 48)
        assert comm == WeylElement(ctx, {(1, 2, ()): expected})


def test_commutator_deformed_r5_entries():
    rule = deformed_rule(5)
    ctx = WeylContext(n_fields=4, window=2)
    comm = weyl_commutator(WeylElement.mode(ctx, 1, 2),
                           WeylElement.mode(ctx, 2, -2), rule)
    expected = AlgScalar(0, 1) ** 3 * Fraction(8, 30)
    assert comm == WeylElement(ctx, {(1, 2, ()): expected})
    comm2 = weyl_commutator(WeylElement.mode(ctx, 2, 1),
                            WeylElement.mode(ctx, 3, -1), rule)
    assert comm2 == WeylElement(ctx, {(1, 0, ()): AlgScalar(0, 1)})


def test_commutator_antisymmetry_and_hbar_bound():
    rng = random.Random(71)
    rule = std_rule(2)
    for _ in range(10):
        a = rand_element(rng, CTX1)
        b = rand_element(rng, CTX1)
        comm = weyl_commutator(a, b, rule)
        anti = weyl_commutator(b, a, rule)
        assert comm == -anti
        if not comm.is_zero():
            assert min(key & MASK for key in comm.terms) >= 1


def test_commutator_jacobi_sampled():
    rng = random.Random(73)
    rule = std_rule(2)
    for _ in range(6):
        a, b, c = (rand_element(rng, CTX1, max_degree=2) for _ in range(3))
        j = weyl_commutator(a, weyl_commutator(b, c, rule), rule) \
            + weyl_commutator(b, weyl_commutator(c, a, rule), rule) \
            + weyl_commutator(c, weyl_commutator(a, b, rule), rule)
        assert j.is_zero()


# -- f_r maps ----------------------------------------------------------------------------

def test_f4_generator_images():
    ctx = WeylContext(n_fields=3, window=3)
    img = f_r_map(4, WeylElement.mode(ctx, 1, 2))
    assert img == WeylElement(ctx, {
        (0, 0, ((1, 2, 1),)): AlgScalar(1),
        (0, 2, ((3, 2, 1),)): AlgScalar(Fraction(-4, 96)),
    })
    assert f_r_map(4, WeylElement.mode(ctx, 2, 1)) == WeylElement.mode(ctx, 2, 1)


def test_f5_generator_images():
    ctx = WeylContext(n_fields=4, window=2)
    assert f_r_map(5, WeylElement.mode(ctx, 3, 1)) == WeylElement.mode(ctx, 3, 1)
    img = f_r_map(5, WeylElement.mode(ctx, 2, 2))
    assert img == WeylElement(ctx, {
        (0, 0, ((2, 2, 1),)): AlgScalar(1),
        (0, 2, ((4, 2, 1),)): AlgScalar(Fraction(-4, 60)),
    })


def test_f4_commutator_instance():
    # f_4([p~^1_m, p~^1_{-m}]) = [f_4 p~^1_m, f_4 p~^1_{-m}] = hbar eps^2 (im)^3/48
    ctx = WeylContext(n_fields=3, window=3)
    rule_std = std_rule(4)
    m = 2
    lhs = f_r_map(4, weyl_commutator(WeylElement.mode(ctx, 1, m),
                                     WeylElement.mode(ctx, 1, -m),
                                     deformed_rule(4)))
    rhs = weyl_commutator(f_r_map(4, WeylElement.mode(ctx, 1, m)),
                          f_r_map(4, WeylElement.mode(ctx, 1, -m)), rule_std)
    expected = AlgScalar(0, 1) ** 3 * Fraction(m ** 3, 48)
    assert lhs == WeylElement(ctx, {(1, 2, ()): expected})
    assert rhs == lhs


def test_f_r_refuses_an_algebra_of_the_wrong_size():
    # f_r maps the r - 1 fields of the r-spin algebra; field 3 of f_4's
    # shift does not exist in two fields, and f_5's shifts differ from f_4's
    for r, n_fields in ((4, 2), (4, 4), (5, 3), (5, 5)):
        with pytest.raises(ValueError, match=f"f_{r} acts on {r - 1} fields"):
            f_r_map(r, WeylElement.mode(WeylContext(n_fields, 3), 1, 2))


@pytest.mark.parametrize("r", [4, 5])
def test_f_r_homomorphism_sampled(r):
    rng = random.Random(100 + r)
    ctx = WeylContext(n_fields=r - 1, window=2)
    rule_def = deformed_rule(r)
    rule_std = std_rule(r)
    for _ in range(15):
        a = rand_element(rng, ctx, max_degree=2)
        b = rand_element(rng, ctx, max_degree=2)
        lhs = f_r_map(r, weyl_star(a, b, rule_def))
        rhs = weyl_star(f_r_map(r, a), f_r_map(r, b), rule_std)
        assert lhs == rhs


# -- classical limit ------------------------------------------------------------------------

def test_classical_limit_drops_hbar():
    ctx = CTX1
    el = WeylElement(ctx, {
        (0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1),
        (1, 0, ()): AlgScalar(0, 1),
    })
    ps = el.classical_limit()
    assert ps == WeylElement(ctx, {(0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1)})


def test_classical_limit_multiplicative():
    rng = random.Random(79)
    rule = std_rule(2)
    for _ in range(8):
        a = rand_element(rng, CTX1, max_degree=2)
        b = rand_element(rng, CTX1, max_degree=2)
        lhs = weyl_star(a, b, rule).classical_limit()
        a0 = WeylElement(CTX1, {k: v for k, v in a.items() if k[0] == 0})
        b0 = WeylElement(CTX1, {k: v for k, v in b.items() if k[0] == 0})
        rhs = weyl_star(a0, b0, rule).classical_limit()
        assert lhs == rhs


def test_g11_lift_round_trip():
    lifted = lf_to_p_series(builtin_g11(3), 2)
    assert lifted.ctx == WeylContext(n_fields=2, window=2)
    assert lifted.terms and all(h == 0 for h, _, _ in q_terms(lifted))
    back = lifted.classical_limit()
    assert back == lifted


def test_images_from_rings_of_different_d_add():
    # the Fourier images are over Q(i) whatever d the ring records
    images = [lf_to_p_series(integrate(DiffPoly.jet(Ring(2, d), 1, 0)
                                       * DiffPoly.jet(Ring(2, d), 2, 0)), 2)
              for d in (1, 3)]
    assert images[0] == images[1]
    assert images[0] + images[1] == images[0].scale(2)


# -- the boundary: coefficients of hbar^h eps^e lie in i^(h+e) Q -----------------------

def test_constructor_and_mode_refuse_coefficients_off_the_lattice():
    i = AlgScalar(0, 1)
    pkey = ((1, -1, 1), (1, 1, 1))
    for h, e, c in ((0, 0, i), (1, 0, AlgScalar(1)), (1, 1, i), (0, 1, 1 + i)):
        with pytest.raises(ValueError, match=rf"hbar\^{h} eps\^{e} p1\[-1\]\*p1\[1\]"):
            WeylElement(CTX1, {(h, e, pkey): c})
    with pytest.raises(ValueError, match=r"hbar\^0 eps\^0 p1\[2\]"):
        WeylElement.mode(CTX1, 1, 2, i)
    with pytest.raises(ValueError):
        WeylElement.mode(CTX1, 1, 2).scale(i)
    # on the lattice, c = q i^(h+e) is stored as q and rendered back as c
    for h, e, c in ((1, 0, i), (1, 1, -1), (1, 2, -2 * i), (2, 2, Fraction(1, 3))):
        el = WeylElement(CTX1, {(h, e, pkey): c})
        assert el.items() == [((h, e, pkey), c)]


def test_constructor_and_scale_refuse_floats():
    # a float keeps its binary value, 0.1 = 3602879701896397/2^55: refused
    pkey = ((1, 1, 1),)
    with pytest.raises(ValueError, match="exact rational"):
        WeylElement(CTX1, {(0, 0, pkey): 0.1})
    with pytest.raises(ValueError, match="exact rational"):
        WeylElement.mode(CTX1, 1, 1).scale(0.5)
    # a string is no exact rational either: "1e-1" is refused, not read as 1/10
    with pytest.raises(ValueError, match="exact rational"):
        WeylElement(CTX1, {(0, 0, pkey): "1e-1"})


def test_p_series_refuses_odd_twist():
    # u u_1 u_1 has derivative degree 2: its image i^2 Q lies on the lattice
    # i^e Q at e = 0 but not at e = 1
    ring = Ring(1)
    u, u1 = DiffPoly.jet(ring, 1, 0), DiffPoly.jet(ring, 1, 1)
    assert not lf_to_p_series(integrate(u * u1 * u1), 2).is_zero()
    with pytest.raises(ValueError, match=r"hbar\^0 eps\^1 p1\[-2\]\*p1\[1\]\^2"):
        lf_to_p_series(integrate((u * u1 * u1).eps_shift(1)), 2)
    # a total derivative of odd twist cancels to zero and is not refused
    assert lf_to_p_series(integrate((u * u * u).dx()), 2).is_zero()


P_SERIES_GOLDEN = Path(__file__).parent / "golden" / "p-series.txt"


def test_p_series_golden():
    lines = []
    for r in (3, 4, 5):
        lines += [f"r={r}", lf_to_p_series(rspin_hamiltonian(gd_context(r), 1, 1), 2).render()]
    assert lines == P_SERIES_GOLDEN.read_text().splitlines()


def test_star_products_do_no_algscalar_arithmetic(monkeypatch):
    rng = random.Random(83)
    ctx = WeylContext(n_fields=3, window=3)
    pairs = [(rand_element(rng, ctx), rand_element(rng, ctx)) for _ in range(5)]

    def refuse(*args):
        raise AssertionError("AlgScalar arithmetic in the star product")

    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__pow__", "inverse"):
        monkeypatch.setattr(AlgScalar, name, refuse)
    for a, b in pairs:
        assert f_r_map(4, weyl_star(a, b, deformed_rule(4))) \
            == weyl_star(f_r_map(4, a), f_r_map(4, b), std_rule(4))


# -- independent oracles: adjacent swaps and the star fold of f_r -----------------------

FEW = settings(max_examples=40, deadline=None)
CTX3 = WeylContext(n_fields=3, window=2)
I = AlgScalar(0, 1)


@st.composite
def weyl_elements(draw, ctx=CTX3, max_power=1):
    """Up to three terms of up to four modes, k = 0 included, with hbar and
    eps; each mode drawn counts up to max_power times."""
    modes = st.tuples(st.integers(1, ctx.n_fields), st.integers(-ctx.window, ctx.window))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        counts: dict = {}
        for mode in draw(st.lists(modes, max_size=4)):
            power = draw(st.integers(1, max_power)) if max_power > 1 else 1
            counts[mode] = counts.get(mode, 0) + power
        h, e = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        key = (h, e, tuple(sorted((a, k, p) for (a, k), p in counts.items())))
        terms[key] = I ** (h + e) * Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return WeylElement(ctx, terms)


def normal_order_by_swaps(word, rule, out, h=0, e=0, q=Fraction(1)):
    """Add q hbar^h eps^e times the word, in any order, to out in normal order.

    Swaps the first adjacent pair (positive, nonpositive) and adds its bracket,
    x y = y x + [x, y], until no positive mode stands left of a nonpositive one.
    """
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x[0] >= 1 and y[0] <= 0:
            normal_order_by_swaps(word[:i] + (y, x) + word[i + 2:], rule, out, h, e, q)
            for hb, eb, qb in rule.bracket(x, y):
                normal_order_by_swaps(word[:i] + word[i + 2:], rule, out,
                                      h + hb, e + eb, q * qb)
            return
    key = (h, e, tuple(sorted(word)))
    out[key] = out.get(key, 0) + q


def q_terms(el) -> dict:
    """The decoded view of an element: (h, e, word) -> q as a Fraction."""
    return ref.decoded(el)


def memo_words(n_fields) -> set:
    """The reorder memo's keys with their packed keys decoded into words."""
    return {(token, ref.word(unpack_key(pos, n_fields)[2]),
             ref.word(unpack_key(nonpos, n_fields)[2]))
            for token, pos, nonpos in quantize._REORDER_MEMO}


def star_by_swaps(a, b, rule):
    out: dict = {}
    for (h1, e1, w1), q1 in q_terms(a).items():
        for (h2, e2, w2), q2 in q_terms(b).items():
            normal_order_by_swaps(w1 + w2, rule, out, h1 + h2, e1 + e2, q1 * q2)
    return {key: q for key, q in out.items() if q}


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@FEW
@given(a=weyl_elements(), b=weyl_elements())
def test_star_matches_adjacent_swaps(make_rule, a, b):
    rule = make_rule(4)
    assert q_terms(weyl_star(a, b, rule)) == star_by_swaps(a, b, rule)


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@pytest.mark.parametrize("r", [4, 5])
@FEW
@given(x=st.tuples(st.integers(-5, 5), st.integers(1, 3)),
       y=st.tuples(st.integers(-5, 5), st.integers(1, 3)))
def test_brackets_vanish_off_cancelling_momenta(make_rule, r, x, y):
    # weyl_star contracts only modes whose momenta cancel; this is why
    if x[0] + y[0]:
        assert make_rule(r).bracket(x, y) == []


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_the_standard_rule_is_the_eps_free_deformed_rule(r):
    # one bracket serves both rules: eta^{ab} as the j = 0 constants
    eta = eta_matrix(r)
    standard = StandardRule.from_eta(eta)
    deformed = DeformedRule(r - 1, standard.constants)
    assert standard.token != deformed.token and standard.scale == deformed.scale
    modes = [(k, a) for k in range(-4, 5) for a in range(1, r)]
    for k, a in modes:
        for j, b in modes:
            expected = [(1, 0, k * eta[a - 1][b - 1])] if k + j == 0 and eta[a - 1][b - 1] \
                else []
            assert standard.bracket((k, a), (j, b)) == expected
            assert deformed.bracket((k, a), (j, b)) == expected
    ctx = WeylContext(n_fields=r - 1, window=4)
    rng = random.Random(f"standard-as-deformed:{r}")
    for _ in range(10):
        x, y = rand_element(rng, ctx, 4), rand_element(rng, ctx, 4)
        assert weyl_star(x, y, standard) == weyl_star(x, y, deformed)


def f_r_by_star_fold(r, a):
    """f_r as first defined: the standard star product of the generator
    images, folded over each word in normal order."""
    ctx, rule = a.ctx, std_rule(r)

    def image(k, alpha):
        out = WeylElement.mode(ctx, alpha, k)
        if alpha in DR_DZ_SHIFTS[r] and k:
            beta, c = DR_DZ_SHIFTS[r][alpha]
            out = out + WeylElement(ctx, {(0, 2, ((beta, k, 1),)): -c * k * k})
        return out

    total = WeylElement(ctx)
    for (h, e, pkey), c in a.items():
        acc = WeylElement(ctx, {(h, e, ()): c})
        for k, alpha in sorted((k, alpha) for alpha, k, p in pkey for _ in range(p)):
            acc = weyl_star(acc, image(k, alpha), rule)
        total = total + acc
    return total


@pytest.mark.parametrize("r, window", [(4, 2), (4, 3), (5, 2), (5, 3)])
def test_f_r_matches_the_star_fold(r, window, monkeypatch):
    rng = random.Random(f"f_r-fold:{r}:{window}")
    ctx = WeylContext(n_fields=r - 1, window=window)
    rule = deformed_rule(r)
    samples = []
    for _ in range(8):
        a, b = rand_element(rng, ctx, max_degree=4), rand_element(rng, ctx, max_degree=4)
        samples += [a, weyl_star(a, b, rule)]  # products carry hbar, eps and i
    expected = [f_r_by_star_fold(r, x) for x in samples]

    def refuse(*args):
        raise AssertionError("f_r multiplied with a star product")

    monkeypatch.setattr(quantize, "weyl_star", refuse)
    monkeypatch.setattr(quantize, "_reorder", refuse)
    assert [f_r_map(r, x) for x in samples] == expected


# -- work counts: only the modes whose momenta cancel are contracted ------------------------


def test_products_without_cancelling_momenta_do_no_reordering(monkeypatch):
    ctx = WeylContext(n_fields=3, window=3)
    rules = (std_rule(4), deformed_rule(4))
    a = WeylElement(ctx, {(0, 0, ((1, 1, 1), (2, 2, 2), (3, -1, 1))): AlgScalar(2),
                          (1, 0, ((1, 3, 1),)): AlgScalar(0, 1)})
    # a's positive momenta are 1, 2 and 3: p3[-3] cancels p1[3], p3[0] cancels none
    b = WeylElement(ctx, {(0, 0, ((1, 0, 1), (2, 2, 1), (3, -3, 1))): AlgScalar(3)})
    b_far = WeylElement(ctx, {(0, 0, ((1, 0, 1), (2, 2, 1), (3, 0, 1))): AlgScalar(3)})

    def refuse(*args):
        raise AssertionError("bracket of modes whose momenta do not cancel")

    with monkeypatch.context() as patch:
        patch.setattr(quantize, "_REORDER_MEMO", {})
        for rule in rules:
            patch.setattr(type(rule), "bracket", refuse)
        for rule in rules:
            assert weyl_star(a, b_far, rule) == weyl_star(b_far, a, rule)
        assert quantize._REORDER_MEMO == {}

    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    assert weyl_star(a, b, rules[0]) != weyl_star(b, a, rules[0])
    assert memo_words(3) == {(rules[0].token, ((3, 1),), ((-3, 3),))}


def momenta_met(a, b) -> set:
    """The numbers of momenta at which the terms of a contract with those of b."""
    return {len({k for k, _ in w1 if k >= 1} & {-k for k, _ in w2})
            for _, _, w1 in q_terms(a) for _, _, w2 in q_terms(b)}


def cancelling_momenta(a, b) -> int:
    """The most momenta at which a term of a contracts with a term of b."""
    return max(momenta_met(a, b), default=0)


def test_reorder_memo_keys_hold_only_contracting_modes(monkeypatch):
    # a pair that contracts at several momenta fills one entry per momentum:
    # modes of different |k| commute
    rng = random.Random(89)
    ctx = WeylContext(n_fields=3, window=2)
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    most = 0
    for rule in (std_rule(4), deformed_rule(4)):
        for _ in range(20):
            a, b = rand_element(rng, ctx, max_degree=5), rand_element(rng, ctx, max_degree=5)
            assert q_terms(weyl_star(a, b, rule)) == star_by_swaps(a, b, rule)
            most = max(most, cancelling_momenta(a, b))
    assert most >= 2 and quantize._REORDER_MEMO
    for _, pos, nonpos in memo_words(3):
        assert all(k >= 1 for k, _ in pos) and all(k <= 0 for k, _ in nonpos)
        assert len({k for k, _ in pos}) == 1
        assert {k for k, _ in pos} == {-k for k, _ in nonpos}


@st.composite
def multi_block_pairs(draw, ctx):
    """Two elements, each with one term that holds a mode +k (left) or -k
    (right) for each of two or three momenta k, plus random terms."""
    momenta = draw(st.lists(st.integers(1, ctx.window), min_size=2, max_size=3, unique=True))
    fields = st.integers(1, ctx.n_fields)
    modes = st.tuples(fields, st.integers(-ctx.window, ctx.window))
    out = []
    for sign in (1, -1):
        counts: dict = {}
        for mode in [(draw(fields), sign * k) for k in momenta] + draw(st.lists(modes, max_size=2)):
            counts[mode] = counts.get(mode, 0) + draw(st.integers(1, 2))
        h, e = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        key = (h, e, tuple(sorted((a, k, p) for (a, k), p in counts.items())))
        q = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 2)))
        terms = dict(draw(weyl_elements(ctx, 2)).items())
        terms[key] = I ** (h + e) * q
        out.append(WeylElement(ctx, terms))
    return out


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pairs_that_cancel_at_several_momenta_match_the_reference(make_rule, r, data):
    ctx, rule = WeylContext(r - 1, data.draw(st.integers(2, 4))), make_rule(r)
    a, b = data.draw(multi_block_pairs(ctx))
    assert cancelling_momenta(a, b) >= 2
    assert q_terms(weyl_star(a, b, rule)) == ref.star(q_terms(a), q_terms(b), rule)


def test_a_product_leaves_its_factors_as_they_were():
    rng = random.Random(103)
    ctx = WeylContext(n_fields=3, window=3)
    a, b, c = (rand_element(rng, ctx, 4) for _ in range(3))
    before = [(dict(x.terms), x.den, x.items()) for x in (a, b, c)]
    for rule in (std_rule(4), deformed_rule(4)):
        weyl_star(a, b, rule)
        weyl_star(b, c, rule)
        assert q_terms(weyl_star(a, a, rule)) == star_by_swaps(a, a, rule)
    for x, (terms, den, items) in zip((a, b, c), before):
        fresh = WeylElement(ctx, dict(items))
        assert x.terms == terms and x.den == den and x.items() == items
        assert x == fresh and hash(x) == hash(fresh)


class CountingMemo(dict):
    """A reorder memo that counts its reads."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_warm_pair_reads_the_memo_once_per_cancelling_momentum(make_rule, m, monkeypatch):
    # p1[1] p2[2] p3[3] against p3[-1] p2[-2] p1[-3], cut to m momenta
    ctx, rule = WeylContext(n_fields=3, window=3), make_rule(4)
    a = WeylElement(ctx, {(0, 0, tuple((k, k, 1) for k in range(1, m + 1))): 2})
    b = WeylElement(ctx, {(0, 0, tuple(sorted((4 - k, -k, 1) for k in range(1, m + 1)))): 3})
    assert cancelling_momenta(a, b) == m
    memo = CountingMemo()
    monkeypatch.setattr(quantize, "_REORDER_MEMO", memo)
    cold = weyl_star(a, b, rule)
    assert q_terms(cold) == star_by_swaps(a, b, rule) and len(memo) == m
    memo.reads = 0
    assert weyl_star(a, b, rule) == cold
    assert memo.reads == m


# -- the canonical form: int numerators over one denominator in lowest terms ---------------


@st.composite
def densities(draw, ring=Ring(CTX3.n_fields)):
    """eps-free rational densities of up to three monomials in u^alpha_order."""
    items = []
    for _ in range(draw(st.integers(0, 3))):
        jets = draw(st.lists(st.tuples(st.integers(1, ring.n_fields), st.integers(0, 2),
                                       st.integers(1, 2)), min_size=1, max_size=3))
        items.append(((0, tuple(jets)), Fraction(draw(st.integers(-3, 3)),
                                                 draw(st.integers(1, 4)))))
    return DiffPoly.from_items(ring, items)


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(n) is int and n for n in x.terms.values())
    assert gcd(x.den, *x.terms.values()) == 1  # den == 1 for zero


def test_constructor_adds_terms_that_meet_on_one_word():
    # p1[1]*p1[1] and p1[1]^2 are one word: 1/2 + 1/2 leaves no factor 2
    twice, squared, half = ((1, 1, 1), (1, 1, 1)), ((1, 1, 2),), Fraction(1, 2)
    x = WeylElement(CTX1, {(0, 0, twice): half, (0, 0, squared): half,
                           (0, 0, ((1, -1, 1),)): 3})
    assert (x.den, q_terms(x)) == (1, {(0, 0, ((1, 1), (1, 1))): 1, (0, 0, ((-1, 1),)): 3})
    zero = WeylElement(CTX1, {(0, 0, twice): half, (0, 0, squared): -half})
    assert (zero.den, zero.terms) == (1, {})


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@FEW
@given(a=weyl_elements(), b=weyl_elements(),
       s=st.fractions(min_value=-4, max_value=4, max_denominator=6), density=densities())
def test_every_route_gives_the_canonical_form(make_rule, a, b, s, density):
    rule = make_rule(4)
    image = lf_to_p_series(eps_dress(integrate(density)), CTX3.window)
    made = [a, b, a + b, a - b, -a, a - a, a.scale(s), weyl_star(a, b, rule),
            weyl_star(weyl_star(a, b, rule), a, rule), f_r_map(4, a),
            f_r_map(4, weyl_star(a, b, deformed_rule(4))), a.classical_limit(),
            weyl_star(a, b, rule).classical_limit(), image, image.scale(s)]
    for x in made:
        assert_canonical(x)
    # equal values built by different routes are equal structurally
    routes = [((a + b) - b, a), (a + a, a.scale(2)), (a - a, WeylElement(CTX3)),
              (weyl_star(a, b, rule).scale(s), weyl_star(a.scale(s), b, rule)),
              (f_r_map(4, weyl_star(a, b, deformed_rule(4))),
               weyl_star(f_r_map(4, a), f_r_map(4, b), std_rule(4))),
              (image.scale(s) + image, image.scale(s + 1))]
    routes += [(WeylElement(x.ctx, dict(x.items())), x) for x in made]
    for x, y in routes:
        assert x == y and hash(x) == hash(y)


def test_warm_star_products_do_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(97)
    ctx = WeylContext(n_fields=3, window=3)
    pairs = [(rand_element(rng, ctx, max_degree=4), rand_element(rng, ctx, max_degree=4))
             for _ in range(6)]
    rules = (std_rule(4), deformed_rule(4))
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})

    def products():
        return [(weyl_star(a, b, rules[0]), weyl_star(a, b, rules[1]), f_r_map(4, b))
                for a, b in pairs]

    warm = products()  # fills the memo: brackets are Fractions, read once

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the warm star path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert products() == warm


def test_warm_star_products_call_no_reorder(monkeypatch):
    # every block order comes from the memo once it is there: a pair that
    # cancels at one momentum and one that cancels at several call
    # _reorder only on a miss
    rng = random.Random(107)
    ctx = WeylContext(n_fields=3, window=2)
    pairs = [(rand_element(rng, ctx, max_degree=5), rand_element(rng, ctx, max_degree=5))
             for _ in range(12)]
    # p1[1] p2[2] meets p2[-1] p3[-2] at momenta 1 and 2, and p1[-1] at 1
    pairs.append((WeylElement(ctx, {(0, 0, ((1, 1, 1), (2, 2, 1))): 2,
                                    (1, 0, ((3, 1, 2),)): I}),
                  WeylElement(ctx, {(0, 0, ((2, -1, 1), (3, -2, 1))): 3,
                                    (0, 1, ((1, -1, 1),)): -I})))
    assert {1, 2} <= set().union(*(momenta_met(a, b) for a, b in pairs))
    rules = (std_rule(4), deformed_rule(4))
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    first = [weyl_star(a, b, rule) for a, b in pairs for rule in rules]

    def refuse(*args):
        raise AssertionError("_reorder called on a warm memo")

    monkeypatch.setattr(quantize, "_reorder", refuse)
    fresh = [(WeylElement(ctx, dict(a.items())), WeylElement(ctx, dict(b.items())))
             for a, b in pairs]
    for replay in (pairs, fresh):  # the same elements and equal ones built anew
        assert [weyl_star(a, b, rule) for a, b in replay for rule in rules] == first


def test_a_bracket_the_scale_does_not_clear_is_refused(monkeypatch):
    # the memo holds numerators over a power of the rule's scale (48 for the
    # deformed r = 4 rule); a bracket value off that lattice is no numerator
    bracket = quantize.DeformedRule.bracket
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    monkeypatch.setattr(quantize.DeformedRule, "bracket",
                        lambda rule, x, y: [(h, e, q / 7) for h, e, q in bracket(rule, x, y)])
    ctx = WeylContext(n_fields=3, window=3)
    with pytest.raises(ValueError, match="does not divide the scale 48"):
        weyl_star(WeylElement.mode(ctx, 1, 2), WeylElement.mode(ctx, 3, -2), deformed_rule(4))


# -- the packed kernel against the tuple-word reference ----------------------------------


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_kernel_matches_the_reference(make_rule, data):
    # windows 1-5 share one memo; repeated modes contract with multiplicity;
    # r = 2..5 puts N = 1..4 fields in each momentum block
    r, window = data.draw(st.sampled_from((2, 3, 4, 5))), data.draw(st.integers(1, 5))
    ctx, rule = WeylContext(r - 1, window), make_rule(r)
    a, b = data.draw(weyl_elements(ctx, 3)), data.draw(weyl_elements(ctx, 3))
    ab = weyl_star(a, b, rule)
    assert q_terms(ab) == ref.star(q_terms(a), q_terms(b), rule)
    if r >= 4:  # f_r is defined for r = 4, 5
        assert q_terms(f_r_map(r, ab)) == ref.f_r(r, q_terms(ab))
        assert q_terms(f_r_map(r, a)) == ref.f_r(r, q_terms(a))


def test_products_and_f_r_decode_no_key(monkeypatch):
    rng = random.Random(101)
    ctx = WeylContext(n_fields=3, window=3)
    pairs = [(rand_element(rng, ctx, 4), rand_element(rng, ctx, 4)) for _ in range(8)]
    rules = (std_rule(4), deformed_rule(4))

    def products():
        return [(weyl_star(a, b, rule), f_r_map(4, a)) for a, b in pairs for rule in rules]

    expected = products()

    def refuse(*args):
        raise AssertionError("a key decoded on the product path")

    monkeypatch.setattr(quantize, "unpack_key", refuse)
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    assert products() == expected  # cold memo
    assert products() == expected  # warm memo


# -- boundary refusals of the packed keys --------------------------------------------------


def test_a_window_beyond_the_top_slot_is_refused():
    # the top mode slot is 2 + (2 window + 1) n - 1
    assert WeylContext(2, 1023) and WeylContext(4, 511)
    for n, window in ((2, 1024), (4, 512), (1, 100000)):
        with pytest.raises(ValueError, match="above 4095"):
            WeylContext(n, window)


@pytest.mark.parametrize("key", [
    (-1, 0, ()), (0, -1, ()), (32768, 0, ()), (0, 32768, ((1, 1, 1),)),
    (0, 0, ((1, 1, 0),)), (0, 0, ((1, 1, 32768),)),
    (0, 0, ((1, -1, 20000), (1, -1, 20000))),
    (0, 0, ((1, 1, 30000), (1, 1, 30000), (1, 1, 30000))),
])
def test_the_constructor_refuses_exponents_outside_the_slots(key):
    with pytest.raises(ValueError):
        WeylElement(CTX1, {key: 1})


def test_top_exponents_are_held():
    top = WeylElement(CTX1, {(32767, 32767, ((1, -3, 32767), (1, 3, 32767))): 1})
    assert [key for key, _ in top.items()] == [(32767, 32767, ((1, -3, 32767), (1, 3, 32767)))]


@pytest.mark.parametrize("left, right", [
    ((0, 0, ((1, 2, 20000),)), (0, 0, ((1, 2, 20000),))),        # a mode count
    ((20000, 0, ((1, 1, 1),)), (20000, 0, ((1, -2, 1),))),        # hbar, no contraction
    ((20000, 0, ((1, 1, 1),)), (20000, 0, ((1, -1, 1),))),        # hbar, contracted
    ((32767, 0, ((1, 1, 1),)), (0, 0, ((1, -1, 1),))),            # the bracket's hbar
    ((32766, 0, ((1, 1, 1), (1, 2, 1))), (0, 0, ((1, -2, 1), (1, -1, 1)))),  # two blocks' hbar
])
def test_a_product_that_overflows_a_slot_is_refused(left, right):
    rule = std_rule(2)
    a, b = (WeylElement(CTX1, {key: I ** (key[0] + key[1])}) for key in (left, right))
    with pytest.raises(ValueError, match="exceeds 32767"):
        weyl_star(a, b, rule)


def test_a_bracket_that_overflows_eps_is_refused():
    # [p1[1], p1[-1]] carries eps^2 under the deformed r = 4 rule
    ctx = WeylContext(n_fields=3, window=2)
    a = WeylElement(ctx, {(0, 32766, ((1, 1, 1),)): I ** 32766})
    b = WeylElement.mode(ctx, 1, -1)
    assert weyl_star(b, a, deformed_rule(4)).terms
    with pytest.raises(ValueError, match="exceeds 32767"):
        weyl_star(a, b, deformed_rule(4))
    # contracted at two momenta: one block stays at eps^32766, both pass it
    b = WeylElement(ctx, {(0, 0, ((1, -2, 1), (1, -1, 1))): 1})
    for modes in (((1, 1, 1), (2, 2, 1)), ((1, 2, 1), (2, 1, 1))):
        assert weyl_star(WeylElement(ctx, {(0, 32764, modes): I ** 32764}), b,
                         deformed_rule(4)).terms
    a = WeylElement(ctx, {(0, 32764, ((1, 1, 1), (1, 2, 1))): I ** 32764})
    assert weyl_star(b, a, deformed_rule(4)).terms
    with pytest.raises(ValueError, match="exceeds 32767"):
        weyl_star(a, b, deformed_rule(4))


def test_f_r_expands_any_power_of_a_shifted_mode():
    # one binomial row per occupied shifted slot, built for the power it holds
    ctx = WeylContext(n_fields=3, window=2)
    for power in (1, 2, 9, 300):
        x = WeylElement(ctx, {(0, 1, ((1, -1, 1), (1, 2, power), (2, 1, 3))): I})
        assert q_terms(f_r_map(4, x)) == ref.f_r(4, q_terms(x))


def test_an_f_r_image_that_overflows_a_slot_is_refused():
    ctx = WeylContext(n_fields=3, window=2)
    # field 2 has no shift; field 1 trades p1[1] for eps^2 p3[1]
    assert f_r_map(4, WeylElement(ctx, {(0, 32767, ((2, 1, 1),)): I ** 32767})).terms
    for key in ((0, 32766, ((1, 1, 1),)), (0, 0, ((1, 1, 1), (3, 1, 32767)))):
        with pytest.raises(ValueError, match="exceeds 32767"):
            f_r_map(4, WeylElement(ctx, {key: I ** key[1]}))
