import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhier import quantize
from drhier.diffpoly import DiffPoly, Ring, integrate
from drhier.drspin import DR_DZ_SHIFTS, builtin_g11
from drhier.gdhier import eta_matrix, rspin_hamiltonian, rspin_operator
from drhier.quantize import (
    DeformedRule,
    StandardRule,
    WeylContext,
    WeylElement,
    f_r_map,
    lf_to_p_series,
    weyl_commutator,
    weyl_star,
)
from drhier.scalars import AlgScalar

CTX1 = WeylContext(n_fields=1, window=3)


def std_rule(r):
    return StandardRule.from_eta(eta_matrix(r))


from conftest import ctx_for


def deformed_rule(r):
    return DeformedRule.from_operator(rspin_operator(ctx_for(r)))


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
            assert comm.hbar_order() >= 1


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
    assert lifted.terms and all(h == 0 for h, _, _ in lifted.terms)
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
    assert WeylElement(CTX1, {(0, 0, pkey): "1e-1"}) == \
        WeylElement(CTX1, {(0, 0, pkey): Fraction(1, 10)})


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
        lines += [f"r={r}", lf_to_p_series(rspin_hamiltonian(ctx_for(r), 1, 1), 2).render()]
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
def weyl_elements(draw, ctx=CTX3):
    """Up to three terms of up to four modes, k = 0 included, with hbar and eps."""
    modes = st.tuples(st.integers(1, ctx.n_fields), st.integers(-ctx.window, ctx.window))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        counts: dict = {}
        for mode in draw(st.lists(modes, max_size=4)):
            counts[mode] = counts.get(mode, 0) + 1
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


def star_by_swaps(a, b, rule):
    out: dict = {}
    for (h1, e1, w1), q1 in a.terms.items():
        for (h2, e2, w2), q2 in b.terms.items():
            normal_order_by_swaps(w1 + w2, rule, out, h1 + h2, e1 + e2, q1 * q2)
    return {key: q for key, q in out.items() if q}


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@FEW
@given(a=weyl_elements(), b=weyl_elements())
def test_star_matches_adjacent_swaps(make_rule, a, b):
    rule = make_rule(4)
    assert weyl_star(a, b, rule).terms == star_by_swaps(a, b, rule)


@pytest.mark.parametrize("make_rule", [std_rule, deformed_rule])
@pytest.mark.parametrize("r", [4, 5])
@FEW
@given(x=st.tuples(st.integers(-5, 5), st.integers(1, 3)),
       y=st.tuples(st.integers(-5, 5), st.integers(1, 3)))
def test_brackets_vanish_off_cancelling_momenta(make_rule, r, x, y):
    # weyl_star contracts only modes whose momenta cancel; this is why
    if x[0] + y[0]:
        assert make_rule(r).bracket(x, y) == []


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
    assert set(quantize._REORDER_MEMO) == {(rules[0].token, ((3, 1),), ((-3, 3),))}


def test_reorder_memo_keys_hold_only_contracting_modes(monkeypatch):
    rng = random.Random(89)
    ctx = WeylContext(n_fields=3, window=2)
    monkeypatch.setattr(quantize, "_REORDER_MEMO", {})
    for rule in (std_rule(4), deformed_rule(4)):
        for _ in range(20):
            a, b = rand_element(rng, ctx, max_degree=5), rand_element(rng, ctx, max_degree=5)
            assert weyl_star(a, b, rule).terms == star_by_swaps(a, b, rule)
    assert quantize._REORDER_MEMO
    for _, pos, nonpos in quantize._REORDER_MEMO:
        assert all(k >= 1 for k, _ in pos) and all(k <= 0 for k, _ in nonpos)
        assert {k for k, _ in pos} == {-k for k, _ in nonpos}
