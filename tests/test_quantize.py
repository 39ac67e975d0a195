import random
from fractions import Fraction
from pathlib import Path

import pytest

from drhier import quantize
from drhier.drspin import builtin_g11
from drhier.gdhier import eta_matrix, rspin_operator
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
    assert prod.terms == {
        (0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1),
        (1, 0, ()): AlgScalar(0, 1),
    }


def test_star_already_normal():
    rule = std_rule(2)
    a = WeylElement.mode(CTX1, 1, -1)
    b = WeylElement.mode(CTX1, 1, 1)
    prod = weyl_star(a, b, rule)
    assert prod.terms == {(0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1)}


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
        direct = {}
        for (_, e1, k1), c1 in a.classical_limit().terms.items():
            for (_, e2, k2), c2 in b.classical_limit().terms.items():
                counts = {}
                for alpha, k, p in k1 + k2:
                    counts[(alpha, k)] = counts.get((alpha, k), 0) + p
                key = (0, e1 + e2,
                       tuple(sorted((a_, k_, p_) for (a_, k_), p_ in counts.items())))
                direct[key] = direct.get(key, AlgScalar(0)) + c1 * c2
        direct = {k: v for k, v in direct.items() if v}
        assert classical.terms == direct


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
    assert comm.terms == {(1, 0, ()): AlgScalar(0, 1)}


def test_commutator_deformed_r4_dispersionless_entry():
    rule = deformed_rule(4)
    ctx = WeylContext(n_fields=3, window=3)
    for m in (1, 2, 3):
        comm = weyl_commutator(WeylElement.mode(ctx, 1, m),
                               WeylElement.mode(ctx, 3, -m), rule)
        assert comm.terms == {(1, 0, ()): AlgScalar(0, m)}


def test_commutator_deformed_r4_dispersive_entry():
    # [p~^1_m, p~^1_{-m}] = hbar eps^2 (im)^3 / 48
    rule = deformed_rule(4)
    ctx = WeylContext(n_fields=3, window=3)
    for m in (1, 2, 3):
        comm = weyl_commutator(WeylElement.mode(ctx, 1, m),
                               WeylElement.mode(ctx, 1, -m), rule)
        expected = AlgScalar(0, 1) ** 3 * Fraction(m ** 3, 48)
        assert comm.terms == {(1, 2, ()): expected}


def test_commutator_deformed_r5_entries():
    rule = deformed_rule(5)
    ctx = WeylContext(n_fields=4, window=2)
    comm = weyl_commutator(WeylElement.mode(ctx, 1, 2),
                           WeylElement.mode(ctx, 2, -2), rule)
    expected = AlgScalar(0, 1) ** 3 * Fraction(8, 30)
    assert comm.terms == {(1, 2, ()): expected}
    comm2 = weyl_commutator(WeylElement.mode(ctx, 2, 1),
                            WeylElement.mode(ctx, 3, -1), rule)
    assert comm2.terms == {(1, 0, ()): AlgScalar(0, 1)}


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
    assert img.terms == {
        (0, 0, ((1, 2, 1),)): AlgScalar(1),
        (0, 2, ((3, 2, 1),)): AlgScalar(Fraction(-4, 96)),
    }
    assert f_r_map(4, WeylElement.mode(ctx, 2, 1)) == WeylElement.mode(ctx, 2, 1)


def test_f5_generator_images():
    ctx = WeylContext(n_fields=4, window=2)
    assert f_r_map(5, WeylElement.mode(ctx, 3, 1)) == WeylElement.mode(ctx, 3, 1)
    img = f_r_map(5, WeylElement.mode(ctx, 2, 2))
    assert img.terms == {
        (0, 0, ((2, 2, 1),)): AlgScalar(1),
        (0, 2, ((4, 2, 1),)): AlgScalar(Fraction(-4, 60)),
    }


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
    assert lhs.terms == {(1, 2, ()): expected}
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
    assert ps.terms == {(0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1)}


def test_classical_limit_multiplicative():
    rng = random.Random(79)
    rule = std_rule(2)
    for _ in range(8):
        a = rand_element(rng, CTX1, max_degree=2)
        b = rand_element(rng, CTX1, max_degree=2)
        lhs = weyl_star(a, b, rule).classical_limit()
        a0 = WeylElement(CTX1, {k: v for k, v in a.terms.items() if k[0] == 0})
        b0 = WeylElement(CTX1, {k: v for k, v in b.terms.items() if k[0] == 0})
        rhs = weyl_star(a0, b0, rule).classical_limit()
        assert lhs.terms == rhs.terms


def test_g11_lift_round_trip():
    lifted = lf_to_p_series(builtin_g11(3), 2)
    assert lifted.ctx == WeylContext(n_fields=2, window=2, d=3)
    assert lifted.terms and all(h == 0 for h, _, _ in lifted.terms)
    back = lifted.classical_limit()
    assert back == lifted
