"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s or -v to see
them); the assertions are the gate.  Reference expressions are
transcribed exact closed forms; everything else is computed.
"""

import random
from fractions import Fraction

import pytest

from conftest import ctx_for

from drhier.diffpoly import DiffPoly, Ring, integrate, local_eq
from drhier.drspin import (
    DRPolynomial,
    IntegralTable,
    Profile,
    TautMonomial,
    assemble_hamiltonian,
    builtin_g11,
    enumerate_profiles,
    hain_expand,
    pair_with_table,
)
from drhier.gdhier import (
    eta_matrix,
    gd_flow,
    gd_flow_via_hamiltonian,
    gd_hamiltonian,
    gd_operator,
    rspin_hamiltonian,
    rspin_operator,
    rspin_system,
)
from drhier.hamops import HamiltonianOperator, bracket, flow
from drhier.psido import PseudoDiffOp, pdo_root
from drhier.quantize import (
    DeformedRule,
    StandardRule,
    WeylContext,
    WeylElement,
    f_r_map,
    weyl_commutator,
    weyl_star,
)
from drhier.reconstruct import (
    Bounds,
    check_string_dilaton,
    integrate_flows_directly,
    omega_from_gd,
    solutions_agree,
    special_solution,
    verify_dr_dz_equivalence,
)
from drhier.scalars import AlgScalar


def report(n, label):
    print(f"ACCEPTANCE {n} PASS: {label}")


# -- reference data (transcribed exact tables) ---------------------------------------


def reference_h_spin(r, ring):
    w = {a: DiffPoly.jet(ring, a, 0) for a in range(1, r)}

    def d(a, k):
        return DiffPoly.jet(ring, a, k)

    def e(x, k):
        return x.eps_shift(k)

    if r == 2:
        return integrate(w[1] ** 3 / 6 + e(w[1] * d(1, 2), 2) / 24)
    if r == 3:
        return integrate(
            w[2] ** 4 / 36 + w[2] * w[1] ** 2 / 2
            + e(w[2] ** 2 * d(2, 2) / 48 + w[1] * d(1, 2) / 12, 2)
            + e(w[2] * d(2, 4) / 432, 4))
    if r == 4:
        return integrate(
            w[1] * w[2] ** 2 / 2 + w[1] ** 2 * w[3] / 2
            + w[2] ** 2 * w[3] ** 2 / 8 + w[3] ** 5 / 320
            + e(w[1] * d(1, 2) / 8 + w[1] * w[3] * d(3, 2) / 48
                + w[1] * d(3, 1) ** 2 / 32 + w[2] * w[3] * d(2, 2) / 12
                + w[3] * d(2, 1) ** 2 / 48 + w[3] ** 3 * d(3, 2) / 64
                + w[3] ** 2 * d(3, 1) ** 2 / 32, 2)
            + e(w[2] * d(2, 4) / 160 + w[1] * d(3, 4) / 480
                + Fraction(5, 4608) * w[3] ** 2 * d(3, 4), 4)
            + e(w[3] * d(3, 6) / 11520, 6))
    if r == 5:
        return integrate(
            w[1] ** 2 * w[4] / 2 + w[1] * w[2] * w[3] + w[2] ** 3 / 6
            + w[2] ** 2 * w[4] ** 2 / 10 + w[2] * w[3] ** 2 * w[4] / 5
            + w[3] ** 4 / 30 + w[3] ** 2 * w[4] ** 3 / 50 + w[4] ** 6 / 3750
            + e(d(4, 2) * w[4] ** 4 / 1200 + d(4, 2) * w[2] * w[4] ** 2 / 100
                + d(3, 2) * w[3] * w[4] ** 2 / 50 + d(2, 1) ** 2 * w[4] / 120
                + d(4, 2) * w[3] ** 2 * w[4] / 100
                + d(4, 1) ** 2 * w[2] * w[4] / 50 + d(2, 2) * w[2] * w[4] / 12
                + d(1, 2) * w[3] * w[4] / 30 + d(1, 2) * w[1] / 6
                + d(3, 1) * d(4, 1) * w[1] / 30 + d(3, 1) ** 2 * w[2] / 10
                + Fraction(2, 15) * d(3, 2) * w[2] * w[3], 2)
            + e(d(4, 4) * w[4] ** 3 / 14400
                + Fraction(49, 72000) * d(4, 2) ** 2 * w[4] ** 2
                + Fraction(13, 1800) * d(3, 2) ** 2 * w[4]
                + Fraction(7, 900) * d(3, 1) * d(3, 3) * w[4]
                + d(4, 4) * w[2] * w[4] / 300 + d(3, 4) * w[3] * w[4] / 180
                + d(3, 4) * w[1] / 150 + d(4, 2) ** 2 * w[2] / 120
                + Fraction(7, 600) * d(2, 4) * w[2]
                + Fraction(7, 600) * d(4, 1) * d(4, 3) * w[2], 4)
            + e(Fraction(178, 10125) * w[4] * d(4, 3) ** 2
                - Fraction(589, 135000) * d(4, 6) * w[4] ** 2
                + d(4, 6) * w[2] / 4500 + d(3, 6) * w[3] / 3000
                + Fraction(1069, 40500) * d(4, 2) * d(4, 4) * w[4], 6)
            + e(d(4, 8) * w[4] / 337500, 8))
    raise ValueError(r)


def reference_k_spin(r, ring):
    dx = PseudoDiffOp.dx(ring)
    z = PseudoDiffOp.finite(ring)

    def disp(denom):
        return PseudoDiffOp.finite(ring, {3: DiffPoly.const(ring, Fraction(1, denom))
                                         .eps_shift(2)})

    if r == 2:
        return HamiltonianOperator(ring, [[dx]])
    if r == 3:
        return HamiltonianOperator(ring, [[z, dx], [dx, z]])
    if r == 4:
        return HamiltonianOperator(ring, [[disp(48), z, dx],
                                          [z, dx, z], [dx, z, z]])
    if r == 5:
        return HamiltonianOperator(ring, [[z, disp(30), z, dx],
                                          [disp(30), z, dx, z],
                                          [z, dx, z, z], [dx, z, z, z]])
    raise ValueError(r)


REFERENCE_PROFILES = {
    3: [(0, (0, 4)), (0, (2, 1)), (1, (0, 3)), (1, (2, 0)), (2, (0, 2))],
    4: [(0, (0, 0, 5)), (0, (0, 2, 2)), (0, (1, 0, 3)), (0, (1, 2, 0)),
        (0, (2, 0, 1)), (1, (0, 0, 4)), (1, (0, 2, 1)), (1, (1, 0, 2)),
        (1, (2, 0, 0)), (2, (0, 0, 3)), (2, (0, 2, 0)), (2, (1, 0, 1)),
        (3, (0, 0, 2))],
    5: [(0, (0, 0, 0, 6)), (0, (0, 0, 2, 3)), (0, (0, 0, 4, 0)),
        (0, (0, 1, 0, 4)), (0, (0, 1, 2, 1)), (0, (0, 2, 0, 2)),
        (0, (0, 3, 0, 0)), (0, (1, 0, 1, 2)), (0, (1, 1, 1, 0)),
        (0, (2, 0, 0, 1)), (1, (0, 0, 0, 5)), (1, (0, 0, 2, 2)),
        (1, (0, 1, 0, 3)), (1, (0, 1, 2, 0)), (1, (0, 2, 0, 1)),
        (1, (1, 0, 1, 1)), (1, (2, 0, 0, 0)), (2, (0, 0, 0, 4)),
        (2, (0, 0, 2, 1)), (2, (0, 1, 0, 2)), (2, (0, 2, 0, 0)),
        (2, (1, 0, 1, 0)), (3, (0, 0, 0, 3)), (3, (0, 0, 2, 0)),
        (3, (0, 1, 0, 1)), (4, (0, 0, 0, 2))],
}


# -- criterion 1: the 2-spin chain ---------------------------------------------------------


def test_criterion_1_two_spin_chain():
    ctx = ctx_for(2)
    f = ctx.f_var(0)
    res = ctx.lax_power(5).residue()
    reference_res = (5 * f ** 3 / 16 + 5 * f.dx() ** 2 / 32
                   + 5 * f * f.dx_pow(2) / 16 + f.dx_pow(4) / 32)
    assert res == reference_res
    K, h = rspin_system(ctx, 1, 1)
    assert K == reference_k_spin(2, ctx.ring_w)
    assert local_eq(h, reference_h_spin(2, ctx.ring_w))
    report(1, "res L^{5/2}, K^{2-spin} and h^{2-spin}_{1,1} match the "
              "reference 2-spin closed forms exactly")


# -- criterion 2: reference tables for r = 3, 4, 5 ----------------------------------------------


@pytest.mark.parametrize("r", [3, 4, 5])
def test_criterion_2_reference_tables(r):
    ctx = ctx_for(r)
    K, h = rspin_system(ctx, 1, 1)
    assert K == reference_k_spin(r, ctx.ring_w)
    reference = reference_h_spin(r, ctx.ring_w)
    eps_orders = sorted({eps for eps, _ in h.density.terms}
                        | {eps for eps, _ in reference.density.terms})
    for eps in eps_orders:
        ours = integrate(h.density.eps_coefficient(eps).eps_shift(eps))
        theirs = integrate(reference.density.eps_coefficient(eps).eps_shift(eps))
        assert local_eq(ours, theirs), f"r={r} eps^{eps} mismatch"
    report(2, f"K^{{{r}-spin}} and h^{{{r}-spin}}_{{1,1}} match the reference "
              f"table under local equivalence")


# -- criterion 3: the hierarchy comparison --------------------------------------------------


@pytest.mark.parametrize("r", [3, 4, 5])
def test_criterion_3_equivalence_verification(r):
    ctx = ctx_for(r)
    result = verify_dr_dz_equivalence(ctx)
    assert result.conditions == (True, True, True)
    assert result.verdict
    report(3, f"r={r}: DR g_{{1,1}} and the computed DZ pair agree via the "
              f"reference Miura map (all three conditions)")


# -- criterion 4: profile enumeration ----------------------------------------------------------


def test_criterion_4_profile_enumeration():
    for r, expected in REFERENCE_PROFILES.items():
        got = [(p.g, p.counts) for p in enumerate_profiles(r, 1, 1)]
        assert got == expected, f"r={r} profile list mismatch"
    counts = {r: len(v) for r, v in REFERENCE_PROFILES.items()}
    report(4, f"profile lists match the reference lists exactly "
              f"(r=3: {counts[3]}, r=4: {counts[4]}, r=5: {counts[5]})")


# -- criterion 5: worked example closure --------------------------------------------------------


def test_criterion_5_worked_example():
    g, n = 2, 2
    expansion = hain_expand(g, n)
    entries = {
        TautMonomial(psi=(2, 0)): Fraction(7, 4320),
        TautMonomial(psi=(1, 1)): Fraction(13, 4320),
        TautMonomial(psi=(0, 2)): Fraction(7, 4320),
    }
    for sym in expansion:
        if sym.boundary:
            entries[sym] = Fraction(0)
    table = IntegralTable(g=g, n=n, labels=(2, 2), entries=entries,
                          default_zero=False).canonicalize()
    poly = pair_with_table(expansion, table, dilaton=True, g=g, n=n)
    profile = Profile(r=3, alpha=1, d=1, g=g, counts=(0, 2))
    h = assemble_hamiltonian(3, [(profile, poly)])
    ring = h.ring
    u2 = DiffPoly.jet(ring, 2, 0)
    reference = integrate((u2 * u2.dx_pow(4)).eps_shift(4) / 432)
    assert local_eq(h, reference)
    builtin_eps4 = integrate(builtin_g11(3, ring).density
                             .eps_coefficient(4).eps_shift(4))
    assert local_eq(h, builtin_eps4)
    report(5, "the two reference Hodge integrals assemble to "
              "int eps^4/432 u^2 u^2_4 dx, the eps^4 term of g_{1,1}")


# -- criterion 6: GD commutativity ---------------------------------------------------------------


@pytest.mark.parametrize("r,ms", [(2, (1, 3, 5)), (3, (1, 2, 4))])
def test_criterion_6_gd_commutativity(r, ms):
    ctx = ctx_for(r)
    K = gd_operator(ctx)
    hams = {m: gd_hamiltonian(ctx, m) for m in ms}
    for m in ms:
        for n in ms:
            assert bracket(hams[m], hams[n], K).is_zero(), (r, m, n)
    report(6, f"r={r}: {{h^GD_m, h^GD_n}} = 0 for m, n in {ms}")


# -- criterion 7: PsiDO oracle equivalence --------------------------------------------------------


def test_criterion_7_root_roundtrip_and_flow_equivalence():
    for r in range(2, 6):
        ring = Ring(r - 1, 1)
        coeffs = {r: DiffPoly.const(ring, 1)}
        for i in range(r - 1):
            coeffs[i] = DiffPoly.jet(ring, i + 1, 0)
        lax = PseudoDiffOp(ring, r, None, coeffs)
        s = pdo_root(lax, r, 8)
        back = s.power(r)
        for order in range(back.lo, r + 1):
            assert back.coeff(order) == lax.coeff(order), (r, order)
    for r, ms in ((2, (1, 3, 5)), (3, (1, 2, 4))):
        ctx = ctx_for(r)
        for m in ms:
            assert gd_flow(ctx, m) == gd_flow_via_hamiltonian(ctx, m), (r, m)
    report(7, "Lax roots invert to depth 8 for r = 2..5 and the commutator "
              "flows equal the hamiltonian flows")


# -- criterion 8: reconstruction cross-check -------------------------------------------------------


def test_criterion_8_reconstruction_cross_check():
    ctx = ctx_for(2)
    bounds = Bounds(t_max=3, t_deg=4, eps_max=4)
    omega = omega_from_gd(ctx, q_max=3)
    h11 = rspin_hamiltonian(ctx, 1, 1)
    sol = special_solution(h11, omega, bounds)
    residuals = check_string_dilaton(sol)
    assert residuals.clean
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(4)}
    oracle = integrate_flows_directly(flows, ctx.ring_w, bounds, t10_extra=12)
    assert solutions_agree(sol, oracle, bounds)
    report(8, "r=2 special solution at (T,D,E)=(3,4,4) matches direct flow "
              "integration; string and dilaton residuals identically zero")


# -- criterion 9: quantization properties ------------------------------------------------------------


def rand_weyl(rng, ctx, max_degree=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = [(rng.randint(1, ctx.n_fields),
                 rng.randint(-ctx.window, ctx.window))
                for _ in range(rng.randint(0, max_degree))]
        counts = {}
        for m in word:
            counts[m] = counts.get(m, 0) + 1
        pkey = tuple(sorted((a, k, p) for (a, k), p in counts.items()))
        terms[(0, 0, pkey)] = AlgScalar(Fraction(rng.randint(-3, 3),
                                                 rng.randint(1, 2)))
    return WeylElement(ctx, {k: v for k, v in terms.items() if v})


def test_criterion_9_quantization_properties():
    rng = random.Random(2026)
    ctx2 = WeylContext(n_fields=1, window=3)
    rule2 = StandardRule.from_eta(eta_matrix(2))
    for _ in range(200):
        a, b, c = (rand_weyl(rng, ctx2) for _ in range(3))
        assert weyl_star(weyl_star(a, b, rule2), c, rule2) \
            == weyl_star(a, weyl_star(b, c, rule2), rule2)
    for r in (4, 5):
        ctx = WeylContext(n_fields=r - 1, window=2)
        rule_def = DeformedRule.from_operator(rspin_operator(ctx_for(r)))
        rule_std = StandardRule.from_eta(eta_matrix(r))
        for _ in range(100):
            a, b = rand_weyl(rng, ctx, max_degree=2), \
                rand_weyl(rng, ctx, max_degree=2)
            assert f_r_map(r, weyl_star(a, b, rule_def)) \
                == weyl_star(f_r_map(r, a), f_r_map(r, b), rule_std)
    # hand-expanded deformed commutators
    i = AlgScalar(0, 1)
    ctx4 = WeylContext(n_fields=3, window=3)
    rule4 = DeformedRule.from_operator(rspin_operator(ctx_for(4)))
    for m in (1, 2, 3):
        comm = weyl_commutator(WeylElement.mode(ctx4, 1, m),
                               WeylElement.mode(ctx4, 1, -m), rule4)
        assert comm == WeylElement(ctx4, {(1, 2, ()): (i * m) ** 3 * Fraction(1, 48)})
        comm = weyl_commutator(WeylElement.mode(ctx4, 1, m),
                               WeylElement.mode(ctx4, 3, -m), rule4)
        assert comm == WeylElement(ctx4, {(1, 0, ()): i * m})
    ctx5 = WeylContext(n_fields=4, window=3)
    rule5 = DeformedRule.from_operator(rspin_operator(ctx_for(5)))
    for m in (1, 2):
        comm = weyl_commutator(WeylElement.mode(ctx5, 1, m),
                               WeylElement.mode(ctx5, 2, -m), rule5)
        assert comm == WeylElement(ctx5, {(1, 2, ()): (i * m) ** 3 * Fraction(1, 30)})
        comm = weyl_commutator(WeylElement.mode(ctx5, 1, m),
                               WeylElement.mode(ctx5, 4, -m), rule5)
        assert comm == WeylElement(ctx5, {(1, 0, ()): i * m})
        assert weyl_commutator(WeylElement.mode(ctx5, 1, m),
                               WeylElement.mode(ctx5, 3, -m),
                               rule5).is_zero()
    report(9, "star associativity (200 triples), f_r homomorphism "
              "(100 pairs each), and the deformed commutators match "
              "hand-expanded instances")


# -- criterion 10: assembly well-definedness -----------------------------------------------------------


def test_criterion_10_assembly_well_definedness():
    rng = random.Random(4321)
    ring = Ring(3, 1)
    checked = 0
    while checked < 100:
        g = rng.randint(1, 2)
        n = rng.randint(2, 4)
        counts = [0, 0, 0]
        for _ in range(n):
            counts[rng.randint(0, 2)] += 1
        profile = Profile(r=4, alpha=1, d=1, g=g, counts=tuple(counts))

        def rand_exps(total):
            exps = [0] * n
            left = total
            for j in range(n - 1):
                e = rng.randint(0, left)
                exps[j] = e
                left -= e
            exps[-1] = left
            return tuple(exps)

        base = {}
        for _ in range(3):
            key = rand_exps(2 * g)
            base[key] = base.get(key, Fraction(0)) + Fraction(rng.randint(-4, 4))
        base = {k: v for k, v in base.items() if v}
        if not base:
            continue
        shifted = dict(base)
        for _ in range(2):
            q_exps = rand_exps(2 * g - 1)
            q_coeff = Fraction(rng.randint(-3, 3))
            for j in range(n):
                bumped = list(q_exps)
                bumped[j] += 1
                key = tuple(bumped)
                shifted[key] = shifted.get(key, Fraction(0)) + q_coeff
        shifted = {k: v for k, v in shifted.items() if v}
        h1 = assemble_hamiltonian(4, [(profile, DRPolynomial.from_apoly(g, n, base))],
                                  ring=ring)
        h2 = assemble_hamiltonian(4, [(profile, DRPolynomial.from_apoly(g, n, shifted))],
                                  ring=ring)
        assert local_eq(h1, h2)
        checked += 1
    report(10, "assembled functionals are invariant under adding "
               "(sum a_i) Q for 100 random Q across g <= 2, n <= 4")
