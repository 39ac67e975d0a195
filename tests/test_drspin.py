import random
from fractions import Fraction

import pytest

from drhier.diffpoly import DiffPoly, Ring, integrate, local_eq
from drhier.drspin import (
    DRPolynomial,
    IntegralTable,
    Profile,
    TableMissError,
    TautMonomial,
    assemble_hamiltonian,
    builtin_g11,
    enumerate_profiles,
    hain_expand,
    pair_with_table,
)
from drhier.quantize import WeylContext, WeylElement, lf_to_p_series
from drhier.scalars import AlgScalar


# -- reference profile lists -----------------------------------------------------------

R3_PROFILES = [(0, (0, 4)), (0, (2, 1)), (1, (0, 3)), (1, (2, 0)), (2, (0, 2))]

R4_PROFILES = [
    (0, (0, 0, 5)), (0, (0, 2, 2)), (0, (1, 0, 3)), (0, (1, 2, 0)), (0, (2, 0, 1)),
    (1, (0, 0, 4)), (1, (0, 2, 1)), (1, (1, 0, 2)), (1, (2, 0, 0)),
    (2, (0, 0, 3)), (2, (0, 2, 0)), (2, (1, 0, 1)),
    (3, (0, 0, 2)),
]

R5_PROFILES = [
    (0, (0, 0, 0, 6)), (0, (0, 0, 2, 3)), (0, (0, 0, 4, 0)), (0, (0, 1, 0, 4)),
    (0, (0, 1, 2, 1)), (0, (0, 2, 0, 2)), (0, (0, 3, 0, 0)), (0, (1, 0, 1, 2)),
    (0, (1, 1, 1, 0)), (0, (2, 0, 0, 1)),
    (1, (0, 0, 0, 5)), (1, (0, 0, 2, 2)), (1, (0, 1, 0, 3)), (1, (0, 1, 2, 0)),
    (1, (0, 2, 0, 1)), (1, (1, 0, 1, 1)), (1, (2, 0, 0, 0)),
    (2, (0, 0, 0, 4)), (2, (0, 0, 2, 1)), (2, (0, 1, 0, 2)), (2, (0, 2, 0, 0)),
    (2, (1, 0, 1, 0)),
    (3, (0, 0, 0, 3)), (3, (0, 0, 2, 0)), (3, (0, 1, 0, 1)),
    (4, (0, 0, 0, 2)),
]


def profile_pairs(profiles):
    return [(p.g, p.counts) for p in profiles]


def test_enumerate_r3():
    assert profile_pairs(enumerate_profiles(3, 1, 1)) == R3_PROFILES


def test_enumerate_r4():
    assert profile_pairs(enumerate_profiles(4, 1, 1)) == R4_PROFILES


def test_enumerate_r5():
    assert profile_pairs(enumerate_profiles(5, 1, 1)) == R5_PROFILES


def test_enumerate_r2():
    assert profile_pairs(enumerate_profiles(2, 1, 1)) == [(0, (3,)), (1, (2,))]


def test_profiles_satisfy_selection_and_bound():
    for r, alpha, d in ((3, 1, 1), (4, 2, 0), (5, 1, 2), (2, 1, 3)):
        for p in enumerate_profiles(r, alpha, d):
            assert p.selection_holds()
            assert 2 * p.n + 2 * p.g <= alpha + 1 + r * (d + 1)
            assert p.n >= 2


# -- Hain expansion ---------------------------------------------------------------------

def test_hain_g0_is_one():
    exp = hain_expand(0, 3)
    assert exp == {TautMonomial(psi=(0, 0, 0)): {(0, 0, 0): Fraction(1)}}


def test_hain_g1_n2():
    exp = hain_expand(1, 2)
    assert exp[TautMonomial(psi=(1, 0))] == {(2, 0): Fraction(1, 2)}
    assert exp[TautMonomial(psi=(0, 1))] == {(0, 2): Fraction(1, 2)}
    # the only boundary term: -(a_1 + a_2)^2/2 on delta_0^{12}
    sym = TautMonomial(psi=(0, 0), boundary=((0, (1, 2)),))
    assert exp[sym] == {(2, 0): Fraction(-1, 2), (1, 1): Fraction(-1),
                        (0, 2): Fraction(-1, 2)}


def test_hain_g2_n2_psi_part():
    exp = hain_expand(2, 2)
    assert exp[TautMonomial(psi=(2, 0))] == {(4, 0): Fraction(1, 8)}
    assert exp[TautMonomial(psi=(1, 1))] == {(2, 2): Fraction(1, 4)}
    # separating genus-1 divisors collapse onto the canonical representative:
    # delta_1^{2} lands on delta_1^{1}, delta_1^{12} on delta_1^{empty}
    mixed = exp[TautMonomial(psi=(1, 0), boundary=((1, (1,)),))]
    assert mixed == {(4, 0): Fraction(-1, 8), (2, 2): Fraction(-1, 8)}
    assert not any(
        (1, (2,)) in sym.boundary or (1, (1, 2)) in sym.boundary for sym in exp)


def test_hain_zero_weight_marking():
    # marking 1 carries weight zero: no psi_1 term at the top level
    exp = hain_expand(1, 2, zero_weight_marking=True)
    assert TautMonomial(psi=(1, 0, 0)) not in exp
    assert exp[TautMonomial(psi=(0, 1, 0))] == {(2, 0): Fraction(1, 2)}
    # delta_0 over J = {1, 2} sees only the weight of marking 2
    sym = TautMonomial(psi=(0, 0, 0), boundary=((0, (1, 2)),))
    assert exp[sym] == {(2, 0): Fraction(-1, 2)}


def test_hain_degree_is_g():
    for g, n in ((1, 2), (2, 2), (2, 3)):
        for sym in hain_expand(g, n):
            assert sym.degree() == g


# -- worked 3-spin example ----------------------------------------------------------------

def worked_example_table():
    entries = {
        TautMonomial(psi=(2, 0)): Fraction(7, 4320),
        TautMonomial(psi=(1, 1)): Fraction(13, 4320),
        TautMonomial(psi=(0, 2)): Fraction(7, 4320),
    }
    # all boundary monomials are declared zero
    for sym in hain_expand(2, 2):
        if sym.boundary:
            entries[sym] = Fraction(0)
    return IntegralTable(g=2, n=2, labels=(2, 2), entries=entries,
                         default_zero=False).canonicalize()


def test_worked_example_pairing():
    table = worked_example_table()
    poly = pair_with_table(hain_expand(2, 2), table, dilaton=True, g=2, n=2)
    assert poly.as_apoly() == {(4, 0): Fraction(7, 8640),
                               (0, 4): Fraction(7, 8640),
                               (2, 2): Fraction(13, 4320)}


def test_worked_example_assembles_to_reference_term():
    table = worked_example_table()
    profile = Profile(r=3, alpha=1, d=1, g=2, counts=(0, 2))
    poly = pair_with_table(hain_expand(2, 2), table, dilaton=True, g=2, n=2)
    h = assemble_hamiltonian(3, [(profile, poly)])
    ring = h.ring
    u2 = DiffPoly.jet(ring, 2, 0)
    reference = integrate((u2 * u2.dx_pow(4)).eps_shift(4) / 432)
    assert local_eq(h, reference)
    # and it is exactly the eps^4 term of the built-in g_{1,1}
    eps4 = integrate(builtin_g11(3).density.eps_coefficient(4).eps_shift(4))
    assert local_eq(h, eps4)


def test_strict_table_raises_on_missing():
    table = IntegralTable(g=2, n=2, labels=(2, 2),
                          entries={TautMonomial(psi=(2, 0)): Fraction(1)},
                          default_zero=False)
    with pytest.raises(TableMissError):
        pair_with_table(hain_expand(2, 2), table, dilaton=True, g=2, n=2)


def test_default_zero_empty_table():
    table = IntegralTable(g=2, n=2, labels=(2, 2), entries={}, default_zero=True)
    poly = pair_with_table(hain_expand(2, 2), table, dilaton=True, g=2, n=2)
    assert poly.as_apoly() == {}


# -- assembly ----------------------------------------------------------------------------------

def test_assemble_distinct_labels_p_series_oracle():
    # P = a_1 a_2 with labels (1, 2): compare Fourier images
    ring = Ring(2)
    profile = Profile(r=3, alpha=1, d=1, g=1, counts=(1, 1))
    poly = DRPolynomial.from_apoly(1, 2, {(1, 1): Fraction(1)})
    h = assemble_hamiltonian(3, [(profile, poly)], ring=ring)
    window = 3
    ps = lf_to_p_series(h, window)
    # direct p-form: eps^2 sum_{k} P(k,-k) p^1_k p^2_{-k} over ordered pairs
    # of distinct labels: both (1,2) and (2,1) orderings contribute
    expected = {}
    for k in range(-window, window + 1):
        if k == 0:
            continue
        # (ik)(i(-k)) = k^2: matches (-eps^2) P(a,-a) = eps^2 a^2 directly
        key = (0, 2, tuple(sorted([(1, k, 1), (2, -k, 1)])))
        expected[key] = AlgScalar(Fraction(k * k))
    assert ps == WeylElement(WeylContext(2, window), expected)


def test_assemble_equal_labels_symmetry_factor():
    # P = a_1 a_2, labels (2, 2): the 1/2! multiset factor
    ring = Ring(2)
    profile = Profile(r=3, alpha=1, d=1, g=1, counts=(0, 2))
    poly = DRPolynomial.from_apoly(1, 2, {(1, 1): Fraction(1)})
    h = assemble_hamiltonian(3, [(profile, poly)], ring=ring)
    u2 = DiffPoly.jet(ring, 2, 1)
    assert h.density == (u2 * u2).eps_shift(2) / 2


def test_assemble_well_defined_modulo_sum_ideal():
    # adding (sum a_i) * Q never changes the functional
    rng = random.Random(53)
    ring = Ring(2)
    for _ in range(25):
        g = rng.choice((1, 2))
        counts = rng.choice([(2, 0), (0, 2), (1, 1), (2, 1), (1, 2)])
        profile = Profile(r=3, alpha=1, d=1, g=g, counts=counts)
        n = profile.n
        base = {}
        for _ in range(3):
            exps = [0] * n
            left = 2 * g
            for i in range(n - 1):
                e = rng.randint(0, left)
                exps[i] = e
                left -= e
            exps[-1] = left
            base[tuple(exps)] = base.get(tuple(exps), Fraction(0)) \
                + Fraction(rng.randint(-4, 4))
        base = {k: v for k, v in base.items() if v}
        if not base:
            continue
        poly = DRPolynomial.from_apoly(g, n, base)
        # Q: random degree 2g-1 polynomial; (sum a) * Q
        shifted = dict(base)
        for _ in range(2):
            exps = [0] * n
            left = 2 * g - 1
            for i in range(n - 1):
                e = rng.randint(0, left)
                exps[i] = e
                left -= e
            exps[-1] = left
            q_coeff = Fraction(rng.randint(-3, 3))
            for j in range(n):
                bumped = list(exps)
                bumped[j] += 1
                key = tuple(bumped)
                shifted[key] = shifted.get(key, Fraction(0)) + q_coeff
        shifted = {k: v for k, v in shifted.items() if v}
        poly2 = DRPolynomial.from_apoly(g, n, shifted)
        h1 = assemble_hamiltonian(3, [(profile, poly)], ring=ring)
        h2 = assemble_hamiltonian(3, [(profile, poly2)], ring=ring)
        assert local_eq(h1, h2)


def test_assemble_g0_constant():
    ring = Ring(2)
    profile = Profile(r=3, alpha=1, d=1, g=0, counts=(2, 1))
    poly = DRPolynomial.from_apoly(0, 3, {(0, 0, 0): Fraction(1)})
    h = assemble_hamiltonian(3, [(profile, poly)], ring=ring)
    u1 = DiffPoly.jet(ring, 1, 0)
    u2 = DiffPoly.jet(ring, 2, 0)
    assert h.density == u1 * u1 * u2 / 2


def test_assemble_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        DRPolynomial.from_apoly(1, 2, {(1, 0): Fraction(1)})


# -- built-in data -----------------------------------------------------------------------------------

def test_builtin_g11_supported():
    for r in (3, 4, 5):
        h = builtin_g11(r)
        assert h.ring.n_fields == r - 1
    with pytest.raises(ValueError):
        builtin_g11(2)


def test_builtin_g11_r3_value():
    h = builtin_g11(3)
    ring = h.ring
    u1 = DiffPoly.jet(ring, 1, 0)
    u2 = DiffPoly.jet(ring, 2, 0)
    expected = (u1 ** 2 * u2 / 2 + u2 ** 4 / 36
                + (u2 ** 2 * u2.dx_pow(2)).eps_shift(2) / 48
                + (u1 * u1.dx_pow(2)).eps_shift(2) / 12
                + (u2 * u2.dx_pow(4)).eps_shift(4) / 432)
    assert h.density == expected


def test_builtin_g11_gradings():
    # homogeneous of total degree 0, and every monomial obeys the r-spin
    # weight selection sum(alpha_i) = (r+1) n + 2g - 2 - 2r with 2g = eps
    for r in (3, 4, 5):
        h = builtin_g11(r)
        assert h.density.is_homogeneous(0)
        for (eps, jets), _ in h.density.terms.items():
            n = sum(p for _, _, p in jets)
            label_sum = sum(a * p for a, _, p in jets)
            assert sum(o * p for _, o, p in jets) == eps  # 2g twice over
            assert label_sum == (r + 1) * n + eps - 2 - 2 * r


def test_builtin_g11_eps4_term_r3():
    piece = builtin_g11(3).density.eps_coefficient(4)
    ring = piece.ring
    u2 = DiffPoly.jet(ring, 2, 0)
    assert piece == u2 * u2.dx_pow(4) / 432


# -- table serialization -----------------------------------------------------------------------------

def test_table_json_roundtrip():
    table = worked_example_table()
    back = IntegralTable.from_json_dict(table.to_json_dict())
    assert back.entries == table.entries
    assert back.g == table.g and back.n == table.n
    assert back.labels == table.labels
    assert back.default_zero == table.default_zero


def test_table_canonicalizes_boundary_keys():
    # delta_1^{2} equals delta_1^{1} on genus 2 with two markings
    raw = IntegralTable(
        g=2, n=2, labels=(2, 2),
        entries={TautMonomial(psi=(0, 0), boundary=((1, (2,)),)): Fraction(5)},
    ).canonicalize()
    assert raw.lookup(TautMonomial(psi=(0, 0), boundary=((1, (1,)),))) == 5
