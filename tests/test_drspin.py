import random
from fractions import Fraction

import pytest
from hain_reference import (
    decoded,
    reference_first_miss,
    reference_hain_expand,
    reference_monomials,
    reference_pair,
    weight_poly,
)

from drhier import drspin
from drhier.diffpoly import DiffPoly, Ring, integrate, local_eq
from drhier.drspin import (
    IntegralTable,
    Profile,
    TableFileError,
    TableMissError,
    TautMonomial,
    a_coefficients,
    assemble_hamiltonian,
    builtin_g11,
    enumerate_profiles,
    hain_expand,
    hain_monomials,
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
    exp = decoded(hain_expand(0, 3), 3)
    assert exp == {TautMonomial(psi=(0, 0, 0)): {(0, 0, 0): Fraction(1)}}


def test_hain_g1_n2():
    exp = decoded(hain_expand(1, 2), 2)
    assert exp[TautMonomial(psi=(1, 0))] == {(2, 0): Fraction(1, 2)}
    assert exp[TautMonomial(psi=(0, 1))] == {(0, 2): Fraction(1, 2)}
    # the only boundary term: -(a_1 + a_2)^2/2 on delta_0^{12}
    sym = TautMonomial(psi=(0, 0), boundary=((0, (1, 2)),))
    assert exp[sym] == {(2, 0): Fraction(-1, 2), (1, 1): Fraction(-1),
                        (0, 2): Fraction(-1, 2)}


def test_hain_g2_n2_psi_part():
    exp = decoded(hain_expand(2, 2), 2)
    assert exp[TautMonomial(psi=(2, 0))] == {(4, 0): Fraction(1, 8)}
    assert exp[TautMonomial(psi=(1, 1))] == {(2, 2): Fraction(1, 4)}
    # separating genus-1 divisors collapse onto the canonical representative:
    # delta_1^{2} lands on delta_1^{1}, delta_1^{12} on delta_1^{empty}
    mixed = exp[TautMonomial(psi=(1, 0), boundary=((1, (1,)),))]
    assert mixed == {(4, 0): Fraction(-1, 8), (2, 2): Fraction(-1, 8)}
    assert not any(
        (1, (2,)) in sym.boundary or (1, (1, 2)) in sym.boundary for sym in exp)


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_hain_expand_matches_the_reference(g):
    for n in range(1, 5):
        got = decoded(hain_expand(g, n), n)
        assert got == reference_hain_expand(g, n), (g, n)


def test_hain_expand_over_ten_markings():
    # at g = 1 every base term is its own monomial: 10 psi_j with a_j^2 / 2
    # and 1013 delta_0^J, |J| >= 2, with -a_J^2 / 2
    n = 10
    exp = hain_expand(1, n)
    a = [DiffPoly.jet(Ring(n), j, 0) for j in range(1, n + 1)]
    psi = {sym.psi.index(1): poly for sym, poly in exp.items() if not sym.boundary}
    assert len(exp) == 1023 and psi == {j: a[j] * a[j] / 2 for j in range(n)}
    for sym, poly in exp.items():
        if sym.boundary:
            (h, J), = sym.boundary
            a_J = sum((a[m - 1] for m in J), DiffPoly.zero(Ring(n)))
            assert (h, sym.psi, poly) == (0, (0,) * n, a_J * a_J / -2) and len(J) >= 2


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
    return IntegralTable(g=2, n=2, labels=(2, 2), entries=entries.items(),
                         default_zero=False)


def test_worked_example_pairing():
    table = worked_example_table()
    poly = pair_with_table(table, dilaton=True)
    assert poly.ring == Ring(2)
    assert a_coefficients(2, 2, poly) == (((0, 4), Fraction(7, 8640)),
                                          ((2, 2), Fraction(13, 4320)),
                                          ((4, 0), Fraction(7, 8640)))


def test_worked_example_assembles_to_reference_term():
    table = worked_example_table()
    profile = Profile(r=3, alpha=1, d=1, g=2, counts=(0, 2))
    poly = pair_with_table(table, dilaton=True)
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
                          entries=[(TautMonomial(psi=(2, 0)), Fraction(1))],
                          default_zero=False)
    with pytest.raises(TableMissError):
        pair_with_table(table, dilaton=True)


def test_default_zero_empty_table():
    table = IntegralTable(g=2, n=2, labels=(2, 2), entries=(), default_zero=True)
    poly = pair_with_table(table, dilaton=True)
    assert poly.is_zero() and a_coefficients(2, 2, poly) == ()


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_pairing_matches_the_reference_pairing(g):
    # a strict table with a seeded value at every monomial, and a seeded
    # default-zero sub-table of it (zero values included)
    rng = random.Random(37 + g)
    for n in range(1, 5):
        full = {sym: Fraction(rng.randint(-9, 9), rng.randint(1, 16))
                for sym in sorted(hain_monomials(g, n), key=lambda s: (s.psi, s.boundary))}
        sub = [(sym, value) for sym, value in full.items() if rng.random() < 0.3]
        for table in (IntegralTable(g=g, n=n, labels=(), entries=full.items()),
                      IntegralTable(g=g, n=n, labels=(), entries=sub, default_zero=True)):
            for dilaton in (True, False):
                assert pair_with_table(table, dilaton) == reference_pair(table, dilaton), \
                    (g, n, table.default_zero, dilaton)


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_hain_monomials_match_the_full_pool_walk(g):
    for n in range(1, 6):
        assert list(hain_monomials(g, n)) == reference_monomials(g, n), n


@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_strict_sub_table_misses_where_the_full_pool_walk_does(g):
    # seeded strict sub-tables, each holding a random share of the monomials
    # and, often, a run of the first ones, so that misses fall deep in the walk
    rng = random.Random(41 + g)
    for n in range(1, 5):
        monomials = reference_monomials(g, n)
        for share in (0.0, 0.5, 0.9, 1.0):
            head = rng.randrange(len(monomials) + 1)
            entries = [(sym, Fraction(rng.randint(1, 9))) for i, sym in enumerate(monomials)
                       if i < head or rng.random() < share]
            table = IntegralTable(g=g, n=n, labels=(), entries=entries)
            miss = reference_first_miss(table)
            if miss is None:
                assert pair_with_table(table, dilaton=False) == reference_pair(table, False)
                continue
            with pytest.raises(TableMissError) as raised:
                pair_with_table(table, dilaton=False)
            assert raised.value.args == (miss,), (g, n, share)


def test_a_default_zero_pairing_reads_only_the_table(monkeypatch):
    table = worked_example_table()
    table.default_zero = True
    expected = reference_pair(table, dilaton=True)
    monkeypatch.setattr(drspin, "hain_monomials",
                        lambda g, n: pytest.fail("the expansion was walked"))
    assert pair_with_table(table, dilaton=True) == expected


def test_a_strict_miss_builds_no_coefficient(monkeypatch):
    table = IntegralTable(g=3, n=4, labels=(), entries=[
        (TautMonomial(psi=(3, 0, 0, 0)), Fraction(1))])
    monkeypatch.setattr(drspin, "hain_coefficients",
                        lambda g, n: pytest.fail("a coefficient was built"))
    with pytest.raises(TableMissError, match=r"psi1\^2\*psi2"):
        pair_with_table(table, dilaton=True)


# -- assembly ----------------------------------------------------------------------------------

def test_assemble_distinct_labels_p_series_oracle():
    # P = a_1 a_2 with labels (1, 2): compare Fourier images
    profile = Profile(r=3, alpha=1, d=1, g=1, counts=(1, 1))
    poly = weight_poly(2, {(1, 1): Fraction(1)})
    h = assemble_hamiltonian(3, [(profile, poly)])
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
    profile = Profile(r=3, alpha=1, d=1, g=1, counts=(0, 2))
    poly = weight_poly(2, {(1, 1): Fraction(1)})
    h = assemble_hamiltonian(3, [(profile, poly)])
    u2 = DiffPoly.jet(h.ring, 2, 1)
    assert h.density == (u2 * u2).eps_shift(2) / 2


def test_assemble_well_defined_modulo_sum_ideal():
    # adding (sum a_i) * Q never changes the functional
    rng = random.Random(53)
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
        poly = weight_poly(n, base)
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
        poly2 = weight_poly(n, shifted)
        h1 = assemble_hamiltonian(3, [(profile, poly)])
        h2 = assemble_hamiltonian(3, [(profile, poly2)])
        assert local_eq(h1, h2)


def test_assemble_g0_constant():
    profile = Profile(r=3, alpha=1, d=1, g=0, counts=(2, 1))
    poly = weight_poly(3, {(0, 0, 0): Fraction(1)})
    h = assemble_hamiltonian(3, [(profile, poly)])
    u1 = DiffPoly.jet(h.ring, 1, 0)
    u2 = DiffPoly.jet(h.ring, 2, 0)
    assert h.density == u1 * u1 * u2 / 2


def test_assemble_rejects_inhomogeneous():
    # a contribution must be homogeneous of degree 2g in the profile's n weights
    profile = Profile(r=3, alpha=1, d=1, g=1, counts=(0, 2))
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        assemble_hamiltonian(3, [(profile, weight_poly(2, {(1, 0): Fraction(1)}))])
    with pytest.raises(ValueError, match="ring context mismatch"):
        assemble_hamiltonian(3, [(profile, weight_poly(3, {(1, 1, 0): Fraction(1)}))])
    with pytest.raises(ValueError, match="not homogeneous of degree 4"):
        a_coefficients(2, 2, weight_poly(2, {(1, 1): Fraction(1)}))
    # eps^2 u^1_1 u^2_0 has degree 2 but is not a polynomial in a_1, a_2
    jets = DiffPoly.jet(Ring(2), 1, 1) * DiffPoly.jet(Ring(2), 2, 0)
    with pytest.raises(ValueError, match="not a monomial in the weights"):
        a_coefficients(1, 2, jets.eps_shift(2))


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
        for (eps, jets), _ in h.density.items():
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
        entries=[(TautMonomial(psi=(1, 0), boundary=((1, (2,)),)), Fraction(5))])
    assert raw.entries == {TautMonomial(psi=(1, 0), boundary=((1, (1,)),)): 5}


def test_a_python_table_pairs_like_the_same_table_read_from_json():
    # every boundary symbol written as delta_{g-h}^{J^c}, the other name of
    # delta_h^J: the constructor keys it canonically, as the reader does
    g, n = 2, 2
    expansion = hain_expand(g, n)
    rng = random.Random(32)
    flipped = []
    for sym in sorted(expansion, key=lambda s: (s.psi, s.boundary)):
        boundary = tuple((g - h, tuple(m for m in range(1, n + 1) if m not in J))
                         for h, J in sym.boundary)
        flipped.append((TautMonomial(sym.psi, boundary), Fraction(rng.randint(1, 9), 7)))
    assert any(sym.boundary and sym not in expansion for sym, _ in flipped)
    payload = {"g": g, "n": n, "labels": [2, 2], "entries": [
        {"psi": list(sym.psi), "boundary": [[h, list(J)] for h, J in sym.boundary],
         "value": str(value)} for sym, value in flipped]}
    built = IntegralTable(g=g, n=n, labels=(2, 2), entries=flipped)
    read = IntegralTable.from_json_dict(payload)
    assert built.entries == read.entries
    assert set(built.entries) == set(expansion)
    paired = pair_with_table(built, dilaton=True)
    assert paired == pair_with_table(read, dilaton=True)
    # the boundary values take part: zeroing them changes the pairing
    no_boundary = IntegralTable(g=g, n=n, labels=(2, 2), default_zero=True, entries=[
        (sym, value) for sym, value in flipped if not sym.boundary])
    assert paired != pair_with_table(no_boundary, dilaton=True)


def test_table_keeps_one_value_per_class():
    # delta_1^{1} and delta_1^{2} are one class on genus 2 with two markings:
    # equal values merge, different ones are refused
    def table(v1, v2):
        return IntegralTable(g=2, n=2, labels=(2, 2), entries=[
            (TautMonomial(psi=(1, 0), boundary=((1, (1,)),)), Fraction(v1)),
            (TautMonomial(psi=(1, 0), boundary=((1, (2,)),)), Fraction(v2))])
    assert table(3, 3).entries == {TautMonomial(psi=(1, 0), boundary=((1, (1,)),)): 3}
    with pytest.raises(TableFileError, match="given twice"):
        table(3, 4)
    with pytest.raises(TableFileError, match="needs 0 <= h <= 2"):
        IntegralTable(g=2, n=2, labels=(2, 2), entries=[
            (TautMonomial(psi=(1, 0), boundary=((3, ()),)), Fraction(1))])
