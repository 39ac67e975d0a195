import random
from fractions import Fraction
from heapq import heappop

import pytest

from drhier import diffpoly
from drhier.gdhier import gd_context, rspin_hamiltonian
from drhier.scalars import AlgScalar
from drhier.diffpoly import (
    DiffPoly,
    LocalFunctional,
    Ring,
    eps_dress,
    integrate,
    local_eq,
    rspin_ring,
)
from drhier.quantize import WeylContext, WeylElement, lf_to_p_series
from weyl_reference import decoded

R1 = Ring(1)
R2 = Ring(2)


def u(alpha=1, order=0, ring=R1):
    return DiffPoly.jet(ring, alpha, order)


def rand_poly(rng, ring, max_order=3, max_terms=4, max_power=2):
    out = DiffPoly.zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPoly.const(ring, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            term = term * DiffPoly.jet(ring, rng.randint(1, ring.n_fields),
                                       rng.randint(0, max_order),
                                       rng.randint(1, max_power))
        out = out + term
    return out


# -- total derivative ----------------------------------------------------------

def test_dx_leibniz_two_fields():
    f = u(1, 0, R2) * u(2, 0, R2)
    expected = u(1, 1, R2) * u(2, 0, R2) + u(1, 0, R2) * u(2, 1, R2)
    assert f.dx() == expected


def test_a_constant_hashes_like_its_fraction():
    for value in (3, Fraction(1, 2), Fraction(-7, 3), 0):
        c = DiffPoly.const(R2, value)
        assert c == value and hash(c) == hash(value) and len({c, value}) == 1
    assert len({DiffPoly.zero(R2), 0, Fraction(0)}) == 1
    # equal polynomials hash alike however they were built
    assert hash(u(1, 1, R2) * 2) == hash(u(1, 1, R2) + u(1, 1, R2))
    assert hash(u(1, 0, R2) / 2 + 1) == hash(1 + Fraction(1, 2) * u(1, 0, R2))


def test_dx_kills_constants():
    assert DiffPoly.const(R1, Fraction(5, 3)).dx().is_zero()


def test_dx_shifts_jets():
    assert u(1, 2).dx() == u(1, 3)


def test_dx_raises_degree_by_one():
    rng = random.Random(3)
    for _ in range(25):
        f = rand_poly(rng, R2)
        for deg, piece in f.degree_decompose().items():
            df = piece.dx()
            if not df.is_zero():
                assert df.is_homogeneous(deg + 1)


# -- variational derivative ------------------------------------------------------

def test_var_der_u_u2():
    f = u() * u(1, 2)
    assert f.var_der(1) == 2 * u(1, 2)


def test_var_der_kills_dx_images():
    rng = random.Random(11)
    for _ in range(30):
        g = rand_poly(rng, R2, max_order=2)
        f = g.dx()
        for alpha in (1, 2):
            assert f.var_der(alpha).is_zero()


def test_var_der_pure_power():
    f = u() ** 3 / 6
    assert f.var_der(1) == u() ** 2 / 2


# -- local functional equality -----------------------------------------------------

def test_local_eq_integration_by_parts():
    h1 = integrate(u() * u(1, 2))
    h2 = integrate(-(u(1, 1) ** 2))
    assert local_eq(h1, h2)
    assert h1.var_der(1) == 2 * u(1, 2)


def test_local_eq_quotients_constants():
    h1 = integrate(u() ** 2)
    h2 = integrate(u() ** 2 + 7)
    assert local_eq(h1, h2)


def test_local_eq_distinguishes():
    assert not local_eq(integrate(u() ** 2), integrate(u() ** 3))


def test_local_eq_is_equivalence_and_dx_stable():
    rng = random.Random(5)
    for _ in range(15):
        f = rand_poly(rng, R2, max_order=2)
        g = rand_poly(rng, R2, max_order=2)
        hf, hg = integrate(f), integrate(g)
        assert local_eq(hf, hf)
        assert local_eq(hf, hg) == local_eq(hg, hf)
        assert local_eq(hf, integrate(f + rand_poly(rng, R2, max_order=2).dx()))


def test_canonical_density_examples():
    # int u u_4 dx integrates by parts to int u_2^2 dx
    assert integrate(u() * u(1, 4)).canonical_density() == u(1, 2) ** 2
    # int u u_1 dx is exact
    assert integrate(u() * u(1, 1)).canonical_density().is_zero()
    # constants are quotiented away
    assert integrate(DiffPoly.const(R1, 3)).canonical_density().is_zero()


def test_canonical_density_is_stable_representative():
    rng = random.Random(17)
    for _ in range(20):
        f = rand_poly(rng, R2, max_order=3)
        h = integrate(f)
        c1 = h.canonical_density()
        h2 = integrate(f + rand_poly(rng, R2, max_order=2).dx())
        assert h2.canonical_density() == c1
        assert local_eq(h, LocalFunctional(c1))


def test_canonical_density_mixed_field_tie():
    # int u2_1 u1_2 = -int u1_1 u2_2: both canonicalize identically
    a = integrate(u(2, 1, R2) * u(1, 2, R2))
    b = integrate(-(u(1, 1, R2) * u(2, 2, R2)))
    assert a.canonical_density() == b.canonical_density()
    assert local_eq(a, b)


def counted_pops(monkeypatch):
    """Patch the heap pop of canonical_density; returns the popped entries."""
    popped = []

    def pop(heap):
        popped.append(heappop(heap))
        return popped[-1]

    monkeypatch.setattr(diffpoly, "heappop", pop)
    return popped


def test_canonical_density_of_a_long_descent(monkeypatch):
    # sum of u_a u_b u_c u_d over a + b + c + d = 24: rewrites feed monomials
    # that are rewritten in turn, and each is still popped only once
    items = [((0, ((1, a, 1), (1, b, 1), (1, c, 1), (1, 24 - a - b - c, 1))), 1)
             for a in range(25) for b in range(a, 25) for c in range(b, 25)
             if 24 - a - b - c >= c]
    h = integrate(DiffPoly.from_items(R1, items))
    assert len(h.density.terms) == 169
    popped = counted_pops(monkeypatch)
    canonical = h.canonical_density()
    assert len(popped) == 169
    assert local_eq(LocalFunctional(canonical), h)


def test_canonical_density_pops_each_monomial_once(monkeypatch):
    h = rspin_hamiltonian(gd_context(3), 2, 3)
    assert len(h.density.terms) == 102
    popped = counted_pops(monkeypatch)
    canonical = h.canonical_density()
    # no monomial is rewritten or emitted twice
    assert len(popped) == len(set(popped))
    assert local_eq(LocalFunctional(canonical), h)


# -- eps dressing --------------------------------------------------------------------

def test_eps_dress_splits_by_degree():
    h = integrate(u() ** 3 + u() * u(1, 2))
    dressed = eps_dress(h)
    expected = u() ** 3 + (u() * u(1, 2)).eps_shift(2)
    assert dressed.density == expected
    assert dressed.density.is_homogeneous(0)


def test_eps_dress_degree_zero_fixed():
    h = integrate(u() ** 2)
    assert eps_dress(h).density == u() ** 2


def test_eps_dress_high_order():
    h = integrate(u() * u(1, 4))
    assert eps_dress(h).density == (u() * u(1, 4)).eps_shift(4)


def test_eps_dress_rejects_eps_input():
    with pytest.raises(ValueError):
        eps_dress(integrate(u().eps_shift(1)))


# -- Fourier dictionary -----------------------------------------------------------------

def test_p_series_quadratic():
    ps = lf_to_p_series(integrate(u() ** 2 / 2), 2)
    expected = {
        (0, 0, ((1, 0, 2),)): AlgScalar(Fraction(1, 2)),
        (0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(1),
        (0, 0, ((1, -2, 1), (1, 2, 1))): AlgScalar(1),
    }
    assert ps == WeylElement(WeylContext(1, 2), expected)


def test_p_series_u_u2():
    # int u u_2: modes (k, -k) give (i(-k))^2 + (ik)^2 = -2k^2
    ps = lf_to_p_series(integrate(u() * u(1, 2)), 1)
    assert ps == WeylElement(WeylContext(1, 1),
                             {(0, 0, ((1, -1, 1), (1, 1, 1))): AlgScalar(-2)})


def test_p_series_total_derivative_vanishes():
    assert lf_to_p_series(integrate(u(1, 1)), 3).is_zero()


def test_p_series_mode_sums_are_zero():
    rng = random.Random(23)
    for _ in range(10):
        h = eps_dress(integrate(rand_poly(rng, R2, max_order=2, max_power=1)))
        ps = lf_to_p_series(h, 2)
        assert ps.terms
        for (_, _, word) in decoded(ps):
            assert sum(k for k, _ in word) == 0


# -- round trip: p-series back to a local functional (arity <= 2) --------------------------

def solve_exact(matrix, rhs):
    """Gaussian elimination over AlgScalar; matrix rows may exceed unknowns."""
    rows = [row[:] + [r] for row, r in zip(matrix, rhs)]
    n_cols = len(matrix[0])
    pivot_rows = []
    col = 0
    for col in range(n_cols):
        pivot = next((r for r in rows if r not in pivot_rows and r[col]), None)
        if pivot is None:
            raise AssertionError("singular system in test oracle")
        inv = pivot[col].inverse()
        for j in range(n_cols + 1):
            pivot[j] = pivot[j] * inv
        for r in rows:
            if r is pivot or not r[col]:
                continue
            factor = r[col]
            for j in range(n_cols + 1):
                r[j] = r[j] - factor * pivot[j]
        pivot_rows.append(pivot)
    for r in rows:
        if r not in pivot_rows:
            assert all(not x for x in r), "inconsistent system in test oracle"
    sol = [None] * n_cols
    for i, r in enumerate(pivot_rows):
        sol[i] = r[n_cols]
    return sol


def reconstruct_two_field(ps, window, max_total_order):
    """Invert lf_to_p_series on the IBP-reduced basis int u^1 u^2_n dx.

    ps is the image of an eps-dressed functional; it is read at eps = 1.
    """
    basis = list(range(max_total_order + 1))
    i_unit = AlgScalar(0, 1)
    at_eps_one = {}
    for (_, _, pkey), c in ps.items():
        at_eps_one[pkey] = at_eps_one.get(pkey, AlgScalar(0)) + c
    rows, rhs = [], []
    for k in range(-window, window + 1):
        if k == 0:
            continue
        key = tuple(sorted([(1, k, 1), (2, -k, 1)]))
        rows.append([(i_unit * (-k)) ** n for n in basis])
        rhs.append(at_eps_one.get(key, AlgScalar(0)))
    coeffs = solve_exact(rows, rhs)
    density = DiffPoly.zero(R2)
    for n, c in zip(basis, coeffs):
        assert not c.b, "a rational functional has rational coefficients"
        density = density + DiffPoly.jet(R2, 1, 0) * DiffPoly.jet(R2, 2, n) * c.a
    return integrate(density)


def test_p_series_round_trip_arity_two():
    rng = random.Random(41)
    window = 4
    for _ in range(8):
        density = DiffPoly.zero(R2)
        for _ in range(3):
            density = density + (DiffPoly.jet(R2, 1, rng.randint(0, 2))
                                 * DiffPoly.jet(R2, 2, rng.randint(0, 2))
                                 * Fraction(rng.randint(-4, 4)))
        h = integrate(density)
        ps = lf_to_p_series(eps_dress(h), window)
        h_back = reconstruct_two_field(ps, window, 4)
        assert local_eq(h, h_back)


# -- serialization ------------------------------------------------------------------------

def test_diffpoly_json_roundtrip():
    rng = random.Random(2)
    f = rand_poly(rng, R2) + u(1, 0, R2).eps_shift(2) * Fraction(-3, 7)
    back = DiffPoly.from_json_dict(f.to_json_dict())
    assert back == f


@pytest.mark.parametrize("ring", dict.fromkeys([*(rspin_ring(r) for r in range(2, 9)),
                                                 *(Ring(n) for n in range(1, 4))]), ids=repr)
def test_json_roundtrip_in_every_ring_the_writer_emits(ring):
    # the reader accepts d = 1 or the squarefree part of N + 1: every ring the
    # writer is given, Ring(n) and rspin_ring(r) = Ring(r - 1, d) with d
    # 2, 3, 1, 5, 6, 7, 2 for r = 2..8
    rng = random.Random(ring.n_fields * 10 + ring.d)
    for _ in range(20):
        f = rand_poly(rng, ring) + rand_poly(rng, ring).eps_shift(rng.randint(1, 3))
        assert DiffPoly.from_json_dict(f.to_json_dict()) == f
        lf = LocalFunctional(f)
        assert LocalFunctional.from_json_dict(lf.to_json_dict()) == lf
        assert DiffPoly.from_json_dict(lf.to_json_dict()) == lf.canonical_density()


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, True])
def test_floats_are_refused_as_coefficients(value):
    # the binary value of 0.1 is 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="exact rational"):
        DiffPoly.const(R2, value)
    with pytest.raises(ValueError, match="exact rational"):
        DiffPoly.jet(R2, 1, 0, coeff=value)
    with pytest.raises(ValueError, match="exact rational"):
        u(1, 0, R2) * value
    data = (u(1, 0, R1) * 3).to_json_dict()
    data["terms"][0]["coeff"] = value
    with pytest.raises(ValueError, match="is not a nonzero p or p/q"):
        DiffPoly.from_json_dict(data)


@pytest.mark.parametrize("value", [1, Fraction(1, 10)])
def test_exact_coefficients_are_accepted(value):
    assert DiffPoly.const(R2, value) == DiffPoly.const(R2, Fraction(value))
    # JSON holds one form of each value: the string str(Fraction(value))
    data = u(1, 0, R1).to_json_dict()
    data["terms"][0]["coeff"] = str(Fraction(value))
    assert DiffPoly.from_json_dict(data) == u(1, 0, R1) * Fraction(value)


@pytest.mark.parametrize("value", ["1/10", "1e-1", "0.1", "1e100000000"])
def test_strings_are_refused_as_coefficients(value):
    # a string is read only as JSON, in the one form str(Fraction) writes:
    # Fraction("1e100000000") would expand its exponent
    with pytest.raises(ValueError, match="exact rational"):
        DiffPoly.const(R2, value)
    with pytest.raises(ValueError, match="exact rational"):
        u(1, 0, R2) * value
    data = u(1, 0, R1).to_json_dict()
    data["terms"][0]["coeff"] = value
    if value == "1/10":
        assert DiffPoly.from_json_dict(data) == u(1, 0, R1) / 10
    else:
        with pytest.raises(ValueError, match="is not a nonzero p or p/q"):
            DiffPoly.from_json_dict(data)


def test_json_terms_with_one_monomial_are_refused():
    # the writer emits each monomial once, so a repeat is no sum but an error
    data = (u(1, 0, R1) * 3).to_json_dict()
    data["terms"] *= 2
    with pytest.raises(ValueError, match="two terms at eps\\^0"):
        DiffPoly.from_json_dict(data)
    data["terms"][1] = dict(data["terms"][0], coeff="-3")
    with pytest.raises(ValueError, match="two terms at eps\\^0"):
        DiffPoly.from_json_dict(data)


def test_local_functional_json_has_flag():
    data = integrate(u() * u(1, 2)).to_json_dict()
    assert data["integrated"] is True
    assert LocalFunctional.from_json_dict(data).var_der(1) == 2 * u(1, 2)
