from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhier.diffpoly import DiffPoly, Ring, integrate
from drhier.drspin import builtin_g11
from drhier.gdhier import eta_matrix, rspin_hamiltonian
from drhier.hamops import HamiltonianOperator, MiuraMap, flow
from drhier.reconstruct import (
    Bounds,
    OmegaData,
    SpecialSolution,
    check_string_dilaton,
    dz_miura_map,
    integrate_flows_directly,
    jet_rewrite,
    monomials,
    omega_from_gd,
    solutions_agree,
    special_solution,
    verify_dr_dz_equivalence,
)

BOUNDS = Bounds(t_max=3, t_deg=4, eps_max=4)


from conftest import ctx_for


@pytest.fixture(scope="module")
def kdv():
    ctx = ctx_for(2)
    omega = omega_from_gd(ctx, q_max=3)
    h11 = rspin_hamiltonian(ctx, 1, 1)
    sol = special_solution(h11, omega, BOUNDS)
    return ctx, omega, h11, sol


# -- construction ------------------------------------------------------------------

def test_initial_condition(kdv):
    _, _, _, sol = kdv
    assert sol.coeff(1, (((1, 0), 1),), 0) == 1
    for k in range(2, BOUNDS.t_deg + 1):
        for i in range(BOUNDS.eps_max + 1):
            assert sol.coeff(1, (((1, 0), k),), i) == 0
    for i in range(BOUNDS.eps_max + 1):
        assert sol.coeff(1, (), i) == 0


def test_t11_coefficient_vanishes_at_origin(kdv):
    # the coefficient of t^1_1 eps^0 with no t^1_0 factor is zero
    _, _, _, sol = kdv
    assert sol.coeff(1, (((1, 1), 1),), 0) == 0
    # while the x-linear part rides along: coefficient of t^1_0 t^1_1 is 1
    assert sol.coeff(1, (((1, 0), 1), ((1, 1), 1)), 0) == 1


def test_dispersionless_layer_is_string_solution(kdv):
    # genus-0 KdV string solution: u = x/(1 - t_1) + ... gives the
    # coefficient 1 on every t^1_0 t_1^k
    _, _, _, sol = kdv
    for k in range(1, BOUNDS.t_deg):
        m = (((1, 0), 1), ((1, 1), k))
        assert sol.coeff(1, m, 0) == 1


def test_string_dilaton_residuals_vanish(kdv):
    _, _, _, sol = kdv
    report = check_string_dilaton(sol)
    assert report.clean
    assert not report.string_residuals and not report.dilaton_residuals


def test_fault_injection_is_located(kdv):
    ctx, omega, h11, _ = kdv
    sol = special_solution(h11, omega, Bounds(t_max=2, t_deg=3, eps_max=2))
    target = (((1, 1), 1), ((1, 2), 1))
    old = sol.coeff(1, target, 2)
    sol.set_coeff(1, target, 2, old + 1)
    report = check_string_dilaton(sol)
    assert not report.clean
    assert (1, target, 2) in report.dilaton_residuals


def test_uniqueness_under_evaluation_order(kdv):
    ctx, omega, h11, sol = kdv
    other = special_solution(h11, omega, BOUNDS, route="min")
    assert all(a == b for a, b in zip(sol.c, other.c))


def test_precondition_mismatch_detected(kdv):
    ctx, omega, h11, _ = kdv
    ring = ctx.ring_w
    u = DiffPoly.jet(ring, 1, 0)
    broken = OmegaData(ring=ring, eta=omega.eta,
                       densities=dict(omega.densities))
    broken.densities[(1, 1)] = omega.densities[(1, 1)] + u ** 2
    with pytest.raises(ValueError):
        special_solution(h11, broken, BOUNDS)


# -- oracle comparison (small box; criterion 8 runs the full one) ---------------------------

def test_special_solution_matches_direct_flow_integration(kdv):
    ctx, omega, h11, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(3)}
    oracle = integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    sol = special_solution(h11, omega, small)
    assert solutions_agree(sol, oracle, small)


def test_evaluator_walks_stored_entries(kdv, monkeypatch):
    # work count on the small oracle box: recursion steps of the evaluator
    # and lookups of a jet source.  A walk over every divisor and eps split
    # makes 3178 steps and 27173 lookups here; the walk over stored nonzero
    # entries makes under 2000 of each.
    ctx, omega, h11, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(3)}
    counts = Counter()

    def counted(name, kind):
        original = getattr(SpecialSolution, name)

        def wrapper(self, *args):
            counts[kind] += 1
            return original(self, *args)

        monkeypatch.setattr(SpecialSolution, name, wrapper)

    counted("_eval_factors", "steps")
    counted("jet", "lookups")
    counted("direct_jet", "lookups")
    sol = special_solution(h11, omega, small)
    oracle = integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    assert solutions_agree(sol, oracle, small)
    assert counts["steps"] <= 2500 and counts["lookups"] <= 2500, counts


def test_oracle_never_uses_string_jets(kdv, monkeypatch):
    # the oracle stays independent of the string equation: direct_jet only
    ctx, omega, h11, _ = kdv
    small = Bounds(t_max=1, t_deg=3, eps_max=2)
    sol = special_solution(h11, omega, small)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(2)}

    def refuse(*args):
        raise AssertionError("the oracle called SpecialSolution.jet")

    monkeypatch.setattr(SpecialSolution, "jet", refuse)
    oracle = integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    assert solutions_agree(sol, oracle, small)


# -- the evaluator against a brute-force one on random tables ---------------------------------


def divisors(m):
    """Every (m1, m2) with m1 * m2 = m."""
    for split in product(*(range(p + 1) for _, p in m)):
        yield (tuple((v, k) for (v, _), k in zip(m, split) if k),
               tuple((v, p - k) for (v, p), k in zip(m, split) if p - k))


def with_factor(m, var, power):
    acc = Counter(dict(m))
    acc[var] += power
    return tuple(sorted((v, p) for v, p in acc.items() if p))


def pulled_jet(sol, gamma, d, m, i):
    """[d_x^d u^gamma] at t^m eps^i by the string equation, pointwise: each
    t^rho_k in m is lowered to t^rho_{k-1}, times its new exponent."""
    if d == 0:
        return sol.coeff(gamma, m, i)
    value = Fraction(int((gamma, d, m, i) == (1, 1, (), 0)))
    for (rho, k), _ in m:
        if k:
            lowered = with_factor(with_factor(m, (rho, k), -1), (rho, k - 1), 1)
            value += dict(lowered)[(rho, k - 1)] * pulled_jet(sol, gamma, d - 1, lowered, i)
    return value


def shifted_jet(sol, gamma, d, m, i):
    """[d_x^d u^gamma] at t^m eps^i as the t^1_0 shift with its rising factorial."""
    e0 = dict(m).get((1, 0), 0)
    return prod(range(e0 + 1, e0 + d + 1)) * sol.coeff(gamma, with_factor(m, (1, 0), d), i)


def brute_eval(sol, poly, m, i, jet):
    """Coefficient of t^m eps^i in poly(u, u_x, ...) over every divisor and eps split."""
    def factors_value(factors, m, i):
        if not factors:
            return Fraction(int(not m and i == 0))
        (gamma, order), rest = factors[0], factors[1:]
        total = Fraction(0)
        for m1, m2 in divisors(m):
            for i1 in range(i + 1):
                left = jet(sol, gamma, order, m1, i1)
                if left:
                    total += left * factors_value(rest, m2, i - i1)
        return total

    total = Fraction(0)
    for (eps, jets), coeff in poly.terms.items():
        if eps <= i:
            factors = [(gamma, order) for gamma, order, power in jets for _ in range(power)]
            total += coeff.rational() * factors_value(factors, m, i - eps)
    return total


RING2 = Ring(2)


def box_points(sol):
    b = sol.bounds
    return [(m, i) for degree in range(b.t_deg + 1)
            for m in monomials(sol.variables(), degree) for i in range(b.eps_max + 1)]


@st.composite
def random_tables(draw):
    """A table on a box with t_max <= 2, degree <= 3, eps <= 2, filled at a
    random density; entries also carry up to two extra t^1_0 factors, as the
    oracle's table does."""
    bounds = Bounds(draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    sol = SpecialSolution(RING2, bounds)
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    for m, i in box_points(sol):
        for alpha, k in product((1, 2), range(3)):
            if rng.random() < density:
                sol.set_coeff(alpha, with_factor(m, (1, 0), k), i,
                              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return sol


@st.composite
def random_polys(draw):
    poly = DiffPoly.zero(RING2)
    for _ in range(draw(st.integers(1, 3))):
        term = DiffPoly.const(RING2, draw(st.sampled_from([-2, -1, 1, 3]))) \
            .eps_shift(draw(st.integers(0, 1)))
        for gamma, order in draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 3)),
                                          max_size=3)):
            term = term * DiffPoly.jet(RING2, gamma, order)
        poly = poly + term
    return poly


@settings(max_examples=25, deadline=None)
@given(random_tables(), random_polys())
def test_eval_poly_matches_brute_force(sol, poly):
    for m, i in box_points(sol):
        assert sol.eval_poly(poly, m, i) == brute_eval(sol, poly, m, i, pulled_jet)
        assert sol.eval_poly(poly, m, i, jet_fn=sol.direct_jet) \
            == brute_eval(sol, poly, m, i, shifted_jet)


# -- jet rewriting -----------------------------------------------------------------------

def test_jet_rewrite_translation_flow(kdv):
    _, _, _, sol = kdv
    polys = jet_rewrite(sol.flow_series(1, 0), sol)
    assert polys[0] == DiffPoly.jet(sol.ring, 1, 1)


def test_jet_rewrite_recovers_kdv_flow(kdv):
    ctx, _, h11, sol = kdv
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    expected = flow(h11, K)[0]
    polys = jet_rewrite(sol.flow_series(1, 1), sol)
    assert polys[0] == expected


def test_jet_rewrite_zero(kdv):
    _, _, _, sol = kdv
    assert jet_rewrite([dict()], sol)[0].is_zero()


# -- the three-condition checker ------------------------------------------------------------

def test_verify_r3_identity():
    ctx = ctx_for(3)
    report = verify_dr_dz_equivalence(ctx, miura=MiuraMap.identity(ctx.ring_w))
    assert report.conditions == (True, True, True)
    assert report.verdict


def test_verify_r4_shift_map():
    ctx = ctx_for(4)
    report = verify_dr_dz_equivalence(ctx)
    assert report.conditions == (True, True, True)


def test_verify_r4_identity_fails_condition_two():
    ctx = ctx_for(4)
    report = verify_dr_dz_equivalence(ctx, miura=MiuraMap.identity(ctx.ring_w))
    assert report.conditions[1] is False
    assert not report.verdict
    data = report.to_json_dict()
    assert data["conditions"] == [True, False, False]


def test_dz_miura_map_shapes():
    ring4 = Ring(3, 1)
    m4 = dz_miura_map(4, ring4)
    assert m4.entries[0] == DiffPoly.jet(ring4, 1, 0) \
        + (DiffPoly.jet(ring4, 3, 2) / 96).eps_shift(2)
    assert m4.entries[1] == DiffPoly.jet(ring4, 2, 0)
    ring5 = Ring(4, 5)
    m5 = dz_miura_map(5, ring5)
    assert m5.entries[1] == DiffPoly.jet(ring5, 2, 0) \
        + (DiffPoly.jet(ring5, 4, 2) / 60).eps_shift(2)


# -- flow agreement for r = 3 (equivalence corollary) -------------------------------------------

def test_r3_flow_agreement():
    ctx = ctx_for(3)
    omega = omega_from_gd(ctx, q_max=3)
    sol = special_solution(builtin_g11(3, ctx.ring_w), omega, BOUNDS)
    assert check_string_dilaton(sol).clean
    polys = jet_rewrite(sol.flow_series(2, 0), sol)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(3))
    expected = flow(rspin_hamiltonian(ctx, 2, 0), K)
    for a in range(2):
        assert polys[a] == expected[a].truncate_eps(BOUNDS.eps_max)


def test_r3_special_solution_matches_direct_flow_integration():
    # DR/DZ equivalence at r = 3 with the identity Miura map: the special
    # solution built from the DR g_{1,1} is the solution of the r-spin flows
    ctx = ctx_for(3)
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    omega = omega_from_gd(ctx, q_max=2)
    sol = special_solution(builtin_g11(3, ctx.ring_w), omega, small)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(3))
    flows = {(beta, q): flow(rspin_hamiltonian(ctx, beta, q), K)
             for beta in (1, 2) for q in range(3)}
    oracle = integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    assert solutions_agree(sol, oracle, small)
