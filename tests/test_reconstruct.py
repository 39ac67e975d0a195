import pytest

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
