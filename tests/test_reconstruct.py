from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhier import reconstruct
from drhier.diffpoly import DiffPoly, Ring, integrate, local_eq
from drhier.drspin import DR_DZ_SHIFTS, builtin_g11
from drhier.gdhier import eta_matrix, gd_context, rspin_hamiltonian, rspin_system
from drhier.hamops import (HamiltonianOperator, MiuraMap, flow, miura_invert,
                           miura_push_operator, miura_push_poly)
from drhier.psido import PseudoDiffOp
from drhier.reconstruct import (
    SLOT_MAX,
    Bounds,
    OmegaData,
    SpecialSolution,
    check_string_dilaton,
    dz_miura_map,
    integrate_flows_directly,
    jet_rewrite,
    omega_from_gd,
    pack_key,
    solutions_agree,
    special_solution,
    t_derivative,
    VerdictReport,
    verify_dr_dz_equivalence,
)

BOUNDS = Bounds(t_max=3, t_deg=4, eps_max=4)


def monomials(variables, degree):
    """Every t-monomial of the given total degree in the given variables."""
    for combo in combinations_with_replacement(variables, degree):
        yield tuple(sorted(Counter(combo).items()))


@pytest.fixture(scope="module")
def kdv():
    ctx = gd_context(2)
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


def test_string_residuals_audit_the_table_not_the_jet_cache(kdv):
    # the string side pushes d_x u forward from the table itself: a changed
    # cached jet is not reported, a changed table entry still is
    _, omega, h11, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    sol = special_solution(h11, omega, small)
    sol.jet(1, 1)[pack_key(1, (((1, 1), 1),), 0)] += 1
    assert check_string_dilaton(sol).clean
    sol = special_solution(h11, omega, small)
    target = (((1, 0), 1), ((1, 1), 1))
    sol.set_coeff(1, target, 0, sol.coeff(1, target, 0) + 1)
    assert (1, (((1, 1), 1),), 0) in check_string_dilaton(sol).string_residuals


def test_omega_is_read_only_up_to_q_1(kdv):
    # the construction reads density(beta, 0) and density(1, 1): data up to
    # q = 1 gives the same tables on a t_max = 3 box as data up to q = 3
    ctx, omega, h11, sol = kdv
    assert max(q for _, q in omega.densities) == BOUNDS.t_max == 3
    assert special_solution(h11, omega_from_gd(ctx, q_max=1), BOUNDS).tables() \
        == sol.tables()


def broken_omega(omega, q):
    """omega with u^2 added to density (1, q)."""
    u = DiffPoly.jet(omega.ring, 1, 0)
    densities = dict(omega.densities)
    densities[(1, q)] = densities[(1, q)] + u ** 2
    return OmegaData(ring=omega.ring, eta=omega.eta, densities=densities)


def test_precondition_mismatch_detected(kdv):
    _, omega, h11, _ = kdv
    with pytest.raises(ValueError, match="h11 dispersionless part"):
        special_solution(h11, broken_omega(omega, 1), BOUNDS)


def test_omega_must_keep_the_initial_condition(kdv):
    # Omega_{1,1;1,0} gives the t^1_0 column of degree 1, which must be u^1 = x
    _, omega, h11, _ = kdv
    with pytest.raises(ValueError, match="initial condition"):
        special_solution(h11, broken_omega(omega, 0), BOUNDS)


@pytest.mark.parametrize("bounds, extra", [
    (Bounds(1, SLOT_MAX + 1, 0), 0),
    (Bounds(1, 2, SLOT_MAX + 1), 0),
    (Bounds(1, SLOT_MAX - 1, 0), 2),
    (Bounds(5000, 2, 1), 0),
])
def test_boxes_beyond_the_packed_slots_are_refused(kdv, bounds, extra):
    # a t-degree (t^1_0 extension included), eps order or subscript the
    # packed keys cannot hold is refused before any level is built
    ctx, omega, h11, _ = kdv
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(2)}
    with pytest.raises(ValueError, match="slot"):
        integrate_flows_directly(flows, ctx.ring_w, bounds, t10_extra=extra)
    if not extra:
        with pytest.raises(ValueError, match="slot"):
            special_solution(h11, omega, bounds)


# -- oracle comparison (small box; criterion 8 runs the full one) ---------------------------

def test_special_solution_matches_direct_flow_integration(kdv):
    ctx, omega, h11, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(3)}
    oracle = integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    sol = special_solution(h11, omega, small)
    assert solutions_agree(sol, oracle, small)
    # the comparison can fail: one changed entry inside the box is seen
    target = (((1, 1), 1), ((1, 2), 1))
    sol.set_coeff(1, target, 2, sol.coeff(1, target, 2) + 1)
    assert not solutions_agree(sol, oracle, small)
    assert not solutions_agree(oracle, sol, small)


def test_evaluator_walks_stored_entries(kdv, monkeypatch):
    # work count on the small oracle box: the special solution makes no
    # pointwise step (the coefficient-at-a-time recursion makes 121 steps
    # and 124 jet lookups here) but one series product per entry of the
    # t^1_1 flow and level, genus 0 included from degree 2 on, and each
    # product reads one jet per factor of each term
    _, omega, h11, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    counts = Counter()
    levels = Counter()
    poly_series = SpecialSolution.poly_series

    def counted(name, kind):
        original = getattr(SpecialSolution, name)

        def wrapper(self, *args):
            counts[kind] += 1
            return original(self, *args)

        monkeypatch.setattr(SpecialSolution, name, wrapper)

    def counted_series(self, p, jet_fn, eps_max, deg_max, rest_max=None, exact=False):
        levels[(eps_max, deg_max, exact)] += 1
        return poly_series(self, p, jet_fn, eps_max, deg_max, rest_max, exact)

    counted("_eval_factors", "steps")
    counted("jet", "lookups")
    monkeypatch.setattr(SpecialSolution, "poly_series", counted_series)
    special_solution(h11, omega, small)
    # degree 1 is read off the data, and genus 0 builds no flow of Omega
    expected = Counter({(0, n, True): 1 for n in range(2, small.t_deg + 1)})
    expected.update({(i, n, True): 1 for i in range(1, small.eps_max + 1)
                     for n in range(small.t_deg + 1)})
    assert levels == expected
    assert counts["steps"] == 0 and counts["lookups"] <= 40, counts


def test_each_level_reaches_each_cached_jet_once(kdv, monkeypatch):
    # special_solution writes each field's level at once: the level's change
    # reaches the cached string jets of that field through one shared
    # raise_subscripts chain, so a write makes at most one call per cached
    # jet of its field, however many entries the level holds
    _, omega, h11, _ = kdv
    calls = Counter()
    writes = []
    raise_subscripts = reconstruct.raise_subscripts
    write = SpecialSolution._write

    def counted_raise(*args):
        calls["raise"] += 1
        return raise_subscripts(*args)

    def counted_write(self, alpha, level, den):
        before = calls["raise"]
        jets = sum(gamma == alpha for gamma, _ in self._jets)
        write(self, alpha, level, den)
        writes.append((len(level), jets, calls["raise"] - before))

    monkeypatch.setattr(reconstruct, "raise_subscripts", counted_raise)
    monkeypatch.setattr(SpecialSolution, "_write", counted_write)
    bounds = Bounds(t_max=5, t_deg=6, eps_max=6)
    sol = special_solution(h11, omega, bounds)
    assert all(made <= jets for _, jets, made in writes), writes
    # degree 1 is one one-entry write; after it, one write per nonempty
    # (field, level), where one write per entry would push 193 entries
    levels = bounds.t_deg - 1 + bounds.eps_max * (bounds.t_deg + 1)
    assert len(writes) <= 1 + levels < sum(size for size, _, _ in writes) \
        == sol.entry_count() == 193
    assert sum(made for _, _, made in writes) * 5 < sum(size * jets for size, jets, _ in writes)


def test_oracle_evaluates_each_flow_once_per_level(kdv, monkeypatch):
    # the oracle makes no pointwise evaluation: at each rest degree it
    # multiplies out each flow of each field once, as a whole series
    ctx, _, _, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(3)}
    pointwise = Counter()
    products = Counter()
    poly_series = SpecialSolution.poly_series

    def counted_eval(self, *args, **kwargs):
        pointwise["eval_poly"] += 1

    def counted_series(self, p, jet_fn, eps_max, deg_max, rest_max=None):
        products[(id(p), rest_max)] += 1
        return poly_series(self, p, jet_fn, eps_max, deg_max, rest_max)

    monkeypatch.setattr(SpecialSolution, "eval_poly", counted_eval)
    monkeypatch.setattr(SpecialSolution, "poly_series", counted_series)
    integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    assert not pointwise
    expected = Counter((id(flows[(1, q)][0]), level) for q in (1, 2)
                       for level in range(small.t_deg))
    assert products == expected


def test_jet_rewrite_makes_no_pointwise_evaluation(kdv, monkeypatch):
    # jet_rewrite subtracts one series product per peeled monomial
    ctx, _, h11, sol = kdv
    series = sol.flow_series(1, 1)
    products = Counter()
    series_product = SpecialSolution.series_product

    def refuse(*args, **kwargs):
        raise AssertionError("jet_rewrite evaluated one coefficient")

    def counted(self, factors, *args):
        products[tuple(factors)] += 1
        return series_product(self, factors, *args)

    monkeypatch.setattr(SpecialSolution, "eval_poly", refuse)
    monkeypatch.setattr(SpecialSolution, "_eval_factors", refuse)
    monkeypatch.setattr(SpecialSolution, "series_product", counted)
    polys = jet_rewrite(series, sol)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    assert polys[0] == flow(h11, K)[0].truncate_eps(BOUNDS.eps_max)
    # w w_1 + eps^2 w_3 / 12 = z_0 z_1 + z_0 + eps^2 z_3 / 12 (z_1 = w_1 - 1)
    assert products == Counter({((1, 0), (1, 1)): 1, ((1, 0),): 1, ((1, 3),): 1})


def test_oracle_never_uses_string_jets(kdv, monkeypatch):
    # the oracle stays independent of the string equation: it reads only the
    # t^1_0 derivatives it takes of its own tables
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


# -- the level-at-a-time special solution against the pointwise recursion ------------------


def pointwise_special_solution(h11, omega, bounds):
    """The special solution one coefficient at a time: each entry is its flow
    evaluated at one monomial and written at once, in subscript order within
    a level, so later entries of the level read the earlier ones."""
    ring = h11.ring
    k_eta = HamiltonianOperator.eta_dx(ring, omega.eta)
    flows_p = flow(h11, k_eta)
    genus0_flows = {(beta, q): flow(integrate(omega.density(beta, q)), k_eta)
                    for beta in range(1, ring.n_fields + 1)
                    for q in range(bounds.t_max + 1)}
    sol = SpecialSolution(ring, bounds)

    def level(degree):
        return sorted(monomials(sol.variables(), degree),
                      key=lambda m: sum(k * p for (_, k), p in m))

    sol.set_coeff(1, (((1, 0), 1),), 0, Fraction(1))
    for degree in range(1, bounds.t_deg + 1):
        for m in level(degree):
            rest = [v for v, _ in m if v != (1, 0)]
            if rest:
                var = max(rest)
                for alpha in range(1, ring.n_fields + 1):
                    value = sol.eval_poly(genus0_flows[var][alpha - 1],
                                          with_factor(m, var, -1), 0)
                    sol.set_coeff(alpha, m, 0, value / dict(m)[var])
    for i in range(1, bounds.eps_max + 1):
        for degree in range(bounds.t_deg + 1):
            for m in level(degree):
                values = [sol.eval_poly(p, m, i) for p in flows_p]
                if degree == 0 and i == 1:
                    assert not any(values)
                    continue
                for alpha, value in enumerate(values, start=1):
                    sol.set_coeff(alpha, m, i, value / (i + degree - 1))
    return sol


# the reference integrates the Omega flows up to q = t_max: r = 4 at t_max = 2
# needs Lax root powers to depth 17 (about 8 s on 2 vCPUs), so the r = 4 and
# r = 5 boxes stay at t_max = 1
LEVEL_BOXES = [(2, Bounds(4, 5, 6)), (2, Bounds(3, 4, 4)), (3, Bounds(2, 3, 2)),
               (3, Bounds(3, 4, 4)), (4, Bounds(1, 3, 2)), (5, Bounds(1, 3, 2))]


@cache
def level_inputs(r):
    """(h_{1,1}, omega) at r for every box of LEVEL_BOXES: r-spin h_{1,1} at
    r = 2, the DR g_{1,1} above."""
    ctx = gd_context(r)
    q_max = max(bounds.t_max for s, bounds in LEVEL_BOXES if s == r)
    h11 = rspin_hamiltonian(ctx, 1, 1) if r == 2 else builtin_g11(r)
    return h11, omega_from_gd(ctx, q_max)


@pytest.mark.parametrize("r, bounds", LEVEL_BOXES)
def test_special_solution_matches_pointwise_recursion(r, bounds):
    h11, omega = level_inputs(r)
    reference = pointwise_special_solution(h11, omega, bounds).tables()
    assert special_solution(h11, omega, bounds).tables() == reference


@pytest.mark.parametrize("r", [2, 3])
def test_special_solution_makes_no_pointwise_evaluation(r, monkeypatch):
    h11, omega = level_inputs(r)

    def refuse(*args, **kwargs):
        raise AssertionError("special_solution evaluated one coefficient")

    monkeypatch.setattr(SpecialSolution, "eval_poly", refuse)
    monkeypatch.setattr(SpecialSolution, "_eval_factors", refuse)
    sol = special_solution(h11, omega, Bounds(t_max=2, t_deg=3, eps_max=2))
    assert check_string_dilaton(sol).clean


def test_series_products_do_no_fraction_arithmetic(kdv, monkeypatch):
    # over a built solution, whole-series products and polynomial series run
    # on int numerators: Fraction arithmetic is refused while they run again
    ctx, omega, h11, _ = kdv
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    sol = special_solution(h11, omega, small)
    flows_p = flow(h11, HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2)))
    shifted = direct_jets(sol)

    def products():
        out = [sol.series_product([(1, 0), (1, 1), (1, 1)], sol.jet, 2, 3),
               sol.series_product([(1, 0), (1, 1)], sol.jet, 2, 3, None, True)]
        for p in flows_p:
            for jet_fn in (sol.jet, shifted):
                out += [sol.poly_series(p, jet_fn, 2, 3),
                        sol.poly_series(p, jet_fn, 2, 3, 1),
                        sol.poly_series(p, jet_fn, 2, 3, exact=True)]
        return out

    warm = products()
    assert all(series for series, _ in warm)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a t-series product")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert products() == warm


# -- the oracle's whole table, against the tables the pointwise oracle wrote -----------------

ORACLE_GOLDEN = Path(__file__).parent / "golden" / "oracle-tables.txt"
ORACLE_BOXES = [(2, Bounds(3, 4, 4), 12), (2, Bounds(2, 3, 2), 8),
                (2, Bounds(1, 3, 2), 8), (3, Bounds(2, 3, 2), 8)]


def oracle_tables_text():
    """Every entry of integrate_flows_directly(...).tables() on the pinned boxes,
    t^1_0-extended ones included (solutions_agree sees only the box)."""
    lines = []
    for r, bounds, extra in ORACLE_BOXES:
        ctx = gd_context(r)
        K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(r))
        flows = {(beta, q): flow(rspin_hamiltonian(ctx, beta, q), K)
                 for beta in range(1, r) for q in range(bounds.t_max + 1)}
        oracle = integrate_flows_directly(flows, ctx.ring_w, bounds, t10_extra=extra)
        lines.append(f"# r={r} Bounds({bounds.t_max}, {bounds.t_deg}, "
                     f"{bounds.eps_max}) t10_extra={extra}")
        for alpha, table in enumerate(oracle.tables(), start=1):
            for (m, i), value in sorted(table.items()):
                mon = "*".join(f"t{g}_{k}" + (f"^{p}" if p > 1 else "")
                               for (g, k), p in m) or "1"
                lines.append(f"u^{alpha} eps^{i} {mon} {value}")
    return "\n".join(lines) + "\n"


def test_oracle_tables_golden():
    assert oracle_tables_text() == ORACLE_GOLDEN.read_text()


# -- the evaluator against a brute-force one on random tables ---------------------------------


def divisors(m):
    """Every (m1, m2) with m1 * m2 = m."""
    for split in product(*(range(p + 1) for _, p in m)):
        yield (tuple((v, k) for (v, _), k in zip(m, split) if k),
               tuple((v, p - k) for (v, p), k in zip(m, split) if p - k))


def direct_jets(sol):
    """The jet function d_x^d u^gamma = d^d u^gamma/d(t^1_0)^d of sol's
    table as it stands, memoized: the jets the oracle reads at a level."""
    return cache(lambda gamma, d: t_derivative(sol.jet(gamma, 0), sol.ring.n_fields,
                                               (1, 0), d))


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
    for (eps, jets), coeff in poly.items():
        if eps <= i:
            factors = [(gamma, order) for gamma, order, power in jets for _ in range(power)]
            total += coeff * factors_value(factors, m, i - eps)
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
    shifted = direct_jets(sol)
    for m, i in box_points(sol):
        assert sol.eval_poly(poly, m, i) == brute_eval(sol, poly, m, i, pulled_jet)
        assert sol.eval_poly(poly, m, i, jet_fn=shifted) \
            == brute_eval(sol, poly, m, i, shifted_jet)


def pointwise_integration(flows, bounds, t10_extra):
    """The direct integration one coefficient at a time: each t^m is read off
    the flow of its largest variable other than t^1_0, at t^m over it."""
    sol = SpecialSolution(RING2, bounds)
    sol.set_coeff(1, (((1, 0), 1),), 0, Fraction(1))
    rest_vars = [v for v in sol.variables() if v != (1, 0)]
    for rest_degree in range(1, bounds.t_deg + 1):
        for rest in monomials(rest_vars, rest_degree):
            var, e = rest[-1]
            for k in range(bounds.t_deg + t10_extra - rest_degree + 1):
                m = with_factor(rest, (1, 0), k)
                for alpha, i in product((1, 2), range(bounds.eps_max + 1)):
                    value = sol.eval_poly(flows[var][alpha - 1], with_factor(m, var, -1),
                                          i, jet_fn=direct_jets(sol))
                    sol.set_coeff(alpha, m, i, value / e)
    return sol


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_oracle_matches_pointwise_integration(data):
    # arbitrary (non-commuting) flows, so the route through the largest
    # variable is pinned too, not only its value on a true hierarchy
    bounds = Bounds(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)),
                    data.draw(st.integers(0, 2)))
    t10_extra = data.draw(st.integers(0, 2))
    rest_vars = [v for v in SpecialSolution(RING2, bounds).variables() if v != (1, 0)]
    flows = {var: [data.draw(random_polys()) for _ in range(2)] for var in rest_vars}
    oracle = integrate_flows_directly(flows, RING2, bounds, t10_extra)
    assert oracle.tables() == pointwise_integration(flows, bounds, t10_extra).tables()


# -- jet caches follow interleaved writes ------------------------------------------------------


def fresh_copy(sol):
    fresh = SpecialSolution(sol.ring, sol.bounds)
    for alpha, table in enumerate(sol.tables(), start=1):
        for (m, i), value in table.items():
            fresh.set_coeff(alpha, m, i, value)
    return fresh


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_jet_caches_follow_writes(data):
    # writes (to zero, back to an earlier value, and whole levels over one
    # denominator) between reads of the string jets: every cached series
    # stays equal to a fresh recomputation
    bounds = Bounds(data.draw(st.integers(1, 3)), 3, data.draw(st.integers(0, 2)))
    sol = SpecialSolution(RING2, bounds)
    keys = [(with_factor(m, (1, 0), k), i) for m, i in box_points(sol) for k in range(2)]
    history: dict = {}
    live = {}
    for _ in range(data.draw(st.integers(1, 25))):
        action = data.draw(st.sampled_from(["entry", "level", "read"]))
        if action == "entry":
            alpha = data.draw(st.integers(1, 2))
            m, i = data.draw(st.sampled_from(keys))
            earlier = history.get((alpha, m, i), [])
            if earlier and data.draw(st.booleans()):
                value = data.draw(st.sampled_from(earlier))
            else:
                value = Fraction(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 3)))
            history.setdefault((alpha, m, i), []).append(sol.coeff(alpha, m, i))
            sol.set_coeff(alpha, m, i, value)
        elif action == "level":
            alpha = data.draw(st.integers(1, 2))
            points = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6,
                                        unique=True))
            nums = [data.draw(st.integers(-6, 6)) for _ in points]
            den = data.draw(st.integers(1, 12))
            for m, i in points:
                history.setdefault((alpha, m, i), []).append(sol.coeff(alpha, m, i))
            sol._write(alpha, {pack_key(2, m, i): num for (m, i), num in zip(points, nums)},
                       den)
            assert [sol.coeff(alpha, m, i) for m, i in points] == \
                [Fraction(num, den) for num in nums]
        else:
            gamma, d = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3))
            live[(gamma, d)] = sol.jet(gamma, d)
        fresh = fresh_copy(sol)
        assert sol.den % fresh.den == 0
        for (gamma, d), series in sol.cached_jets().items():
            assert series == fresh.decode(fresh.jet(gamma, d)), (gamma, d)
        for (gamma, d), series in live.items():
            assert series is sol.jet(gamma, d)
            assert sol.decode(series) == fresh.decode(fresh.jet(gamma, d))


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


def test_jet_rewrite_refuses_a_series_that_leaves_the_box(kdv):
    _, _, _, sol = kdv
    # t^1_4 is a jet of order 4, above the box's t_max = 3
    beyond = {pack_key(1, (((1, BOUNDS.t_max + 1), 1),), 0): sol.den}
    with pytest.raises(ValueError, match="jet order 4 > bound 3"):
        jet_rewrite([beyond], sol)
    # an eps order above eps_max is never peeled, so the residual stays
    deeper = {pack_key(1, (((1, 1), 1),), BOUNDS.eps_max + 1): sol.den}
    with pytest.raises(ValueError, match="not closed by jets"):
        jet_rewrite([deeper], sol)


# -- the three-condition checker ------------------------------------------------------------

def test_verify_r3_identity():
    ctx = gd_context(3)
    report = verify_dr_dz_equivalence(ctx, miura=MiuraMap.identity(ctx.ring_w))
    assert report.conditions == (True, True, True)
    assert report.verdict


def test_verify_r4_shift_map():
    ctx = gd_context(4)
    report = verify_dr_dz_equivalence(ctx)
    assert report.conditions == (True, True, True)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_condition_three_is_the_canonical_density_of_the_difference(r, monkeypatch):
    ctx = gd_context(r)
    report = verify_dr_dz_equivalence(ctx)
    assert report.conditions == (True, True, True) and report.hamiltonian_diff.is_zero()
    eps_max, ring = 2 * r + 2, ctx.ring_w
    pushed = miura_push_poly(builtin_g11(r),
                             miura_invert(dz_miura_map(r, ring), eps_max), eps_max)
    rspin_system = reconstruct.rspin_system
    u = DiffPoly.jet(ring, r - 1, 1)
    for shift, cond3 in ((u * u * u, False),  # a new functional
                         (DiffPoly.const(ring, 5) + (u * u).dx(), True)):  # a constant
        def perturbed(ctx, alpha, d):
            K, h = rspin_system(ctx, alpha, d)
            return K, h + integrate(shift.eps_shift(2))

        monkeypatch.setattr(reconstruct, "rspin_system", perturbed)
        h = perturbed(ctx, 1, 1)[1].truncate_eps(eps_max)
        report = verify_dr_dz_equivalence(ctx)
        assert report.conditions == (True, True, cond3) == (True, True, local_eq(pushed, h))
        assert report.hamiltonian_diff == \
            pushed.canonical_density() - h.canonical_density()
        assert report.hamiltonian_diff.is_zero() is cond3


def test_verify_r4_identity_fails_condition_two():
    ctx = gd_context(4)
    report = verify_dr_dz_equivalence(ctx, miura=MiuraMap.identity(ctx.ring_w))
    assert report.conditions[1] is False
    assert not report.verdict
    data = report.to_json_dict()
    assert data["conditions"] == [True, False, False]


def test_failure_names_the_lowest_eps_order_of_the_first_failed_condition():
    ring = Ring(2, 1)
    u = lambda alpha, order: DiffPoly.jet(ring, alpha, order)
    operator_diff = HamiltonianOperator.zero(ring)
    operator_diff.entries[0][1] = PseudoDiffOp.dx(ring, 1, Fraction(1, 5))
    report = VerdictReport(
        r=3, conditions=(False, False, True), operator_diff=operator_diff,
        hamiltonian_diff=DiffPoly.zero(ring), eps_max=8,
        miura_diff=(DiffPoly.zero(ring),
                    (u(2, 4) * 3).eps_shift(4) + (u(1, 2) * u(2, 0)).eps_shift(2)))
    names = {1: "w1", 2: "w2"}
    assert report.failure(names) == \
        "dw/du1 = delta failure at eps^2: dw2/du1 - delta^{2,1} has eps^2*w1_2*w2"
    report.conditions = (True, False, True)
    assert report.failure(names) == \
        "push(eta dx) = K failure at eps^0: entry (1,2) of lhs - rhs has 1/5 at d_x^1"
    report.conditions = (True, True, True)
    assert report.failure(names) is None


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
    with pytest.raises(ValueError, match="no Miura map data for r = 6"):
        dz_miura_map(6, Ring(5))


# -- the DR -> DZ Miura map, derived ------------------------------------------------------------


def eps2_residuals(r, shifts):
    """The eps^2 parts of conditions 2 and 3 for the map w^alpha = u^alpha +
    c_alpha eps^2 u^{alpha+2}_2, c_alpha = shifts.get(alpha, 0): the
    nonzero coefficients of push(eta d_x) - K^{r-spin} and of the canonical
    density of g11[w] - h^{r-spin}_{1,1}, by where they sit."""
    ctx = gd_context(r)
    ring = ctx.ring_w
    entries = [DiffPoly.jet(ring, a, 0) for a in range(1, r)]
    for a, c in shifts.items():
        entries[a - 1] += (DiffPoly.jet(ring, a + 2, 2) * c).eps_shift(2)
    miura = MiuraMap(ring, entries)
    inverse = miura_invert(miura, 2)
    k_spin, h_spin = rspin_system(ctx, 1, 1)
    op = miura_push_operator(HamiltonianOperator.eta_dx(ring, eta_matrix(r)), miura,
                             inverse, 2) - k_spin.truncate_eps(2)
    density = (miura_push_poly(builtin_g11(r), inverse, 2)
               - h_spin.truncate_eps(2)).canonical_density()
    parts = [((a, b, n), c) for a, row in enumerate(op.entries) for b, entry in enumerate(row)
             for n, c in entry.coeffs.items()] + [("density", density)]
    return {(place, jets): v for place, poly in parts
            for (eps, jets), v in poly.items() if eps == 2}


def solve_exact(rows, n):
    """The unique x with sum_i row[i] x_i = row[n] for every row, over Q,
    by Gauss-Jordan elimination; a rank below n or an inconsistent row
    fails the test."""
    rows, solved = [list(map(Fraction, row)) for row in rows], []
    for col in range(n):
        pivot = next(row for row in rows if row[col])
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        rows, solved = ([[v - row[col] * p for v, p in zip(row, pivot)] for row in block]
                        for block in (rows, solved))
        solved.append(pivot)
    assert not any(any(row) for row in rows)
    return [row[n] for row in solved]


@pytest.mark.parametrize("r, expected", [(4, {1: Fraction(1, 96)}),
                                         (5, {1: Fraction(1, 60), 2: Fraction(1, 60)})])
def test_dr_dz_miura_shifts_are_derived(r, expected):
    # the weight grading leaves one unknown c_alpha per alpha <= r - 3, and
    # the eps^2 parts of conditions 2 and 3 are affine in each: evaluating
    # them at c = 0 and at each unit vector gives a linear system over Q
    unknowns = [a for a in range(1, r) if a + 2 < r]
    base = eps2_residuals(r, {})
    columns = [eps2_residuals(r, {a: 1}) for a in unknowns]
    places = sorted(base.keys() | {k for col in columns for k in col}, key=repr)
    rows = [[col.get(k, 0) - base.get(k, 0) for col in columns] + [-base.get(k, 0)]
            for k in places]
    derived = dict(zip(unknowns, solve_exact(rows, len(unknowns))))
    assert derived == expected == {a: c for a, (_, c) in DR_DZ_SHIFTS[r].items()}
    assert all(beta == a + 2 for a, (beta, _) in DR_DZ_SHIFTS[r].items())
    assert base and not eps2_residuals(r, derived)


# -- flow agreement for r = 3 (equivalence corollary) -------------------------------------------

def test_r3_flow_agreement():
    ctx = gd_context(3)
    sol = special_solution(*level_inputs(3), BOUNDS)
    assert check_string_dilaton(sol).clean
    polys = jet_rewrite(sol.flow_series(2, 0), sol)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(3))
    expected = flow(rspin_hamiltonian(ctx, 2, 0), K)
    for a in range(2):
        assert polys[a] == expected[a].truncate_eps(BOUNDS.eps_max)


def test_r3_special_solution_matches_direct_flow_integration():
    # DR/DZ equivalence at r = 3 with the identity Miura map: the special
    # solution built from the DR g_{1,1} is the solution of the r-spin flows
    ctx = gd_context(3)
    small = Bounds(t_max=2, t_deg=3, eps_max=2)
    omega = omega_from_gd(ctx, q_max=2)
    sol = special_solution(builtin_g11(3), omega, small)
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(3))
    flows = {(beta, q): flow(rspin_hamiltonian(ctx, beta, q), K)
             for beta in (1, 2) for q in range(3)}
    oracle = integrate_flows_directly(flows, ctx.ring_w, small, t10_extra=8)
    assert solutions_agree(sol, oracle, small)
