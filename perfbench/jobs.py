"""API jobs of the benchmark.  Each checks exact identities on its own output
and returns (identities checked, identities that failed)."""

from __future__ import annotations

import random
from fractions import Fraction

from drhier.gdhier import GDContext, eta_matrix, rspin_hamiltonian, rspin_operator
from drhier.hamops import HamiltonianOperator, flow
from drhier.psido import root_depth_for_residue
from drhier.quantize import (
    DeformedRule,
    StandardRule,
    WeylContext,
    WeylElement,
    f_r_map,
    weyl_star,
)
from drhier.reconstruct import (
    Bounds,
    check_string_dilaton,
    integrate_flows_directly,
    omega_from_gd,
    solutions_agree,
    special_solution,
)
from drhier.scalars import AlgScalar


def random_weyl(rng: random.Random, ctx: WeylContext, max_degree: int) -> WeylElement:
    """1-4 normal-ordered words of degree <= max_degree, coefficients in +-3/{1,2}."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        counts: dict = {}
        for _ in range(rng.randint(0, max_degree)):
            mode = (rng.randint(1, ctx.n_fields), rng.randint(-ctx.window, ctx.window))
            counts[mode] = counts.get(mode, 0) + 1
        pkey = tuple(sorted((a, k, p) for (a, k), p in counts.items()))
        terms[(0, 0, pkey)] = AlgScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return WeylElement(ctx, terms)


def associativity(rng, r: int, triples: int, max_degree: int, window: int):
    ctx = WeylContext(n_fields=r - 1, window=window)
    rule = StandardRule.from_eta(eta_matrix(r))
    failed = 0
    for _ in range(triples):
        a, b, c = (random_weyl(rng, ctx, max_degree) for _ in range(3))
        if weyl_star(weyl_star(a, b, rule), c, rule) \
                != weyl_star(a, weyl_star(b, c, rule), rule):
            failed += 1
    return triples, failed


def quantize_r3(seed: int, triples: int = 600):
    """Standard-rule associativity over Q(i): r = 3, degree <= 7, window 5."""
    return associativity(random.Random(f"quantize-r3:{seed}"), 3, triples, 7, 5)


def quantize_r4(seed: int, triples: int = 600, pairs: int = 300):
    """r = 4: associativity (degree <= 6, window 5), then the f_4 identity
    f_4(a *_def b) = f_4(a) *_std f_4(b) on random pairs."""
    rng = random.Random(f"quantize-r4:{seed}")
    checked, failed = associativity(rng, 4, triples, 6, 5)
    ctx = WeylContext(n_fields=3, window=5)
    rule_def = DeformedRule.from_operator(rspin_operator(GDContext(4, 12)))
    rule_std = StandardRule.from_eta(eta_matrix(4))
    for _ in range(pairs):
        a, b = random_weyl(rng, ctx, 6), random_weyl(rng, ctx, 6)
        if f_r_map(4, weyl_star(a, b, rule_def)) \
                != weyl_star(f_r_map(4, a), f_r_map(4, b), rule_std):
            failed += 1
    return checked + pairs, failed


def reconstruct_oracle(seed: int):
    """The r = 2 special solution at (T, D, E) = (3, 4, 4) against direct
    multi-flow integration (acceptance criterion 8).

    Checks: clean string/dilaton residuals, and agreement with the oracle
    on the common box.  The inputs are fixed; ``seed`` is unused.
    """
    t_max = 3
    ctx = GDContext(2, root_depth_for_residue(1 + 2 * t_max + 2))
    bounds = Bounds(t_max=t_max, t_deg=4, eps_max=4)
    omega = omega_from_gd(ctx, q_max=t_max)
    h11 = rspin_hamiltonian(ctx, 1, 1)
    sol = special_solution(h11, omega, bounds)
    clean = check_string_dilaton(sol).clean
    K = HamiltonianOperator.eta_dx(ctx.ring_w, eta_matrix(2))
    flows = {(1, q): flow(rspin_hamiltonian(ctx, 1, q), K) for q in range(t_max + 1)}
    oracle = integrate_flows_directly(flows, ctx.ring_w, bounds, t10_extra=12)
    agree = solutions_agree(sol, oracle, bounds) is True
    return 2, (not clean) + (not agree)


JOBS = {
    "quantize_r3": quantize_r3,
    "quantize_r4": quantize_r4,
    "reconstruct_oracle": reconstruct_oracle,
}
