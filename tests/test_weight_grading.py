"""The weight grading: an oracle on every Hamiltonian that reads only its terms.

L = d^r + sum f_i d^i is homogeneous when d_x has weight 1 and f_i weight
r - i, so res L^{p/r} has weight p + 1.  The field gamma of the ring is
f_{gamma-1}, or w^gamma, which is res L^{(r-gamma)/r} up to a constant; so
the jet of field gamma and order n has weight r - gamma + 1 + n in both, and
eps has none.  Hence h^{r-spin}_{alpha,d} = h^GD_k / const, k = alpha + r d,
has weight alpha + r (d + 1) + 1.  The DR Hamiltonian g_{1,1} comes from the
tautological side, shares no code with the Lax calculus, and has the weight
of h_{1,1}, 2 r + 2.

The grading is blind to scalar coefficients: it catches a misplaced field, a
shifted derivative or a wrong Leibniz order, not a wrong binomial.
"""

import json
from pathlib import Path

import pytest

from drhier.diffpoly import DiffPoly, LocalFunctional
from drhier.drspin import builtin_g11
from drhier.gdhier import GDContext, dispersionless_omega, gd_context, rspin_hamiltonian

GOLDEN = Path(__file__).parent / "golden"


def weights(poly: DiffPoly, r: int) -> set:
    return {sum((r - gamma + 1 + order) * power for gamma, order, power in jets)
            for (_, jets), _ in poly.items()}


def assert_weight(poly: DiffPoly, r: int, weight: int):
    assert weights(poly, r) == {weight}, (r, weight)


# (r, d, alphas, depth): the exact Hamiltonians the suite can afford; for
# r = 5, d = 2 only alpha = 1 (h_{4,2} alone takes about 0.6 s), the other
# alphas' eps = 0 parts are graded through the jet-free view below.  Each is
# built on its own context capped at depth, so the capped constructor that
# explicit callers use serves them too.
EXACT = [(3, d, (1, 2), 16) for d in range(3)] \
    + [(4, d, (1, 2, 3), 17) for d in range(3)] \
    + [(5, d, (1, 2, 3, 4), 16) for d in range(2)] + [(5, 2, (1,), 18)]


@pytest.mark.parametrize("r, d, alphas, depth", EXACT)
def test_every_rspin_hamiltonian_has_its_weight(r, d, alphas, depth):
    ctx = GDContext(r, depth)
    for alpha in alphas:
        assert_weight(rspin_hamiltonian(ctx, alpha, d).density, r, alpha + r * (d + 1) + 1)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_every_residue_has_weight_p_plus_one(r):
    ctx = gd_context(r)
    for p in range(1, {2: 11, 3: 14, 4: 10, 5: 11}[r] + 1):
        residue = ctx.residue(p)
        if p % r:
            assert_weight(residue, r, p + 1)
        else:
            assert residue.is_zero()


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_the_dispersionless_view_has_the_same_weights(r):
    ctx = gd_context(r)
    view = ctx.dispersionless()
    for alpha in range(1, r):
        for d in range(3):
            assert_weight(dispersionless_omega(ctx, alpha, d), r, alpha + r * (d + 1) + 1)
    for p in range(1, 4 * r):
        if p % r:
            assert_weight(view.residue(p), r, p + 1)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_the_dr_hamiltonian_has_the_weight_of_h11(r):
    assert_weight(builtin_g11(r).density, r, 2 * r + 2)
    golden = json.loads((GOLDEN / f"dr-g11-r{r}.json").read_text())
    assert_weight(LocalFunctional.from_json_dict(golden).density, r, 2 * r + 2)


def test_the_assembled_golden_has_weight_eight():
    # assemble --r 3 --alpha 1 --d 1 --g 2: the weight of h_{1,1} at r = 3
    golden = json.loads((GOLDEN / "assemble-r3-a1-d1-g2-c02.json").read_text())
    assert_weight(LocalFunctional.from_json_dict(golden).density, 3, 8)
