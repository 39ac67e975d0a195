"""Refusals of the library's entry points, one row each: the call, the
exception it raises and the words of its message.  Each row reaches one
check that the rest of the suite never runs in-process; the CLI's refusals
are tested through its exit codes in test_cli."""

from fractions import Fraction

import pytest

from drhier.diffpoly import DiffPoly, Ring, integrate
from drhier.drspin import Profile, assemble_hamiltonian, enumerate_profiles, hain_expand
from drhier.gdhier import GDContext, eta_matrix, gd_context, gd_hamiltonian, \
    rspin_hamiltonian
from drhier.hamops import HamiltonianOperator, MiuraMap, op_dress
from drhier.psido import LaxRoot, PseudoDiffOp, pdo_root
from drhier.quantize import (DeformedRule, StandardRule, WeylContext, WeylElement, f_r_map,
                             weyl_star)
from drhier.reconstruct import Bounds, OmegaData, special_solution
from drhier.slots import SLOT_MAX

R1, R2 = Ring(1), Ring(2)
ONE = DiffPoly.const(R1, 1)
U = DiffPoly.jet(R1, 1, 0)
U1 = DiffPoly.jet(R1, 1, 1)


def finite_op(ring, coeffs):
    return HamiltonianOperator(ring, [[PseudoDiffOp.finite(ring, coeffs)]])


def one_field_solution(density):
    """special_solution for h_{1,1} = int density dx against Omega_{1,1;1,0}
    = density, over one field with eta = 1."""
    omega = OmegaData(R1, [[Fraction(1)]], {(1, 1): density})
    return special_solution(integrate(density), omega, Bounds(t_max=1, t_deg=2, eps_max=0))


def weyl(ctx, alpha=1, k=0):
    return WeylElement(ctx, {(0, 0, ((alpha, k, 1),)): 1})


CTX1 = WeylContext(n_fields=1, window=1)

REFUSALS = [
    # psido
    ("empty-window", lambda: PseudoDiffOp(R1, 0, 1), ValueError, "empty validity window"),
    ("coefficient-outside-window", lambda: PseudoDiffOp(R1, 0, -1, {1: ONE}), ValueError,
     "order 1 outside window"),
    # no row for an empty product window: the constructor keeps lo <= top,
    # so the window of a product of two operators is never empty, as
    # PseudoDiffOp.__mul__ asserts
    ("infinite-product", lambda: PseudoDiffOp(R1, -1, None, {-1: ONE})
     * PseudoDiffOp.from_poly(R1, U), ValueError, "infinite series"),
    ("power-below-one", lambda: PseudoDiffOp.dx(R1).power(0), ValueError,
     "power must be >= 1"),
    ("plus-part-above-order-0", lambda: PseudoDiffOp(R1, 2, 1, {2: ONE}).plus_part(),
     ValueError, "does not reach order 0"),
    ("root-of-a-non-monic", lambda: LaxRoot(PseudoDiffOp.finite(R1, {2: 2 * ONE}), 2),
     ValueError, "must be monic"),
    ("root-depth-0", lambda: pdo_root(PseudoDiffOp.finite(R1, {2: ONE}), 2, 0), ValueError,
     "depth must be >= 1"),
    # hamops
    ("operator-not-square", lambda: finite_op(R2, {0: DiffPoly.const(R2, 1)}), ValueError,
     "must be N x N"),
    ("dress-an-eps-operator", lambda: op_dress(finite_op(R1, {1: ONE.eps_shift(1)})),
     ValueError, "eps-free operator"),
    ("miura-entry-count", lambda: MiuraMap(R2, [DiffPoly.jet(R2, 1, 0)]), ValueError,
     "one entry per field"),
    ("miura-eps0-part", lambda: MiuraMap(R1, [U + U]), ValueError,
     "non-identity eps\\^0 part"),
    ("miura-correction-degree", lambda: MiuraMap(R1, [U + U.eps_shift(1)]), ValueError,
     "correction must have degree 1"),
    # gdhier
    ("context-r-below-2", lambda: GDContext(1, 5), ValueError, "need r >= 2"),
    ("gd-hamiltonian-m-below-1", lambda: gd_hamiltonian(gd_context(2), 0), ValueError,
     "need m >= 1"),
    ("rspin-hamiltonian-negative-d", lambda: rspin_hamiltonian(gd_context(2), 1, -1),
     ValueError, "d must be >= 0"),
    # reconstruct: the three input checks of special_solution
    ("omega-vanishing", lambda: one_field_solution(U ** 2 + U ** 3 / 6), ValueError,
     "violates the q >= 1 vanishing"),
    ("flow-not-dressed", lambda: one_field_solution(U * U1 ** 2), ValueError,
     "not of the dressed degree"),
    ("omega-second-derivative", lambda: one_field_solution(U ** 3 / 3), ValueError,
     "eta d2 Omega_\\{1,1\\} = id"),
    # quantize
    ("rule-from-a-non-constant-operator",
     lambda: DeformedRule.from_operator(finite_op(R1, {1: U})), ValueError,
     "not of the constant good form"),
    ("weyl-field-out-of-range", lambda: weyl(CTX1, alpha=2), ValueError,
     "field index 2 out of range"),
    ("weyl-sum-across-contexts", lambda: weyl(CTX1) + weyl(WeylContext(1, 2)), ValueError,
     "window/context mismatch"),
    ("star-rule-field-count",
     lambda: weyl_star(weyl(CTX1), weyl(CTX1), StandardRule.from_eta(eta_matrix(3))),
     ValueError, "field counts differ"),
    ("f-r-outside-4-5", lambda: f_r_map(3, weyl(WeylContext(2, 1))), ValueError,
     "defined for r = 4, 5"),
    # diffpoly
    ("ring-without-fields", lambda: Ring(0), ValueError, "at least one field"),
    ("negative-jet-order", lambda: DiffPoly.jet(R1, 1, -1), ValueError,
     "order and power must be >= 0"),
    ("negative-power", lambda: U ** -1, ValueError, "negative powers"),
    ("eps-shift-beyond-the-slot", lambda: U.eps_shift(SLOT_MAX + 1), ValueError,
     f"eps shift {SLOT_MAX + 1} exceeds"),
    ("substitute-without-an-image", lambda: U.substitute({}), KeyError,
     "no substitution image for field 1"),
    # drspin
    ("profiles-alpha-out-of-range", lambda: enumerate_profiles(3, 3, 0), ValueError,
     "1 <= alpha <= r-1"),
    ("hain-negative-genus", lambda: hain_expand(-1, 2), ValueError, "need g >= 0"),
    ("assemble-profile-of-another-r",
     lambda: assemble_hamiltonian(4, [(Profile(r=3, alpha=1, d=1, g=0, counts=(1, 1)),
                                       DiffPoly.const(R2, 1))]),
     ValueError, "different r"),
]


@pytest.mark.parametrize("call, error, words",
                         [pytest.param(call, error, words, id=name)
                          for name, call, error, words in REFUSALS])
def test_refusal(call, error, words):
    with pytest.raises(error, match=words):
        call()
