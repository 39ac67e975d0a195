"""The Gelfand-Dickey flows in Lax form: an independent oracle.

dL/dT_m = [(L^{m/r})_+, L] is computed from the Lax operator alone, with no
Hamiltonian and no Hamiltonian operator; the tests compare it with the flow
of h^GD_m under the GD operator.
"""

from drhier.diffpoly import DiffPoly
from drhier.gdhier import GDContext


def gd_flow(ctx: GDContext, m: int) -> list[DiffPoly]:
    """dL/dT_m = [(L^{m/r})_+, L] as the list of df_i/dT_m, i = 0..r-2."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m % ctx.r == 0:
        return [DiffPoly.zero(ctx.ring_f) for _ in range(ctx.r - 1)]
    if ctx.depth < m + 1:
        raise ValueError(f"depth {ctx.depth} insufficient for the T_{m} flow")
    lm_plus = ctx.lax_power(m).plus_part()
    comm = lm_plus.commutator(ctx.lax)
    for order in range(ctx.r - 1, comm.top + 1):
        if not comm.coeff(order).is_zero():
            raise AssertionError("GD flow does not preserve the Lax shape")
    return [comm.coeff(i) for i in range(ctx.r - 1)]
