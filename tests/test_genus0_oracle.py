"""Genus-0 checks against oracles that share no code with the Lax root.

WDVV: the third derivatives c_{abc} = d_b d_c Omega_{a,1;1,0} of the
Frobenius potential of the A_{r-1} Frobenius manifold are totally symmetric,
c_{1bc} = eta_{bc}, and they form an associative algebra (Dubrovin,
"Geometry of 2D topological field theories", 1996).  Checked for r = 3..7.

Symbol calculus: in the dispersionless limit L = d^r + sum f_i d^i becomes
the polynomial p^r + sum f_i p^i in a commuting symbol p, so the jet-free part
of res L^{k/r} is the coefficient of z^{k+1} in (1 + sum f_i z^{r-i})^{k/r}
(Krichever, "The dispersionless Lax equations and topological minimal
models", CMP 1992).  sympy expands that series on its own.
"""

import pytest
import sympy

from drhier.diffpoly import DiffPoly
from drhier.gdhier import dispersionless_omega, eta_matrix, gd_context


@pytest.mark.parametrize("r, nonzero", [(3, 4), (4, 13), (5, 33), (6, 69), (7, 126)])
def test_wdvv(r, nonzero):
    # dispersionless_omega reads the E = 0 view, so r = 6, 7 grow no jets
    ctx = gd_context(r)
    n = r - 1
    eta = eta_matrix(r)        # its own inverse
    fields = range(n)
    omega = [dispersionless_omega(ctx, a + 1, 0) for a in fields]
    c = [[[omega[a].partial(b + 1, 0).partial(g + 1, 0) for g in fields]
          for b in fields] for a in fields]
    assert sum(bool(c[a][b][g]) for a in fields for b in fields for g in fields) \
        == nonzero
    for a in fields:
        for b in fields:
            assert c[0][a][b] == DiffPoly.const(ctx.ring_w, eta[a][b])
            for g in fields:
                assert c[a][b][g] == c[b][a][g] == c[a][g][b]

    def product(a, b, g, d):
        """sum_{mu,nu} c_{a b mu} eta^{mu nu} c_{nu g d}"""
        return sum((c[a][b][mu] * c[nu][g][d] for mu in fields for nu in fields
                    if eta[mu][nu]), DiffPoly.zero(ctx.ring_w))

    for a in fields:
        for b in fields:
            for g in fields:
                for d in fields:
                    assert product(a, b, g, d) == product(a, g, b, d)


@pytest.mark.parametrize("r, k_max", [(3, 10), (4, 9), (5, 8)])
def test_residues_match_the_symbol_calculus(r, k_max):
    ctx = gd_context(r)
    z = sympy.Symbol("z")
    f = sympy.symbols(f"f0:{r - 1}")
    symbol = 1 + sum(f[i] * z ** (r - i) for i in range(r - 1))
    for k in range(1, k_max + 1):
        series = sympy.series(symbol ** sympy.Rational(k, r), z, 0, k + 2).removeO()
        got = 0
        for (_, jets), c in ctx.residue(k).items():
            if all(order == 0 for _, order, _ in jets):
                got += sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
                    *(f[alpha - 1] ** power for alpha, _, power in jets))
        assert sympy.expand(series.coeff(z, k + 1) - got) == 0, (r, k)
