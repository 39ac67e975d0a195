"""The r-th Gelfand-Dickey hierarchy and its r-spin normalization.

Everything is generated from the Lax operator L = d^r + f_{r-2} d^{r-2} +
... + f_0 over the (r-1)-field ring: the first hamiltonian structure K^GD
(read off the positive part of [X, L]), the Hamiltonians h^GD_m =
-r/(m+r) int res L^{(m+r)/r} dx, the flows dL/dT_m = [(L^{m/r})_+, L], the
change to normalized variables w^alpha = res L^{(r-alpha)/r} / ((r-alpha)
(-r)^{(r-alpha-1)/2}) and the rescaled operator/Hamiltonian pair
(K^{r-spin}, h^{r-spin}_{alpha,d}).  Everything is computed over Q, in one
ring (``ring_f`` and ``ring_w`` name it).  The change to w is the rational
change f -> u, u^alpha = res L^{(r-alpha)/r} / (r-alpha), followed by the
diagonal rescaling w^alpha = u^alpha / (-r)^{(r-alpha-1)/2}.  The pair is
computed in u and reaches w only at the output, where every monomial gains
an even power of sqrt(-r), a rational (-r)^n.  The dispersionless two-point
data consumed by the reconstruction recursion is the eps = 0 part of those
Hamiltonian densities.

That eps = 0 part is the derivative-degree-0 part before eps dressing, and
no step of the pipeline lowers derivative degree.  So each context keeps
an E = 0 view (``GDContext.dispersionless``): the same pipeline over the
ring capped at derivative degree 0 (see ``diffpoly``), with its own root
and r-spin change, where every polynomial is jet-free and d_x is zero.
``dispersionless_omega`` reads the view and hands back its result in the
exact ring; the exact root is never truncated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .diffpoly import (DiffPoly, LocalFunctional, Ring, derivatives, eps_dress, integrate,
                       rspin_ring)
from .hamops import HamiltonianOperator, op_dress, transport_operator
# pdo_root stays bound here: perfbench's tracer wraps it under this name
from .psido import LaxRoot, PseudoDiffOp, gen_binom, pdo_root, product_coeff  # noqa: F401
from .scalars import add_term


def eta_matrix(r: int) -> list[list[Fraction]]:
    """The r-spin pairing eta_{ab} = delta_{a+b,r} (its own inverse)."""
    n = r - 1
    return [[Fraction(1) if a + b == r else Fraction(0)
             for b in range(1, n + 1)] for a in range(1, n + 1)]


class GDContext:
    """Order r, the depth cap, and the Lax operator with its caches.

    The context holds one root S of L, a ``LaxRoot`` that only grows: each
    request solves only the levels no earlier one solved, and reads S^s,
    s < r, off the root's own powers.  ``depth`` only caps the root; a
    request that needs a deeper root is refused, and ``math.inf`` (as
    ``gd_context`` passes) caps nothing.  ``residue(p)`` reads
    order -1 of L^{p/r} = S^s o L^q through one ``product_coeff``, so the
    derivatives fall on the finite L^q.  The context keeps L^q, built once
    as L^{q-1} o L, with one derivative memo per q, and the residues per p.
    ``lax_power(p)`` builds the whole operator by its own powering, for the
    positive part of a flow.

    ``dispersionless()`` is the context's E = 0 view, built on first use:
    a context of the same r and depth over ``ring_f`` capped at derivative
    degree 0, with its own root and memos.

    The root and the residue memo are unsynchronized; share a context
    across threads only behind a lock, or use one per thread.
    """

    def __init__(self, r: int, depth: int):
        if r < 2:
            raise ValueError("need r >= 2")
        self._setup(r, depth, rspin_ring(r))

    def _setup(self, r: int, depth: int, ring: Ring):
        self.r = r
        self.depth = depth
        self.ring_f = self.ring_w = ring
        coeffs = {r: DiffPoly.const(self.ring_f, 1)}
        for i in range(r - 1):
            coeffs[i] = DiffPoly.jet(self.ring_f, i + 1, 0)
        self.lax = PseudoDiffOp(self.ring_f, r, None, coeffs)
        self.root = LaxRoot(self.lax, r)
        self._lax_powers = [PseudoDiffOp.dx(ring, 0)]  # L^q at index q
        self._lax_derivs = [derivatives(self._lax_powers[0].coeffs)]
        self._residues: dict[int, DiffPoly] = {}
        self._rspin_change = None
        self._rspin_operator = None
        self._dispersionless = self if ring.cap == 0 else None

    def dispersionless(self) -> "GDContext":
        """The E = 0 view: this context's pipeline over the ring capped at
        derivative degree 0, built once; a view is its own view."""
        if self._dispersionless is None:
            view = GDContext.__new__(GDContext)
            ring = self.ring_f
            view._setup(self.r, self.depth, Ring(ring.n_fields, ring.d, cap=0))
            self._dispersionless = view
        return self._dispersionless

    def f_var(self, i: int) -> DiffPoly:
        """The field f_i (0-based Lax index), underived."""
        return DiffPoly.jet(self.ring_f, i + 1, 0)

    def lax_power(self, p: int) -> PseudoDiffOp:
        """L^{p/r} as the exact L^q composed with S^s, p = q r + s.

        The result has window [max(-1, p + 1 - depth), p]: down to the
        residue (order -1), and no lower.
        """
        q, s = divmod(p, self.r)
        if s == 0:
            return self.lax.power(q)
        frac = self.root.power(s, min(p + 2, self.depth))
        return self.lax.power(q) * frac if q else frac

    def residue(self, p: int) -> DiffPoly:
        """res L^{p/r}: order -1 of S^s o L^q alone, p = q r + s.

        L is homogeneous when d_x weighs 1 and f_i weighs r - i, so the
        residue has weight p + 1, the jet of field gamma and order n
        weighing r - gamma + 1 + n; that is asserted.
        """
        r = self.r
        if self.depth < p + 2:
            raise ValueError(
                f"depth {self.depth} insufficient for res L^({p}/{r}); "
                f"need at least {p + 2}")
        if p not in self._residues:
            q, s = divmod(p, r)
            if s == 0:
                res = DiffPoly.zero(self.ring_f)
            else:
                while len(self._lax_powers) <= q:
                    self._lax_powers.append(self._lax_powers[-1] * self.lax)
                    self._lax_derivs.append(derivatives(self._lax_powers[-1].coeffs))
                frac = self.root.power(s, p + 2).coeffs  # down to order -1 - q r
                res = product_coeff(frac, self._lax_powers[q].coeffs, -1, self._lax_derivs[q])
            assert all(sum((r - gamma + 1 + n) * power for gamma, n, power in jets) == p + 1
                       for (_, jets), _ in res.items()), f"res L^({p}/{r}) has a wrong weight"
            self._residues[p] = res
        return self._residues[p]


@lru_cache(maxsize=32)
def gd_context(r: int) -> GDContext:
    """Shared context per r, its root uncapped: each residue roots exactly
    as deep as it reads.  The 32 most recently used are kept."""
    return GDContext(r, math.inf)


# -- first hamiltonian structure -----------------------------------------------------


def gd_operator(ctx: GDContext) -> HamiltonianOperator:
    """K^GD from [X, L]_+ = sum (K^GD)^{ab} X_b d^a for X = sum d^{-(b+1)} o X_b.

    With L = sum_k f_k d^k, the Leibniz rule gives the order-a part of
    d^{-(b+1)} o X_b f_k d^k - f_k d^k o d^{-(b+1)} o X_b in closed form:
    with l = k - b - 1 - a >= 0, entry (a, b) is

        sum_k [sum_{i<=l} binom(-(b+1), l) binom(l, i) (d^{l-i} f_k) d^i
               - binom(k-b-1, l) f_k d^l].

    Orders a >= r - 1 cancel (f_r = 1), so a runs over 0..r-2.
    """
    n = ctx.r - 1
    coeffs = ctx.lax.coeffs
    deriv = derivatives(coeffs)
    entries = [[{} for _ in range(n)] for _ in range(n)]  # d_x order -> coefficient
    for a, row in enumerate(entries):
        for b, entry in enumerate(row):
            for k, f in coeffs.items():
                l = k - b - 1 - a
                if l < 0:
                    continue
                outer = gen_binom(-(b + 1), l)
                for i in range(l + 1):
                    add_term(entry, i, deriv(k, l - i) * (outer * math.comb(l, i)))
                add_term(entry, l, f * -math.comb(k - b - 1, l))
    return HamiltonianOperator(ctx.ring_f, [
        [PseudoDiffOp.finite(ctx.ring_f, entry) for entry in row] for row in entries])


def gd_hamiltonian(ctx: GDContext, m: int) -> LocalFunctional:
    """h^GD_m = -r/(m+r) int res L^{(m+r)/r} dx for m >= 1 not divisible by r."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m % ctx.r == 0:
        raise ValueError(f"m = {m} is divisible by r = {ctx.r}")
    return integrate(ctx.residue(m + ctx.r) * Fraction(-ctx.r, m + ctx.r))


# -- the r-spin normalization -----------------------------------------------------------


class RSpinChange:
    """The rational change f -> u and its triangular inverse.

    forward[alpha-1] is u^alpha = res L^{(r-alpha)/r} / (r-alpha) as a
    differential polynomial in the f's; inverse[i] is f_i in the u's.  The
    normalized variable is w^alpha = u^alpha / (-r)^{(r-alpha-1)/2}.
    """

    __slots__ = ("r", "forward", "inverse")

    def __init__(self, r, forward, inverse):
        self.r = r
        self.forward = forward
        self.inverse = inverse

    def inverse_images(self) -> dict[int, DiffPoly]:
        return {i + 1: g for i, g in enumerate(self.inverse)}


def rspin_change(ctx: GDContext) -> RSpinChange:
    """u^alpha = res L^{(r-alpha)/r} / (r-alpha), inverted triangularly."""
    if ctx._rspin_change is not None:
        return ctx._rspin_change
    r = ctx.r
    forward = [ctx.residue(r - alpha) / (r - alpha) for alpha in range(1, r)]
    # triangular inversion: every term of u^alpha besides its linear leading
    # term c_alpha f_{alpha-1} involves only f_k with k >= alpha
    inverse: dict[int, DiffPoly] = {}
    for alpha in range(r - 1, 0, -1):
        u = forward[alpha - 1]
        terms = dict(u.items())
        c_lead = terms.pop((0, ((alpha, 0, 1),)), None)
        if c_lead is None:
            raise AssertionError(f"missing linear term f_{alpha-1} in u^{alpha}")
        for _, jets in terms:
            for a, _, _ in jets:
                if a <= alpha:
                    raise AssertionError(
                        f"u^{alpha} is not triangular: contains f_{a-1}")
        rest = DiffPoly.from_items(ctx.ring_f, terms.items())
        substituted = rest.substitute({a: inverse[a] for a in range(alpha + 1, r)})
        inverse[alpha] = (ctx.f_var(alpha - 1) - substituted) / c_lead
    ctx._rspin_change = RSpinChange(
        r, forward, [inverse[i + 1] for i in range(r - 1)])
    return ctx._rspin_change


def _to_w(poly: DiffPoly, r: int, s: int) -> DiffPoly:
    """(-r)^{s/2} poly, with poly's u variables rewritten in w.

    u^gamma = (-r)^{(r-gamma-1)/2} w^gamma, so the monomial
    prod (u^gamma_k)^p gains (-r)^{(s + sum (r-gamma-1) p)/2}.  An odd
    exponent would leave sqrt(-r) in the coefficient; it is refused.
    """
    terms = []
    for mon, c in poly.items():
        exponent = s + sum((r - gamma - 1) * p for gamma, _, p in mon[1])
        if exponent % 2:
            names = {a: f"u{a}" for a in range(1, r)}
            monomial = DiffPoly.from_items(poly.ring, [(mon, 1)]).render(names)
            raise ValueError(
                f"r = {r}: the monomial {monomial} "
                f"would carry sqrt(-{r})^{exponent}, an odd power")
        terms.append((mon, c * Fraction(-r) ** (exponent // 2)))
    return DiffPoly.from_items(poly.ring, terms)


def rspin_operator(ctx: GDContext) -> HamiltonianOperator:
    """K^{r-spin} = (-r)^{r/2} (K^GD transported to the w variables), dressed.

    Entry (a, b) is transported in u and rescaled by (-r)^{(a+b+2-r)/2}.
    """
    if ctx._rspin_operator is not None:
        return ctx._rspin_operator
    r = ctx.r
    change = rspin_change(ctx)
    moved = transport_operator(gd_operator(ctx), change.forward, change.inverse_images())
    scaled = HamiltonianOperator(ctx.ring_w, [
        [PseudoDiffOp.finite(ctx.ring_w, {j: _to_w(c, r, a + b + 2 - r)
                                          for j, c in op.coeffs.items()})
         for b, op in enumerate(row, 1)]
        for a, row in enumerate(moved.entries, 1)])
    dressed = op_dress(scaled)
    for a, row in enumerate(dressed.entries, 1):
        for b, op in enumerate(row, 1):
            for n, c in sorted(op.coeffs.items()):
                if any(jets for (_, jets), _ in c.items()):
                    names = {i: f"w{i}" for i in range(1, r)}
                    raise ValueError(
                        f"K^{{{r}-spin}} has no constant coefficients: entry "
                        f"({a},{b}) has {c.render(names)} at d_x^{n}")
    ctx._rspin_operator = dressed
    return dressed


def rspin_factorial(r: int, alpha: int, d: int) -> int:
    """k!_r = prod_{i=0..d} (alpha + r i)."""
    out = 1
    for i in range(d + 1):
        out *= alpha + r * i
    return out


def rspin_hamiltonian(ctx: GDContext, alpha: int, d: int) -> LocalFunctional:
    """h^{r-spin}_{alpha,d} = h^GD_k[w] / ((-r)^{(r+k-1)/2 - d} k!_r), k = alpha + r d."""
    r = ctx.r
    if not 1 <= alpha <= r - 1:
        raise ValueError(f"alpha must be in 1..{r - 1}")
    if d < 0:
        raise ValueError("d must be >= 0")
    k = alpha + r * d
    h_gd = gd_hamiltonian(ctx, k)
    density = h_gd.density.substitute(rspin_change(ctx).inverse_images())
    density_w = _to_w(density, r, -(r + k - 1 - 2 * d)) / rspin_factorial(r, alpha, d)
    return eps_dress(integrate(density_w))


def rspin_system(ctx: GDContext, alpha: int, d: int) -> tuple[HamiltonianOperator,
                                                              LocalFunctional]:
    """The Dubrovin-Zhang pair (K^{r-spin}, h^{r-spin}_{alpha,d}) in w variables."""
    return rspin_operator(ctx), rspin_hamiltonian(ctx, alpha, d)


# -- dispersionless two-point data --------------------------------------------------------


def dispersionless_omega(ctx: GDContext, alpha: int, p: int) -> DiffPoly:
    """Omega_{alpha,p+1;1,0}: the eps = 0 part of the h^{r-spin}_{alpha,p}
    density, a jet-free polynomial in the w fields with zero constant term.

    The two-index family Omega_{alpha,p;beta,0} is its plain partial
    derivative in u^beta.  It is read off ``ctx.dispersionless()``, the
    E = 0 view, and returned in ``ctx.ring_w``: a jet-free polynomial has
    the same terms in both rings.  The view refuses what ``ctx`` would,
    since it has the same depth.  The density has weight alpha + r(p + 1)
    + 1 > 0 in the grading where w^beta weighs r + 1 - beta, so it has no
    constant term.
    """
    view = ctx.dispersionless()
    density = rspin_hamiltonian(view, alpha, p).density
    assert not density.constant_term(), "a positive-weight density has no constant"
    return DiffPoly(ctx.ring_w, density.terms, density.den)
