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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .diffpoly import DiffPoly, LocalFunctional, Ring, eps_dress, integrate, rspin_ring
from .hamops import HamiltonianOperator, flow, op_dress, transport_operator
# pdo_root stays bound here: perfbench's tracer wraps it under this name
from .psido import LaxRoot, PseudoDiffOp, pdo_root, product_coeff  # noqa: F401


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
    request that needs a deeper root is refused.  ``residue(p)`` reads
    order -1 of L^{p/r} through one ``product_coeff`` on S^s and its
    derivative memo, and is memoized per p; ``lax_power(p)`` builds the
    whole operator, for the positive part of a flow.

    The root and the residue memo are unsynchronized; share a context
    across threads only behind a lock, or use one per thread.
    """

    def __init__(self, r: int, depth: int):
        if r < 2:
            raise ValueError("need r >= 2")
        self.r = r
        self.depth = depth
        self.ring_f = self.ring_w = rspin_ring(r)
        coeffs = {r: DiffPoly.const(self.ring_f, 1)}
        for i in range(r - 1):
            coeffs[i] = DiffPoly.jet(self.ring_f, i + 1, 0)
        self.lax = PseudoDiffOp(self.ring_f, r, None, coeffs)
        self.root = LaxRoot(self.lax, r)
        self._residues: dict[int, DiffPoly] = {}
        self._rspin_change = None
        self._rspin_operator = None

    def f_var(self, i: int, order: int = 0) -> DiffPoly:
        """The jet variable of f_i (0-based Lax index)."""
        return DiffPoly.jet(self.ring_f, i + 1, order)

    def w_var(self, alpha: int, order: int = 0) -> DiffPoly:
        return DiffPoly.jet(self.ring_w, alpha, order)

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
        """res L^{p/r}: order -1 of L^q o S^s alone, p = q r + s."""
        if self.depth < p + 2:
            raise ValueError(
                f"depth {self.depth} insufficient for res L^({p}/{self.r}); "
                f"need at least {p + 2}")
        if p not in self._residues:
            q, s = divmod(p, self.r)
            if s == 0:
                res = DiffPoly.zero(self.ring_f)
            else:
                lq = self.lax.power(q) if q else PseudoDiffOp.dx(self.ring_f, 0)
                frac = self.root.power(s, p + 2).coeffs  # down to order -1 - q r
                res = product_coeff(lq.coeffs, frac, -1, self.root.derivs[s])
            self._residues[p] = res
        return self._residues[p]


@lru_cache(maxsize=32)
def gd_context(r: int, depth: int) -> GDContext:
    """Shared context per (r, depth); the 32 most recently used are kept."""
    return GDContext(r, depth)


# -- first hamiltonian structure -----------------------------------------------------


def gd_operator(ctx: GDContext) -> HamiltonianOperator:
    """K^GD from [X, L]_+ = sum (K^GD)^{ab} X_b d^a for X = sum d^{-(b+1)} o X_b.

    Extraction adjoins temporary jet variables X_b to the ring, computes the
    commutator, and reads the coefficient operators off the terms linear in
    the X_b jets; the temporaries never escape.
    """
    r = ctx.r
    n = r - 1
    ext = Ring(2 * n, ctx.ring_f.d)
    lax_ext = PseudoDiffOp(
        ext, r, None,
        {k: c.map_fields({a: a for a in range(1, n + 1)}, ext)
         for k, c in ctx.lax.coeffs.items()})
    x_lo = -(r + 1)
    x_op = None
    for b in range(n):
        dinv = PseudoDiffOp(ext, -(b + 1), x_lo,
                            {-(b + 1): DiffPoly.const(ext, 1)})
        piece = dinv * PseudoDiffOp.from_poly(ext, DiffPoly.jet(ext, n + 1 + b, 0))
        x_op = piece if x_op is None else x_op + piece
    comm = x_op.commutator(lax_ext)
    K = HamiltonianOperator.zero(ctx.ring_f)
    field_back = {a: a for a in range(1, n + 1)}
    for order in range(0, comm.top + 1):
        coeff = comm.coeff(order)
        if order > r - 2:
            if not coeff.is_zero():
                raise AssertionError(f"[X, L]_+ has unexpected order {order}")
            continue
        for (eps, jets), c in coeff.items():
            x_jets = [(a, o, p) for a, o, p in jets if a > n]
            if len(x_jets) != 1 or x_jets[0][2] != 1:
                raise AssertionError("commutator is not linear in the temporaries")
            (xa, xo, _), = x_jets
            b = xa - (n + 1)
            rest = tuple(t for t in jets if t[0] <= n)
            rest_poly = DiffPoly.from_items(ext, [((eps, rest), c)]).map_fields(
                field_back, ctx.ring_f)
            entry = K.entries[order][b]
            K.entries[order][b] = entry + PseudoDiffOp.finite(ctx.ring_f, {xo: rest_poly})
    return K


def gd_hamiltonian(ctx: GDContext, m: int) -> LocalFunctional:
    """h^GD_m = -r/(m+r) int res L^{(m+r)/r} dx for m >= 1 not divisible by r."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m % ctx.r == 0:
        raise ValueError(f"m = {m} is divisible by r = {ctx.r}")
    return integrate(ctx.residue(m + ctx.r) * Fraction(-ctx.r, m + ctx.r))


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

    def forward_images(self) -> dict[int, DiffPoly]:
        return {a + 1: w for a, w in enumerate(self.forward)}


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


def gd_flow_via_hamiltonian(ctx: GDContext, m: int) -> list[DiffPoly]:
    """The same flow through K^GD and the variational derivative (cross-check)."""
    return flow(gd_hamiltonian(ctx, m), gd_operator(ctx))


# -- dispersionless two-point data --------------------------------------------------------


def dispersionless_omega(ctx: GDContext, alpha: int, p: int) -> DiffPoly:
    """Omega_{alpha,p+1;1,0}: the eps = 0 part of the h^{r-spin}_{alpha,p}
    density, a jet-free polynomial in the w fields with zero constant term.

    The two-index family Omega_{alpha,p;beta,0} is its plain partial
    derivative in u^beta.
    """
    h = rspin_hamiltonian(ctx, alpha, p)
    density = h.density.eps_coefficient(0)
    if density.has_jets():
        raise ValueError(
            "eps = 0 density depends on jet variables; normalization is broken")
    constant = density.constant_term()
    if constant:
        density = density - DiffPoly.const(ctx.ring_w, constant)
    return density
