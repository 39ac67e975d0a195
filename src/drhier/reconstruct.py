"""Reconstruction of a hierarchy from one Hamiltonian and its genus-0 part.

The special solution u^sp of the deformed hierarchy (initial datum
u^alpha = delta^{alpha,1} x) is built one level at a time: the genus-0
layer by Taylor integration of the dispersionless flows, one t-degree per
level, and the eps^i layers (i >= 1) through the dilaton-derived recursion
(i + n) c = [t^1_1-flow of h_{1,1} evaluated on u^sp], one level per
(i, total t-degree n).  Each level is the exact (eps, degree) part of
whole series products over the finished lower levels, divided and then
written.  All series live at x = 0 as sparse dicts
{(t-monomial, i): value}.  The x dependence is recovered through the
t^1_0 derivative (the t^1_0 flow is plain translation), and jets of the
solution are series pushed forward from the table by the string equation
d_x = delta + sum t^rho_{k+1} d/dt^rho_k, which raises t-subscripts instead
of the degree -- exactly the reduction that makes the recursion
well-founded.

The honesty of the construction is checked from outside: string/dilaton
residuals recompute both sides from the stored table, and the r = 2
acceptance test compares against a direct multi-flow Taylor integration
that uses neither string nor dilaton.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .diffpoly import DiffPoly, LocalFunctional, Ring, integrate, local_eq
from .hamops import HamiltonianOperator, MiuraMap, flow, miura_push_operator, \
    miura_push_poly
from .gdhier import GDContext, dispersionless_omega, eta_matrix, rspin_system
from .drspin import DR_DZ_SHIFTS, builtin_g11
from .scalars import Frozen, add_term

# t-monomial: sorted tuple of ((gamma, subscript), power)
TMon = tuple[tuple[tuple[int, int], int], ...]


def tmon_times(m1: TMon, m2: TMon) -> TMon:
    """m1 * m2; a negative power in m2 divides, zero exponents go."""
    acc = dict(m1)
    for var, power in m2:
        acc[var] = acc.get(var, 0) + power
    return tuple(sorted((v, p) for v, p in acc.items() if p))


def tmon_mul(m: TMon, var: tuple[int, int], power: int) -> TMon:
    """m * (t^var)^power."""
    return tmon_times(m, ((var, power),))


def tmon_quotient(m: TMon, m1: TMon) -> TMon | None:
    """m / m1, or None when m1 does not divide m."""
    acc = dict(m)
    for var, power in m1:
        left = acc.get(var, 0) - power
        if left < 0:
            return None
        acc[var] = left
    return tuple((v, p) for v, p in acc.items() if p)


def tmon_degree(m: TMon) -> int:
    return sum(p for _, p in m)


def tmon_rest_degree(m: TMon) -> int:
    """Degree in the variables other than t^1_0."""
    return sum(p for v, p in m if v != (1, 0))


def t_derivative(series: dict, var: tuple[int, int], k: int) -> dict:
    """d^k/d(t^var)^k of a sparse t-series {(m, i): value}: the exponent of
    t^var drops by k and the value gains the falling factorial."""
    out = {}
    for (m, i), value in series.items():
        e = dict(m).get(var, 0)
        if e >= k:
            out[(tmon_mul(m, var, -k), i)] = value * prod(range(e - k + 1, e + 1))
    return out


class Bounds(Frozen):
    """Truncation box: max t-subscript, max total t-degree, max eps order."""

    __slots__ = ("t_max", "t_deg", "eps_max")

    def __init__(self, t_max: int, t_deg: int, eps_max: int):
        self._init(t_max, t_deg, eps_max)


class OmegaData:
    """Genus-0 input: densities[(beta, q)] = Omega_{beta,q+1;1,0} plus eta."""

    __slots__ = ("ring", "eta", "densities")

    def __init__(self, ring: Ring, eta: list[list[Fraction]],
                 densities: dict[tuple[int, int], DiffPoly]):
        self.ring = ring
        self.eta = eta
        self.densities = densities

    def density(self, beta: int, q: int) -> DiffPoly:
        return self.densities[(beta, q)]

    def check_vanishing(self):
        """d Omega_{beta,q;mu,0}/du^gamma vanishes at u = 0 for q >= 1."""
        n = self.ring.n_fields
        for (beta, q), density in self.densities.items():
            if q < 1:
                continue
            for mu in range(1, n + 1):
                for gamma in range(1, n + 1):
                    c = density.partial(mu, 0).partial(gamma, 0).constant_term()
                    if c:
                        raise ValueError(
                            f"Omega data violates the q >= 1 vanishing at "
                            f"({beta},{q};{mu}),{gamma}")


def omega_from_gd(ctx: GDContext, q_max: int) -> OmegaData:
    """Collect the dispersionless two-point data from the gd chain."""
    densities = {}
    for beta in range(1, ctx.r):
        for q in range(q_max + 1):
            densities[(beta, q)] = dispersionless_omega(ctx, beta, q)
    return OmegaData(ring=ctx.ring_w, eta=eta_matrix(ctx.r), densities=densities)


class SpecialSolution:
    """Per-field t-series of the special solution, stored at x = 0."""

    def __init__(self, ring: Ring, bounds: Bounds):
        self.ring = ring
        self.bounds = bounds
        n = ring.n_fields
        self.c: list[dict[tuple[TMon, int], Fraction]] = [dict() for _ in range(n)]
        # jet series by (source, gamma, d), kept equal to the table by set_coeff
        self._jets: dict = {}

    # -- raw access ---------------------------------------------------------------

    def coeff(self, alpha: int, m: TMon, i: int) -> Fraction:
        return self.c[alpha - 1].get((m, i), Fraction(0))

    def set_coeff(self, alpha: int, m: TMon, i: int, value: Fraction):
        """Write one entry and push the change into every cached jet of
        field alpha: both jet sources are linear in the table."""
        table = self.c[alpha - 1]
        change = value - table.get((m, i), 0)
        if not change:
            return
        add_term(table, (m, i), change)
        raised = [{(m, i): change}]
        for (source, gamma, d), series in self._jets.items():
            if gamma != alpha:
                continue
            if source == "direct":
                delta = t_derivative(raised[0], (1, 0), d)
            else:
                while len(raised) <= d:
                    raised.append(self._raise(raised[-1]))
                delta = raised[d]
            for key, v in delta.items():
                add_term(series, key, v)

    def variables(self):
        return [(gamma, n) for gamma in range(1, self.ring.n_fields + 1)
                for n in range(self.bounds.t_max + 1)]

    # -- the two jet sources: series of d_x^d u^gamma ----------------------------------

    def _raise(self, series: dict) -> dict:
        """sum t^rho_{k+1} dV/dt^rho_k of a series V, subscripts capped at
        t_max: the string push-forward, linear in V."""
        out = {}
        for (m, i), value in series.items():
            for (rho, k), e in m:
                if k < self.bounds.t_max:
                    raised = tmon_mul(tmon_mul(m, (rho, k), -1), (rho, k + 1), 1)
                    add_term(out, (raised, i), e * value)
        return out

    def jet(self, gamma: int, d: int) -> dict:
        """d_x^d u^gamma via the string equation: d_x V = delta + sum
        t^rho_{k+1} dV/dt^rho_k (delta for V = u^1 only), pushed forward from
        the stored table.  The series is live: later writes update it."""
        if d == 0:
            return self.c[gamma - 1]
        key = ("string", gamma, d)
        if key not in self._jets:
            series = self._raise(self.jet(gamma, d - 1))
            if (gamma, d) == (1, 1):
                add_term(series, ((), 0), Fraction(1))
            self._jets[key] = series
        return self._jets[key]

    def direct_jet(self, gamma: int, d: int) -> dict:
        """d_x^d u^gamma as the plain t^1_0-derivative of the table (exact
        where the stored box reaches degree + d); live like ``jet``."""
        key = ("direct", gamma, d)
        if key not in self._jets:
            self._jets[key] = t_derivative(self.c[gamma - 1], (1, 0), d)
        return self._jets[key]

    # -- evaluation of differential polynomials on the solution ------------------------

    def eval_poly(self, p: DiffPoly, m: TMon, i: int, jet_fn=None) -> Fraction:
        """Coefficient of t^m eps^i in p(u^sp, u^sp_x, ...)."""
        jet_fn = jet_fn or self.jet
        total = Fraction(0)
        for (eps, jets), coeff in p.items():
            if eps > i:
                continue
            factors = []
            for gamma, order, power in jets:
                factors.extend([(gamma, order)] * power)
            total += coeff * self._eval_factors(tuple(factors), m, i - eps, jet_fn)
        return total

    def _eval_factors(self, factors, m: TMon, i: int, jet_fn) -> Fraction:
        """Coefficient of t^m eps^i in the product of the factors' jet series:
        the first factor runs over its stored nonzero entries dividing t^m."""
        if not factors:
            return Fraction(1) if (not m and i == 0) else Fraction(0)
        series = jet_fn(*factors[0])
        if len(factors) == 1:
            return series.get((m, i), Fraction(0))
        rest = factors[1:]
        total = Fraction(0)
        for (m1, i1), left in series.items():
            if i1 > i:
                continue
            m2 = tmon_quotient(m, m1)
            if m2 is not None:
                right = self._eval_factors(rest, m2, i - i1, jet_fn)
                if right:
                    total += left * right
        return total

    # -- whole series of products: every coefficient of a level at once -------------------

    def series_product(self, factors, jet_fn, eps_max: int, deg_max: int,
                       rest_max: int | None = None, exact: bool = False) -> dict:
        """Product of the factors' jet series, cut at eps <= eps_max, t-degree
        <= deg_max and degree without t^1_0 <= rest_max (default deg_max).
        Each cut is exact: no factor lowers a degree.  With ``exact`` only
        the part at eps = eps_max and t-degree = deg_max is kept: the last
        factor meets only its matching (eps, degree) bucket."""
        rest_max = deg_max if rest_max is None else rest_max
        acc = {((), 0): Fraction(1)}
        last = len(factors) - 1 if exact else -1
        for k, (gamma, d) in enumerate(factors):
            right = [(m, i, v, tmon_degree(m), tmon_rest_degree(m))
                     for (m, i), v in jet_fn(gamma, d).items() if i <= eps_max]
            out = {}
            if k == last:
                buckets = {}
                for m2, i2, v2, deg2, rest2 in right:
                    buckets.setdefault((i2, deg2), []).append((m2, v2, rest2))
                for (m1, i1), v1 in acc.items():
                    rest1 = tmon_rest_degree(m1)
                    for m2, v2, rest2 in buckets.get(
                            (eps_max - i1, deg_max - tmon_degree(m1)), ()):
                        if rest1 + rest2 <= rest_max:
                            add_term(out, (tmon_times(m1, m2), eps_max), v1 * v2)
                return out
            for (m1, i1), v1 in acc.items():
                deg1, rest1 = tmon_degree(m1), tmon_rest_degree(m1)
                for m2, i2, v2, deg2, rest2 in right:
                    if i1 + i2 <= eps_max and deg1 + deg2 <= deg_max \
                            and rest1 + rest2 <= rest_max:
                        add_term(out, (tmon_times(m1, m2), i1 + i2), v1 * v2)
            acc = out
        if exact and (eps_max or deg_max):
            return {}  # no factors: the product is 1 at (t^0, eps^0)
        return acc

    def poly_series(self, p: DiffPoly, jet_fn, eps_max: int, deg_max: int,
                    rest_max: int | None = None, exact: bool = False) -> dict:
        """p(u^sp, u^sp_x, ...) as a series, cut like ``series_product``."""
        out = {}
        for (eps, jets), coeff in p.items():
            if eps > eps_max:
                continue
            factors = [(gamma, order) for gamma, order, power in jets
                       for _ in range(power)]
            product = self.series_product(factors, jet_fn, eps_max - eps,
                                          deg_max, rest_max, exact)
            for (m, i), value in product.items():
                add_term(out, (m, i + eps), coeff * value)
        return out

    # -- derived series ------------------------------------------------------------------

    def flow_series(self, beta: int, q: int) -> list[dict]:
        """[du^alpha/dt^beta_q] as coefficient tables (degree < t_deg)."""
        return [{(m, i): value
                 for (m, i), value in t_derivative(table, (beta, q), 1).items()
                 if tmon_degree(m) < self.bounds.t_deg}
                for table in self.c]


def special_solution(h11: LocalFunctional, omega: OmegaData, bounds: Bounds,
                     route: str = "max") -> SpecialSolution:
    """Build the special solution from h_{1,1} and the genus-0 data.

    ``route`` selects which flow integrates each genus-0 monomial ("max" or
    "min" over the available variables); the result must not depend on it.

    The table is filled one level at a time: the genus-0 layer by t-degree
    n, then each eps^i layer by (i, n).  A level's right-hand sides are the
    exact (eps^i, t-degree n) parts of whole series products; they are
    divided and written once all of them are known.  The order inside a
    level does not matter, because a level reads no entry of its own level
    except its own coefficient.  A genus-0 level n reads the flows at
    t-degree n - 1.  In an eps layer, jets keep the t-degree and eps order
    of the entries they come from, and the only jet with a nonzero
    (t^0, eps^0) entry is u^1_1 = 1.  The eps^e piece of the flow has
    derivative degree e + 1, so a term that reaches level (i, n) has e = 0
    and every other factor at (t^0, eps^0): it is u^gamma_0 u^1_1 or a
    linear u^gamma_1.  ``check_vanishing`` rules out the linear terms, and
    eta d^2 Omega_{1,1} = id gives u^gamma_0 u^1_1 the coefficient
    delta^{alpha,gamma}, so the level reads only its own coefficient, which
    the divisor i + n - 1 absorbs.
    """
    if route not in ("max", "min"):
        raise ValueError(f"unknown route {route!r}: expected 'max' or 'min'")
    ring = h11.ring
    ring.check_compatible(omega.ring)
    n_fields = ring.n_fields
    eta = omega.eta
    k_eta = HamiltonianOperator.eta_dx(ring, eta)
    flows_p = flow(h11, k_eta)
    for p in flows_p:
        for piece_eps, piece in p.eps_decompose().items():
            if not piece.is_homogeneous(piece_eps + 1):
                raise ValueError("t^1_1 flow is not of the dressed degree i+1")

    # precondition: the eps = 0 density of h11 is the Omega_{1,1;1,0} input
    density0 = h11.density.eps_coefficient(0)
    base = omega.density(1, 1)
    drift = density0 - base
    if drift.has_jets() or not drift.is_constant():
        raise ValueError("h11 dispersionless part does not match the Omega data")
    omega.check_vanishing()
    # the recursion denominator uses eta d^2 Omega_{1,1;mu,0}/du^1 du^rho = id
    for a in range(1, n_fields + 1):
        for rho in range(1, n_fields + 1):
            acc = Fraction(0)
            for mu in range(1, n_fields + 1):
                if eta[a - 1][mu - 1]:
                    second = base.partial(mu, 0).partial(1, 0).partial(rho, 0)
                    acc += eta[a - 1][mu - 1] * second.constant_term()
            if acc != (1 if a == rho else 0):
                raise ValueError("Omega data violates eta d2 Omega_{1,1} = id")

    sol = SpecialSolution(ring, bounds)
    # du^alpha/dt^beta_q = eta^{alpha mu} d_x dOmega_{beta,q+1;1,0}/du^mu: the
    # flow of the dispersionless Hamiltonian int Omega_{beta,q+1;1,0} dx
    genus0_flows = {(beta, q): flow(integrate(omega.density(beta, q)), k_eta)
                    for beta in range(1, n_fields + 1)
                    for q in range(bounds.t_max + 1)}

    # genus-0 layer: Taylor integration of the dispersionless flows
    sol.set_coeff(1, (((1, 0), 1),), 0, Fraction(1))
    pick = max if route == "max" else min
    rest_vars = [v for v in sol.variables() if v != (1, 0)]
    for degree in range(1, bounds.t_deg + 1):
        level = {(var, alpha): sol.poly_series(genus0_flows[var][alpha - 1], sol.jet,
                                               0, degree - 1, exact=True)
                 for var in rest_vars for alpha in range(1, n_fields + 1)}
        for (var, alpha), series in level.items():
            for (base_mon, _), value in series.items():
                m = tmon_mul(base_mon, var, 1)
                if pick(v for v, _ in m if v != (1, 0)) == var:
                    sol.set_coeff(alpha, m, 0, value / dict(m)[var])

    # eps layers: (i + n) c = [flow of h11](u^sp), the u^alpha term on the
    # right contributing the coefficient itself
    for i in range(1, bounds.eps_max + 1):
        for degree in range(bounds.t_deg + 1):
            level = [sol.poly_series(p, sol.jet, i, degree, exact=True) for p in flows_p]
            for alpha, rhs in enumerate(level, start=1):
                for (m, _), value in rhs.items():
                    if degree == 0 and i == 1:
                        raise AssertionError(
                            "recursion inconsistent at the empty monomial")
                    if all(v == (1, 0) for v, _ in m):
                        raise AssertionError(
                            f"recursion breaks the initial condition at {m}")
                    sol.set_coeff(alpha, m, i, value / (i + degree - 1))
    return sol


# -- residual checks ------------------------------------------------------------------


class ResidualReport:
    __slots__ = ("string_residuals", "dilaton_residuals")

    def __init__(self, string_residuals: dict, dilaton_residuals: dict):
        self.string_residuals = string_residuals
        self.dilaton_residuals = dilaton_residuals

    @property
    def clean(self) -> bool:
        return not self.string_residuals and not self.dilaton_residuals


def check_string_dilaton(sol: SpecialSolution) -> ResidualReport:
    """Residuals of the string and dilaton equations over the stored box.

    String: d u/d t^1_0 minus the string-equation jet d_x u; dilaton:
    d u/d t^1_1 minus (i + deg m) c.  Both are recomputed from the table,
    independently of how it was filled, at every t-degree below t_deg.
    """
    string_res = {}
    dilaton_res = {}
    for alpha in range(1, sol.ring.n_fields + 1):
        table = sol.c[alpha - 1]
        string = t_derivative(table, (1, 0), 1)
        for key, value in sol.jet(alpha, 1).items():
            add_term(string, key, -value)
        dilaton = t_derivative(table, (1, 1), 1)
        for (m, i), value in table.items():
            add_term(dilaton, (m, i), -(i + tmon_degree(m)) * value)
        for residuals, series in ((string_res, string), (dilaton_res, dilaton)):
            residuals.update(((alpha, m, i), value) for (m, i), value in series.items()
                             if tmon_degree(m) < sol.bounds.t_deg)
    return ResidualReport(string_res, dilaton_res)


# -- direct multi-flow integration (independent oracle) -----------------------------------


def integrate_flows_directly(flows: dict[tuple[int, int], list[DiffPoly]],
                             ring: Ring, bounds: Bounds,
                             t10_extra: int) -> SpecialSolution:
    """Taylor-integrate the given flows from u = delta^{a,1} x directly.

    Jets are plain t^1_0 shifts (no string equation, no dilaton): the
    t^1_0 exponent is allowed to exceed the t-degree box by ``t10_extra``
    so that the jets needed along the way stay inside the table.  The
    integration orders monomials by their non-t^1_0 degree (the rest
    degree): the coefficient of t^m is the flow of the largest variable of m
    other than t^1_0, read at rest degree one less.  Every entry below the
    level being written is final, so each flow is evaluated once per level
    as a whole series, and each write is a lookup in it.
    """
    sol = SpecialSolution(ring, bounds)
    n_fields = ring.n_fields
    sol.set_coeff(1, (((1, 0), 1),), 0, Fraction(1))
    budget = bounds.t_deg + t10_extra
    rest_vars = [v for v in sol.variables() if v != (1, 0)]
    for rest_degree in range(1, bounds.t_deg + 1):
        level = {(var, alpha): sol.poly_series(flows[var][alpha - 1], sol.direct_jet,
                                               bounds.eps_max, budget - 1,
                                               rest_degree - 1)
                 for var in rest_vars for alpha in range(1, n_fields + 1)}
        for (var, alpha), series in level.items():
            for (base_mon, i), value in series.items():
                # t^m = t^var * t^base_mon is written only through its
                # largest variable other than t^1_0
                if tmon_rest_degree(base_mon) == rest_degree - 1 \
                        and (not base_mon or base_mon[-1][0] <= var):
                    m = tmon_mul(base_mon, var, 1)
                    sol.set_coeff(alpha, m, i, value / dict(m)[var])
    return sol


def solutions_agree(a: SpecialSolution, b: SpecialSolution,
                    bounds: Bounds) -> bool:
    """Compare two solutions on the common truncation box."""
    for alpha in range(1, a.ring.n_fields + 1):
        keys = set()
        for (m, i) in list(a.c[alpha - 1]) + list(b.c[alpha - 1]):
            if tmon_degree(m) <= bounds.t_deg and i <= bounds.eps_max \
                    and all(v[1] <= bounds.t_max for v, _ in m):
                keys.add((m, i))
        for m, i in keys:
            if a.coeff(alpha, m, i) != b.coeff(alpha, m, i):
                return False
    return True


# -- rewriting a t-series as a differential polynomial ---------------------------------------


def jet_rewrite(series: list[dict], sol: SpecialSolution) -> list[DiffPoly]:
    """Express per-field t-series as differential polynomials in the jets.

    Inverts the triangular system d_x^d u^sp|_{x=0} = t^alpha_d + delta +
    O(t^2) + O(eps): peel the lowest (eps, degree) level off the residual,
    emit the matching monomial in z^gamma_d = u^gamma_d -
    delta^{gamma,1} delta_{d,1}, subtract its full series, and repeat.

    The input series is trustworthy up to t-degree one less than the
    solution box (as flow series are); levels beyond it are neither peeled
    nor required to cancel.  The result is exact for density terms of
    z-degree within that bound and jet order at most the box's t_max.  A
    jet of higher order has no t-variable in the box, and a term of higher
    degree is cut with the series; neither is detected here, and the term
    is dropped or absorbed by other monomials (the KdV flow
    w w_1 + eps^2 w_3 / 12 comes back as w w_1 at t_max = 1, and its
    w w_1 as w at t_deg = 2).  Callers bound the jet order and the term
    degree first; the ``reconstruct`` CLI refuses such boxes.
    """
    ring = sol.ring
    b = sol.bounds
    sdeg = b.t_deg - 1
    z11 = dict(sol.jet(1, 1))
    add_term(z11, ((), 0), Fraction(-1))

    def z_jet(gamma, d):
        """Series of z^gamma_d: the string jet minus its delta entry."""
        return z11 if (gamma, d) == (1, 1) else sol.jet(gamma, d)

    out = []
    for alpha in range(1, ring.n_fields + 1):
        residual = {(m, i): v for (m, i), v in series[alpha - 1].items()
                    if v and tmon_degree(m) <= sdeg}
        q_terms: list[tuple[Fraction, int, TMon]] = []
        for i in range(b.eps_max + 1):
            for degree in range(sdeg + 1):
                level = sorted(m for (m, j) in residual if j == i
                               and tmon_degree(m) == degree)
                for m in level:
                    coeff = residual.get((m, i), Fraction(0))
                    if not coeff:
                        continue
                    for (gamma, d), _ in m:
                        if d > b.t_max:
                            raise ValueError(
                                f"series needs jet order {d} > bound {b.t_max}")
                    q_terms.append((coeff, i, m))
                    # subtract coeff * eps^i * prod z^gamma_d over the box
                    factors = [(gamma, d) for (gamma, d), power in m
                               for _ in range(power)]
                    product = sol.series_product(factors, z_jet, b.eps_max - i, sdeg)
                    for (m2, j), value in product.items():
                        add_term(residual, (m2, i + j), -coeff * value)
        if any(v for v in residual.values()):
            raise ValueError("series is not closed by jets within the bounds")
        poly = DiffPoly.zero(ring)
        for coeff, i, m in q_terms:
            term = DiffPoly.const(ring, coeff)
            for (gamma, d), power in m:
                z = DiffPoly.jet(ring, gamma, d)
                if gamma == 1 and d == 1:
                    z = z - DiffPoly.const(ring, 1)
                term = term * z ** power
            poly = poly + term.eps_shift(i)
        out.append(poly)
    return out


# -- the three-condition hierarchy comparison -----------------------------------------------


def dz_miura_map(r: int, ring: Ring) -> MiuraMap:
    """The reference change relating the DR and DZ variables (identity for r=3)."""
    if r not in DR_DZ_SHIFTS:
        raise ValueError(f"no Miura map data for r = {r}")
    entries = []
    for a in range(1, r):
        w = DiffPoly.jet(ring, a, 0)
        shift = DR_DZ_SHIFTS[r].get(a)
        if shift:
            beta, c = shift
            w = w + (DiffPoly.jet(ring, beta, 2) * c).eps_shift(2)
        entries.append(w)
    return MiuraMap(ring, entries)


class VerdictReport:
    __slots__ = ("r", "conditions", "operator_diff", "hamiltonian_diff", "eps_max",
                 "miura_diff")

    def __init__(self, r: int, conditions: tuple[bool, bool, bool],
                 operator_diff: HamiltonianOperator, hamiltonian_diff: DiffPoly,
                 eps_max: int, miura_diff: tuple[DiffPoly, ...]):
        self.r = r
        self.conditions = conditions
        self.operator_diff = operator_diff
        self.hamiltonian_diff = hamiltonian_diff
        self.eps_max = eps_max
        self.miura_diff = miura_diff  # dw^alpha/du^1 - delta^{alpha,1}

    CONDITION_NAMES = ("dw/du1 = delta", "push(eta dx) = K", "g11[w] = h11")

    @property
    def verdict(self) -> bool:
        return all(self.conditions)

    def failure(self, names) -> str | None:
        """One line on the first failed condition, None on a pass.

        It names the condition, the lowest eps order of lhs - rhs and the
        first differing term there, with the entry it sits in.
        """
        diffs = (
            [(f"dw{a}/du1 - delta^{{{a},1}}", "", d)
             for a, d in enumerate(self.miura_diff, 1)],
            [(f"entry ({a},{b}) of lhs - rhs", f" at d_x^{n}", c)
             for a, row in enumerate(self.operator_diff.entries, 1)
             for b, op in enumerate(row, 1) for n, c in sorted(op.coeffs.items())],
            [("the density of lhs - rhs", "", self.hamiltonian_diff)],
        )
        for name, ok, parts in zip(self.CONDITION_NAMES, self.conditions, diffs):
            if ok:
                continue
            terms = [(eps, jets, c, place, where) for place, where, poly in parts
                     for (eps, jets), c in poly.sorted_terms()]
            eps, jets, c, place, where = min(terms, key=lambda t: t[0])
            term = DiffPoly.from_items(self.hamiltonian_diff.ring, [((eps, jets), c)])
            return f"{name} failure at eps^{eps}: {place} has {term.render(names)}{where}"
        return None

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "conditions": list(self.conditions),
            "verdict": self.verdict,
            "bounds": {"eps_max": self.eps_max},
            "diffs": {
                "operator": self.operator_diff.to_json_dict(),
                "hamiltonian": self.hamiltonian_diff.to_json_dict(),
            },
        }


def verify_dr_dz_equivalence(ctx: GDContext,
                             miura: MiuraMap | None = None) -> VerdictReport:
    """Check the three sufficient conditions for DR/DZ equivalence:

    (1) dw^alpha/du^1 = delta^{alpha,1};
    (2) the pushforward of eta d_x equals K^{r-spin};
    (3) the pushforward of the double ramification g_{1,1} equals
        h^{r-spin}_{1,1},
    each up to eps^{2r+2}.
    """
    r = ctx.r
    g11 = builtin_g11(r, ctx.ring_w)
    if miura is None:
        miura = dz_miura_map(r, ctx.ring_w)
    eps_max = 2 * r + 2
    ring = ctx.ring_w

    miura_diff = tuple(w.partial(1, 0) - DiffPoly.const(ring, 1 if a == 1 else 0)
                       for a, w in enumerate(miura.entries, start=1))
    cond1 = all(d.is_zero() for d in miura_diff)

    k_spin, h_spin = rspin_system(ctx, 1, 1)
    eta = eta_matrix(r)
    pushed_op = miura_push_operator(HamiltonianOperator.eta_dx(ring, eta),
                                    miura, eps_max)
    op_diff = pushed_op - k_spin.truncate_eps(eps_max)
    cond2 = all(op.is_zero() for row in op_diff.entries for op in row)

    pushed_h = miura_push_poly(g11, miura, eps_max)
    cond3 = local_eq(pushed_h, h_spin.truncate_eps(eps_max))
    h_diff = pushed_h.canonical_density() \
        - h_spin.truncate_eps(eps_max).canonical_density()

    return VerdictReport(r=r, conditions=(cond1, cond2, cond3),
                         operator_diff=op_diff, hamiltonian_diff=h_diff,
                         eps_max=eps_max, miura_diff=miura_diff)
