"""Reconstruction of a hierarchy from one Hamiltonian and its genus-0 part.

The special solution u^sp of the deformed hierarchy (initial datum
u^alpha = delta^{alpha,1} x) is built one level at a time.  Its t-degree 1
is read off the genus-0 data Omega_{beta,1;1,0}; every other level (i,
total t-degree n), genus 0 included, comes from the one dilaton-derived
recursion (i + n) c = [t^1_1-flow of h_{1,1} evaluated on u^sp].  So the
genus-0 data is read only at (beta, 0) and (1, 1), whatever the box's
largest subscript.  Each level is the exact (eps, degree) part of whole
series products over the finished lower levels, divided and then
written.  All series live at x = 0.  The x dependence is recovered through
the t^1_0 derivative (the t^1_0 flow is plain translation), and jets of the
solution are series pushed forward from the table by the string equation
d_x = delta + sum t^rho_{k+1} d/dt^rho_k, which raises t-subscripts instead
of the degree -- exactly the reduction that makes the recursion
well-founded.

Representation, as in ``diffpoly``: a series is a sparse dict from a packed
key to a nonzero int numerator over a denominator kept beside it.  A key
packs the monomial t^m eps^i into one int of 16-bit slots: slot 0 holds i,
slot 1 the total t-degree, slot 2 the degree without t^1_0, and slot
3 + k N + gamma - 1 the power of t^gamma_k (N fields).  A product of
monomials is the sum of their keys, and every degree cut is a shift and a
mask.  Every slot holds at most ``SLOT_MAX`` = 32767, and a key uses no
slot above 4095; the top bit of a slot is a guard, so m1 divides m exactly
when m - m1 borrows into no guard bit.  ``special_solution`` and
``integrate_flows_directly`` refuse a box whose degree, eps order or
largest subscript the slots cannot hold.  A solution keeps one
denominator, ``den``, for its tables and its cached jets, and a write sets
one level of one field at once: it reduces the level by one gcd, lifts
``den`` at most once, and pushes the level's change into each cached jet.
Series products return (numerators, denominator) pairs.  Code outside the
module reads a solution through the decoded view: ``coeff``,
``tables``, ``cached_jets`` and ``decode`` give t-monomials as sorted
tuples of ((gamma, k), power) and values as ``Fraction``s, and
``set_coeff`` takes that form.

The honesty of the construction is checked from outside: string/dilaton
residuals recompute both sides from the stored table, and the r = 2
acceptance test compares against ``integrate_flows_directly``, a direct
multi-flow Taylor integration that uses neither string nor dilaton: its
jets are the t^1_0 derivatives it takes of its own finished levels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from .diffpoly import DiffPoly, LocalFunctional, Ring, sum_of_products
from .hamops import HamiltonianOperator, MiuraMap, flow, miura_invert, \
    miura_push_operator, miura_push_poly
from .gdhier import GDContext, dispersionless_omega, eta_matrix, rspin_system
from .drspin import DR_DZ_SHIFTS, builtin_g11
from .scalars import Frozen, add_term, exact_rational
from .slots import (MASK, SLOT_MAX, TOP_SLOT, W, canonical, canonical_scale, canonical_sum,
                    guard_slots, nonzero_slots)

# t-monomial: sorted tuple of ((gamma, subscript), power)
TMon = tuple[tuple[tuple[int, int], int], ...]

_DEG = 1 << W              # one unit of total t-degree
_REST = 1 << (2 * W)       # one unit of degree without t^1_0
_VARS = 3 * W              # bit offset of the slot of t^1_0
_ZERO = Fraction(0)


def _var_shift(n: int, var: tuple[int, int]) -> int:
    """Bit offset of the slot of t^var in an n-field key."""
    gamma, k = var
    if not 1 <= gamma <= n or k < 0:
        raise ValueError(f"t-variable {var} out of range for {n} fields")
    slot = 3 + k * n + gamma - 1
    if slot > TOP_SLOT:
        raise ValueError(f"t^{gamma}_{k} needs packed slot {slot}, above {TOP_SLOT}")
    return W * slot


def _unit(shift: int) -> int:
    """The key of t^var for the variable whose slot starts at bit ``shift``."""
    return (1 << shift) + _DEG + (_REST if shift != _VARS else 0)


def pack_key(n: int, m: TMon, i: int) -> int:
    """The packed key of t^m eps^i over n fields; a power, degree or eps order
    above ``SLOT_MAX``, or a negative one, is refused with ValueError."""
    key = degree = rest = 0
    for (gamma, k), power in m:
        slot = 3 + k * n + gamma - 1
        if not (0 < gamma <= n and 0 <= k and slot <= TOP_SLOT and power >= 0):
            _var_shift(n, (gamma, k))
            raise ValueError(f"negative power of t^{gamma}_{k}")
        key += power << (W * slot)
        degree += power
        if slot != 3:
            rest += power
    if not 0 <= i <= SLOT_MAX or degree > SLOT_MAX:
        raise ValueError(f"a t-degree or eps order exceeds {SLOT_MAX}")
    return key + i + (degree << W) + (rest << (2 * W))


def unpack_key(key: int, n: int) -> tuple[TMon, int]:
    """(t-monomial, eps order) of a packed key over n fields."""
    m = []
    for shift, power in nonzero_slots(key, _VARS):
        k, gamma = divmod((shift - _VARS) // W, n)
        m.append(((gamma + 1, k), power))
    m.sort()
    return tuple(m), key & MASK


def _degree(key: int) -> int:
    return (key >> W) & MASK


def _variables(key: int, n: int) -> list[tuple[int, int]]:
    """The variables (gamma, k) of a key's t-monomial, t^1_0 included."""
    return [var for var, _ in unpack_key(key, n)[0]]


def t_derivative(series: dict, n: int, var: tuple[int, int], k: int) -> dict:
    """d^k/d(t^var)^k of a packed series over n fields: the power of t^var
    drops by k and the value gains the falling factorial."""
    shift = _var_shift(n, var)
    step = k * _unit(shift)
    out = {}
    for key, value in series.items():
        e = (key >> shift) & MASK
        if e >= k:
            out[key - step] = value * prod(range(e - k + 1, e + 1))
    return out


def raise_subscripts(series: dict, n: int, t_max: int) -> dict:
    """sum t^rho_{k+1} dV/dt^rho_k of a packed series V over n fields,
    subscripts capped at t_max: the string push-forward, linear in V."""
    out = {}
    lift = W * n  # from subscript k to k + 1
    below = (1 << (lift * t_max)) - 1  # the slots of subscripts below t_max
    for key, value in series.items():
        rest, shift = (key >> _VARS) & below, _VARS
        while rest:
            e = rest & MASK
            if e:
                step = (1 << (shift + lift)) - (1 << shift)
                add_term(out, key + step + (_REST if shift == _VARS else 0), e * value)
            rest >>= W
            shift += W
    return out


def multiply_series(factors: list[dict], eps_max: int, deg_max: int,
                    rest_max: int | None = None, exact: bool = False) -> dict:
    """Product of packed series, cut at eps <= eps_max, t-degree <= deg_max
    and degree without t^1_0 <= rest_max (default deg_max).

    The values are numerators: the product's denominator is the product of
    the factors'.  Each cut is exact: no factor lowers a degree.  With
    ``exact`` only the part at eps = eps_max and t-degree = deg_max is kept.
    Each factor, and the running product, is split into buckets by (eps,
    degree), and by rest degree when that cut is below the degree cut; the
    product of two buckets lands in one bucket, and a pair of buckets outside
    the cut is never opened.
    """
    if rest_max is None or rest_max >= deg_max:
        rest_max, rest_mask = deg_max, 0
    else:
        rest_mask = MASK
    acc = {(0, 0, 0): {0: 1}}
    last = len(factors) - 1 if exact else -1
    split = {}
    for idx, series in enumerate(factors):
        right = split.get(id(series))
        if right is None:
            buckets = {}
            for key, v in series.items():
                i2, d2 = key & MASK, (key >> W) & MASK
                if i2 <= eps_max and d2 <= deg_max:
                    buckets.setdefault((i2, d2, (key >> (2 * W)) & rest_mask),
                                       []).append((key, v))
            right = split[id(series)] = list(buckets.items())
        out = {}
        for (i1, d1, r1), left in acc.items():
            left = list(left.items())
            for (i2, d2, r2), pairs in right:
                i, d, r = i1 + i2, d1 + d2, r1 + r2
                if ((i != eps_max or d != deg_max) if idx == last
                        else (i > eps_max or d > deg_max)) or r > rest_max:
                    continue
                bucket = out.get((i, d, r))
                if bucket is None:
                    bucket = out[(i, d, r)] = {}
                get = bucket.get
                for k1, v1 in left:
                    for k2, v2 in pairs:
                        k = k1 + k2
                        bucket[k] = get(k, 0) + v1 * v2
        acc = out
    if exact and not factors and (eps_max or deg_max):
        return {}  # no factors: the product is 1 at (t^0, eps^0)
    return {k: v for bucket in acc.values() for k, v in bucket.items() if v}


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


def _check_box(ring: Ring, bounds: Bounds, degree: int):
    """Refuse a box whose t-degree ``degree``, eps order or largest
    t-subscript the packed slots cannot hold."""
    if degree > SLOT_MAX or bounds.eps_max > SLOT_MAX:
        raise ValueError(f"a t-degree of {degree} or an eps order of {bounds.eps_max} "
                         f"is above the slot limit {SLOT_MAX}")
    _var_shift(ring.n_fields, (ring.n_fields, bounds.t_max))


class SpecialSolution:
    """Per-field t-series of the special solution, stored at x = 0: packed
    tables of numerators over the one denominator ``den``, and one jet
    source, the string jets of ``jet``, cached by (gamma, d)."""

    def __init__(self, ring: Ring, bounds: Bounds):
        self.ring = ring
        self.bounds = bounds
        self._n = ring.n_fields
        self.den = 1
        self._tables: list[dict[int, int]] = [dict() for _ in range(self._n)]
        # string jet series by (gamma, d), kept equal to the table by writes
        self._jets: dict = {}

    # -- the decoded view ---------------------------------------------------------

    def decode(self, series: dict) -> dict:
        """{(m, i): Fraction} of a packed series over ``den``: a table, a
        cached jet or a flow series."""
        den = self.den
        return {unpack_key(key, self._n): Fraction(v, den) for key, v in series.items()}

    def tables(self) -> list[dict]:
        """Per field, every stored entry as {(m, i): Fraction}."""
        return [self.decode(table) for table in self._tables]

    def cached_jets(self) -> dict:
        """Every cached jet series, decoded, by (gamma, d)."""
        return {label: self.decode(series) for label, series in self._jets.items()}

    def entry_count(self) -> int:
        """The number of nonzero entries stored over all fields."""
        return sum(map(len, self._tables))

    def coeff(self, alpha: int, m: TMon, i: int) -> Fraction:
        num = self._tables[alpha - 1].get(pack_key(self._n, m, i))
        return Fraction(num, self.den) if num else _ZERO

    def set_coeff(self, alpha: int, m: TMon, i: int, value):
        """Write the coefficient of t^m eps^i in u^alpha; a float is refused."""
        value = exact_rational(value)
        self._write(alpha, {pack_key(self._n, m, i): value.numerator}, value.denominator)

    # -- writes -------------------------------------------------------------------

    def _write(self, alpha: int, level: dict[int, int], den: int):
        """Set u^alpha to num / den at each key of the level.  One gcd reduces
        the level, ``den`` lifts every table and cached jet at most once, in
        place, and the change reaches each cached jet of alpha through one
        ``raise_subscripts`` chain: the string jets are linear in the table."""
        g = gcd(den, *level.values())
        den //= g
        if self.den % den:
            scale = den // gcd(self.den, den)
            self.den *= scale
            for series in (*self._tables, *self._jets.values()):
                for key, v in series.items():
                    series[key] = v * scale
        table = self._tables[alpha - 1]
        change = {key: num // g * (self.den // den) - table.get(key, 0)
                  for key, num in level.items()}
        for key, v in change.items():
            add_term(table, key, v)
        raised = [change]
        for (gamma, d), series in self._jets.items():
            if gamma == alpha:
                while len(raised) <= d:
                    raised.append(raise_subscripts(raised[-1], self._n, self.bounds.t_max))
                for key, v in raised[d].items():
                    add_term(series, key, v)

    def variables(self):
        return [(gamma, n) for gamma in range(1, self._n + 1)
                for n in range(self.bounds.t_max + 1)]

    # -- the string jets: series of d_x^d u^gamma over den ---------------------------

    def jet(self, gamma: int, d: int) -> dict:
        """d_x^d u^gamma via the string equation: d_x V = delta + sum
        t^rho_{k+1} dV/dt^rho_k (delta for V = u^1 only), pushed forward from
        the stored table.  The series is live: later writes update it."""
        if d == 0:
            return self._tables[gamma - 1]
        key = (gamma, d)
        if key not in self._jets:
            series = raise_subscripts(self.jet(gamma, d - 1), self._n, self.bounds.t_max)
            if key == (1, 1):
                add_term(series, 0, self.den)
            self._jets[key] = series
        return self._jets[key]

    # -- evaluation of differential polynomials on the solution ------------------------

    def eval_poly(self, p: DiffPoly, m: TMon, i: int, jet_fn=None) -> Fraction:
        """Coefficient of t^m eps^i in p(u^sp, u^sp_x, ...)."""
        jet_fn = jet_fn or self.jet
        key = pack_key(self._n, m, i)
        total = Fraction(0)
        for (eps, jets), coeff in p.items():
            if eps > i:
                continue
            factors = []
            for gamma, order, power in jets:
                factors.extend([(gamma, order)] * power)
            value = self._eval_factors(tuple(factors), key - eps, jet_fn)
            if value:
                total += coeff * Fraction(value, self.den ** len(factors))
        return total

    def _eval_factors(self, factors, key: int, jet_fn) -> int:
        """Numerator over den^len(factors) of the coefficient at key of the
        product of the factors' jet series: the first factor runs over its
        stored entries dividing t^m eps^i."""
        if not factors:
            return int(key == 0)
        series = jet_fn(*factors[0])
        if len(factors) == 1:
            return series.get(key, 0)
        rest = factors[1:]
        guard = guard_slots(key.bit_length() // W + 1)
        total = 0
        for k1, left in series.items():
            k2 = key - k1
            if k2 >= 0 and not k2 & guard:
                right = self._eval_factors(rest, k2, jet_fn)
                if right:
                    total += left * right
        return total

    # -- whole series of products: every coefficient of a level at once -------------------

    def series_product(self, factors, jet_fn, eps_max: int, deg_max: int,
                       rest_max: int | None = None, exact: bool = False):
        """(numerators, denominator) of the product of the factors' jet
        series, cut as in ``multiply_series``."""
        return (multiply_series([jet_fn(gamma, d) for gamma, d in factors],
                                eps_max, deg_max, rest_max, exact),
                self.den ** len(factors))

    def poly_series(self, p: DiffPoly, jet_fn, eps_max: int, deg_max: int,
                    rest_max: int | None = None, exact: bool = False):
        """(numerators, denominator) of p(u^sp, u^sp_x, ...) as a series, cut
        like ``series_product``."""
        products = []
        for (eps, jets), coeff in p.items():
            if eps <= eps_max:
                factors = [(gamma, order) for gamma, order, power in jets
                           for _ in range(power)]
                products.append((eps, coeff, self.series_product(
                    factors, jet_fn, eps_max - eps, deg_max, rest_max, exact)))
        # every pden is a power of the solution's den: the largest is their lcm
        den = p.den * max((pden for *_, (_, pden) in products), default=1)
        out = {}
        get = out.get
        for eps, coeff, (product, pden) in products:
            scale = den // (coeff.denominator * pden) * coeff.numerator
            for key, v in product.items():
                key += eps
                out[key] = get(key, 0) + v * scale
        return {key: v for key, v in out.items() if v}, den

    # -- derived series ------------------------------------------------------------------

    def flow_series(self, beta: int, q: int) -> list[dict]:
        """[du^alpha/dt^beta_q] as packed series over ``den`` (degree < t_deg)."""
        return [{key: v for key, v in t_derivative(table, self._n, (beta, q), 1).items()
                 if _degree(key) < self.bounds.t_deg}
                for table in self._tables]


def special_solution(h11: LocalFunctional, omega: OmegaData,
                     bounds: Bounds) -> SpecialSolution:
    """Build the special solution from h_{1,1} and the genus-0 data.

    Degree 1 is read off the data: at t = 0, where u = delta^{gamma,1} x, the
    coefficient of t^beta_0 in u^alpha is eta^{alpha mu} d^2
    Omega_{beta,1;1,0}/du^mu du^1 at u = 0, and t^beta_q, q >= 1, gets none.
    Every other level (i, n), genus 0 from n = 2 on included, takes the one
    dilaton step (i + n) c = [t^1_1-flow of h11 evaluated on u^sp].  So
    Omega is read only as ``density(beta, 0)`` and ``density(1, 1)``, besides
    the q >= 1 vanishing that ``check_vanishing`` asserts.

    A level's right-hand sides are the exact (eps^i, t-degree n) parts of
    whole series products; they are divided and written once all of them
    are known.  The order inside a level does not matter, because a level
    reads no entry of its own level except its own coefficient.  Jets keep
    the t-degree and eps order of the entries they come from, and the only
    jet with a nonzero (t^0, eps^0) entry is u^1_1 = 1.  The eps^e piece of
    the flow has derivative degree e + 1, so a term that reaches level (i, n)
    has e = 0 and every other factor at (t^0, eps^0): it is u^gamma_0 u^1_1
    or a linear u^gamma_1.  ``check_vanishing`` rules out the linear terms,
    and eta d^2 Omega_{1,1} = id gives u^gamma_0 u^1_1 the coefficient
    delta^{alpha,gamma}, so the level reads only its own coefficient, which
    the divisor i + n - 1 absorbs.
    """
    ring = h11.ring
    ring.check_compatible(omega.ring)
    _check_box(ring, bounds, bounds.t_deg)
    n_fields = ring.n_fields
    fields = range(1, n_fields + 1)
    eta = omega.eta
    flows_p = flow(h11, HamiltonianOperator.eta_dx(ring, eta))
    for p in flows_p:
        for piece_eps, piece in p.eps_decompose().items():
            if not piece.is_homogeneous(piece_eps + 1):
                raise ValueError("t^1_1 flow is not of the dressed degree i+1")

    def raised_at_zero(poly: DiffPoly, alpha: int) -> Fraction:
        """eta^{alpha mu} d poly/du^mu at u = 0."""
        return sum((eta[alpha - 1][mu - 1] * poly.partial(mu, 0).constant_term()
                    for mu in fields if eta[alpha - 1][mu - 1]), _ZERO)

    # precondition: the eps = 0 density of h11 is the Omega_{1,1;1,0} input
    base = omega.density(1, 1)
    if not (h11.density.eps_coefficient(0) - base).is_constant():
        raise ValueError("h11 dispersionless part does not match the Omega data")
    omega.check_vanishing()
    # the recursion denominator uses eta d^2 Omega_{1,1;mu,0}/du^1 du^rho = id
    if any(raised_at_zero(base.partial(1, 0).partial(rho, 0), a) != (a == rho)
           for a in fields for rho in fields):
        raise ValueError("Omega data violates eta d2 Omega_{1,1} = id")

    sol = SpecialSolution(ring, bounds)
    for beta in fields:
        second = omega.density(beta, 0).partial(1, 0)
        for alpha in fields:
            value = raised_at_zero(second, alpha)
            if beta == 1 and value != (alpha == 1):
                raise ValueError("Omega data breaks the initial condition u^1 = x")
            sol.set_coeff(alpha, (((beta, 0), 1),), 0, value)

    # (i + n) c = [flow of h11](u^sp), the u^alpha term on the right
    # contributing the coefficient itself
    for i in range(bounds.eps_max + 1):
        for degree in range(0 if i else 2, bounds.t_deg + 1):
            level = [sol.poly_series(p, sol.jet, i, degree, exact=True) for p in flows_p]
            for alpha, (rhs, den) in enumerate(level, start=1):
                for m in rhs:
                    if degree == 0 and i == 1:
                        raise AssertionError("recursion inconsistent at the empty monomial")
                    if not (m >> (2 * W)) & MASK:
                        raise AssertionError("recursion breaks the initial condition at "
                                             f"{unpack_key(m, n_fields)[0]}")
                if rhs:
                    sol._write(alpha, rhs, den * (i + degree - 1))
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
    independently of how it was filled, at every t-degree below t_deg: the
    jet is pushed forward from the table here, not read from the solution's
    jet cache.  They are reported as {(alpha, m, i): Fraction}.
    """
    n = sol.ring.n_fields
    string_res = {}
    dilaton_res = {}
    for alpha in range(1, n + 1):
        table = sol._tables[alpha - 1]
        string = t_derivative(table, n, (1, 0), 1)
        jet = raise_subscripts(table, n, sol.bounds.t_max)
        if alpha == 1:
            add_term(jet, 0, sol.den)
        for key, value in jet.items():
            add_term(string, key, -value)
        dilaton = t_derivative(table, n, (1, 1), 1)
        for key, value in table.items():
            add_term(dilaton, key, -((key & MASK) + _degree(key)) * value)
        for residuals, series in ((string_res, string), (dilaton_res, dilaton)):
            residuals.update(((alpha, *unpack_key(key, n)), Fraction(value, sol.den))
                             for key, value in series.items()
                             if _degree(key) < sol.bounds.t_deg)
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
    level being written is final, so at each level the jets are taken once
    from the finished tables, each flow is evaluated once as a whole series,
    and each field's entries of the level are written at once.
    """
    budget = bounds.t_deg + t10_extra
    _check_box(ring, bounds, budget)
    sol = SpecialSolution(ring, bounds)
    n_fields = ring.n_fields
    sol.set_coeff(1, (((1, 0), 1),), 0, 1)
    rest_vars = [v for v in sol.variables() if v != (1, 0)]
    for rest_degree in range(1, bounds.t_deg + 1):
        direct_jet = cache(lambda gamma, d: t_derivative(sol._tables[gamma - 1], n_fields,
                                                         (1, 0), d))
        level = {(var, alpha): sol.poly_series(flows[var][alpha - 1], direct_jet,
                                               bounds.eps_max, budget - 1,
                                               rest_degree - 1)
                 for var in rest_vars for alpha in range(1, n_fields + 1)}
        entries = [{} for _ in range(n_fields)]  # per field: {key: (num, den)}
        for (var, alpha), (series, den) in level.items():
            shift = _var_shift(n_fields, var)
            for base, value in series.items():
                # t^m = t^var * t^base is written only through its largest
                # variable other than t^1_0
                if (base >> (2 * W)) & MASK == rest_degree - 1 \
                        and max(_variables(base, n_fields), default=var) <= var:
                    m = base + _unit(shift)
                    entries[alpha - 1][m] = value, den * ((m >> shift) & MASK)
        for alpha, written in enumerate(entries, start=1):
            common = lcm(*(den for _, den in written.values()))
            sol._write(alpha, {m: v * (common // den) for m, (v, den) in written.items()},
                       common)
    return sol


def solutions_agree(a: SpecialSolution, b: SpecialSolution,
                    bounds: Bounds) -> bool:
    """Compare two solutions (over one ring) on the common truncation box."""
    n = a.ring.n_fields
    a.ring.check_compatible(b.ring)
    beyond = _VARS + W * n * (bounds.t_max + 1)  # the first slot past t_max
    for ta, tb in zip(a._tables, b._tables):
        for key in ta.keys() | tb.keys():
            if _degree(key) <= bounds.t_deg and key & MASK <= bounds.eps_max \
                    and not key >> beyond \
                    and ta.get(key, 0) * b.den != tb.get(key, 0) * a.den:
                return False
    return True


# -- rewriting a t-series as a differential polynomial ---------------------------------------


def jet_rewrite(series: list[dict], sol: SpecialSolution) -> list[DiffPoly]:
    """Express per-field t-series as differential polynomials in the jets.

    The series are packed, over ``sol.den``, as ``flow_series`` gives them.
    Inverts the triangular system d_x^d u^sp|_{x=0} = t^alpha_d + delta +
    O(t^2) + O(eps): peel the lowest (eps, degree) level off the residual,
    emit the matching monomial in z^gamma_d = u^gamma_d -
    delta^{gamma,1} delta_{d,1}, subtract its full series, and repeat.  The
    residual stays in the canonical form of ``slots``, and the emitted
    monomials are summed by one ``sum_of_products``.

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
    n = ring.n_fields
    b = sol.bounds
    sdeg = b.t_deg - 1
    beyond = _VARS + W * n * (b.t_max + 1)  # the first slot past t_max
    z11 = dict(sol.jet(1, 1))
    add_term(z11, 0, -sol.den)

    def z_jet(gamma, d):
        """Series of z^gamma_d: the string jet minus its delta entry."""
        return z11 if (gamma, d) == (1, 1) else sol.jet(gamma, d)

    z11_poly = DiffPoly.jet(ring, 1, 1) - 1
    out = []
    for alpha in range(1, n + 1):
        residual, den = canonical({key: v for key, v in series[alpha - 1].items()
                                   if v and _degree(key) <= sdeg}, sol.den)
        triples = []  # (coeff, eps^i prod of the other u-jets, (u^1_1 - 1)^p) per peel
        for i in range(b.eps_max + 1):
            for degree in range(sdeg + 1):
                for key in sorted(key for key in residual
                                  if key & MASK == i and _degree(key) == degree):
                    m = unpack_key(key, n)[0]
                    if key >> beyond:
                        top = max(d for (_, d), _ in m)
                        raise ValueError(f"series needs jet order {top} > bound {b.t_max}")
                    coeff = Fraction(residual[key], den)
                    rest = [(gamma, d, power) for (gamma, d), power in m if (gamma, d) != (1, 1)]
                    triples.append((coeff, DiffPoly.from_items(ring, [((i, rest), 1)]),
                                    z11_poly ** dict(m).get((1, 1), 0)))
                    # subtract coeff * eps^i * prod z^gamma_d over the box
                    factors = [(gamma, d) for (gamma, d), power in m for _ in range(power)]
                    product, pden = sol.series_product(factors, z_jet, b.eps_max - i, sdeg)
                    product = canonical({k + i: v for k, v in product.items()}, pden)
                    residual, den = canonical_sum(residual, den, *canonical_scale(
                        *product, coeff.numerator, coeff.denominator), -1)
        if residual:
            raise ValueError("series is not closed by jets within the bounds")
        out.append(sum_of_products(ring, triples))
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
    g11 = builtin_g11(r)
    if miura is None:
        miura = dz_miura_map(r, ctx.ring_w)
    eps_max = 2 * r + 2
    ring = ctx.ring_w

    miura_diff = tuple(w.partial(1, 0) - DiffPoly.const(ring, 1 if a == 1 else 0)
                       for a, w in enumerate(miura.entries, start=1))
    cond1 = all(d.is_zero() for d in miura_diff)

    k_spin, h_spin = rspin_system(ctx, 1, 1)
    eta = eta_matrix(r)
    inverse = miura_invert(miura, eps_max)
    pushed_op = miura_push_operator(HamiltonianOperator.eta_dx(ring, eta),
                                    miura, inverse, eps_max)
    op_diff = pushed_op - k_spin.truncate_eps(eps_max)
    cond2 = all(op.is_zero() for row in op_diff.entries for op in row)

    # canonical densities are unique and drop constants: the one of the
    # difference is zero exactly when the functionals agree
    h_diff = (miura_push_poly(g11, inverse, eps_max)
              - h_spin.truncate_eps(eps_max)).canonical_density()
    cond3 = h_diff.is_zero()

    return VerdictReport(r=r, conditions=(cond1, cond2, cond3),
                         operator_diff=op_diff, hamiltonian_diff=h_diff,
                         eps_max=eps_max, miura_diff=miura_diff)
