"""The t-series kernel in its plain form: an independent oracle.

A t-monomial is a sorted tuple of ((gamma, k), power) pairs, a series a dict
{(t-monomial, eps order): Fraction}.  This is the representation
``drhier.reconstruct`` stored before it packed monomials into ints and
values into integer numerators over one denominator; the tests compare the
packed kernel against it on random series.
"""

from math import prod


def tmon_times(m1, m2):
    """m1 * m2; a negative power in m2 divides, zero exponents go."""
    acc = dict(m1)
    for var, power in m2:
        acc[var] = acc.get(var, 0) + power
    return tuple(sorted((v, p) for v, p in acc.items() if p))


def tmon_mul(m, var, power):
    """m * (t^var)^power."""
    return tmon_times(m, ((var, power),))


def tmon_quotient(m, m1):
    """m / m1, or None when m1 does not divide m."""
    acc = dict(m)
    for var, power in m1:
        left = acc.get(var, 0) - power
        if left < 0:
            return None
        acc[var] = left
    return tuple(sorted((v, p) for v, p in acc.items() if p))


def tmon_degree(m):
    return sum(p for _, p in m)


def tmon_rest_degree(m):
    """Degree in the variables other than t^1_0."""
    return sum(p for v, p in m if v != (1, 0))


def add_term(terms, key, value):
    new = terms.get(key, 0) + value
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def t_derivative(series, var, k):
    """d^k/d(t^var)^k: the exponent of t^var drops by k and the value gains
    the falling factorial."""
    out = {}
    for (m, i), value in series.items():
        e = dict(m).get(var, 0)
        if e >= k:
            out[(tmon_mul(m, var, -k), i)] = value * prod(range(e - k + 1, e + 1))
    return out


def raise_subscripts(series, t_max):
    """sum t^rho_{k+1} dV/dt^rho_k, subscripts capped at t_max."""
    out = {}
    for (m, i), value in series.items():
        for (rho, k), e in m:
            if k < t_max:
                raised = tmon_mul(tmon_mul(m, (rho, k), -1), (rho, k + 1), 1)
                add_term(out, (raised, i), e * value)
    return out


def series_product(factors, eps_max, deg_max, rest_max=None, exact=False):
    """Product of the series in ``factors``, cut at eps <= eps_max, t-degree
    <= deg_max and degree without t^1_0 <= rest_max (default deg_max).
    With ``exact`` only the part at eps = eps_max and t-degree = deg_max is
    kept: the last factor meets only its matching (eps, degree) bucket."""
    rest_max = deg_max if rest_max is None else rest_max
    acc = {((), 0): 1}
    last = len(factors) - 1 if exact else -1
    for k, series in enumerate(factors):
        right = [(m, i, v, tmon_degree(m), tmon_rest_degree(m))
                 for (m, i), v in series.items() if i <= eps_max]
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
