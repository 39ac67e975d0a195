"""Hamiltonian operators, Poisson brackets, flows and Miura transformations.

A HamiltonianOperator is an N x N matrix of differential operators: finite
PseudoDiffOp sums of differential-polynomial coefficients times nonnegative
powers of d_x, composed by the Leibniz rule of ``psido``.  It induces the
bracket {f, g}_K = int (df/du^mu  K^{mu nu}  dg/du^nu) dx on local
functionals.  Applying it to a vector forms each output entry as one
``sum_of_products`` over the pairs (c^{ab}_j, d_x^j vec[b]), and the bracket
is one more over the pairs (dh1/du^mu, flow^mu).  Miura transformations are
near-identity changes of field variables w^alpha = u^alpha + O(eps) by
differential polynomials; they transport functionals by substitution of the
inverse map and operators by the chain-rule conjugation formula.
"""

from __future__ import annotations

from fractions import Fraction

from .diffpoly import DiffPoly, LocalFunctional, Ring, derivatives, sum_of_products
from .psido import PseudoDiffOp
from .scalars import add_term


class HamiltonianOperator:
    """N x N matrix of differential operators defining a Poisson bracket."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: Ring, entries: list[list[PseudoDiffOp]]):
        n = ring.n_fields
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("operator matrix must be N x N")
        self.ring = ring
        self.entries = entries

    @staticmethod
    def zero(ring: Ring) -> "HamiltonianOperator":
        n = ring.n_fields
        return HamiltonianOperator(
            ring, [[PseudoDiffOp.finite(ring) for _ in range(n)] for _ in range(n)])

    @staticmethod
    def eta_dx(ring: Ring, eta: list[list[Fraction]]) -> "HamiltonianOperator":
        """The standard operator eta * d_x for a constant symmetric eta."""
        n = ring.n_fields
        out = HamiltonianOperator.zero(ring)
        for a in range(n):
            for b in range(n):
                if eta[a][b]:
                    out.entries[a][b] = PseudoDiffOp.dx(ring, 1, eta[a][b])
        return out

    def apply_vector(self, vec: list[DiffPoly]) -> list[DiffPoly]:
        """(K vec)^a as one ``sum_of_products`` over (c^{ab}_j, d_x^j vec[b]), each
        vec[b] differentiated once; only finite differential operators apply."""
        if any(op.lo is not None or min(op.coeffs, default=0) < 0
               for row in self.entries for op in row):
            raise ValueError("only a finite differential operator can be applied")
        derivs = [derivatives({0: v}) for v in vec]
        return [sum_of_products(self.ring, ((1, c, derivs[b](0, j)) for b, op in enumerate(row)
                                            for j, c in op.coeffs.items()))
                for row in self.entries]

    def __sub__(self, other: "HamiltonianOperator") -> "HamiltonianOperator":
        return HamiltonianOperator(
            self.ring,
            [[a - b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)])

    def truncate_eps(self, emax: int) -> "HamiltonianOperator":
        return HamiltonianOperator(
            self.ring, [[op.truncate_eps(emax) for op in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, HamiltonianOperator):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def render(self, names=None) -> str:
        rows = []
        for row in self.entries:
            rows.append("[" + ", ".join(op.render(names) for op in row) + "]")
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"HamiltonianOperator({self.render()})"

    def to_json_dict(self) -> dict:
        return {"N": self.ring.n_fields, "d": self.ring.d,
                "entries": [[{str(j): c.to_json_dict() for j, c in sorted(op.coeffs.items())}
                             for op in row] for row in self.entries]}


# -- bracket and flows ------------------------------------------------------------


def bracket(h1: LocalFunctional, h2: LocalFunctional,
            K: HamiltonianOperator) -> LocalFunctional:
    """{h1, h2}_K = int dh1/du^mu K^{mu nu} dh2/du^nu dx."""
    h1.ring.check_compatible(K.ring)
    applied = flow(h2, K)
    return LocalFunctional(sum_of_products(
        K.ring, ((1, h1.var_der(a), applied[a - 1]) for a in range(1, K.ring.n_fields + 1))))


def flow(h: LocalFunctional, K: HamiltonianOperator) -> list[DiffPoly]:
    """The evolutionary system du^alpha/dtau = K^{alpha mu} dh/du^mu."""
    h.ring.check_compatible(K.ring)
    n = K.ring.n_fields
    return K.apply_vector([h.var_der(b) for b in range(1, n + 1)])


def op_dress(K: HamiltonianOperator) -> HamiltonianOperator:
    """Give each degree-j piece of the d_x^i coefficient the weight eps^{i+j-1}.

    Requires an eps-free operator with vanishing (i, j) = (0, 0) component,
    which is forced by antisymmetry; the dressed bracket has degree 1.
    """
    ring = K.ring
    out = HamiltonianOperator.zero(ring)
    for a in range(ring.n_fields):
        for b in range(ring.n_fields):
            entry = K.entries[a][b]
            dressed: dict[int, DiffPoly] = {}
            for i, c in entry.coeffs.items():
                if c.max_eps() > 0:
                    raise ValueError("op_dress expects an eps-free operator")
                for j, piece in c.degree_decompose().items():
                    if i + j - 1 < 0:
                        raise ValueError(
                            "nonzero constant d_x^0 component; operator cannot be dressed")
                    add_term(dressed, i, piece.eps_shift(i + j - 1))
            out.entries[a][b] = PseudoDiffOp.finite(ring, dressed)
    return out


# -- Miura transformations -----------------------------------------------------------


class MiuraMap:
    """Change of variables w^alpha = u^alpha + sum_{k>=1} eps^k f_k^alpha,
    deg f_k^alpha = k."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: Ring, entries: list[DiffPoly]):
        if len(entries) != ring.n_fields:
            raise ValueError("need one entry per field")
        for alpha, w in enumerate(entries, start=1):
            lead = DiffPoly.jet(ring, alpha, 0)
            rest = w - lead
            for eps, piece in rest.eps_decompose().items():
                if eps < 1:
                    raise ValueError(f"entry {alpha}: non-identity eps^0 part")
                if not piece.is_homogeneous(eps):
                    raise ValueError(
                        f"entry {alpha}: eps^{eps} correction must have degree {eps}")
        self.ring = ring
        self.entries = entries

    @staticmethod
    def identity(ring: Ring) -> "MiuraMap":
        return MiuraMap(ring, [DiffPoly.jet(ring, a, 0)
                               for a in range(1, ring.n_fields + 1)])

    def __eq__(self, other):
        if not isinstance(other, MiuraMap):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def __repr__(self):
        body = ", ".join(w.render() for w in self.entries)
        return f"MiuraMap({body})"


def miura_compose(outer: MiuraMap, inner_images: list[DiffPoly],
                  emax: int) -> list[DiffPoly]:
    """Entries of outer with u^alpha replaced by inner_images, truncated."""
    images = {a + 1: img for a, img in enumerate(inner_images)}
    return [w.substitute(images).truncate_eps(emax)
            for w in outer.entries]


def miura_invert(m: MiuraMap, emax: int) -> MiuraMap:
    """Inverse map modulo eps^{emax+1} by successive substitution,
    current -> id - (m o current - current), which stops at its fixed point:
    m o current = id mod eps^{emax+1}."""
    ring = m.ring
    identity = [DiffPoly.jet(ring, a, 0) for a in range(1, ring.n_fields + 1)]
    current = list(identity)
    for _ in range(emax + 2):
        composed = miura_compose(m, current, emax)
        if composed == identity:
            return MiuraMap(ring, current)
        current = [identity[a] - (composed[a] - current[a])
                   for a in range(ring.n_fields)]
    raise AssertionError("miura inversion failed to close")


def miura_push_poly(f: LocalFunctional, inverse: MiuraMap, emax: int) -> LocalFunctional:
    """Rewrite f(u) in the new variables: substitute u = inverse(w), cut at eps^emax."""
    images = {a + 1: img for a, img in enumerate(inverse.entries)}
    return LocalFunctional(f.density.substitute(images).truncate_eps(emax))


def transport_operator(K: HamiltonianOperator, forward: list[DiffPoly],
                       inverse_images: dict[int, DiffPoly]) -> HamiltonianOperator:
    """Chain-rule conjugation of an operator under w = forward(u):

    K_w^{ab} = sum_{p,q} (dw^a/du^mu_p) d_x^p o K^{mu nu} o (-d_x)^q o (dw^b/du^nu_q),
    with the coefficients re-expressed through the inverse change.
    """
    ring = K.ring
    n = ring.n_fields
    zero = PseudoDiffOp.finite(ring)
    lefts: list[dict[int, PseudoDiffOp]] = []
    rights: list[dict[int, PseudoDiffOp]] = []
    for w in forward:
        left: dict[int, PseudoDiffOp] = {}
        right: dict[int, PseudoDiffOp] = {}
        for mu in range(1, n + 1):
            partials = {p: dw for p in range(w.max_order(mu) + 1) if (dw := w.partial(mu, p))}
            if partials:
                left[mu] = PseudoDiffOp.finite(ring, partials)
            for p, dw in partials.items():
                right[mu] = right.get(mu, zero) + PseudoDiffOp.dx(
                    ring, p, (-1) ** p) * PseudoDiffOp.from_poly(ring, dw)
        lefts.append(left)
        rights.append(right)
    out = HamiltonianOperator.zero(ring)
    for a in range(n):
        for b in range(n):
            acc = zero
            for mu, lop in lefts[a].items():
                for nu, rop in rights[b].items():
                    mid = K.entries[mu - 1][nu - 1]
                    if mid.is_zero():
                        continue
                    acc = acc + lop * mid * rop
            out.entries[a][b] = PseudoDiffOp.finite(
                ring, {j: c.substitute(inverse_images) for j, c in acc.coeffs.items()})
    return out


def miura_push_operator(K: HamiltonianOperator, m: MiuraMap, inverse: MiuraMap,
                        emax: int) -> HamiltonianOperator:
    """Operator transport under a Miura map m, truncated at eps^emax."""
    images = {a + 1: img for a, img in enumerate(inverse.entries)}
    moved = transport_operator(K, m.entries, images)
    return moved.truncate_eps(emax)
