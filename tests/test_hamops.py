import random
from fractions import Fraction

import pytest

from drhier.diffpoly import DiffPoly, Ring, eps_dress, integrate, local_eq
from drhier.hamops import (
    HamiltonianOperator,
    MiuraMap,
    bracket,
    flow,
    miura_invert,
    miura_push_operator,
    miura_push_poly,
    op_dress,
)
from drhier.psido import PseudoDiffOp

R1 = Ring(1)
R3 = Ring(3)
R4 = Ring(4)


def u(alpha=1, order=0, ring=R1):
    return DiffPoly.jet(ring, alpha, order)


def dx_op(ring=R1, power=1, coeff=1):
    return HamiltonianOperator(ring, [[PseudoDiffOp.dx(ring, power, coeff)]])


def rand_functional(rng, ring, max_order=2):
    density = DiffPoly.zero(ring)
    for _ in range(rng.randint(1, 3)):
        term = DiffPoly.const(ring, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3)):
            term = term * DiffPoly.jet(ring, rng.randint(1, ring.n_fields),
                                       rng.randint(0, max_order))
        density = density + term
    return integrate(density)


# -- operator algebra ------------------------------------------------------------

def test_compose_leibniz():
    # d o f = f d + f_x
    d = PseudoDiffOp.dx(R1)
    f = PseudoDiffOp.finite(R1, {0: u()})
    comp = d * f
    assert comp.coeffs[1] == u()
    assert comp.coeffs[0] == u(1, 1)


def test_compose_associative_sampled():
    rng = random.Random(9)
    for _ in range(10):
        ops = []
        for _ in range(3):
            coeffs = {rng.randint(0, 2): DiffPoly.jet(R1, 1, rng.randint(0, 2))
                      for _ in range(2)}
            ops.append(PseudoDiffOp.finite(R1, coeffs))
        a, b, c = ops
        assert (a * b) * c == a * (b * c)


def test_finite_operator_equality_ignores_cancelled_top():
    d3 = PseudoDiffOp.dx(R1, 3)
    assert (d3 + PseudoDiffOp.dx(R1)) - d3 == PseudoDiffOp.dx(R1)


def test_finite_operator_rejects_negative_powers():
    with pytest.raises(ValueError):
        PseudoDiffOp.finite(R1, {-1: u()})


def test_apply_refuses_truncated_operators():
    windowed = PseudoDiffOp(R1, 1, -1, {1: DiffPoly.const(R1, 1)})
    with pytest.raises(ValueError):
        HamiltonianOperator(R1, [[windowed]]).apply_vector([u()])
    assert dx_op(power=2).apply_vector([u()]) == [u(1, 2)]


def test_apply_vector_differentiates_each_entry_once(monkeypatch):
    # entries of orders 1..4: each vec[b] needs d_x^1..d_x^4, and one memo per
    # b serves all three rows, so d_x runs 4 times per entry (not 10 per row)
    rng = random.Random(5)
    entries = [[PseudoDiffOp.finite(R3, {j: u(rng.randint(1, 3), rng.randint(0, 1), R3) + j
                                         for j in range(1, 5)})
                for _ in range(3)] for _ in range(3)]
    K = HamiltonianOperator(R3, entries)
    vec = [u(b, 0, R3) * u(b % 3 + 1, 1, R3) for b in range(1, 4)]
    expected = [sum((c * v.dx_pow(j) for op, v in zip(row, vec) for j, c in op.coeffs.items()),
                    DiffPoly.zero(R3)) for row in entries]
    calls = []
    dx = DiffPoly.dx
    monkeypatch.setattr(DiffPoly, "dx", lambda self: calls.append(1) or dx(self))
    assert K.apply_vector(vec) == expected
    assert len(calls) <= 4 * len(vec)


def test_json_entry_shape():
    entry = PseudoDiffOp.finite(R1, {2: DiffPoly.const(R1, 1), 0: u()})
    data = HamiltonianOperator(R1, [[entry]]).to_json_dict()
    assert data["N"] == 1
    assert data["entries"] == [[{"0": u().to_json_dict(),
                                 "2": DiffPoly.const(R1, 1).to_json_dict()}]]


# -- bracket -----------------------------------------------------------------------

def test_bracket_u2_u3_dx():
    h1 = integrate(u() ** 2 / 2)
    h2 = integrate(u() ** 3 / 6)
    assert bracket(h1, h2, dx_op()).is_zero()


def test_bracket_self_vanishes():
    rng = random.Random(13)
    for _ in range(10):
        h = rand_functional(rng, R1)
        assert bracket(h, h, dx_op()).is_zero()


def test_bracket_antisymmetry_sampled():
    rng = random.Random(29)
    eta = [[Fraction(0), Fraction(1), Fraction(0)],
           [Fraction(1), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(0), Fraction(1)]]
    K = HamiltonianOperator.eta_dx(R3, eta)
    for _ in range(8):
        h = rand_functional(rng, R3)
        g = rand_functional(rng, R3)
        assert local_eq(bracket(h, g, K), -bracket(g, h, K))


# -- flow ---------------------------------------------------------------------------

def test_flow_kdv():
    w = u()
    h = integrate(w ** 3 / 6 + (w * w.dx_pow(2)).eps_shift(2) / 24)
    result = flow(h, dx_op())
    expected = w * w.dx() + w.dx_pow(3).eps_shift(2) / 12
    assert result[0] == expected


def test_flow_quadratic_hamiltonian_is_translation():
    eta = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    ring = Ring(2)
    K = HamiltonianOperator.eta_dx(ring, eta)
    density = DiffPoly.jet(ring, 1, 0) * DiffPoly.jet(ring, 2, 0)
    h = integrate(density)  # (1/2) eta_{ab} u^a u^b for the off-diagonal eta
    result = flow(h, K)
    assert result == [DiffPoly.jet(ring, 1, 1), DiffPoly.jet(ring, 2, 1)]


def test_flow_zero():
    h = integrate(DiffPoly.zero(R1))
    assert all(f.is_zero() for f in flow(h, dx_op()))


# -- miura inversion ------------------------------------------------------------------

def test_miura_identity_inverts_to_identity():
    m = MiuraMap.identity(R1)
    assert miura_invert(m, 4) == MiuraMap.identity(R1)


def test_miura_invert_second_order_shift():
    m = MiuraMap(R1, [u() + u(1, 2).eps_shift(2) / 96])
    inv = miura_invert(m, 4)
    expected = u() - u(1, 2).eps_shift(2) / 96 + u(1, 4).eps_shift(4) / 9216
    assert inv.entries[0] == expected


def test_miura_invert_r5_shift_map():
    ring = R4
    m = MiuraMap(ring, [
        u(1, 0, ring) + u(3, 2, ring).eps_shift(2) / 60,
        u(2, 0, ring) + u(4, 2, ring).eps_shift(2) / 60,
        u(3, 0, ring),
        u(4, 0, ring),
    ])
    inv = miura_invert(m, 2)
    assert inv.entries[0] == u(1, 0, ring) - u(3, 2, ring).eps_shift(2) / 60
    assert inv.entries[1] == u(2, 0, ring) - u(4, 2, ring).eps_shift(2) / 60
    assert inv.entries[2] == u(3, 0, ring)
    assert inv.entries[3] == u(4, 0, ring)


def test_miura_invert_two_sided_sampled():
    rng = random.Random(31)
    for _ in range(6):
        entries = []
        for alpha in range(1, 3):
            w = DiffPoly.jet(Ring(2), alpha, 0)
            for k in (1, 2):
                term = DiffPoly.jet(Ring(2), rng.randint(1, 2), k) \
                    * Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                w = w + term.eps_shift(k)
            entries.append(w)
        m = MiuraMap(Ring(2), entries)
        emax = 4
        inv = miura_invert(m, emax)
        # inverse composed with forward is the identity too
        from drhier.hamops import miura_compose
        identity = [DiffPoly.jet(Ring(2), a, 0) for a in (1, 2)]
        assert miura_compose(inv, m.entries, emax) == identity
        assert miura_compose(m, inv.entries, emax) == identity


# -- pushforwards ------------------------------------------------------------------------

def test_push_poly_identity():
    h = integrate(u() ** 2)
    assert miura_push_poly(h, MiuraMap.identity(R1), 4).density == h.density


def test_push_poly_first_order_shift():
    m = MiuraMap(R1, [u() + u(1, 1).eps_shift(1)])
    pushed = miura_push_poly(integrate(u() ** 2 / 2), miura_invert(m, 2), 2)
    assert pushed.density.eps_coefficient(0) == u() ** 2 / 2
    # eps^1 piece is a total derivative
    assert integrate(pushed.density.eps_coefficient(1)).is_zero()


def test_push_operator_identity():
    K = dx_op()
    identity = MiuraMap.identity(R1)
    assert miura_push_operator(K, identity, identity, 3) == K


def test_push_operator_first_order_shift():
    m = MiuraMap(R1, [u() + u(1, 1).eps_shift(1)])
    moved = miura_push_operator(dx_op(), m, miura_invert(m, 4), 4)
    expected = PseudoDiffOp.finite(R1, {
        1: DiffPoly.const(R1, 1),
        3: DiffPoly.const(R1, -1).eps_shift(2),
    })
    assert moved.entries[0][0] == expected


def test_push_poly_preserves_total_degree():
    m = MiuraMap(R1, [u() + (u() * u(1, 1)).eps_shift(1)])
    h = eps_dress(integrate(u() ** 3 + u() * u(1, 2)))
    pushed = miura_push_poly(h, miura_invert(m, 6), 6)
    assert pushed.density.is_homogeneous(0)


def test_miura_functoriality_sampled():
    rng = random.Random(37)
    ring = Ring(2)
    eta = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    K = HamiltonianOperator.eta_dx(ring, eta)
    emax = 4
    for _ in range(4):
        entries = []
        for alpha in (1, 2):
            w = DiffPoly.jet(ring, alpha, 0)
            w = w + DiffPoly.jet(ring, rng.randint(1, 2), 1).eps_shift(1) \
                * Fraction(rng.randint(-2, 2))
            entries.append(w)
        m = MiuraMap(ring, entries)
        h = rand_functional(rng, ring, max_order=1)
        g = rand_functional(rng, ring, max_order=1)
        inv = miura_invert(m, emax)
        lhs = miura_push_poly(bracket(h, g, K), inv, emax)
        rhs = bracket(miura_push_poly(h, inv, emax), miura_push_poly(g, inv, emax),
                      miura_push_operator(K, m, inv, emax))
        diff = lhs.density - rhs.density
        assert integrate(diff.truncate_eps(emax)).is_zero()


# -- operator dressing ---------------------------------------------------------------------

def test_op_dress_keeps_first_order():
    K = dx_op(coeff=-2)
    assert op_dress(K) == K


def test_op_dress_third_order():
    K = dx_op(power=3)
    dressed = op_dress(K)
    assert dressed.entries[0][0].coeffs[3] == DiffPoly.const(R1, 1).eps_shift(2)


def test_op_dress_grading_audit():
    # f * dx^2 + f_x * dx: every piece gains eps^{i+j-1}
    entry = PseudoDiffOp.finite(R1, {2: u(), 1: u(1, 1)})
    K = HamiltonianOperator(R1, [[entry]])
    dressed = op_dress(K).entries[0][0]
    assert dressed.coeffs[2] == u().eps_shift(1)       # i=2, j=0
    assert dressed.coeffs[1] == u(1, 1).eps_shift(1)   # i=1, j=1


def test_op_dress_rejects_constant_term():
    K = HamiltonianOperator(R1, [[PseudoDiffOp.finite(R1, {0: DiffPoly.const(R1, 1)})]])
    with pytest.raises(ValueError):
        op_dress(K)


def test_dress_commutes_with_bracket():
    rng = random.Random(43)
    ring = Ring(2)
    eta = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    K = HamiltonianOperator.eta_dx(ring, eta)
    for _ in range(6):
        h = rand_functional(rng, ring, max_order=2)
        g = rand_functional(rng, ring, max_order=2)
        plain = bracket(h, g, K)
        dressed_route = bracket(eps_dress(h), eps_dress(g), op_dress(K))
        # the dressed bracket has degree 1: dress(plain) shifted down by eps^1
        expected = eps_dress(plain).density.eps_shift(-1)
        assert local_eq(dressed_route, integrate(expected))
