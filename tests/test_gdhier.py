import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from drhier import gdhier
from drhier.diffpoly import DiffPoly, integrate, local_eq
from drhier.gdhier import (
    GDContext,
    dispersionless_omega,
    eta_matrix,
    gd_context,
    gd_hamiltonian,
    gd_operator,
    rspin_change,
    rspin_factorial,
    rspin_hamiltonian,
    rspin_operator,
    rspin_system,
)
from drhier.hamops import bracket, flow
from drhier.psido import PseudoDiffOp, pdo_root
from drhier.scalars import AlgScalar

from lax_reference import gd_flow

CTX = {r: gd_context(r) for r in (2, 3, 4, 5)}


def f_names(r):
    return {i + 1: f"f{i}" for i in range(r - 1)}


# -- K^GD ---------------------------------------------------------------------------

def test_gd_operator_r2():
    K = gd_operator(CTX[2])
    assert K.entries[0][0] == PseudoDiffOp.dx(CTX[2].ring_f, 1, -2)


def test_gd_operator_r3():
    K = gd_operator(CTX[3])
    ring = CTX[3].ring_f
    z = PseudoDiffOp.finite(ring)
    m3 = PseudoDiffOp.dx(ring, 1, -3)
    assert K.entries == [[z, m3], [m3, z]]


def adjoint(op, ring):
    """Formal adjoint: (c d^j)* = (-d)^j o c."""
    out = PseudoDiffOp.finite(ring)
    for j, c in op.coeffs.items():
        out = out + PseudoDiffOp.dx(ring, j, (-1) ** j) * PseudoDiffOp.from_poly(ring, c)
    return out


@pytest.mark.parametrize("r", range(3, 9))
def test_gd_operator_is_antisymmetric(r):
    ctx = gd_context(r)
    K = gd_operator(ctx)
    n = ctx.r - 1
    for a in range(n):
        for b in range(n):
            adj = adjoint(K.entries[a][b], ctx.ring_f)
            assert adj == -K.entries[b][a]


# -- Hamiltonians ----------------------------------------------------------------------

def test_gd_hamiltonian_r2_m3_reference_value():
    ctx = CTX[2]
    f = ctx.f_var(0)
    reference = integrate(-f ** 3 / 8 - f * f.dx_pow(2) / 16)
    assert local_eq(gd_hamiltonian(ctx, 3), reference)


def test_gd_hamiltonian_r2_m1():
    ctx = CTX[2]
    f = ctx.f_var(0)
    assert local_eq(gd_hamiltonian(ctx, 1), integrate(-f ** 2 / 4))


def test_gd_hamiltonian_r3_m4_reference_value():
    ctx = CTX[3]
    f0, f1 = ctx.f_var(0), ctx.f_var(1)
    reference = integrate(
        -Fraction(2, 9) * f0 ** 2 * f1 + Fraction(1, 81) * f1 ** 4
        - Fraction(1, 9) * f0 * f0.dx_pow(2)
        + Fraction(2, 9) * f0 * f1 * f1.dx()
        + Fraction(1, 18) * f1 ** 2 * f1.dx_pow(2)
        + Fraction(1, 9) * f0 * f1.dx_pow(3)
        + Fraction(1, 27) * f1 * f1.dx_pow(4))
    assert local_eq(gd_hamiltonian(ctx, 4), reference)


def test_gd_hamiltonian_rejects_multiples_of_r():
    with pytest.raises(ValueError):
        gd_hamiltonian(CTX[3], 3)


# -- flows --------------------------------------------------------------------------------

def test_gd_flow_t1_is_translation():
    for r in (2, 3, 4, 5):
        ctx = CTX[r]
        assert gd_flow(ctx, 1) == [ctx.f_var(i).dx() for i in range(r - 1)]


def test_gd_flow_kdv():
    ctx = CTX[2]
    f = ctx.f_var(0)
    expected = Fraction(3, 2) * f * f.dx() + f.dx_pow(3) / 4
    assert gd_flow(ctx, 3) == [expected]


def test_gd_flow_vanishes_at_multiples_of_r():
    for r in (2, 3):
        assert all(p.is_zero() for p in gd_flow(CTX[r], r))


@pytest.mark.parametrize("r,ms", [(2, (1, 3, 5)), (3, (1, 2, 4)), (4, (1, 2, 3)),
                                  (5, (1, 2, 3)), (6, (1, 2))])
def test_flow_consistency(r, ms):
    # the Lax flows (gd_flow never reads K^GD) against flow(h^GD_m, K^GD):
    # K^GD checked for r beyond its goldens
    ctx = gd_context(r)
    for m in ms:
        assert gd_flow(ctx, m) == flow(gd_hamiltonian(ctx, m), gd_operator(ctx))


@pytest.mark.parametrize("r,ms", [(2, (1, 3, 5)), (3, (1, 2, 4))])
def test_gd_commutativity(r, ms):
    ctx = CTX[r]
    K = gd_operator(ctx)
    hams = {m: gd_hamiltonian(ctx, m) for m in ms}
    for m in ms:
        for n in ms:
            assert bracket(hams[m], hams[n], K).is_zero()


def rand_functional(rng, ring, max_order=2, max_terms=3):
    density = DiffPoly.zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPoly.const(ring, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3)):
            term = term * DiffPoly.jet(ring, rng.randint(1, ring.n_fields),
                                       rng.randint(0, max_order))
        density = density + term
    return integrate(density)


def test_bracket_antisymmetry_gd_operators():
    import random

    rng = random.Random(83)
    for r in (2, 3):
        ctx = CTX[r]
        K = gd_operator(ctx)
        for _ in range(5):
            h = rand_functional(rng, ctx.ring_f)
            g = rand_functional(rng, ctx.ring_f)
            assert local_eq(bracket(h, g, K), -bracket(g, h, K))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_bracket_antisymmetry_rspin_operators(r):
    import random

    rng = random.Random(89 + r)
    ctx = CTX[r]
    K = rspin_operator(ctx)
    for _ in range(4):
        h = rand_functional(rng, ctx.ring_w)
        g = rand_functional(rng, ctx.ring_w)
        assert local_eq(bracket(h, g, K), -bracket(g, h, K))


# -- Lax-root windows ---------------------------------------------------------------------------

@pytest.mark.parametrize("r, depth", [(3, 9), (4, 10)])
def test_lax_power_matches_full_depth_root(r, depth):
    # residue-sized roots give the residues and positive parts of the full
    # root, whether the context grows its root (ascending p) or reads a
    # shallower window of it (descending p)
    full = pdo_root(GDContext(r, depth).lax, r, depth)
    for order in (range(1, depth - 1), range(depth - 2, 0, -1)):
        ctx = GDContext(r, depth)
        for p in order:
            power, reference = ctx.lax_power(p), full.power(p)
            assert power.residue() == reference.residue(), (r, p)
            assert power.plus_part() == reference.plus_part(), (r, p)


def test_residue_beyond_the_cap_is_refused():
    ctx = GDContext(3, 6)
    with pytest.raises(ValueError):
        ctx.lax_power(5).residue()
    with pytest.raises(ValueError):
        gd_hamiltonian(ctx, 2)  # res L^{5/3} needs depth 7
    with pytest.raises(ValueError, match=r"^depth 6 insufficient for "
                       r"res L\^\(5/3\); need at least 7$"):
        ctx.residue(5)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_residue_only_read_matches_the_full_power(r):
    # order -1 alone, from one product_coeff on L^q and S^s, against the
    # residue of the whole L^q o S^s, for every p up to a per-r bound
    ctx = CTX[r]
    for p in range(1, {2: 11, 3: 14, 4: 10, 5: 11}[r] + 1):
        if p % r:
            assert ctx.residue(p) == ctx.lax_power(p).residue(), (r, p)


def test_product_differentiates_each_coefficient_once(monkeypatch):
    # work count: a product computes each d_x^l b_k once, however many
    # orders of the left factor read it
    ctx = GDContext(5, 13)
    root = pdo_root(ctx.lax, 5, 13)
    lax_sq = ctx.lax.power(2)
    differentiated = []
    dx = DiffPoly.dx

    def recording_dx(poly):
        differentiated.append(poly)
        return dx(poly)

    monkeypatch.setattr(DiffPoly, "dx", recording_dx)
    for left, right in ((lax_sq, root), (root, root)):
        differentiated.clear()
        left * right
        assert differentiated
        assert len(differentiated) == len(set(differentiated))


def test_cold_residues_differentiate_only_s_and_each_lax_power(monkeypatch):
    # work count: the root differentiates only S (it forms S^{k-1} o S), and
    # the residues S^s o L^q differentiate only the finite L^q, each through
    # one memo per q
    calls = []
    dx = DiffPoly.dx

    def counting_dx(poly):
        calls.append(poly)
        return dx(poly)

    monkeypatch.setattr(DiffPoly, "dx", counting_dx)
    ctx = GDContext(5, 23)
    for p in range(1, 22):
        ctx.residue(p)
    assert len(calls) == 611


def test_rspin_change_roots_only_as_deep_as_its_residues():
    # w^alpha reads res L^{p/4}, p <= 3: a depth-5 root, whatever the cap
    ctx = GDContext(4, 12)
    rspin_change(ctx)
    assert 1 < ctx.root.depth <= 5


def test_gd_hamiltonian_roots_only_as_deep_as_its_residue():
    # h^GD_6 for r = 5 reads res L^{11/5}: a depth-13 root under a cap of 15
    ctx = GDContext(5, 15)
    gd_hamiltonian(ctx, 6)
    assert 1 < ctx.root.depth <= 13


def test_each_root_level_is_solved_once_per_context(monkeypatch):
    # work count: over ascending, descending and repeated requests, the
    # context's one root solves each level once (level t reads the Lax
    # coefficient of order r - 1 - t, and nothing else reads L by order),
    # and no S^s is built by powering: only L^q is
    r, depth = 4, 12
    ctx = GDContext(r, depth)
    read, powered = [], []
    coeff, power = PseudoDiffOp.coeff, PseudoDiffOp.power

    def recording_coeff(op, n):
        if op is ctx.lax:
            read.append(n)
        return coeff(op, n)

    def recording_power(op, p):
        powered.append(op)
        return power(op, p)

    monkeypatch.setattr(PseudoDiffOp, "coeff", recording_coeff)
    monkeypatch.setattr(PseudoDiffOp, "power", recording_power)
    ps = [p for p in range(1, depth - 1) if p % r]
    for p in ps[:4] + ps[::-1] + ps:
        ctx.residue(p)
        ctx.lax_power(p)
    assert ctx.root.depth == depth
    assert sorted(read) == list(range(r + 1 - depth, r))
    assert powered and all(op is ctx.lax for op in powered)


def test_context_cache_is_bounded_and_clearable():
    # in a fresh process, so the suite's own cached contexts stay put
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from drhier.gdhier import gd_context; "
             "[gd_context(r) for r in range(2, 35)]; "
             "full = gd_context.cache_info().currsize; gd_context.cache_clear(); "
             "print(full, gd_context.cache_info().currsize)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", probe, str(src)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "32 0\n"


def test_residue_is_computed_once_per_p_and_context(monkeypatch):
    # work count: the order -1 product behind res L^{p/r} runs once per p,
    # however often the Hamiltonians that read it are asked for
    reads = []
    product_coeff = gdhier.product_coeff

    def recording_product_coeff(a, b, n, deriv):
        if n == -1:
            reads.append(n)
        return product_coeff(a, b, n, deriv)

    monkeypatch.setattr(gdhier, "product_coeff", recording_product_coeff)
    ctx = GDContext(3, 16)
    first = [rspin_hamiltonian(ctx, 1, 1), rspin_hamiltonian(ctx, 2, 0)]
    again = [rspin_hamiltonian(ctx, 1, 1), rspin_hamiltonian(ctx, 2, 0)]
    # p = 1, 2 for the change of variables, p = 7 and 5 for the two densities
    assert len(reads) == 4
    assert all(local_eq(h, h2) for h, h2 in zip(first, again))
    # the memo belongs to its context: a new one computes afresh
    rspin_hamiltonian(GDContext(3, 16), 1, 1)
    assert len(reads) == 7


# -- change of variables ---------------------------------------------------------------------

def u_var(ctx, alpha):
    """u^alpha = (-r)^{(r-alpha-1)/2} w^alpha, the rational r-spin variable."""
    return DiffPoly.jet(ctx.ring_f, alpha, 0)


def test_rspin_change_r2():
    change = rspin_change(CTX[2])
    # u^1 = w^1 at r = 2: the scale (-2)^0 is 1
    assert change.forward[0] == CTX[2].f_var(0) / 2
    assert change.inverse[0] == 2 * u_var(CTX[2], 1)


def test_rspin_change_r3_reference_value():
    ctx = CTX[3]
    change = rspin_change(ctx)
    # the closed form w^1 = (2 f_0/3 - f_{1,x}/3) / (2 sqrt(-3)), w^2 = f_1/3,
    # times u^alpha / w^alpha = sqrt(-3)^{r-alpha-1}
    f0, f1 = ctx.f_var(0), ctx.f_var(1)
    f1x = f1.dx()
    assert change.forward[0] == (Fraction(2, 3) * f0 - f1x / 3) / 2
    assert change.forward[1] == f1 / 3


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_rspin_change_roundtrip(r):
    ctx = CTX[r]
    change = rspin_change(ctx)
    for alpha in range(1, r):
        back = change.forward[alpha - 1].substitute(change.inverse_images())
        assert back == u_var(ctx, alpha)
    for i in range(r - 1):
        back = change.inverse[i].substitute({a + 1: w for a, w in enumerate(change.forward)})
        assert back == ctx.f_var(i)


def test_rescaling_to_w_refuses_an_odd_power_of_sqrt_minus_r():
    ctx = CTX[3]
    u1, u2 = u_var(ctx, 1), u_var(ctx, 2)
    # at r = 3, u^1 = sqrt(-3) w^1 and u^2 = w^2
    assert gdhier._to_w(u1 ** 2 + u2, 3, 0) == -3 * u1 ** 2 + u2
    assert gdhier._to_w(u1 * u2, 3, -1) == u1 * u2
    with pytest.raises(ValueError, match=r"r = 3: the monomial u1\*u2 .*sqrt\(-3\)\^1,"):
        gdhier._to_w(u1 ** 2 + u1 * u2, 3, 0)


# -- coefficient domains -----------------------------------------------------------------------

@pytest.mark.parametrize("r", [3, 4, 5])
def test_lax_calculus_stores_plain_fractions(r):
    # the Lax calculus, the change f -> u and the r-spin pair all run over Q
    ctx = CTX[r]
    assert ctx.ring_f == ctx.ring_w
    residues = [ctx.lax_power(p).residue() for p in range(1, r + 2) if p % r]
    density = gd_hamiltonian(ctx, 1).density
    change = rspin_change(ctx)

    def coefficients(K):
        return [c for row in K.entries for op in row for c in op.coeffs.values()]

    polys = (*residues, density, *coefficients(gd_operator(ctx)),
             *gd_flow(ctx, 2), *change.forward, *change.inverse,
             *coefficients(rspin_operator(ctx)), rspin_hamiltonian(ctx, 1, 1).density)
    # stored as integer numerators over one integer denominator, read as Fractions
    assert all(type(poly.den) is int and all(type(v) is int for v in poly.terms.values())
               for poly in polys)
    read = [c for poly in polys for _, c in poly.items()]
    assert read and all(type(c) is Fraction for c in read)


def test_f_and_w_polynomials_do_not_mix():
    ctx = CTX[3]
    f = ctx.f_var(0)
    assert DiffPoly.const(ctx.ring_f, 1) != AlgScalar(0, 1)
    # the ring is over Q and refuses irrational scalars
    with pytest.raises(ValueError):
        f * AlgScalar(0, 1)
    with pytest.raises(ValueError):
        ctx.ring_f.scalar(AlgScalar(0, 1))


# -- the r-spin pair ---------------------------------------------------------------------------

def test_rspin_system_r2_reference_value():
    ctx = CTX[2]
    K, h = rspin_system(ctx, 1, 1)
    assert K.entries[0][0] == PseudoDiffOp.dx(ctx.ring_w)
    w = DiffPoly.jet(ctx.ring_w, 1, 0)
    reference = integrate(w ** 3 / 6 + (w * w.dx_pow(2)).eps_shift(2) / 24)
    assert local_eq(h, reference)


def test_rspin_h10_r2():
    ctx = CTX[2]
    w = DiffPoly.jet(ctx.ring_w, 1, 0)
    assert local_eq(rspin_hamiltonian(ctx, 1, 0), integrate(w ** 2 / 2))


def pairing_functional(ctx):
    eta = eta_matrix(ctx.r)
    density = DiffPoly.zero(ctx.ring_w)
    for a in range(1, ctx.r):
        for b in range(1, ctx.r):
            if eta[a - 1][b - 1]:
                density = density + DiffPoly.jet(ctx.ring_w, a, 0) * DiffPoly.jet(ctx.ring_w, b, 0) / 2
    return integrate(density)


@pytest.mark.parametrize("r", [2, 3])
def test_rspin_normalization_identity(r):
    # h^{r-spin}_{1,0} = int (1/2) eta_{ab} w^a w^b dx where the DR/DZ map
    # is the identity
    ctx = CTX[r]
    assert local_eq(rspin_hamiltonian(ctx, 1, 0), pairing_functional(ctx))


@pytest.mark.parametrize("r", [4, 5])
def test_rspin_normalization_is_miura_shifted(r):
    # for r = 4, 5 the pairing functional picks up the second-derivative
    # shift of the w(u) change: h_{1,0} = (1/2 eta u u)[u -> u(w)]
    from drhier.hamops import MiuraMap, miura_invert, miura_push_poly

    ctx = CTX[r]
    ring = ctx.ring_w
    shifts = {4: {1: (3, Fraction(1, 96))}, 5: {1: (3, Fraction(1, 60)),
                                                2: (4, Fraction(1, 60))}}[r]
    entries = []
    for a in range(1, r):
        w = DiffPoly.jet(ring, a, 0)
        if a in shifts:
            beta, c = shifts[a]
            w = w + (DiffPoly.jet(ring, beta, 2) * c).eps_shift(2)
        entries.append(w)
    pushed = miura_push_poly(pairing_functional(ctx),
                             miura_invert(MiuraMap(ring, entries), 8), 8)
    assert local_eq(rspin_hamiltonian(ctx, 1, 0), pushed)
    # and the eps = 0 part is still the plain pairing
    assert local_eq(rspin_hamiltonian(ctx, 1, 0).eps_coefficient(0),
                    pairing_functional(ctx))


def test_rspin_factorial():
    assert rspin_factorial(3, 1, 1) == 4      # 1 * (1+3)
    assert rspin_factorial(5, 2, 2) == 2 * 7 * 12


def test_rspin_operator_r4_has_dispersive_entry():
    K = rspin_operator(CTX[4])
    ring = CTX[4].ring_w
    assert K.entries[0][0].coeffs[3] == DiffPoly.const(ring, Fraction(1, 48)).eps_shift(2)
    assert K.entries[0][2] == PseudoDiffOp.dx(ring)
    assert K.entries[1][1] == PseudoDiffOp.dx(ring)
    assert K.entries[0][1].is_zero()


def test_rspin_operator_r5_matches_reference_value():
    K = rspin_operator(CTX[5])
    ring = CTX[5].ring_w
    dx = PseudoDiffOp.dx(ring)
    disp = PseudoDiffOp.finite(ring, {3: DiffPoly.const(ring, Fraction(1, 30)).eps_shift(2)})
    z = PseudoDiffOp.finite(ring)
    assert K.entries == [[z, disp, z, dx], [disp, z, dx, z],
                         [z, dx, z, z], [dx, z, z, z]]


# -- dispersionless data -------------------------------------------------------------------------

def test_omega_base_is_pairing():
    for r in (2, 3, 4):
        ctx = CTX[r]
        omega = dispersionless_omega(ctx, 1, 0)
        eta = eta_matrix(r)
        density = DiffPoly.zero(ctx.ring_w)
        for a in range(1, r):
            for b in range(1, r):
                if eta[a - 1][b - 1]:
                    density = density + DiffPoly.jet(ctx.ring_w, a, 0) * DiffPoly.jet(ctx.ring_w, b, 0) / 2
        assert omega == density


def test_omega_r2_chain():
    ctx = CTX[2]
    u = DiffPoly.jet(ctx.ring_w, 1, 0)
    t11 = dispersionless_omega(ctx, 1, 1)
    assert t11 == u ** 3 / 6
    assert t11.partial(1, 0) == u ** 2 / 2


def test_omega_vanishing_property():
    # d Omega_{a,p;mu,0} / du^g vanishes at u = 0 for p >= 1
    for r, pmax in ((2, 3), (3, 2)):
        ctx = CTX[r]
        for alpha in range(1, r):
            for p in range(1, pmax + 1):
                table = dispersionless_omega(ctx, alpha, p - 1)
                # table holds Omega_{alpha, p; 1, 0}... derive the family at level p
                for beta in range(1, r):
                    deriv = dispersionless_omega(ctx, alpha, p).partial(
                        beta, 0)
                    for gamma in range(1, r):
                        assert not deriv.partial(gamma, 0).constant_term()


def test_omega_symmetry_level_zero():
    # Omega_{a,0;b,0} = d(density of h_{a,0})/du^b is symmetric in (a, b)
    for r in (2, 3, 4, 5):
        ctx = CTX[r]
        for a in range(1, r):
            for b in range(1, r):
                oa = dispersionless_omega(ctx, a, 0).partial(b, 0)
                ob = dispersionless_omega(ctx, b, 0).partial(a, 0)
                assert oa == ob


def trr_check(ctx, alpha, p):
    """TRR at (alpha, p): dOmega_{a,p+1;b,0}/du^g =
    Omega_{a,p;m,0} eta^{mn} dOmega_{n,0;b,0}/du^g."""
    r = ctx.r
    eta = eta_matrix(r)
    upper = dispersionless_omega(ctx, alpha, p + 1)
    lower = dispersionless_omega(ctx, alpha, p)
    base = {nu: dispersionless_omega(ctx, nu, 0) for nu in range(1, r)}
    for beta in range(1, r):
        lhs = upper.partial(beta, 0)
        for gamma in range(1, r):
            left = lhs.partial(gamma, 0)
            right = DiffPoly.zero(ctx.ring_w)
            for mu in range(1, r):
                for nu in range(1, r):
                    if eta[mu - 1][nu - 1]:
                        right = right + lower.partial(mu, 0) * \
                            base[nu].partial(beta, 0).partial(gamma, 0)
            assert left == right


def test_trr_r2():
    for p in range(3):
        trr_check(CTX[2], 1, p)


def test_trr_r3():
    for alpha in (1, 2):
        for p in range(3):
            trr_check(CTX[3], alpha, p)


def trr_levels(r, p_max):
    """TRR for every alpha at p <= p_max."""
    ctx = gd_context(r)
    for alpha in range(1, r):
        for p in range(p_max + 1):
            trr_check(ctx, alpha, p)


def test_trr_r4_low_levels():
    trr_levels(4, 3)


def test_trr_r5_low_levels():
    trr_levels(5, 3)


def test_trr_r6():
    trr_levels(6, 2)
