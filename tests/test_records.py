"""Value semantics of the package's records.

The immutable records (``scalars.Frozen``) compare by class and fields, hash
alike when equal, refuse assignment and keep their constructors' keywords
and defaults; the result holders are plain mutable objects.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from drhier.diffpoly import DiffPoly, Ring
from drhier.drspin import IntegralTable, Profile, TautMonomial
from drhier.quantize import DeformedRule, StandardRule, WeylContext
from drhier.reconstruct import Bounds, OmegaData, ResidualReport, VerdictReport
from drhier.scalars import Frozen

ETA = ((0, 1), (1, 0))

# two equal values built apart, and one that differs in a single field
RECORDS = {
    "Profile": lambda: (Profile(3, 1, 1, 0, (2, 1)), Profile(3, 1, 1, 0, (1, 2))),
    "TautMonomial": lambda: (TautMonomial((1, 0), ((0, (1, 2)),)), TautMonomial((1, 0))),
    "Bounds": lambda: (Bounds(3, 4, 4), Bounds(3, 4, 5)),
    "WeylContext": lambda: (WeylContext(2, 3), WeylContext(2, 4)),
    "StandardRule": lambda: (StandardRule.from_eta(ETA),
                             StandardRule.from_eta(((1, 0), (0, 1)))),
    "DeformedRule": lambda: (DeformedRule(1, ((1, 1, 0, Fraction(1, 3)),)),
                             DeformedRule(1, ((1, 1, 0, Fraction(2, 3)),))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_alike(name):
    (a, other), (b, _) = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record, _ = RECORDS[name]()
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle_to_equal_values(name):
    record, _ = RECORDS[name]()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record)


def test_records_never_equal_another_type_with_the_same_fields():
    class Box(Frozen):
        __slots__ = ("t_max", "t_deg", "eps_max")

        def __init__(self, t_max, t_deg, eps_max):
            self._init(t_max, t_deg, eps_max)

    assert WeylContext(2, 3) != (2, 3) and (2, 3) != WeylContext(2, 3)
    assert Bounds(3, 4, 4) != Box(3, 4, 4) and Box(3, 4, 4) != Bounds(3, 4, 4)
    assert Bounds(3, 4, 4) != (3, 4, 4)
    assert TautMonomial(2, 3) != WeylContext(2, 3)
    # the same field values make two rules of different classes: never one token
    standard, deformed = StandardRule(1, ()), DeformedRule(1, ())
    assert standard != deformed
    assert standard.token != deformed.token


def test_records_print_their_fields():
    assert repr(Bounds(3, 4, 4)) == "Bounds(t_max=3, t_deg=4, eps_max=4)"
    assert repr(TautMonomial(psi=(1, 0))) == "TautMonomial(psi=(1, 0), boundary=())"
    # a rule's token and scale are derived, so neither printed nor compared
    assert repr(DeformedRule(1, ((1, 1, 0, Fraction(1, 3)),))) == \
        "DeformedRule(n_fields=1, constants=((1, 1, 0, Fraction(1, 3)),))"


def test_constructors_keep_their_keywords_and_defaults():
    assert TautMonomial(psi=(2, 0)) == TautMonomial((2, 0), ())
    assert TautMonomial(psi=(2, 0)).boundary == ()
    assert Profile(r=3, alpha=1, d=1, g=0, counts=(2, 1)) == Profile(3, 1, 1, 0, (2, 1))
    assert Bounds(t_max=1, t_deg=2, eps_max=3) == Bounds(1, 2, 3)
    assert WeylContext(n_fields=2, window=3) == WeylContext(2, 3)
    table = IntegralTable(g=1, n=1, labels=(1,), entries={})
    assert table.default_zero is False
    with pytest.raises(TypeError):
        Bounds(t_max=1, t_deg=2)
    with pytest.raises(TypeError):
        Bounds(1, 2, 3, eps=4)
    with pytest.raises(TypeError):
        WeylContext(2, 3, 4)
    with pytest.raises(TypeError):
        TautMonomial(boundary=())
    with pytest.raises(TypeError):
        IntegralTable(g=1, n=1, labels=(1,), entries={}, strict=True)


def test_weyl_context_checks_its_window():
    with pytest.raises(ValueError, match="mode window must be >= 1"):
        WeylContext(1, 0)


def test_equal_rules_share_one_token():
    a = StandardRule.from_eta(ETA)
    # eta's nonzero entries as the j = 0 constants (a, b, 0, eta^{ab})
    b = StandardRule(2, ((1, 2, 0, Fraction(1)), (2, 1, 0, Fraction(1))))
    assert a is not b and a.token == b.token
    assert a.scale == 1
    other = StandardRule.from_eta(((Fraction(1, 2), 0), (0, 1)))
    assert other.token != a.token and other.scale == 2
    deformed = DeformedRule(1, ((1, 1, 0, Fraction(1, 6)), (1, 1, 2, Fraction(3, 4))))
    assert deformed.scale == 12
    assert DeformedRule(deformed.n_fields, deformed.constants).token == deformed.token
    assert deformed.token not in (a.token, other.token)


def test_result_holders_are_mutable():
    ring = Ring(1)
    zero = DiffPoly.zero(ring)
    table = IntegralTable(g=1, n=1, labels=(1,), entries={})
    table.default_zero = True
    assert table.lookup(TautMonomial(psi=(1,))) == 0
    omega = OmegaData(ring=ring, eta=[[1]], densities={(1, 0): zero})
    assert omega.density(1, 0) is zero
    report = ResidualReport({}, {})
    assert report.clean
    report.string_residuals = {(1, 0): 1}
    assert not report.clean
    verdict = VerdictReport(r=2, conditions=(True, True, False), operator_diff=None,
                            hamiltonian_diff=zero, eps_max=6, miura_diff=(zero,))
    assert not verdict.verdict
    verdict.conditions = (True, True, True)
    assert verdict.verdict
    for holder in (table, omega, report, verdict):
        with pytest.raises(AttributeError):
            holder.extra = 0
