"""Value classes.  The eleven record classes keep the behaviour of the
dataclasses they replaced: construction by field name with the same
defaults, field-wise equality and hash, the dataclass repr and refused
assignment; Finding holds a dict, and it and the three mutable records
(_Placed, ResidualCertificate, NagataReport) stay unhashable.  Every value
class, the staircases and ring elements included, survives copy, deepcopy
and pickle."""

import copy
import inspect
import pickle

import pytest

from limitseries.enriques import EnriquesDiagram
from limitseries.horace import (Finding, LineSystemModel, OracleScene,
                                ResidualCertificate, SpecializationPlan,
                                _Placed)
from limitseries.interp import NagataReport, Site
from limitseries.linalg import DEFAULT_PRIME
from limitseries.localring import Element, FamilyIdeal, RingContext
from limitseries.staircase import StaircaseTuple, regular

CTX = RingContext(dim=2, prime=101, t_trunc=3, x_cap=4)


def plan():
    return SpecializationPlan(shapes=[regular(2)], speeds=(1,), levels=(2,))


# each builds a fresh value by the constructor's keyword names
FROZEN = {
    "EnriquesDiagram": lambda: EnriquesDiagram(proximities=[(), (0,)],
                                               multiplicities=(2, 1)),
    "SpecializationPlan": plan,
    "LineSystemModel": lambda: LineSystemModel(degree=3,
                                               line_base_degrees=(1,)),
    "OracleScene": lambda: OracleScene(divisor_base=(2,), ambient_base=(1,),
                                       prime=101, seed=7),
    "Site": lambda: Site(shape=regular(1), position=(1, 2),
                         frame=((1, 0), (0, 1))),
    "RingContext": lambda: RingContext(dim=2, prime=101, t_trunc=3, x_cap=4),
    "FamilyIdeal": lambda: FamilyIdeal(ctx=CTX, generators=(Element.one(CTX),),
                                       provenance="given"),
}
UNHASHABLE = {
    "Finding": lambda: Finding(code="GapViolation", severity="error",
                               message="gap", data={"level": 1}),
    "_Placed": lambda: _Placed(sliding_ys=[3], divisor=[(2, 5)],
                               ambient=[(1, (4, 6))]),
    "ResidualCertificate": lambda: ResidualCertificate(
        plan=plan(), model=LineSystemModel(3, ()), r=1,
        residual=StaircaseTuple([regular(1)]), residual_algebraic=None,
        verdicts=[], findings=[], bookkeeping={}, dim_bound={}),
    "NagataReport": lambda: NagataReport(k=2, m=1, d_max=3, trials=1, seed=0,
                                         prime=101, prime2=None),
}
HAND_WRITTEN = {
    "Staircase": lambda: regular(3),
    "StaircaseTuple": lambda: StaircaseTuple([regular(2), regular(1)]),
    "Element": lambda: Element(CTX, {((1, 0), 1): 3, ((0, 0), 0): 1}),
}
RECORDS = {**FROZEN, **UNHASHABLE}
VALUES = {**RECORDS, **HAND_WRITTEN}

# the dataclass repr: the class name, then name=value over the fields
REPRS = {
    "EnriquesDiagram": "EnriquesDiagram(proximities=(frozenset(), "
                       "frozenset({0})), multiplicities=(2, 1))",
    "SpecializationPlan": "SpecializationPlan(shapes=StaircaseTuple("
                          "[Staircase(d=2, heights=[2,1])]), speeds=(1,), "
                          "levels=(2,))",
    "LineSystemModel": "LineSystemModel(degree=3, line_base_degrees=(1,))",
    "OracleScene": "OracleScene(divisor_base=(2,), ambient_base=(1,), "
                   "prime=101, seed=7)",
    "Site": "Site(shape=Staircase(d=2, heights=[1]), position=(1, 2), "
            "frame=((1, 0), (0, 1)))",
    "RingContext": "RingContext(dim=2, prime=101, t_trunc=3, x_cap=4)",
    "FamilyIdeal": "FamilyIdeal(ctx=RingContext(dim=2, prime=101, "
                   "t_trunc=3, x_cap=4), generators=(1,), provenance='given')",
    "Finding": "Finding(code='GapViolation', severity='error', "
               "message='gap', data={'level': 1})",
    "_Placed": "_Placed(sliding_ys=[3], divisor=[(2, 5)], "
               "ambient=[(1, (4, 6))])",
    "ResidualCertificate": "ResidualCertificate(plan=SpecializationPlan("
                           "shapes=StaircaseTuple([Staircase(d=2, "
                           "heights=[2,1])]), speeds=(1,), levels=(2,)), "
                           "model=LineSystemModel(degree=3, "
                           "line_base_degrees=()), r=1, residual="
                           "StaircaseTuple([Staircase(d=2, heights=[1])]), "
                           "residual_algebraic=None, verdicts=[], "
                           "findings=[], bookkeeping={}, dim_bound={})",
    "NagataReport": "NagataReport(k=2, m=1, d_max=3, trials=1, seed=0, "
                    "prime=101, prime2=None, rows=[], passed=False, "
                    "cross_check_agrees=None)",
}


def test_defaults():
    assert RingContext(dim=2) == RingContext(2, DEFAULT_PRIME, None, 12)
    assert repr(RingContext(dim=2)) == (
        f"RingContext(dim=2, prime={DEFAULT_PRIME}, t_trunc=None, x_cap=12)")
    assert repr(OracleScene()) == (
        f"OracleScene(divisor_base=(), ambient_base=(), "
        f"prime={DEFAULT_PRIME}, seed=0)")
    assert EnriquesDiagram([()]).multiplicities is None
    assert FamilyIdeal(CTX, ()).provenance == "derived"
    assert Site(regular(1)) == Site(regular(1), None, None)
    one, two = (Finding("NoLevels", "info", "none") for _ in range(2))
    assert one.data == two.data == {} and one.data is not two.data
    one, two = (NagataReport(2, 1, 3, 1, 0, 101, None) for _ in range(2))
    assert one.rows == two.rows == [] and one.rows is not two.rows
    assert (one.passed, one.cross_check_agrees) == (False, None)


@pytest.mark.parametrize("name", VALUES)
def test_equality(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a == b and not a != b
    assert a != CTX.with_t(2) and not a == object()
    for other, build in VALUES.items():
        if other != name:
            assert a != build()


def test_fields_decide_equality():
    assert RingContext(dim=2) != RingContext(dim=3)
    assert CTX.with_t(2) == RingContext(2, 101, 2, 4)
    assert CTX.with_cap(5) == RingContext(2, 101, 3, 5)
    assert Finding("a", "error", "m") != Finding("a", "error", "m", {"i": 1})
    report = UNHASHABLE["NagataReport"]()
    report.passed = True
    assert report != UNHASHABLE["NagataReport"]()


@pytest.mark.parametrize("name", [*FROZEN, *HAND_WRITTEN])
def test_equal_values_hash_equal(name):
    assert hash(VALUES[name]()) == hash(VALUES[name]())


@pytest.mark.parametrize("name", UNHASHABLE)
def test_finding_and_records_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(UNHASHABLE[name]())


@pytest.mark.parametrize("name", REPRS)
def test_repr(name):
    assert repr(RECORDS[name]()) == REPRS[name]


@pytest.mark.parametrize("name", [*FROZEN, "Finding", *HAND_WRITTEN])
def test_assignment_is_refused(name):
    value = VALUES[name]()
    field = next(iter(inspect.signature(type(value)).parameters))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_records_take_assignment():
    report = UNHASHABLE["NagataReport"]()
    report.rows = [{"d": 0}]
    report.passed = True
    assert (report.rows, report.passed) == ([{"d": 0}], True)
    with pytest.raises(AttributeError):
        report.extra = 1


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(name, copier):
    value = VALUES[name]()
    twin = copier(value)
    assert type(twin) is type(value) and twin == value
    assert repr(twin) == repr(value)
