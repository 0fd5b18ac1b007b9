"""Value semantics of gkod's record classes (arith.Record subclasses):
repr text, equality and hashing by fields, construction, immutability,
and the constructor checks that arith.trusted skips."""

import pickle

import numpy as np
import pytest

from gkod.arith import Factorization, trusted
from gkod.catalog import GroupId
from gkod.graph import DegreePattern, PrimeGraph
from gkod.oracle import MatrixGroup
from gkod.spectra import Spectrum
from gkod.verifier import CaseReport


def _report(verdict="verified"):
    return CaseReport("S4(31)", None, 3, None, {"count": 0}, {}, {}, verdict, ("a",))


# one instance of each class, the same built again, one that differs in a
# field, and the repr text
VALUES = [
    (lambda: GroupId("L", n=2, q=4), lambda: GroupId("L", n=2, q=5),
     "GroupId(family='L', n=2, q=4, name=None)"),
    (lambda: Factorization(((2, 2), (3, 1)), 5), lambda: Factorization(((2, 2), (3, 1))),
     "Factorization(factors=((2, 2), (3, 1)), residual=5)"),
    (lambda: Spectrum((4, 6), "formula"), lambda: Spectrum((4, 6), "oracle"),
     "Spectrum(mu=(4, 6), source='formula')"),
    (lambda: PrimeGraph((2, 3, 5), ((2, 3),)), lambda: PrimeGraph((2, 3, 5), ()),
     "PrimeGraph(vertices=(2, 3, 5), edges=((2, 3),))"),
    (lambda: DegreePattern((2, 3, 5), (1, 1, 0)), lambda: DegreePattern((2, 3), (0, 0)),
     "DegreePattern(primes=(2, 3, 5), degrees=(1, 1, 0))"),
    (_report, lambda: _report("failed(filter)"),
     "CaseReport(group='S4(31)', pivot=None, family_size=3, forced=None, "
     "alternatives={'count': 0}, filter={}, catalog_check={}, "
     "verdict='verified', assumed_facts=('a',))"),
]
IDS = [text.split("(")[0] for _, _, text in VALUES]


@pytest.mark.parametrize("make,other,text", VALUES, ids=IDS)
def test_repr_and_equality_by_fields(make, other, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    assert a != other()
    assert a != object()


@pytest.mark.parametrize("make,other,text", VALUES[:-1], ids=IDS[:-1])
def test_hash_by_fields(make, other, text):
    assert hash(make()) == hash(make())
    assert len({make(), make(), other()}) == 2


def test_a_field_holding_a_dict_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(_report())


def test_equality_across_classes():
    """Two classes with the same fields and values are still unequal."""
    assert DegreePattern((2, 3), (1, 1)) != PrimeGraph((2, 3), ((2, 3),))
    assert Spectrum((5,), "formula") != Factorization(((5, 1),))


def test_positional_keyword_and_default_construction():
    assert GroupId("L", 2, 4) == GroupId("L", n=2, q=4) == GroupId(
        family="L", q=4, n=2)
    g = GroupId("Spor", name="J1")
    assert (g.n, g.q, g.name) == (None, None, "J1")
    assert Factorization(((2, 1),)).residual == 1
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        GroupId()
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        GroupId("L", p=2)
    with pytest.raises(TypeError, match="takes from 2 to 5 positional arguments"):
        GroupId("L", 2, 4, None, 5)


def test_class_patterns_and_pickling():
    match GroupId("L", n=2, q=4):
        case GroupId("L", n, q=q):
            assert (n, q) == (2, 4)
        case _:
            pytest.fail("the positional class pattern did not match")
    for value in (GroupId("L", n=2, q=4), Spectrum((4, 6), "formula")):
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("make,other,text", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(make, other, text):
    value = make()
    field = text.split("(", 1)[1].split("=")[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 0
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert value == make()


def test_constructor_checks_and_trusted_skips_them():
    with pytest.raises(ValueError, match="strictly increasing"):
        Factorization(((3, 1), (2, 1)))
    with pytest.raises(ValueError, match="antichain"):
        Spectrum((2, 4), "formula")
    with pytest.raises(ValueError, match="unknown vertex"):
        PrimeGraph((2, 3), ((2, 5),))
    with pytest.raises(ValueError, match="handshake"):
        DegreePattern((2, 3), (1, 0))
    unchecked = trusted(Factorization, factors=((3, 1), (2, 1)), residual=1)
    assert unchecked.value() == 6
    assert trusted(Spectrum, mu=(2, 4), source="formula").mu == (2, 4)


def test_cached_properties_still_cache():
    """PrimeGraph's cached properties write past the frozen __setattr__."""
    g = PrimeGraph((2, 3, 5), ((2, 3),))
    assert g.connected_components is g.connected_components == ((2, 3), (5,))
    assert g == PrimeGraph((2, 3, 5), ((2, 3),))


def test_matrix_group_compares_by_identity():
    keys = np.arange(3, dtype=np.uint64)
    a = MatrixGroup(None, 2, (), keys, (1,))
    b = MatrixGroup(None, 2, (), keys, (1,))
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
