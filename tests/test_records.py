"""The immutable records of bhl.record: the DSL syntax nodes,
Presentation, PacketReport and RibbonData."""

import copy
import pickle

import pytest

from bhl.algebras import Presentation
from bhl.ayd import ribbon_element
from bhl.classify import packet_report
from bhl.dsl import (Assertion, MCompose, MName, MPrim, ODual, OName,
                     OTensor, OUnit, parse)
from oracle import packet_values, replace


def test_equality_is_by_class_and_fields():
    assert OName("V") == OName("V")
    assert OName("V") != OName("W")
    assert OName("V") != MName("V")
    assert not OName("V") == MName("V")
    assert OName("V") != ("V",)
    assert OUnit() == OUnit()
    assert OTensor(OName("V"), OUnit()) == OTensor(OName("V"), OUnit())
    assert OTensor(OName("V"), OUnit()) != OTensor(OUnit(), OName("V"))


def test_assertion_ignores_its_line():
    a = Assertion(MName("f"), MName("g"), 3)
    assert a == Assertion(MName("f"), MName("g"), 7)
    assert a == Assertion(MName("f"), MName("g"))
    assert hash(a) == hash(Assertion(MName("f"), MName("g")))
    assert a != Assertion(MName("g"), MName("f"), 3)
    assert Assertion(MName("f"), MName("g")).line == 0
    assert a.line == 3


def test_syntax_nodes_hash_by_value():
    script = "assert braid[V,W] ; braid_inv[V,W] == id[V*W]"
    (first,), (second,) = parse(script), parse("\n" + script)
    assert first == second and first.line != second.line
    assert len({first, second}) == 1
    nodes = {OName("V"), OName("V"), MName("V"), ODual(OName("V"), True),
             ODual(OName("V"), False), OUnit(), OUnit()}
    assert len(nodes) == 5
    assert {MPrim("id", (OName("V"),)): 1}[MPrim("id", (OName("V"),))] == 1


@pytest.mark.parametrize("record, field", [
    (OName("V"), "name"),
    (OUnit(), "name"),
    (Assertion(MName("f"), MName("g"), 3), "line"),
    (packet_report(3, 1), "N"),
    (Presentation(N=2, gens=(), degrees=(), bounds=(), power_rhs=(),
                  straighten={}), "gens"),
])
def test_frozen_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_construction_by_position_and_keyword():
    assert ODual(OName("V"), prefix=True) == ODual(OName("V"), True)
    assert ODual(inner=OName("V"), prefix=False).prefix is False
    pres = Presentation(N=3, gens=("x",), degrees=(1,), bounds=(3,),
                        power_rhs=(0,), straighten={})
    assert pres == Presentation(3, ("x",), (1,), (3,), (0,), {})
    assert (pres.N, pres.gens, pres.bounds) == (3, ("x",), (3,))
    with pytest.raises(TypeError):
        hash(pres)  # straighten is a dict
    for bad in (lambda: OName(), lambda: OName("V", "W"),
                lambda: OName("V", name="W"), lambda: OName(label="V"),
                lambda: Presentation(N=3)):
        with pytest.raises(TypeError):
            bad()


def test_repr_names_class_and_fields():
    assert repr(OName("V")) == "OName(name='V')"
    assert repr(OUnit()) == "OUnit()"
    assert repr(ODual(OName("V"), prefix=True)) == \
        "ODual(inner=OName(name='V'), prefix=True)"
    assert str(MCompose(MName("f"), MName("g"))) == \
        "MCompose(first=MName(name='f'), second=MName(name='g'))"
    assert repr(Assertion(MName("f"), MName("g"), 2)) == \
        "Assertion(lhs=MName(name='f'), rhs=MName(name='g'), line=2)"


def test_replace_copy_and_pickle_keep_the_class():
    node = ODual(OName("V"), prefix=True)
    assert replace(node, prefix=False) == ODual(OName("V"), False)
    assert node == ODual(OName("V"), True)
    with pytest.raises(TypeError):
        replace(node, label="V")
    for copied in (copy.copy, copy.deepcopy,
                   lambda r: pickle.loads(pickle.dumps(r))):
        for record in (node, OName("V"), Assertion(MName("f"), MName("g"), 4)):
            again = copied(record)
            assert type(again) is type(record) and again == record
            assert repr(again) == repr(record)
    R = ribbon_element(3)
    doubled = [2 * v for v in R.u_K_values]
    S = replace(R, u_K_values=doubled)
    assert S.u_K_values == doubled and S.v_0 is R.v_0 and S.p == 3


def test_packet_report_keeps_its_properties():
    packet = packet_report(5, 1)
    assert packet.N == 5
    assert packet.multiplicities == [1, 2, 2]
    assert packet.total() == 5
    assert packet.texts == ["1", "q(5,1)", "-1 - q(5,1) - q(5,2) - q(5,3)"]
    assert [e["value"] for e in packet.to_json()["entries"]] == packet.texts
    assert len(packet_values(packet)) == 3
