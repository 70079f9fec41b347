"""The library's records share one frozen-record base, ``groups.Record``:
construction by keyword and position, one validation hook, frozen fields,
equality and hash by field tuple, the repr and ``replace``.  The repr
strings are pinned because messages embed them (the scan's route
disagreement names a Selection), and the hashes because set and dict order
follows them."""

from __future__ import annotations

import pytest

from zsum.acceptance import CriterionResult
from zsum.conjecture import ScanConfig, ScanReport
from zsum.davenport import DavenportRecord
from zsum.errors import InvalidArgument, InvalidInstance
from zsum.groups import AbelianGroup, Record, canonicalize
from zsum.weighted import Certificate, Instance, Selection, Shelling

Z5 = canonicalize([5])
SELECTION = Selection(indices=(1, 2), images=(3, 4), value=(0,))
CONFIG = ScanConfig(orders=(4,), k=2, weight_values=(1, 3))

# (record, its field tuple, its repr)
RECORDS = {
    "group": (
        canonicalize([2, 4]), ((2, 4),), "AbelianGroup(invariant_factors=(2, 4))",
    ),
    "instance": (
        Instance(group=Z5, x=((1,), (2,), (0,)), w=(1, 2, 3), ell=2),
        (Z5, ((1,), (2,), (0,)), (1, 2, 3), 2),
        "Instance(group=AbelianGroup(invariant_factors=(5,)), x=((1,), (2,), (0,)), "
        "w=(1, 2, 3), ell=2)",
    ),
    "selection": (
        SELECTION, ((1, 2), (3, 4), (0,)),
        "Selection(indices=(1, 2), images=(3, 4), value=(0,))",
    ),
    "shelling": (
        Shelling(selection=SELECTION, blocks=((1,), (2,))), (SELECTION, ((1,), (2,))),
        "Shelling(selection=Selection(indices=(1, 2), images=(3, 4), value=(0,)), "
        "blocks=((1,), (2,)))",
    ),
    "certificate": (
        Certificate(statement="word1", instance_digest="ab12", selection=SELECTION,
                    shelling=((1, 2),), solve_path="constructive", verified=True),
        ("word1", "ab12", SELECTION, ((1, 2),), "constructive", True),
        "Certificate(statement='word1', instance_digest='ab12', selection=Selection("
        "indices=(1, 2), images=(3, 4), value=(0,)), shelling=((1, 2),), "
        "solve_path='constructive', verified=True)",
    ),
    "davenport": (
        DavenportRecord(group=canonicalize([2, 2]), value=3, witness=((0, 1), (1, 0)),
                        method="exact_search"),
        (canonicalize([2, 2]), 3, ((0, 1), (1, 0)), "exact_search"),
        "DavenportRecord(group=AbelianGroup(invariant_factors=(2, 2)), value=3, "
        "witness=((0, 1), (1, 0)), method='exact_search')",
    ),
    "scan-config": (
        CONFIG, ((4,), 2, (1, 3), "exhaustive", 0, 0, 1, 5_000_000),
        "ScanConfig(orders=(4,), k=2, weight_values=(1, 3), mode='exhaustive', "
        "sample_size=0, seed=0, workers=1, budget=5000000)",
    ),
    "scan-report": (
        ScanReport(config=CONFIG, group_orders=(4,), davenport=4, subclass_coprime=False,
                   subclass_davenport=False, checked=3, counterexample_count=0,
                   counterexamples=(), witness_sample=(), wall_time=0.5),
        (CONFIG, (4,), 4, False, False, 3, 0, (), (), 0.5, True, 0),
        "ScanReport(config=ScanConfig(orders=(4,), k=2, weight_values=(1, 3), "
        "mode='exhaustive', sample_size=0, seed=0, workers=1, budget=5000000), "
        "group_orders=(4,), davenport=4, subclass_coprime=False, subclass_davenport=False, "
        "checked=3, counterexample_count=0, counterexamples=(), witness_sample=(), "
        "wall_time=0.5, authoritative=True, decided=0)",
    ),
    "criterion": (
        CriterionResult(1, "name", True, "d"), (1, "name", True, "d"),
        "CriterionResult(number=1, name='name', passed=True, details='d')",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_a_frozen_value_of_its_fields(name):
    record, values, text = RECORDS[name]
    assert isinstance(record, Record)
    assert repr(record) == text
    assert hash(record) == hash(values)
    assert record == type(record)(*values) == type(record)(**dict(zip(record._fields, values)))
    assert record.replace() == record and record.replace() is not record
    # equal only to a record of the same class
    assert record != values and record.__eq__(values) is NotImplemented
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(record._fields)})
    assert record != other(*values) and record.__eq__(other(*values)) is NotImplemented
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text


def test_records_take_defaults_and_refuse_fields_they_lack():
    assert ScanConfig((4,), 2, (1, 3)) == CONFIG
    assert ScanConfig((4,), 2, weight_values=(1, 3), budget=5_000_000) == CONFIG
    with pytest.raises(TypeError, match="missing field 'weight_values'"):
        ScanConfig(orders=(4,), k=2)
    with pytest.raises(TypeError, match="has no field 'colour'"):
        SELECTION.replace(colour=1)
    with pytest.raises(TypeError, match="got field 'indices' twice"):
        Selection((1,), indices=(1,), images=(1,), value=(0,))
    with pytest.raises(TypeError, match="takes 3 fields, got 4 positional"):
        Selection((1,), (1,), (0,), None)
    assert len(SELECTION) == 2


def test_replace_runs_the_validation_hook_again():
    inst = RECORDS["instance"][0]
    assert inst.replace(ell=3).ell == 3
    with pytest.raises(InvalidInstance, match="^ell = 'x' is not an integer$"):
        inst.replace(ell="x")
    with pytest.raises(InvalidInstance, match="^group must be of type AbelianGroup, not str$"):
        inst.replace(group="x")
    with pytest.raises(InvalidArgument, match="^workers = 2 must be 1"):
        CONFIG.replace(workers=2)


def test_a_group_builds_each_table_once(monkeypatch):
    calls = []
    elements = AbelianGroup.elements
    monkeypatch.setattr(AbelianGroup, "elements", lambda g: calls.append(g) or elements(g))
    g = AbelianGroup(invariant_factors=(2, 4))  # not the interned object
    assert g is not canonicalize([2, 4]) and g == canonicalize([2, 4])
    table = g.rank_add_table
    assert g.rank_add_table is table and g.rank_index is g.rank_index
    assert calls == [g, g]
    assert "rank_add_table" in vars(g)
    # the tables are not fields
    assert g.replace() == g and "rank_add_table" not in vars(g.replace())
    assert canonicalize([4, 6]) is canonicalize([2, 12])
