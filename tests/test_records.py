"""The record types: field order, repr, read-only fields, defaults and
properties, and that importing the CLI does not load `dataclasses`."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import hypertile
from hypertile import Partition, build
from hypertile.constructions import LabeledConstruction
from hypertile.experiments import FORMAT_VERSION, ExperimentReport
from hypertile.invariants import InvariantReport, ThresholdReport
from hypertile.probes import ExtremalWitness, GoodnessReport, RobustVectorReport
from hypertile.solver import (CopySetEnumeration, Embedding, TilingCertificate,
                              TilingOutcome, _Plan)

EMB = Embedding((0, 1, 2))

# (record, field order, repr), every record built positionally as call sites do
RECORDS = [
    (EMB, ("images",), "Embedding(images=(0, 1, 2))"),
    (TilingCertificate((EMB,), (0, 1, 2)), ("embeddings", "covered"),
     "TilingCertificate(embeddings=(Embedding(images=(0, 1, 2)),), covered=(0, 1, 2))"),
    (TilingOutcome(None, "exhausted"), ("certificate", "reason"),
     "TilingOutcome(certificate=None, reason='exhausted')"),
    (CopySetEnumeration(((0, 1, 2),), {(0, 1, 2): EMB}),
     ("sets", "witnesses"),
     "CopySetEnumeration(sets=((0, 1, 2),), witnesses={(0, 1, 2): Embedding(images=(0, 1, 2))})"),
    (_Plan((0, 1, 2), ((), (), ((0, 1),)), (-1, 0, 1)),
     ("order", "checks", "twin"),
     "_Plan(order=(0, 1, 2), checks=((), (), ((0, 1),)), twin=(-1, 0, 1))"),
    (RobustVectorReport({(1, 2): 3}, ((1, 2),), Fraction(1, 2), 2),
     ("counts", "robust", "mu", "parts"),
     "RobustVectorReport(counts={(1, 2): 3}, robust=((1, 2),), mu=Fraction(1, 2), parts=2)"),
    (GoodnessReport((True,), (0,), Fraction(1)),
     ("good", "difference_degrees", "threshold"),
     "GoodnessReport(good=(True,), difference_degrees=(0,), threshold=Fraction(1, 1))"),
    (ExtremalWitness(None, True, None), ("partition", "exhaustive", "missing_edges"),
     "ExtremalWitness(partition=None, exhaustive=True, missing_edges=None)"),
    (InvariantReport(3, 6, (2,), (0,), None, Fraction(1, 3), 1),
     ("k", "vertices", "s_set", "d_set", "gcd", "sigma", "realisation_count"),
     "InvariantReport(k=3, vertices=6, s_set=(2,), d_set=(0,), gcd=None, "
     "sigma=Fraction(1, 3), realisation_count=1)"),
    (ThresholdReport("gcd_diffs_eq1", 0.5, 12, Fraction(0), Fraction(1, 3), None),
     ("case_tag", "value", "n", "alpha", "sigma", "smallest_prime"),
     "ThresholdReport(case_tag='gcd_diffs_eq1', value=0.5, n=12, alpha=Fraction(0, 1), "
     "sigma=Fraction(1, 3), smallest_prime=None)"),
    (ExperimentReport("sweep", {"n": 1}, ({"passed": True},)),
     ("experiment", "parameters", "rows", "timings", "format_version"),
     "ExperimentReport(experiment='sweep', parameters={'n': 1}, rows=({'passed': True},), "
     "timings=(), format_version=1)"),
    (LabeledConstruction("x", build(3, 3, [(0, 1, 2)]), Partition([[0, 1, 2]], 3),
                         ("A",), {"a": 1}),
     ("name", "graph", "part_map", "part_names", "params"),
     "LabeledConstruction(name='x', graph=Hypergraph(k=3, n=3, edges=1), "
     "part_map=Partition([(0, 1, 2)], n=3), part_names=('A',), params={'a': 1})"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_fields_and_repr(record, fields, text):
    assert type(record)._fields == fields
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_fields_are_read_only(record, fields, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_record_defaults():
    report = ExperimentReport("sweep", {}, ())
    assert report.timings == ()
    assert report.format_version == FORMAT_VERSION
    with pytest.raises(TypeError):
        LabeledConstruction("x", build(3, 3, []), Partition([[0, 1, 2]], 3), ("A",))


def test_record_properties_and_methods():
    assert Embedding((4, 0, 2)).vertex_set == (0, 2, 4)
    assert TilingOutcome(TilingCertificate((EMB,), (0, 1, 2)), "found").found
    assert not TilingOutcome(None, "exhausted").found
    assert RobustVectorReport({(1, 2): 3, (3, 0): 4}, (), Fraction(0), 2).total == 7
    assert ExperimentReport("x", {}, ({"passed": True}, {})).passed
    assert not ExperimentReport("x", {}, ({"passed": True}, {"passed": False})).passed
    construction = LabeledConstruction("x", build(3, 4, []), Partition([[0, 1], [2, 3]], 4),
                                       ("A", "B"), {})
    assert construction.part("B") == (2, 3)


def test_cli_import_does_not_load_dataclasses():
    src = pathlib.Path(hypertile.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, hypertile.cli; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
