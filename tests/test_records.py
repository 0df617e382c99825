"""The record types: named tuples that validate themselves on construction
and again when unpickled, and a start-up that loads only what a run uses."""

import os
import pickle
import subprocess
import sys

import pytest

import quadrec
from quadrec.apps import QIndex
from quadrec.arith import DomainError
from quadrec.mquad import MQField
from quadrec.pell import QuadUnit, fundamental_unit
from quadrec.sweeps import SweepConfig, SweepRecord

# each record type with a valid instance, a field assignment that breaks
# one of its checks, and the error that check raises
VALIDATED = {
    "QuadUnit": (lambda: fundamental_unit(13), {"norm": 5}, DomainError),
    "SweepRecord": (lambda: SweepRecord("scholz", "eps_2|17", "+1", "+1", "pass"),
                    {"verdict": "undecided"}, AssertionError),
    "SweepConfig": (lambda: SweepConfig(bound=300, seed=4), {"jobs": 0}, DomainError),
    "QIndex": (lambda: QIndex(2, frozenset({(1, 1, 0)})), {"value": 4}, AssertionError),
    "MQField": (lambda: MQField((2, 3)), {"gens": (2, 8)}, DomainError),
}


def test_bad_input_is_refused():
    with pytest.raises(DomainError, match="norm relation"):
        QuadUnit(m=13, x=18, y=5, den=1, norm=1)
    with pytest.raises(AssertionError):
        SweepRecord("scholz", "eps_2|17", "+1", "+1", verdict="undecided")
    with pytest.raises(DomainError, match="bound"):
        SweepConfig(bound=1)
    with pytest.raises(AssertionError):
        QIndex(3, frozenset({(1, 0, 0), (0, 1, 0)}))
    with pytest.raises(DomainError, match="dependent"):
        MQField((2, 3, 6))


def test_field_names_defaults_and_repr():
    assert SweepRecord._fields == ("check", "instance", "predicted", "oracle", "verdict")
    assert QuadUnit._fields == ("m", "x", "y", "den", "norm")
    assert SweepConfig() == SweepConfig(None, 1, 0)
    assert repr(fundamental_unit(13)) == "QuadUnit(m=13, x=3, y=1, den=2, norm=-1)"


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_records_are_immutable(name):
    make, broken, _ = VALIDATED[name]
    record = make()
    (field, value), = broken.items()
    with pytest.raises(AttributeError):
        setattr(record, field, value)


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_pickle_round_trip_gives_an_equal_record(name):
    record = VALIDATED[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_a_pickled_record_that_breaks_a_check_fails_to_load(name):
    make, broken, error = VALIDATED[name]
    # _replace skips __new__, so it can build the record no constructor would
    data = pickle.dumps(make()._replace(**broken))
    with pytest.raises(error):
        pickle.loads(data)


def test_import_loads_no_module_a_run_does_not_use_at_start_up():
    src = os.path.dirname(os.path.dirname(quadrec.__file__))
    code = ("import sys, quadrec.cli\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'fractions',\n"
            "    'decimal', 'datetime', 'json', 'numbers') if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []
