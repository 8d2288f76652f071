"""The values one period passes around: cheap, immutable records."""

from __future__ import annotations

import pickle

import pytest

from repro.arch.pmu import PMUEvent, PMUSample
from repro.caer.detector import DetectorStep, Observation
from repro.caer.response import ResponseStep

#: Per record type: field values by keyword, and one field's other value.
RECORDS = [
    (PMUSample, dict(
        cycles=2000.0, instructions=900.0, llc_misses=12,
        llc_references=40, l2_misses=40, l1_misses=55,
        back_invalidations=1, lines_stolen=2,
    ), ("llc_misses", 13)),
    (Observation, dict(
        own_misses=310.0, neighbor_misses=95.0, own_mean=280.5,
        neighbor_mean=101.25, period=17,
    ), ("period", 18)),
    (DetectorStep, dict(pause_self=True, assertion=False),
     ("assertion", None)),
    (ResponseStep, dict(
        pause_batch=False, done=True, speed=0.25, l3_quota=0.5,
    ), ("l3_quota", None)),
]


@pytest.mark.parametrize(
    "record, fields, other", RECORDS,
    ids=[cls.__name__ for cls, _, _ in RECORDS],
)
def test_record_is_an_immutable_value(record, fields, other):
    value = record(**fields)
    # Built by keyword, it holds exactly those fields.
    assert {name: getattr(value, name) for name in fields} == fields
    # Equal by field: an equal build compares and hashes equal, and one
    # other field value makes it differ.
    twin = record(**fields)
    assert value == twin and hash(value) == hash(twin)
    name, changed = other
    assert record(**dict(fields, **{name: changed})) != value
    # Immutable: assigning any field raises.
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
    # A pickle round trip keeps type and value.
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is record and restored == value


def test_pmu_sample_helpers():
    sample = PMUSample(**RECORDS[0][1])
    assert sample.ipc == pytest.approx(0.45)
    assert sample.llc_miss_rate == pytest.approx(0.3)
    assert sample.get(PMUEvent.LLC_MISSES) == 12
    assert sample.get(PMUEvent.LINES_STOLEN) == 2
    zero = PMUSample.zero()
    assert zero == PMUSample(0.0, 0.0, 0, 0, 0, 0, 0, 0)
    assert zero.ipc == 0.0 and zero.llc_miss_rate == 0.0


def test_step_defaults():
    assert DetectorStep(pause_self=False).assertion is None
    step = ResponseStep(pause_batch=True, done=False)
    assert step.speed == 1.0 and step.l3_quota is None
