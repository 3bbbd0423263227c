"""Trace records are built once, with the plain constructor.

A primed trace (``"1'"``, ``"1-prime"``, ``at_time_zero=True``) used to
be generated with submit times and then copied record by record through
``dataclasses.replace``.  ``generate_trace`` now builds it in one pass,
and the :class:`Trace` transforms call the constructor directly.  These
tests keep the two-step ``replace`` construction as the reference and
pin every result to it exactly: by ``==``, by name, and by the
``float.hex`` of every time.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.trace.philly import (
    TRACE_PRESETS,
    PhillyTraceGenerator,
    generate_trace,
)
from repro.trace.records import Trace, TraceRecord

SIZES = (1, 2, 20, 384, None)  # None: the preset's paper-scale size
SEEDS = (0, 1, 2)

#: SHA-256 of every non-primed trace below (presets 1-4 x SEEDS x
#: SIZES, in that order), as :func:`_rows` renders them.  Taken from
#: the generator before the one-pass rewrite; equal on Python 3.9-3.13.
NON_PRIMED_DIGEST = (
    "eab6c39692b55acdef8ce39bc8341aa63ab149915641c83a77d018ccb2be15f3"
)


def _rows(trace):
    return [
        (r.job_id, r.submit_time.hex(), r.duration.hex(), r.num_gpus, r.model)
        for r in trace
    ]


def _assert_identical(trace, reference):
    assert trace == reference
    assert trace.name == reference.name
    assert _rows(trace) == _rows(reference)


def _reference_prime(trace):
    """The two-step construction: copy each record with ``replace``."""
    return Trace(
        name=f"{trace.name}-prime",
        records=tuple(replace(r, submit_time=0.0) for r in trace.records),
    )


@pytest.mark.parametrize("key", sorted(TRACE_PRESETS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_jobs", SIZES)
def test_primed_trace_equals_two_step_reference(key, seed, num_jobs):
    plain = PhillyTraceGenerator(TRACE_PRESETS[key], seed=seed).generate(
        num_jobs
    )
    reference = _reference_prime(plain)
    for trace in (
        generate_trace(f"{key}'", num_jobs=num_jobs, seed=seed),
        generate_trace(f"{key}-prime", num_jobs=num_jobs, seed=seed),
        generate_trace(key, num_jobs=num_jobs, seed=seed, at_time_zero=True),
    ):
        _assert_identical(trace, reference)
    _assert_identical(plain.at_time_zero(), reference)
    assert [r.job_id for r in reference] == list(range(len(reference)))


def test_non_primed_traces_unchanged():
    digest = hashlib.sha256()
    for key in sorted(TRACE_PRESETS):
        for seed in SEEDS:
            for num_jobs in SIZES:
                trace = generate_trace(key, num_jobs=num_jobs, seed=seed)
                assert trace == PhillyTraceGenerator(
                    TRACE_PRESETS[key], seed=seed
                ).generate(num_jobs)
                digest.update(repr((trace.name, _rows(trace))).encode())
    assert digest.hexdigest() == NON_PRIMED_DIGEST


def _modelled_trace():
    rng = random.Random(7)
    records = [
        TraceRecord(
            job_id=i,
            submit_time=float(rng.randrange(5)) * 0.1,
            duration=rng.uniform(1.0, 1e4),
            num_gpus=rng.choice((1, 2, 4, 8)),
            model=rng.choice((None, "resnet50", "gpt2")),
        )
        for i in range(60)
    ]
    rng.shuffle(records)
    return Trace(name="t", records=tuple(records))


class TestTransformsMatchReplace:
    def test_at_time_zero(self):
        trace = _modelled_trace()
        _assert_identical(trace.at_time_zero(), _reference_prime(trace))

    @pytest.mark.parametrize("num_jobs", (1, 7, 59))
    def test_busiest_interval(self, num_jobs):
        trace = generate_trace("2", num_jobs=200, seed=1)
        window = trace.busiest_interval(num_jobs)
        picked = {r.job_id for r in window}
        start = min(
            i for i, r in enumerate(trace.records) if r.job_id in picked
        )
        chosen = trace.records[start:start + num_jobs]
        assert {r.job_id for r in chosen} == picked
        base = chosen[0].submit_time
        reference = Trace(
            name=f"{trace.name}-busiest{num_jobs}",
            records=tuple(
                replace(r, submit_time=r.submit_time - base) for r in chosen
            ),
        )
        _assert_identical(window, reference)

    @pytest.mark.parametrize("factor", (0.5, 1.0, 3.7))
    def test_scaled_durations(self, factor):
        trace = _modelled_trace()
        reference = Trace(
            name=f"t-x{factor:g}",
            records=tuple(
                replace(r, duration=r.duration * factor) for r in trace
            ),
        )
        _assert_identical(trace.scaled_durations(factor), reference)

    def test_sort_order_is_submit_time_then_job_id(self):
        trace = _modelled_trace()
        shuffled = list(trace.records)
        random.Random(3).shuffle(shuffled)
        expected = sorted(shuffled, key=lambda r: (r.submit_time, r.job_id))
        assert list(Trace(name="s", records=tuple(shuffled))) == expected


def test_primed_generation_builds_each_record_once(monkeypatch):
    built = [0]
    validate = TraceRecord.__post_init__

    def counted(record):
        built[0] += 1
        validate(record)

    monkeypatch.setattr(TraceRecord, "__post_init__", counted)
    trace = generate_trace("1'", num_jobs=384, seed=0)
    assert len(trace) == 384
    assert built[0] == 384
