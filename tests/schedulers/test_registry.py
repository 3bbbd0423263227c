"""Tests for the scheduler registry."""

import pytest

from repro.core.muri import MuriScheduler
from repro.observe import Tracer
from repro.profiler.profiler import ResourceProfiler
from repro.schedulers.classic import FifoScheduler
from repro.schedulers.registry import (
    KNOWN_DURATION,
    SCHEDULERS,
    UNKNOWN_DURATION,
    available_schedulers,
    make_scheduler,
    register_scheduler,
)


def test_all_names_buildable():
    for name in SCHEDULERS:
        scheduler = make_scheduler(name)
        assert scheduler.name


def test_case_insensitive():
    assert make_scheduler("SRTF").name == "SRTF"
    assert make_scheduler("Muri-S").name == "Muri-S"


def test_unknown_name():
    with pytest.raises(KeyError):
        make_scheduler("slurm")


def test_muri_variants():
    muri_s = make_scheduler("muri-s")
    muri_l = make_scheduler("muri-l")
    assert isinstance(muri_s, MuriScheduler)
    assert muri_s.duration_aware
    assert not muri_l.duration_aware


def test_muri_kwargs_forwarded():
    scheduler = make_scheduler("muri-l", max_group_size=2, matcher="greedy")
    assert scheduler.max_group_size == 2
    assert scheduler.grouper.matcher == "greedy"


def test_muri_profiler_forwarded():
    profiler = ResourceProfiler()
    scheduler = make_scheduler("muri-s", profiler=profiler)
    assert scheduler.profiler is profiler


def test_baseline_sets_match_paper():
    assert set(KNOWN_DURATION) == {"srtf", "srsf", "muri-s"}
    assert set(UNKNOWN_DURATION) == {"tiresias", "themis", "antman", "muri-l"}


def test_duration_awareness_consistent_with_sets():
    for name in KNOWN_DURATION:
        assert make_scheduler(name).duration_aware
    for name in UNKNOWN_DURATION:
        assert not make_scheduler(name).duration_aware


def test_available_schedulers_sorted_and_complete():
    names = available_schedulers()
    assert names == sorted(names)
    assert {"fifo", "srsf", "muri-s", "muri-l"} <= set(names)


def test_make_scheduler_forwards_tracer_to_muri():
    tracer = Tracer()
    scheduler = make_scheduler("muri-s", tracer=tracer)
    assert scheduler.tracer is tracer
    assert scheduler.grouper.tracer is tracer


def test_make_scheduler_attaches_tracer_to_registered_factory():
    # A registered factory takes no tracer argument, yet the built
    # scheduler (and its grouper) still get one attached when the
    # instances expose a ``tracer`` attribute.
    register_scheduler("test-muri", lambda: MuriScheduler(policy="srsf"))
    try:
        tracer = Tracer()
        scheduler = make_scheduler("test-muri", tracer=tracer)
        assert scheduler.tracer is tracer
        assert scheduler.grouper.tracer is tracer
    finally:
        SCHEDULERS.pop("test-muri")


def test_make_scheduler_configures_tracer_on_baselines():
    # Every scheduler shares the uniform configure() surface now, so
    # baselines carry the tracer too (their decide() just never emits).
    tracer = Tracer()
    scheduler = make_scheduler("fifo", tracer=tracer)
    assert scheduler.tracer is tracer


def test_configure_uniform_signature():
    # The one factory signature: unknown-to-the-policy options are
    # accepted and ignored instead of raising.
    scheduler = make_scheduler("fifo", event_regroup=True)
    assert scheduler.name == "FIFO"
    muri = make_scheduler("muri-s", event_regroup=True)
    assert muri.event_regroup is True


def test_configure_returns_self_and_chains():
    scheduler = make_scheduler("muri-l")
    tracer = Tracer()
    assert scheduler.configure(tracer=tracer) is scheduler
    assert scheduler.grouper.tracer is tracer


def test_register_scheduler():
    register_scheduler("test-fifo", FifoScheduler)
    try:
        assert "test-fifo" in available_schedulers()
        assert isinstance(make_scheduler("Test-FIFO"), FifoScheduler)
    finally:
        SCHEDULERS.pop("test-fifo")


def test_register_scheduler_rejects_collision():
    with pytest.raises(ValueError):
        register_scheduler("fifo", FifoScheduler)


def test_register_scheduler_replace():
    original = SCHEDULERS.get("fifo")
    register_scheduler("fifo", FifoScheduler, replace=True)
    try:
        assert SCHEDULERS.get("fifo") is FifoScheduler
    finally:
        SCHEDULERS["fifo"] = original


def test_non_indexing_access_does_not_warn(recwarn):
    assert "srsf" in SCHEDULERS
    assert SCHEDULERS.get("srsf") is not None
    assert list(SCHEDULERS)
    deprecations = [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    assert not deprecations
