"""``build_workload`` sizes every trace source the same way."""

import pytest

from repro.sweep.execute import build_workload
from repro.sweep.spec import RunSpec
from repro.trace import generate_trace, write_philly_csv


@pytest.fixture
def philly_dump(tmp_path):
    path = tmp_path / "dump.csv"
    write_philly_csv(generate_trace("1", num_jobs=20, seed=0), path)
    return str(path)


def _spec(**kwargs):
    defaults = dict(
        experiment="t", label="FIFO", scheduler="fifo", trace_id="1", seed=0
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


@pytest.mark.parametrize("num_jobs", (0, -5))
def test_non_positive_size_rejected_on_every_branch(philly_dump, num_jobs):
    # Trace.head(-5) used to drop the last five jobs, num_jobs=0 gave an
    # empty CSV workload, and replay treated 0 as "default size".
    for spec in (
        _spec(num_jobs=num_jobs, trace_path=philly_dump),
        _spec(num_jobs=num_jobs, trace_id="replay"),
        _spec(num_jobs=num_jobs),
    ):
        with pytest.raises(ValueError, match="num_jobs must be >= 1"):
            build_workload(spec)


def test_sizes_still_apply(philly_dump):
    _, specs = build_workload(_spec(num_jobs=7, trace_path=philly_dump))
    assert len(specs) == 7
    _, specs = build_workload(_spec(trace_path=philly_dump))
    assert len(specs) == 20
    _, specs = build_workload(_spec(num_jobs=5, trace_id="replay"))
    assert len(specs) == 5
    _, specs = build_workload(_spec(num_jobs=9))
    assert len(specs) == 9
