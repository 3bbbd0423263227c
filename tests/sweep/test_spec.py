"""RunSpec identity: stable run ids, canonical options, sharding."""

import pytest

from repro.sweep import RunResult, RunSpec, in_shard, parse_shard
from repro.sweep.cells import experiment_cells


def _spec(**overrides):
    base = dict(
        experiment="test",
        label="A",
        scheduler="fifo",
        trace_id="1",
        seed=0,
        num_jobs=10,
    )
    base.update(overrides)
    return RunSpec(**base)


def test_run_id_is_stable_across_instances():
    assert _spec().run_id == _spec().run_id


def test_run_id_changes_with_every_identity_field():
    base = _spec().run_id
    assert _spec(seed=1).run_id != base
    assert _spec(trace_id="2").run_id != base
    assert _spec(scheduler="sjf").run_id != base
    assert _spec(num_jobs=11).run_id != base
    assert _spec(experiment="other").run_id != base
    assert _spec(noise_level=0.2).run_id != base
    assert _spec(scheduler_options={"max_group_size": 2}).run_id != base


def test_option_order_does_not_change_the_id():
    a = _spec(scheduler_options={"x": 1, "y": 2})
    b = _spec(scheduler_options={"y": 2, "x": 1})
    c = _spec(scheduler_options=(("y", 2), ("x", 1)))
    assert a.run_id == b.run_id == c.run_id
    assert a.scheduler_options == (("x", 1), ("y", 2))


def test_spec_round_trips_through_dict():
    spec = _spec(
        models=("VGG19", "GPT-2"),
        scheduler_options={"max_group_size": 3},
        busiest_interval=5,
        noise_level=0.4,
    )
    clone = RunSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.run_id == spec.run_id


def test_result_round_trips_through_dict():
    spec = _spec()
    result = RunResult(
        run_id=spec.run_id,
        spec=spec,
        status="error",
        error="boom",
        attempts=3,
        wall_clock=1.5,
    )
    clone = RunResult.from_dict(result.to_dict())
    assert clone == result
    assert not clone.ok


@pytest.mark.parametrize("payload, field", [
    ([1], "JSON object"),
    ("x", "JSON object"),
    ({"label": "A", "scheduler": "fifo", "trace_id": "1", "seed": 0},
     "'experiment'"),
    ({"experiment": "e", "label": "A", "scheduler": "fifo",
      "trace_id": "1", "seed": "0"}, "'seed'"),
])
def test_spec_from_dict_names_the_bad_field(payload, field):
    with pytest.raises(ValueError, match=f"RunSpec.*{field}"):
        RunSpec.from_dict(payload)


@pytest.mark.parametrize("payload, message", [
    ([1], "RunResult payload must be a JSON object"),
    ({"status": "ok"}, "RunResult payload lacks field 'run_id'"),
    ({"run_id": "a", "status": "ok", "spec": [1]},
     "RunResult field 'spec' has type list"),
    ({"run_id": "a", "status": "ok", "spec": "x"},
     "RunResult field 'spec' has type str"),
    ({"run_id": "a", "status": "ok", "attempts": "2"},
     "RunResult field 'attempts' has type str"),
])
def test_result_from_dict_names_the_bad_field(payload, message):
    with pytest.raises(ValueError, match=message):
        RunResult.from_dict(payload)


def test_parse_shard_forms():
    assert parse_shard(None) is None
    assert parse_shard("1/3") == (0, 3)
    assert parse_shard("3/3") == (2, 3)
    assert parse_shard((1, 4)) == (1, 4)


@pytest.mark.parametrize("bad", ["0/3", "4/3", "x/3", "3", "1/0"])
def test_parse_shard_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_shard(bad)


def test_shards_partition_every_cell_grid():
    """Shards are disjoint and jointly exhaustive for any n."""
    cells = experiment_cells("all", num_jobs=20)
    ids = [cell.run_id for cell in cells]
    assert len(set(ids)) == len(ids)
    for count in (1, 2, 3, 7):
        buckets = [
            [rid for rid in ids if in_shard(rid, (index, count))]
            for index in range(count)
        ]
        assert sorted(sum(buckets, [])) == sorted(ids)
        for index, bucket in enumerate(buckets):
            for other in buckets[index + 1:]:
                assert not set(bucket) & set(other)
