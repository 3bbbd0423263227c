"""The elastic arm's two verification oracles, plus the JCT win.

* flat-profile degeneracy: ``ElasticMuriScheduler`` on an all-rigid
  workload is *bit-identical* to ``MuriScheduler``;
* warm-vs-cold: every elastic decision matches a cold re-solve;
* the point of it all: elastic renegotiation beats fixed Muri-S on
  average JCT for a scalable workload.
"""

import pytest

from repro.elastic.workload import attach_scalability
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs
from repro.verify.elastic import compare_flat_identity, run_elastic_oracle
from repro.verify.invariants import InvariantViolation

NUM_JOBS = 60
CLUSTER = (2, 8)  # 16 GPUs


def workload(num_jobs=NUM_JOBS, seed=0, elastic_fraction=None):
    trace = generate_trace("1", num_jobs=num_jobs, seed=seed)
    specs = [s for s in build_jobs(trace, seed=seed)
             if s.num_gpus <= CLUSTER[0] * CLUSTER[1]]
    if elastic_fraction is not None:
        specs = attach_scalability(
            specs, fraction=elastic_fraction, seed=seed
        )
    return specs


class TestFlatIdentity:
    def test_rigid_workload_bit_identical(self):
        specs = workload()
        baseline, elastic = compare_flat_identity(
            specs, cluster_shape=CLUSTER
        )
        assert baseline.jcts == elastic.jcts
        assert baseline.finish_times == elastic.finish_times

    def test_flat_profiles_bit_identical(self):
        # Single-point profiles are attachable but never resizable.
        specs = workload(elastic_fraction=0.0)
        compare_flat_identity(specs, cluster_shape=CLUSTER)

    def test_oracle_detects_a_divergent_elastic_plan(self, monkeypatch):
        """Non-vacuity: an elastic scheduler that defers the last group
        of every multi-group plan must trip the oracle."""
        from repro.core.muri import MuriScheduler
        from repro.elastic.scheduler import ElasticMuriScheduler

        def deferring(self, *args, **kwargs):
            plan = MuriScheduler.decide(self, *args, **kwargs)
            return plan[:-1] if len(plan) > 1 else plan

        monkeypatch.setattr(ElasticMuriScheduler, "decide", deferring)
        with pytest.raises(InvariantViolation, match="degeneracy") as excinfo:
            compare_flat_identity(workload(), cluster_shape=CLUSTER)
        assert "jcts" in excinfo.value.details["mismatches"]

    def test_non_flat_workload_rejected(self):
        specs = workload(elastic_fraction=0.5)
        with pytest.raises(ValueError):
            compare_flat_identity(specs, cluster_shape=CLUSTER)


class TestWarmVsCold:
    def test_elastic_stream_matches_cold_resolves(self):
        specs = workload(elastic_fraction=0.5)
        result, checks = run_elastic_oracle(specs, cluster_shape=CLUSTER)
        assert checks > 0
        assert result.num_jobs == len(specs)

    def test_interval_renegotiation_matches_cold_resolves(self):
        specs = workload(num_jobs=40, elastic_fraction=0.5)
        result, checks = run_elastic_oracle(
            specs, cluster_shape=CLUSTER, renegotiation_interval=4
        )
        assert checks > 0


class TestElasticWins:
    def test_elastic_beats_rigid_avg_jct(self):
        from repro.sweep.execute import execute_run
        from repro.sweep.spec import RunSpec

        common = dict(
            experiment="elastic-test", trace_id="1", seed=1,
            num_jobs=120, elastic_fraction=0.5,
        )
        rigid = execute_run(RunSpec(
            label="rigid", scheduler="muri-s", **common
        ))
        elastic = execute_run(RunSpec(
            label="elastic", scheduler="elastic-muri", **common
        ))
        assert elastic.avg_jct < rigid.avg_jct
