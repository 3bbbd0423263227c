"""The executor's period memo returns what a fresh computation would.

``_RunningGroup.period`` memoizes on ``(len(active), contention,
uncoordinated_penalty, speedup)``.  That key is only sound while a
running group's membership can shrink but never change otherwise, so
this drives the paths that touch membership — completions, faults
(with progress loss) and elastic resizes — and checks every memoized
value against an uncached recomputation.
"""

from repro.cluster.cluster import Cluster
from repro.elastic.scheduler import ElasticMuriScheduler
from repro.elastic.workload import attach_scalability
from repro.observe.tracer import Tracer
from repro.sim.faults import FaultInjector
from repro.sim.simulator import ClusterSimulator, _RunningGroup
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs


def test_memoized_period_equals_a_fresh_computation(monkeypatch):
    memoized = _RunningGroup.period
    sizes_seen = {}
    calls = []

    def checked(self, contention, uncoordinated_penalty):
        value = memoized(self, contention, uncoordinated_penalty)
        assert value == self._compute_period(contention, uncoordinated_penalty)
        sizes_seen.setdefault(id(self), set()).add(len(self.active))
        calls.append(value)
        return value

    monkeypatch.setattr(_RunningGroup, "period", checked)
    trace = generate_trace("1", num_jobs=80, seed=3)
    specs = attach_scalability(build_jobs(trace, seed=3), fraction=0.5, seed=3)
    tracer = Tracer()
    simulator = ClusterSimulator(
        ElasticMuriScheduler(),
        cluster=Cluster(8, 8),
        fault_injector=FaultInjector(
            mean_time_between_faults=20_000.0, seed=3, progress_loss=0.3
        ),
        tracer=tracer,
    )
    result = simulator.run(specs, trace.name)

    assert len(result.jcts) == len(specs)
    assert calls
    # The run exercised every membership change the key relies on.
    assert tracer.events_named("job.fault")
    assert tracer.events_named("sched.resize.apply")
    assert any(len(sizes) > 1 for sizes in sizes_seen.values())
