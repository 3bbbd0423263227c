"""The fleet front-end: tenant-aware routing over scheduler shards.

One :class:`FleetFrontEnd` owns N independent shards (one per virtual
cluster) and the admission path in front of them:

1. **Tenancy** — the submission's tenant is checked against its
   quota and fair-share credit bucket (:mod:`repro.fleet.tenancy`);
   structured :class:`~repro.service.daemon.SubmitRejected` on refusal.
2. **Routing** — deterministic: an explicit VC hint is honoured when
   the tenant may use it and the job fits; otherwise the job goes to
   the least-loaded (fewest pending jobs) allowed VC that fits, ties
   broken by VC declaration order.
3. **Shard admission** — the chosen shard's daemon applies its own
   PR-5 admission control (``queue_full`` etc.); its rejects propagate
   with the tenant attached.

The front-end records per-tenant submit→decision wall latency,
aggregates fleet-wide counters, and drains every shard into one
merged :class:`~repro.sim.metrics.SimulationResult`.  Because shards
share nothing, each shard's portion of the merged result is
bit-identical to running its VC's submission stream serially — the
property :func:`repro.verify.compare_fleet_serial` enforces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.shard import SchedulerShard, make_shard
from repro.fleet.tenancy import TenantLedger, TenantQuota
from repro.fleet.topology import FleetTopology
from repro.jobs.job import JobSpec, JobStatus
from repro.observe.events import EventCategory
from repro.observe.tracer import Tracer
from repro.service.daemon import SubmitRejected
from repro.service.protocol import DEFAULT_TENANT, SubmitResult
from repro.sim.metrics import SimulationResult, percentile

__all__ = ["FleetFrontEnd", "RoutedJob", "merge_results"]


@dataclass(frozen=True)
class RoutedJob:
    """One admitted submission's routing record.

    Attributes:
        job_id: Fleet-unique job id (assigned by the shard daemon).
        tenant: Tenant the job is accounted to.
        vc: Name of the VC the job was routed to.
        spec: The submitted spec (immutable, so the verify oracle can
            replay the exact stream serially).
    """

    job_id: int
    tenant: str
    vc: str
    spec: JobSpec


def merge_results(
    results: Sequence[SimulationResult],
    trace_name: str = "fleet",
    scheduler_name: str = "fleet",
) -> SimulationResult:
    """Merge per-shard results into one fleet-wide result.

    Job ids are fleet-unique, so the JCT/finish/submit maps are
    disjoint unions; preemptions and restart time add; the makespan is
    the slowest shard's; the timeseries is the time-sorted
    concatenation of the shards' samples (an approximation: samples
    describe each VC's state, not a fleet-wide snapshot — documented
    in ``docs/fleet.md``).

    Args:
        results: One finalized result per shard.
        trace_name: Label for the merged result.
        scheduler_name: Scheduler label for the merged result.
    """
    merged = SimulationResult(
        scheduler_name=scheduler_name,
        trace_name=trace_name,
    )
    for result in results:
        merged.jcts.update(result.jcts)
        merged.finish_times.update(result.finish_times)
        merged.submit_times.update(result.submit_times)
        merged.timeseries.extend(result.timeseries)
        merged.total_preemptions += result.total_preemptions
        merged.total_restart_time += result.total_restart_time
        merged.wall_clock = max(merged.wall_clock, result.wall_clock)
    merged.timeseries.sort(key=lambda point: point.time)
    return merged


class FleetFrontEnd:
    """Routes a multi-tenant submission stream over scheduler shards.

    Args:
        topology: The fleet layout and tenant-access map.
        shards: One shard per topology VC, in topology order; build
            them with :func:`~repro.fleet.make_shard` or use
            :meth:`build`.
        ledger: Tenant quotas/credits; defaults to an unlimited,
            non-strict ledger.
        tracer: Optional tracer for fleet events and counters.

    Raises:
        ValueError: When ``shards`` do not match the topology's VCs.
    """

    def __init__(
        self,
        topology: FleetTopology,
        shards: Sequence[SchedulerShard],
        ledger: Optional[TenantLedger] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        shard_names = [shard.name for shard in shards]
        if shard_names != list(topology.names):
            raise ValueError(
                f"shards {shard_names} do not match topology VCs "
                f"{list(topology.names)}"
            )
        self.topology = topology
        self.shards: Dict[str, SchedulerShard] = {
            shard.name: shard for shard in shards
        }
        self.ledger = ledger if ledger is not None else TenantLedger()
        self.tracer = tracer
        self.routed: List[RoutedJob] = []
        self._jobs: Dict[int, RoutedJob] = {}
        self.submit_latencies: Dict[str, List[float]] = {}
        self.result: Optional[SimulationResult] = None

    @classmethod
    def build(
        cls,
        topology: FleetTopology,
        scheduler: str = "fifo",
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        strict_tenants: bool = False,
        tracer: Optional[Tracer] = None,
        **shard_options: Any,
    ) -> "FleetFrontEnd":
        """Construct a front-end with one shard per topology VC.

        Args:
            topology: The fleet layout.
            scheduler: Registry name each shard's scheduler is built
                from (every shard runs the same policy, each with its
                own instance and caches).
            quotas: Per-tenant admission limits.
            default_quota: Limits for tenants absent from ``quotas``.
            strict_tenants: Reject tenants without a quota entry.
            tracer: Shared tracer for the fleet's own events; shards
                get their own (aggregated on drain) when tracing.
            **shard_options: Forwarded to :func:`make_shard` — the
                :func:`make_scheduler` keywords (``event_regroup``...),
                ``max_pending``, ``clock``,
                ``simulator_options``, and scheduler constructor args.
        """
        shards = [
            make_shard(vc, scheduler=scheduler, **shard_options)
            for vc in topology.vcs
        ]
        ledger = TenantLedger(
            quotas=quotas, default_quota=default_quota, strict=strict_tenants
        )
        return cls(topology, shards, ledger=ledger, tracer=tracer)

    # -- admission and routing ---------------------------------------------

    def now(self) -> float:
        """The fleet's virtual time: the furthest shard clock."""
        return max(shard.now for shard in self.shards.values())

    def _open_jobs(self, tenant: str) -> int:
        """The tenant's open-job count, sweeping observed-terminal ids.

        Only quota-bound tenants pay for the sweep, and for them the
        set holds at most ``max_pending`` live jobs plus whatever
        finished since the last check (each finished job is swept out
        exactly once).  Unmetered tenants skip the scan — their count
        is never compared against a limit, so a stale length is fine
        and the submit path stays O(1) in the tenant's job history.
        """
        account = self.ledger.account(tenant)
        if account.quota.max_pending is None:
            return len(account.open_jobs)
        done: List[int] = []
        for job_id in account.open_jobs:
            routed = self._jobs[job_id]
            job = self.shards[routed.vc].service.state.jobs.get(job_id)
            if job is not None and job.status in (
                JobStatus.FINISHED, JobStatus.FAILED
            ):
                done.append(job_id)
        account.open_jobs.difference_update(done)
        return len(account.open_jobs)

    def route(
        self,
        spec: JobSpec,
        tenant: str = DEFAULT_TENANT,
        vc: Optional[str] = None,
    ) -> SchedulerShard:
        """Pick the shard a submission would run on (no admission).

        Deterministic: an explicit allowed-and-fitting ``vc`` hint
        wins; otherwise the least-pending allowed VC that fits, ties
        broken by topology order.

        Raises:
            SubmitRejected: Code ``"no_shard"`` when no allowed VC can
                fit the job (or the hint is unknown/too small).
        """
        allowed = self.topology.allowed_vcs(tenant)
        if vc is not None:
            target = self.topology.get(vc)
            if (
                target is None
                or target not in allowed
                or spec.num_gpus > target.total_gpus
            ):
                raise SubmitRejected(
                    "no_shard",
                    f"VC hint {vc!r} is unknown, not allowed for tenant "
                    f"{tenant!r}, or too small for {spec.num_gpus} GPUs",
                    tenant=tenant,
                    details={
                        "vc": vc,
                        "gpus": spec.num_gpus,
                        "allowed": [v.name for v in allowed],
                    },
                )
            return self.shards[target.name]
        candidates = [
            self.shards[v.name]
            for v in allowed
            if spec.num_gpus <= v.total_gpus
        ]
        if not candidates:
            raise SubmitRejected(
                "no_shard",
                f"no VC allowed for tenant {tenant!r} fits "
                f"{spec.num_gpus} GPUs",
                tenant=tenant,
                details={
                    "gpus": spec.num_gpus,
                    "allowed": [v.name for v in allowed],
                },
            )
        # min() is stable on ties, and candidates follow topology
        # order, so equal queue lengths resolve to the earlier VC.
        return min(candidates, key=lambda shard: shard.pending_count)

    def submit(
        self,
        spec: JobSpec,
        tenant: str = DEFAULT_TENANT,
        vc: Optional[str] = None,
    ) -> SubmitResult:
        """Admit, charge, route, and submit one job.

        Returns:
            A typed :class:`SubmitResult` carrying the assigned job id
            and the VC the job was routed to.

        Raises:
            SubmitRejected: Tenant-scoped codes (``unknown_tenant``,
                ``quota_exceeded``, ``credits_exhausted``,
                ``no_shard``) or the chosen shard's own admission
                codes, all with the tenant attached.
        """
        started = time.perf_counter()
        try:
            open_jobs = self._open_jobs(tenant)
            now = max(self.now(), spec.submit_time)
            account = self.ledger.charge(
                tenant, now, float(spec.num_gpus), open_jobs
            )
            shard = self.route(spec, tenant, vc)
            try:
                job_id = shard.service.submit(spec)
            except SubmitRejected as rejection:
                account.submitted -= 1
                account.rejected += 1
                if rejection.tenant is None:
                    rejection.tenant = tenant
                raise
        except SubmitRejected as rejection:
            self._count(f"fleet.rejected.{rejection.code}")
            self._emit_reject(rejection, spec)
            raise
        routed = RoutedJob(
            job_id=job_id, tenant=tenant, vc=shard.name, spec=spec
        )
        self.routed.append(routed)
        self._jobs[job_id] = routed
        account.open_jobs.add(job_id)
        latency = time.perf_counter() - started
        self.submit_latencies.setdefault(tenant, []).append(latency)
        self._count("fleet.submitted")
        self._count(f"fleet.routed.{shard.name}")
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SERVICE,
                "fleet.submit",
                now,
                job=job_id,
                tenant=tenant,
                vc=shard.name,
                gpus=spec.num_gpus,
            )
        return SubmitResult(job_id=job_id, tenant=tenant, vc=shard.name)

    def cancel(self, job_id: int) -> bool:
        """Cancel one job on whichever shard holds it."""
        routed = self._jobs.get(job_id)
        if routed is None:
            return False
        cancelled = self.shards[routed.vc].service.cancel(job_id)
        if cancelled:
            self._count("fleet.cancelled")
        return cancelled

    def status(self, job_id: Optional[int] = None) -> Dict[str, Any]:
        """Fleet-wide status, or one job's (routed to its shard).

        The fleet snapshot nests one entry per shard plus the tenant
        ledger's admission counters.

        Raises:
            KeyError: For an unknown ``job_id``.
        """
        if job_id is not None:
            routed = self._jobs.get(job_id)
            if routed is None:
                raise KeyError(f"unknown job id {job_id}")
            snapshot = self.shards[routed.vc].service.status(job_id)
            snapshot["tenant"] = routed.tenant
            snapshot["vc"] = routed.vc
            return snapshot
        shard_status = {
            name: shard.service.status()
            for name, shard in self.shards.items()
        }
        return {
            "now": self.now(),
            "done": self.is_done,
            "jobs": len(self._jobs),
            "shards": shard_status,
            "tenants": self.ledger.snapshot(),
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_done(self) -> bool:
        """Every shard drained and finished."""
        return all(shard.service.is_done for shard in self.shards.values())

    def drain(self) -> None:
        """Stop admitting on every shard (idempotent)."""
        for shard in self.shards.values():
            shard.service.drain()

    def run_sync(self, drain: bool = True) -> SimulationResult:
        """Drive every shard to completion synchronously; merge.

        Shards share nothing, so running them one after another is
        equivalent to any interleaving; each shard's run is the same
        deterministic virtual-time loop a standalone daemon uses.

        Args:
            drain: Request a drain first (the default).

        Returns:
            The merged fleet result (also kept on :attr:`result`).
        """
        results = [
            shard.service.run_sync(drain=drain)
            for shard in self.shards.values()
        ]
        return self._finish(results)

    async def run(self) -> SimulationResult:
        """Drive every shard's daemon loop concurrently; merge.

        Each shard runs its own :meth:`SchedulerService.run` on the
        shared event loop (paced by its own clock); the front-end
        gathers them and merges the drained results.
        """
        import asyncio

        results = await asyncio.gather(
            *(shard.service.run() for shard in self.shards.values())
        )
        return self._finish(list(results))

    def _finish(self, results: List[SimulationResult]) -> SimulationResult:
        """Merge shard results, fold shard counters into the tracer."""
        self.result = merge_results(results)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            for name, shard in self.shards.items():
                shard_tracer = shard.service.tracer
                if shard_tracer is None or shard_tracer is tracer:
                    continue
                for counter, value in shard_tracer.counters.items():
                    tracer.count(f"shard.{name}.{counter}", value)
            tracer.emit(
                EventCategory.SERVICE,
                "fleet.drained",
                self.now(),
                jobs=len(self._jobs),
                finished=len(self.result.jcts),
            )
        return self.result

    def latency_percentiles(
        self, tenant: Optional[str] = None
    ) -> Tuple[float, float]:
        """(p50, p99) submit→decision wall latency, in seconds.

        Args:
            tenant: Restrict to one tenant's submissions; None pools
                every tenant.
        """
        if tenant is not None:
            samples = self.submit_latencies.get(tenant, [])
        else:
            samples = [
                value
                for latencies in self.submit_latencies.values()
                for value in latencies
            ]
        if not samples:
            return (0.0, 0.0)
        return (percentile(samples, 50), percentile(samples, 99))

    # -- internals -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.count(name, amount)

    def _emit_reject(self, rejection: SubmitRejected, spec: JobSpec) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SERVICE,
                "fleet.reject",
                self.now(),
                code=rejection.code,
                tenant=rejection.tenant,
                gpus=spec.num_gpus,
            )
