"""Socket round-trip tests: ServiceServer + ServiceClient end to end."""

import asyncio
import os
import threading
import time

import pytest

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.schedulers.classic import FifoScheduler
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    SubmitRejected,
    WallClock,
)
from repro.sim.contention import IDEAL_CONTENTION
from repro.sim.simulator import ClusterSimulator

UNIT = StageProfile((0.25, 0.25, 0.25, 0.25))


def spec(iters, gpus=1, submit=0.0):
    return JobSpec(profile=UNIT, num_gpus=gpus, submit_time=submit,
                   num_iterations=iters)


@pytest.fixture
def serve_on(tmp_path):
    """Factory: start a daemon on a temp socket, yield a client factory."""
    started = []

    def start(clock=None):
        path = str(tmp_path / f"repro-{len(started)}.sock")
        simulator = ClusterSimulator(
            FifoScheduler(),
            cluster=Cluster(1, 2),
            restart_penalty=0.0,
            contention=IDEAL_CONTENTION,
            uncoordinated_penalty=1.0,
        )
        service = SchedulerService(simulator, clock=clock)
        server = ServiceServer(service, path, linger=2.0)
        thread = threading.Thread(
            target=lambda: asyncio.run(server.serve()), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("server socket never appeared")
            time.sleep(0.01)
        client = ServiceClient(path, timeout=30.0)
        started.append((client, server, thread))
        return client, server, thread

    try:
        yield start
    finally:
        for client, _server, thread in started:
            try:
                # Through the socket, so the wake-up happens on the
                # loop's own thread (a direct service.drain() would not
                # be thread-safe here).
                client.drain()
            except Exception:
                pass  # already drained and the server has gone away
            client.close()
            thread.join(timeout=10.0)


@pytest.fixture
def served(serve_on):
    """A virtual-time daemon: yields (client, server, thread)."""
    return serve_on()


def test_full_session_over_the_socket(served):
    client, server, thread = served
    assert client.ping() is True
    submitted = [client.submit(spec(10)), client.submit(spec(20, submit=5.0))]
    assert all(s.tenant == "default" for s in submitted)
    ids = [s.job_id for s in submitted]
    assert len(set(ids)) == 2
    status = client.status()
    assert status["jobs"] == 2
    client.drain()
    result = client.result(timeout=30.0)
    assert sorted(result.jcts) == sorted(ids)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not os.path.exists(server.path)


def test_rejection_raises_client_side(served):
    client, _server, _thread = served
    with pytest.raises(SubmitRejected) as excinfo:
        client.submit(spec(10, gpus=64))
    assert excinfo.value.code == "too_large"


def test_unknown_job_raises_client_side(served):
    client, _server, _thread = served
    with pytest.raises(ServiceClientError) as excinfo:
        client.status(job_id=424242)
    assert excinfo.value.code == "unknown_job"


def test_cancel_over_the_socket(serve_on):
    # Wall-clock pacing, so the far-future arrival genuinely waits and
    # the cancel deterministically lands while the job is pending (a
    # virtual clock would simulate the whole job between requests).
    client, _server, _thread = serve_on(clock=WallClock(time_scale=1.0))
    job_id = client.submit(spec(1000, submit=10_000.0)).job_id
    assert client.cancel(job_id)
    assert not client.cancel(job_id)
    assert client.status(job_id)["status"] == "failed"


def test_submit_dict_payload_raises_type_error(served):
    client, _server, _thread = served
    with pytest.raises(TypeError):
        client.submit({
            "durations": [0.25, 0.25, 0.25, 0.25],
            "num_gpus": 1,
            "num_iterations": 5,
        })
    # Nothing reached the server, and the connection is still usable.
    assert client.status()["jobs"] == 0
