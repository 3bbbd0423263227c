"""Tests for the wire protocol and the server's request dispatch."""

import pytest

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.schedulers.classic import FifoScheduler
from repro.service import SchedulerService, ServiceServer
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REJECTION_CODES,
    CancelRequest,
    DrainRequest,
    ErrorResult,
    PingRequest,
    ResultRequest,
    StatusRequest,
    SubmitRequest,
    SubmitResult,
    decode_line,
    encode_line,
    error_response,
    request_from_wire,
    response_from_wire,
    spec_from_dict,
    spec_to_dict,
)
from repro.sim.contention import IDEAL_CONTENTION
from repro.sim.simulator import ClusterSimulator

UNIT = StageProfile((0.25, 0.25, 0.25, 0.25))


def make_spec(**kwargs):
    defaults = dict(profile=UNIT, num_gpus=2, submit_time=3.5,
                    num_iterations=40, model="resnet50", name="probe")
    defaults.update(kwargs)
    return JobSpec(**defaults)


class TestSpecSerialization:
    def test_round_trip_preserves_scheduling_fields(self):
        original = make_spec()
        rebuilt = spec_from_dict(spec_to_dict(original))
        assert rebuilt.profile.durations == original.profile.durations
        assert rebuilt.num_gpus == original.num_gpus
        assert rebuilt.submit_time == original.submit_time
        assert rebuilt.num_iterations == original.num_iterations
        assert rebuilt.model == original.model
        assert rebuilt.name == original.name

    def test_job_id_never_taken_from_the_wire(self):
        payload = spec_to_dict(make_spec())
        payload["job_id"] = 7
        first = spec_from_dict(payload)
        second = spec_from_dict(payload)
        assert first.job_id != second.job_id

    def test_defaults_applied(self):
        spec = spec_from_dict({"durations": [1.0, 0.0, 0.0, 0.0]})
        assert spec.num_gpus == 1
        assert spec.submit_time == 0.0

    def test_missing_durations_raises(self):
        with pytest.raises(KeyError):
            spec_from_dict({"num_gpus": 2})


class TestLineCodec:
    def test_round_trip(self):
        message = {"op": "submit", "spec": {"durations": [1, 2]}}
        line = encode_line(message)
        assert line.endswith(b"\n")
        assert decode_line(line) == message

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            decode_line(b"[1, 2]\n")

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            decode_line(b"{nope\n")

    def test_error_response_shape(self):
        response = error_response("queue_full", "the queue is full")
        assert response == {
            "ok": False, "error": "queue_full",
            "message": "the queue is full",
        }


class TestVersionedRequests:
    def test_v2_submit_round_trip(self):
        request = SubmitRequest(spec=make_spec(), tenant="alice", vc="vc1")
        wire = request.to_wire()
        assert wire["version"] == PROTOCOL_VERSION
        assert wire["tenant"] == "alice"
        assert wire["vc"] == "vc1"
        rebuilt = request_from_wire(decode_line(encode_line(request)))
        assert isinstance(rebuilt, SubmitRequest)
        assert rebuilt.tenant == "alice"
        assert rebuilt.vc == "vc1"
        assert rebuilt.version == PROTOCOL_VERSION
        assert rebuilt.spec.num_gpus == request.spec.num_gpus

    def test_v1_submit_decodes_with_defaults(self):
        # The exact PR-5 wire shape: no version, no tenant, no vc.
        payload = {"op": "submit", "spec": spec_to_dict(make_spec())}
        request = request_from_wire(payload)
        assert isinstance(request, SubmitRequest)
        assert request.version == 1
        assert request.tenant == "default"
        assert request.vc is None

    def test_v1_to_wire_omits_v2_fields(self):
        request = SubmitRequest(
            spec=make_spec(), tenant="alice", vc="vc1", version=1
        )
        wire = request.to_wire()
        assert set(wire) == {"op", "spec"}

    def test_fieldless_and_operand_requests_round_trip(self):
        for request in (
            StatusRequest(job_id=7),
            StatusRequest(),
            CancelRequest(job_id=3),
            DrainRequest(),
            ResultRequest(),
            PingRequest(),
        ):
            rebuilt = request_from_wire(request.to_wire())
            assert rebuilt == request

    def test_v1_operand_requests_decode(self):
        assert request_from_wire({"op": "cancel", "job_id": 5}) == \
            CancelRequest(job_id=5, version=1)
        assert request_from_wire({"op": "drain"}) == DrainRequest(version=1)

    def test_future_version_rejected(self):
        payload = {"op": "ping", "version": PROTOCOL_VERSION + 1}
        with pytest.raises(ValueError):
            request_from_wire(payload)
        with pytest.raises(ValueError):
            request_from_wire({"op": "ping", "version": 0})


class TestVersionedResponses:
    def test_submit_result_keeps_v1_field_names(self):
        wire = SubmitResult(job_id=9, tenant="alice", vc="vc0").to_wire()
        # A v1 client reads response["job_id"]; it must stay put.
        assert wire["ok"] is True
        assert wire["job_id"] == 9
        rebuilt = response_from_wire("submit", wire)
        assert isinstance(rebuilt, SubmitResult)
        assert rebuilt.vc == "vc0"
        assert int(rebuilt) == 9

    def test_error_decodes_regardless_of_op(self):
        wire = error_response("queue_full", "full")
        for op in ("submit", "status", "nonsense"):
            decoded = response_from_wire(op, wire)
            assert isinstance(decoded, ErrorResult)
            assert decoded.code == "queue_full"
            assert decoded.version == 1  # v1 error shape has no version

    def test_rejection_codes_catalogue(self):
        # PR-5 codes stay, the fleet codes extend the list.
        assert {"queue_full", "draining", "too_large",
                "stopped"} < set(REJECTION_CODES)
        assert {"unknown_tenant", "quota_exceeded", "credits_exhausted",
                "no_shard"} < set(REJECTION_CODES)


def make_server(cluster=None, **kwargs):
    simulator = ClusterSimulator(
        FifoScheduler(),
        cluster=cluster or Cluster(1, 2),
        restart_penalty=0.0,
        contention=IDEAL_CONTENTION,
        uncoordinated_penalty=1.0,
    )
    service = SchedulerService(simulator, **kwargs)
    return ServiceServer(service, path="/unused.sock")


def make_fleet_server():
    from repro.fleet import FleetFrontEnd, FleetServer, partition_cluster

    frontend = FleetFrontEnd.build(partition_cluster(4, 4, 2), scheduler="fifo")
    return FleetServer(frontend, path="/unused.sock")


#: Well-formed JSON objects whose field *types* are wrong: each must
#: answer ``bad_request``, never crash the server or be coerced (a
#: ``true`` version is not protocol v1, nor ``2.5`` or ``"2"`` v2).
HOSTILE_MESSAGES = {
    "list-op": {"op": ["x"]},
    "null-version": {"op": "ping", "version": None},
    "bool-version": {"op": "ping", "version": True},
    "float-version": {"op": "ping", "version": 2.5},
    "string-version": {"op": "ping", "version": "2"},
    "null-job-id": {"op": "cancel", "job_id": None, "version": 2},
    "list-job-id": {"op": "status", "job_id": [1], "version": 2},
    "int-spec": {"op": "submit", "spec": 5, "version": 2},
    "int-durations": {"op": "submit", "spec": {"durations": 5}, "version": 2},
}


#: Submits whose numbers are non-finite or too large for an int field:
#: the spec must be refused before it reaches the scheduler.
NAN = float("nan")
INF = float("inf")
HOSTILE_SUBMITS = {
    "nan-duration": {"durations": [NAN, 0.1, 0.1, 0.1]},
    "inf-duration": {"durations": [INF, 0.1, 0.1, 0.1]},
    "nan-submit-time": {"durations": [0.1] * 4, "submit_time": NAN},
    "inf-submit-time": {"durations": [0.1] * 4, "submit_time": INF},
    "inf-iterations": {"durations": [0.1] * 4, "num_iterations": INF},
    "huge-iterations": {"durations": [0.1] * 4, "num_iterations": 1e400},
    "inf-gpus": {"durations": [0.1] * 4, "num_gpus": INF},
    "huge-gpus": {"durations": [0.1] * 4, "num_gpus": 1e400},
}


def served_daemons(server):
    """The scheduler services behind a service or fleet server."""
    if hasattr(server, "frontend"):
        return [shard.service for shard in server.frontend.shards.values()]
    return [server.service]


class TestDispatch:
    @pytest.mark.parametrize("build", [make_server, make_fleet_server],
                             ids=["service", "fleet"])
    @pytest.mark.parametrize("name", HOSTILE_MESSAGES)
    def test_mistyped_fields_are_bad_requests(self, build, name):
        response = build().dispatch(HOSTILE_MESSAGES[name])
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    @pytest.mark.parametrize("build", [make_server, make_fleet_server],
                             ids=["service", "fleet"])
    @pytest.mark.parametrize("name", HOSTILE_SUBMITS)
    def test_non_finite_submits_are_bad_requests(self, build, name):
        server = build()
        for version in (1, 2):
            response = server.dispatch({
                "op": "submit", "spec": HOSTILE_SUBMITS[name],
                "version": version,
            })
            assert response["ok"] is False
            assert response["error"] == "bad_request"
        # A valid job still runs, and every daemon drains.
        accepted = server.dispatch(
            {"op": "submit", "spec": spec_to_dict(make_spec(num_gpus=1))}
        )
        assert accepted["ok"] is True
        for daemon in served_daemons(server):
            daemon.drain()
            for _ in range(10_000):
                if daemon.is_done:
                    break
                daemon.step()
            assert daemon.is_done

    def test_unknown_op(self):
        response = make_server().dispatch({"op": "reboot"})
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_missing_op(self):
        assert make_server().dispatch({})["error"] == "bad_request"

    def test_ping(self):
        assert make_server().dispatch({"op": "ping"})["pong"] is True

    def test_submit_and_status(self):
        server = make_server()
        response = server.dispatch(
            {"op": "submit", "spec": spec_to_dict(make_spec(num_gpus=1))}
        )
        assert response["ok"] is True
        job_id = response["job_id"]
        status = server.dispatch({"op": "status", "job_id": job_id})
        assert status["status"]["status"] == "pending"

    def test_submit_rejection_carries_code(self):
        server = make_server(cluster=Cluster(1, 2))
        response = server.dispatch(
            {"op": "submit", "spec": spec_to_dict(make_spec(num_gpus=8))}
        )
        assert response["ok"] is False
        assert response["error"] == "too_large"

    def test_unknown_job_status(self):
        response = make_server().dispatch({"op": "status", "job_id": 999})
        assert response["error"] == "unknown_job"

    def test_malformed_spec_is_bad_request(self):
        response = make_server().dispatch(
            {"op": "submit", "spec": {"durations": "nope"}}
        )
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_cancel_and_drain_and_result(self):
        server = make_server()
        job_id = server.dispatch(
            {"op": "submit", "spec": spec_to_dict(make_spec(num_gpus=1))}
        )["job_id"]
        cancelled = server.dispatch({"op": "cancel", "job_id": job_id})
        assert cancelled["ok"] is True
        assert cancelled["cancelled"] is True
        poll = server.dispatch({"op": "result"})
        assert poll["ok"] is True
        assert poll["done"] is False
        assert server.dispatch({"op": "drain"})["draining"] is True
        server.service.run_sync(drain=False)
        response = server.dispatch({"op": "result"})
        assert response["done"] is True
        assert response["result"]["jcts"] == {}
