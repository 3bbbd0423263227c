"""The versioned wire protocol: typed messages over newline JSON.

Every request and response is one JSON object per line on a local
socket.  Since protocol **version 2** each message kind has a typed
dataclass with ``to_wire`` / ``from_wire`` — requests carry an ``op``
(``submit``, ``status``, ``cancel``, ``drain``, ``result``, ``ping``),
a ``version`` field, and for submissions a tenant id and an optional
virtual-cluster hint; responses carry ``ok`` (bool) plus either the
op's payload or a structured error code and message.

**Version 1** (PR 5's plain-dict format, no ``version`` field) remains
fully decodable: :func:`request_from_wire` treats a message without a
``version`` as version 1 and fills the defaults (tenant
``"default"``, no VC hint), and every response keeps the version-1
field names so old clients keep working against new servers.  See
``docs/fleet.md`` for the migration notes.

Job specs cross the wire as plain dicts (:func:`spec_to_dict` /
:func:`spec_from_dict`); only the scheduling-relevant fields travel —
stage durations, GPU count, submit time, iterations, and labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Type, Union

from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.sim.metrics import SimulationResult

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_TENANT",
    "KNOWN_OPS",
    "REJECTION_CODES",
    "Request",
    "SubmitRequest",
    "StatusRequest",
    "CancelRequest",
    "DrainRequest",
    "ResultRequest",
    "PingRequest",
    "Response",
    "SubmitResult",
    "StatusResult",
    "CancelResult",
    "DrainResult",
    "ResultPoll",
    "PingResult",
    "ErrorResult",
    "request_from_wire",
    "response_from_wire",
    "spec_to_dict",
    "spec_from_dict",
    "encode_line",
    "decode_line",
    "error_response",
]

#: Current protocol version.  Version 1 is PR 5's dict format (no
#: ``version`` field); version 2 added typed messages, tenant ids and
#: virtual-cluster routing hints for the fleet front-end.
PROTOCOL_VERSION = 2

#: Tenant a version-1 client (which cannot name one) submits under.
DEFAULT_TENANT = "default"

#: Ops a server accepts; anything else is a ``bad_request``.
KNOWN_OPS = ("submit", "status", "cancel", "drain", "result", "ping")

#: Admission-control error codes: the server refused the submission
#: (client surfaces :class:`~repro.service.daemon.SubmitRejected`).
#: Single-daemon codes come from PR 5; the tenant-scoped codes are
#: raised by the fleet front-end's quota and credit checks.
REJECTION_CODES = (
    "queue_full",
    "draining",
    "too_large",
    "stopped",
    "unknown_tenant",
    "quota_exceeded",
    "credits_exhausted",
    "no_shard",
)


def spec_to_dict(spec: JobSpec) -> Dict[str, Any]:
    """Serialize a :class:`JobSpec` for the wire (JSON-compatible)."""
    return {
        "durations": list(spec.profile.durations),
        "num_gpus": spec.num_gpus,
        "submit_time": spec.submit_time,
        "num_iterations": spec.num_iterations,
        "model": spec.model,
        "name": spec.name,
    }


def spec_from_dict(payload: Dict[str, Any]) -> JobSpec:
    """Rebuild a :class:`JobSpec` from :func:`spec_to_dict` output.

    The job id is never taken from the wire: the service assigns ids so
    two clients cannot collide.

    Raises:
        KeyError: When ``durations`` is missing.
        ValueError: When a field fails :class:`JobSpec` validation.
    """
    return JobSpec(
        profile=StageProfile(tuple(float(d) for d in payload["durations"])),
        num_gpus=int(payload.get("num_gpus", 1)),
        submit_time=float(payload.get("submit_time", 0.0)),
        num_iterations=int(payload.get("num_iterations", 1)),
        model=str(payload.get("model", "custom")),
        name=payload.get("name"),
    )


def _wire_version(payload: Dict[str, Any]) -> int:
    """The version a wire message claims; absent means version 1.

    Raises:
        ValueError: When ``version`` is not a JSON integer (``true``,
            ``2.5`` and ``"2"`` are refused, not coerced).
    """
    version = payload.get("version", 1)
    if type(version) is not int:
        raise ValueError(
            f"protocol version must be an integer, not {version!r}"
        )
    return version


# -- requests ---------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """Base class of the typed client-to-server messages.

    Subclasses set :attr:`op` and implement :meth:`to_wire` /
    :meth:`from_wire`.  ``version`` records the protocol version the
    message arrived as (or will be sent as); version-1 messages decode
    with ``version=1`` so servers can count legacy traffic.
    """

    op: ClassVar[str] = ""

    def to_wire(self) -> Dict[str, Any]:
        """This request as a version-stamped wire dict."""
        raise NotImplementedError

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Request":
        """Decode one wire dict into a typed request."""
        raise NotImplementedError


@dataclass(frozen=True)
class SubmitRequest(Request):
    """Submit one job, optionally on behalf of a tenant.

    Attributes:
        spec: The job being submitted.
        tenant: Tenant the submission is accounted to; version-1
            clients always submit as :data:`DEFAULT_TENANT`.
        vc: Optional virtual-cluster routing hint for the fleet
            front-end; a single daemon ignores it.
        version: Protocol version the message travelled as.
    """

    op: ClassVar[str] = "submit"

    spec: JobSpec
    tenant: str = DEFAULT_TENANT
    vc: Optional[str] = None
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form; version 1 drops the tenant/vc fields it predates."""
        wire: Dict[str, Any] = {"op": self.op, "spec": spec_to_dict(self.spec)}
        if self.version >= 2:
            wire["version"] = self.version
            wire["tenant"] = self.tenant
            if self.vc is not None:
                wire["vc"] = self.vc
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SubmitRequest":
        """Decode; a message without ``version`` is version 1.

        Raises:
            KeyError: When the spec payload is missing or incomplete.
            ValueError: When a spec field fails validation.
        """
        return cls(
            spec=spec_from_dict(payload["spec"]),
            tenant=str(payload.get("tenant", DEFAULT_TENANT)),
            vc=payload.get("vc"),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class StatusRequest(Request):
    """Service-wide counters, or one job's state when ``job_id`` given."""

    op: ClassVar[str] = "status"

    job_id: Optional[int] = None
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form; ``job_id`` only travels when set."""
        wire: Dict[str, Any] = {"op": self.op}
        if self.version >= 2:
            wire["version"] = self.version
        if self.job_id is not None:
            wire["job_id"] = self.job_id
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "StatusRequest":
        """Decode; a message without ``version`` is version 1."""
        job_id = payload.get("job_id")
        return cls(
            job_id=None if job_id is None else int(job_id),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class CancelRequest(Request):
    """Cancel one job by id."""

    op: ClassVar[str] = "cancel"

    job_id: int = 0
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form."""
        wire: Dict[str, Any] = {"op": self.op, "job_id": self.job_id}
        if self.version >= 2:
            wire["version"] = self.version
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "CancelRequest":
        """Decode; a message without ``version`` is version 1.

        Raises:
            KeyError: When ``job_id`` is missing.
        """
        return cls(
            job_id=int(payload["job_id"]),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class _FieldlessRequest(Request):
    """Shared shape of the requests that carry no operands."""

    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form: just the op (and the version, from v2 on)."""
        wire: Dict[str, Any] = {"op": self.op}
        if self.version >= 2:
            wire["version"] = self.version
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "_FieldlessRequest":
        """Decode; a message without ``version`` is version 1."""
        return cls(version=_wire_version(payload))


@dataclass(frozen=True)
class DrainRequest(_FieldlessRequest):
    """Stop admitting; run admitted work to completion."""

    op: ClassVar[str] = "drain"


@dataclass(frozen=True)
class ResultRequest(_FieldlessRequest):
    """Poll for the drained final result."""

    op: ClassVar[str] = "result"


@dataclass(frozen=True)
class PingRequest(_FieldlessRequest):
    """Liveness check."""

    op: ClassVar[str] = "ping"


_REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.op: cls
    for cls in (
        SubmitRequest,
        StatusRequest,
        CancelRequest,
        DrainRequest,
        ResultRequest,
        PingRequest,
    )
}


def request_from_wire(payload: Dict[str, Any]) -> Request:
    """Decode one wire dict into its typed request.

    Messages without a ``version`` field are decoded as protocol
    version 1 (the PR-5 format); everything else must carry a version
    no newer than :data:`PROTOCOL_VERSION`.

    Raises:
        ValueError: For an unknown ``op`` or an unsupported version.
        KeyError: When an op-specific required field is missing.
    """
    op = payload.get("op")
    request_type = _REQUEST_TYPES.get(op)  # type: ignore[arg-type]
    if request_type is None:
        raise ValueError(f"unknown op {op!r}")
    version = _wire_version(payload)
    if version < 1 or version > PROTOCOL_VERSION:
        raise ValueError(
            f"unsupported protocol version {version} "
            f"(this server speaks 1..{PROTOCOL_VERSION})"
        )
    return request_type.from_wire(payload)


# -- responses --------------------------------------------------------------


@dataclass(frozen=True)
class Response:
    """Base class of the typed server-to-client messages.

    Every response's wire form keeps the version-1 field names, so a
    legacy client reading ``response["job_id"]`` (etc.) keeps working
    regardless of the server's protocol version.
    """

    def to_wire(self) -> Dict[str, Any]:
        """This response as a wire dict (``ok`` plus the payload)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SubmitResult(Response):
    """A successful submission: the assigned id and where it landed.

    Attributes:
        job_id: Service-assigned job id.
        tenant: Tenant the job was accounted to.
        vc: Virtual cluster the fleet routed the job to; None from a
            single (unsharded) daemon.
        version: Protocol version of the response.
    """

    job_id: int
    tenant: str = DEFAULT_TENANT
    vc: Optional[str] = None
    version: int = PROTOCOL_VERSION

    def __int__(self) -> int:
        """The assigned job id, for terse call sites."""
        return self.job_id

    def to_wire(self) -> Dict[str, Any]:
        """Wire form; ``job_id`` stays where version-1 clients read it."""
        wire: Dict[str, Any] = {
            "ok": True,
            "version": self.version,
            "job_id": self.job_id,
            "tenant": self.tenant,
        }
        if self.vc is not None:
            wire["vc"] = self.vc
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "SubmitResult":
        """Decode a successful submit response."""
        return cls(
            job_id=int(payload["job_id"]),
            tenant=str(payload.get("tenant", DEFAULT_TENANT)),
            vc=payload.get("vc"),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class StatusResult(Response):
    """A status snapshot (service-wide or one job's).

    The snapshot keys mirror :meth:`SchedulerService.status`; the
    mapping interface (``result["pending"]``, ``result.get(...)``)
    keeps call sites terse while the object itself is versioned and
    typed.
    """

    data: Dict[str, Any] = field(default_factory=dict)
    version: int = PROTOCOL_VERSION

    def __getitem__(self, key: str) -> Any:
        """Indexing delegates to the snapshot mapping."""
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        """``dict.get`` over the snapshot mapping."""
        return self.data.get(key, default)

    def __contains__(self, key: str) -> bool:
        """Membership delegates to the snapshot mapping."""
        return key in self.data

    def to_wire(self) -> Dict[str, Any]:
        """Wire form; the snapshot stays under ``status`` as in v1."""
        return {"ok": True, "version": self.version, "status": dict(self.data)}

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "StatusResult":
        """Decode a successful status response."""
        return cls(
            data=dict(payload.get("status", {})),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class CancelResult(Response):
    """Outcome of a cancel: whether the job existed and was stopped."""

    cancelled: bool = False
    version: int = PROTOCOL_VERSION

    def __bool__(self) -> bool:
        """Truthiness is the cancellation outcome."""
        return self.cancelled

    def to_wire(self) -> Dict[str, Any]:
        """Wire form."""
        return {
            "ok": True,
            "version": self.version,
            "cancelled": self.cancelled,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "CancelResult":
        """Decode a successful cancel response."""
        return cls(
            cancelled=bool(payload.get("cancelled")),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class DrainResult(Response):
    """The service acknowledged a drain request."""

    draining: bool = True
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form."""
        return {
            "ok": True,
            "version": self.version,
            "draining": self.draining,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "DrainResult":
        """Decode a successful drain response."""
        return cls(
            draining=bool(payload.get("draining")),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class ResultPoll(Response):
    """One poll for the drained result: done or not, plus the payload."""

    done: bool = False
    result: Optional[SimulationResult] = None
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form; the result dict only travels once drained."""
        wire: Dict[str, Any] = {
            "ok": True,
            "version": self.version,
            "done": self.done,
        }
        if self.done and self.result is not None:
            wire["result"] = self.result.to_dict()
        return wire

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ResultPoll":
        """Decode a successful result poll."""
        raw = payload.get("result")
        return cls(
            done=bool(payload.get("done")),
            result=None if raw is None else SimulationResult.from_dict(raw),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class PingResult(Response):
    """Liveness acknowledgement."""

    pong: bool = True
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form."""
        return {"ok": True, "version": self.version, "pong": self.pong}

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "PingResult":
        """Decode a successful ping response."""
        return cls(
            pong=bool(payload.get("pong")),
            version=_wire_version(payload),
        )


@dataclass(frozen=True)
class ErrorResult(Response):
    """A failure response with a structured error code.

    Attributes:
        code: Machine-readable error code; admission-control codes are
            listed in :data:`REJECTION_CODES`.
        message: Human-readable context.
    """

    code: str = "unknown"
    message: str = ""
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> Dict[str, Any]:
        """Wire form; field names match version 1 exactly."""
        return {
            "ok": False,
            "version": self.version,
            "error": self.code,
            "message": self.message,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ErrorResult":
        """Decode a failure response."""
        return cls(
            code=str(payload.get("error", "unknown")),
            message=str(payload.get("message", "")),
            version=_wire_version(payload),
        )


_RESPONSE_TYPES: Dict[str, Type[Response]] = {
    "submit": SubmitResult,
    "status": StatusResult,
    "cancel": CancelResult,
    "drain": DrainResult,
    "result": ResultPoll,
    "ping": PingResult,
}


def response_from_wire(op: str, payload: Dict[str, Any]) -> Response:
    """Decode one wire response for ``op`` into its typed form.

    Failures (``ok`` false) decode as :class:`ErrorResult` regardless
    of the op.

    Raises:
        ValueError: For an unknown ``op`` on a successful response.
    """
    if not payload.get("ok"):
        return ErrorResult.from_wire(payload)
    response_type = _RESPONSE_TYPES.get(op)
    if response_type is None:
        raise ValueError(f"unknown op {op!r}")
    return response_type.from_wire(payload)


# -- line codec -------------------------------------------------------------


def encode_line(message: Union[Dict[str, Any], Request, Response]) -> bytes:
    """One protocol message as a JSON line (UTF-8, trailing newline).

    Typed messages are serialized through their ``to_wire``; raw dicts
    are accepted for version-1 compatibility and low-level tests.
    """
    if isinstance(message, (Request, Response)):
        message = message.to_wire()
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict.

    Raises:
        ValueError: On malformed JSON or a non-object payload.
    """
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def error_response(code: str, message: str) -> Dict[str, Any]:
    """A version-1 failure response dict (kept for wire compatibility).

    New code should build an :class:`ErrorResult`; this helper remains
    because version-1 peers expect exactly this three-field shape.
    """
    return {"ok": False, "error": code, "message": message}
