"""Blocking client for the scheduler daemon's Unix socket.

A thin synchronous wrapper over the line protocol
(:mod:`repro.service.protocol`): one request out, one response in.
This is the stable public client surface — :meth:`ServiceClient.submit`,
:meth:`~ServiceClient.cancel`, :meth:`~ServiceClient.status`, and
:meth:`~ServiceClient.drain` return the protocol's typed result
objects (:class:`~repro.service.protocol.SubmitResult` and friends)
rather than raw dicts.  Suitable for scripts, tests, and the CI smoke
test; anything needing concurrency should talk to the socket with its
own asyncio streams.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.jobs.job import JobSpec
from repro.service.daemon import SubmitRejected
from repro.service.protocol import (
    DEFAULT_TENANT,
    REJECTION_CODES,
    CancelRequest,
    CancelResult,
    DrainRequest,
    DrainResult,
    PingRequest,
    Request,
    ResultRequest,
    StatusRequest,
    StatusResult,
    SubmitRequest,
    SubmitResult,
    decode_line,
    encode_line,
    response_from_wire,
)
from repro.sim.metrics import SimulationResult

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(RuntimeError):
    """The server answered with a non-admission error.

    Attributes:
        code: The structured error code from the response.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServiceClient:
    """Talks to a :class:`~repro.service.server.ServiceServer` socket.

    Args:
        path: Unix-socket path the server listens on.
        timeout: Per-response socket timeout in seconds.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._file = self._sock.makefile("rb")

    # -- plumbing ----------------------------------------------------------

    def call(self, **request: Any) -> Dict[str, Any]:
        """Send one raw request dict; return the (successful) response.

        The low-level escape hatch under the typed methods; it speaks
        wire dicts directly, so version-1 payloads pass through
        unchanged.

        Raises:
            SubmitRejected: When the server rejected an admission.
            ServiceClientError: For any other error response or a
                closed connection.
        """
        self._sock.sendall(encode_line(request))
        line = self._file.readline()
        if not line:
            raise ServiceClientError("closed", "server closed the connection")
        response = decode_line(line)
        if response.get("ok"):
            return response
        code = response.get("error", "unknown")
        message = response.get("message", "")
        if code in REJECTION_CODES:
            raise SubmitRejected(
                code,
                message,
                tenant=response.get("tenant"),
                details=response.get("details"),
            )
        raise ServiceClientError(code, message)

    def request(self, message: Request) -> Dict[str, Any]:
        """Send one typed request; return the successful wire response.

        Raises:
            SubmitRejected: When the server rejected an admission.
            ServiceClientError: For any other error response.
        """
        return self.call(**message.to_wire())

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the connected client itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # -- client API --------------------------------------------------------

    def ping(self) -> bool:
        """True when the server answers."""
        return bool(self.request(PingRequest()).get("pong"))

    def submit(
        self,
        spec: JobSpec,
        tenant: Optional[str] = None,
        vc: Optional[str] = None,
    ) -> SubmitResult:
        """Submit one job; returns the typed submission result.

        Args:
            spec: The job to submit.  Build one from a serialized
                dict with :func:`~repro.service.protocol.spec_from_dict`.
            tenant: Tenant to account the submission to; defaults to
                the protocol's default tenant.
            vc: Optional virtual-cluster routing hint (fleet only).

        Returns:
            :class:`SubmitResult` with the assigned ``job_id`` (its
            ``int()`` is the id, for terse call sites) and where the
            fleet routed the job.

        Raises:
            TypeError: When ``spec`` is not a :class:`JobSpec`; nothing
                is sent.
            SubmitRejected: When admission control refused the job.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(
                f"submit() takes a JobSpec, not {type(spec).__name__}; "
                "convert serialized specs with "
                "repro.service.protocol.spec_from_dict"
            )
        message = SubmitRequest(
            spec=spec,
            tenant=DEFAULT_TENANT if tenant is None else tenant,
            vc=vc,
        )
        return SubmitResult.from_wire(self.request(message))

    def status(self, job_id: Optional[int] = None) -> StatusResult:
        """Service-wide status, or one job's when ``job_id`` is given.

        Returns:
            :class:`StatusResult`; index it like the underlying
            snapshot mapping (``status["pending"]``).
        """
        response = self.request(StatusRequest(job_id=job_id))
        return StatusResult.from_wire(response)

    def cancel(self, job_id: int) -> CancelResult:
        """Cancel one job.

        Returns:
            :class:`CancelResult`; truthy when the job existed and was
            cancelled.
        """
        return CancelResult.from_wire(self.request(CancelRequest(job_id)))

    def drain(self) -> DrainResult:
        """Ask the service to stop admitting and run down."""
        return DrainResult.from_wire(self.request(DrainRequest()))

    def result(
        self,
        poll_interval: float = 0.05,
        timeout: Optional[float] = 60.0,
    ) -> SimulationResult:
        """Poll until the drained result is flushed; return it.

        Raises:
            TimeoutError: When the result does not appear in time.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            poll = response_from_wire("result", self.request(ResultRequest()))
            if poll.done and poll.result is not None:
                return poll.result
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("timed out waiting for the drained result")
            time.sleep(poll_interval)
