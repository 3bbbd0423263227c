"""Unix-socket front end for the scheduler daemon.

One asyncio task drives :meth:`SchedulerService.run`; a Unix-socket
server shares the same event loop and dispatches protocol requests
(see :mod:`repro.service.protocol`) into the service's synchronous
client API.  Because both run on one loop, no locking is needed: a
request is handled between simulator steps, never during one.

The connection plumbing lives in :class:`LineServer`, which the fleet
front-end (:class:`repro.fleet.server.FleetServer`) reuses: a subclass
implements :meth:`LineServer.handle` and inherits wire decoding and
error mapping (:meth:`LineServer.dispatch`), the line loop, the
post-drain linger, and socket cleanup.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Dict

from repro.service.daemon import SchedulerService, SubmitRejected
from repro.service.protocol import (
    CancelRequest,
    CancelResult,
    DrainRequest,
    DrainResult,
    PingRequest,
    PingResult,
    Request,
    Response,
    ResultPoll,
    ResultRequest,
    StatusRequest,
    StatusResult,
    SubmitRequest,
    SubmitResult,
    decode_line,
    encode_line,
    error_response,
    request_from_wire,
)
from repro.sim.metrics import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import asyncio

__all__ = ["LineServer", "ServiceServer"]


class LineServer:
    """Newline-JSON request/response loop on a Unix socket.

    The transport shared by the single-daemon server and the fleet
    front-end: accepts connections, reads one request per line,
    answers one response per line, and — after the served workload
    drains — lingers briefly so connected clients can still fetch the
    final result before the socket goes away.

    Args:
        path: Filesystem path of the Unix socket; created by
            :meth:`serve_sockets` and removed on exit.
        linger: Grace period (real seconds) after the drain completes
            during which connected clients can still poll before the
            server hangs up on them.
    """

    def __init__(self, path: str, linger: float = 5.0) -> None:
        self.path = path
        self.linger = linger
        self._writers: set = set()

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one wire request; return the wire response; never raises.

        Version-1 dicts (no ``version`` field) and version-2 messages
        both decode through :func:`request_from_wire` and go to
        :meth:`handle`; every protocol error, a mistyped field
        included, becomes an ``error_response`` dict.
        """
        try:
            message = request_from_wire(request)
        except (TypeError, ValueError) as error:
            return error_response("bad_request", str(error))
        except KeyError as error:
            return error_response("bad_request", f"missing field {error}")
        try:
            return self.handle(message).to_wire()
        except SubmitRejected as rejection:
            wire = error_response(rejection.code, str(rejection))
            if rejection.tenant is not None:
                wire["tenant"] = rejection.tenant
            if rejection.details:
                wire["details"] = rejection.details
            return wire
        except KeyError as error:
            return error_response("unknown_job", str(error))
        except (TypeError, ValueError) as error:
            return error_response("bad_request", str(error))

    def handle(self, message: Request) -> Response:
        """Apply one typed request; subclasses implement this.

        Raises:
            SubmitRejected: When admission control refuses a submit.
            KeyError: For a status/cancel naming an unknown job.
        """
        raise NotImplementedError

    async def serve_sockets(self, run) -> SimulationResult:
        """Accept connections while awaiting ``run``; then wind down.

        Args:
            run: Awaitable driving the served workload (the daemon's
                or fleet's main loop); its result is returned once the
                linger period ends.
        """
        import asyncio

        server = await asyncio.start_unix_server(
            self._handle_client, path=self.path
        )
        try:
            async with server:
                result = await run
            # The run is drained but connected clients may still be
            # polling for the final result: linger until they hang up
            # (or the grace period passes), then close any stragglers
            # so handler tasks end via EOF instead of being cancelled
            # at loop teardown (which asyncio logs as an error).
            deadline = time.monotonic() + self.linger
            while self._writers and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            for writer in list(self._writers):
                writer.close()
            for _ in range(100):
                if not self._writers:
                    break
                await asyncio.sleep(0)
            return result
        finally:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One client connection: a request/response line loop."""
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = decode_line(line)
                except ValueError as error:
                    response = error_response("bad_request", str(error))
                else:
                    response = self.dispatch(request)
                writer.write(encode_line(response))
                await writer.drain()
        finally:
            self._writers.discard(writer)
            writer.close()


class ServiceServer(LineServer):
    """Serves one :class:`SchedulerService` on a Unix socket.

    Args:
        service: The daemon to expose.
        path: Filesystem path of the Unix socket; created on
            :meth:`serve` and removed on exit.
        linger: Grace period (real seconds) after the drain completes
            during which connected clients can still fetch the final
            result before the server hangs up on them.
    """

    def __init__(
        self,
        service: SchedulerService,
        path: str,
        linger: float = 5.0,
    ) -> None:
        super().__init__(path, linger)
        self.service = service

    async def serve(self) -> SimulationResult:
        """Run the daemon and the socket server until drained.

        Returns:
            The final flushed result once the service drains (a client
            ``drain`` op, or a drain requested before the call).
        """
        return await self.serve_sockets(self.service.run())

    def handle(self, message: Request) -> Response:
        """Apply one typed request to the service; returns the result.

        Raises:
            SubmitRejected: When admission control refuses a submit.
            KeyError: For a status/cancel naming an unknown job.
        """
        service = self.service
        if isinstance(message, PingRequest):
            return PingResult()
        if isinstance(message, SubmitRequest):
            job_id = service.submit(message.spec)
            return SubmitResult(job_id=job_id, tenant=message.tenant)
        if isinstance(message, StatusRequest):
            return StatusResult(data=service.status(message.job_id))
        if isinstance(message, CancelRequest):
            return CancelResult(cancelled=service.cancel(message.job_id))
        if isinstance(message, DrainRequest):
            service.drain()
            return DrainResult()
        if isinstance(message, ResultRequest):
            if service.result is None:
                return ResultPoll(done=False)
            return ResultPoll(done=True, result=service.result)
        raise ValueError(f"unhandled request type {type(message).__name__}")
