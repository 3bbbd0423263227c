"""Unix-socket front end for a whole fleet.

The fleet analogue of :class:`repro.service.server.ServiceServer`,
built on the same :class:`~repro.service.server.LineServer` transport:
one socket serves every tenant, version-2 submissions carry tenant and
VC-hint fields, and version-1 clients keep working (their submissions
land under the default tenant with no hint).
"""

from __future__ import annotations

from repro.fleet.frontend import FleetFrontEnd
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
)
from repro.service.server import LineServer
from repro.sim.metrics import SimulationResult

__all__ = ["FleetServer"]


class FleetServer(LineServer):
    """Serves one :class:`FleetFrontEnd` on a Unix socket.

    Args:
        frontend: The fleet to expose.
        path: Filesystem path of the Unix socket.
        linger: Post-drain grace period for result polls.
    """

    def __init__(
        self,
        frontend: FleetFrontEnd,
        path: str,
        linger: float = 5.0,
    ) -> None:
        super().__init__(path, linger)
        self.frontend = frontend

    async def serve(self) -> SimulationResult:
        """Run every shard daemon and the socket server until drained.

        Returns:
            The merged fleet result once every shard drains.
        """
        return await self.serve_sockets(self.frontend.run())

    def handle(self, message: Request) -> Response:
        """Apply one typed request to the fleet; returns the result.

        Raises:
            SubmitRejected: On any admission refusal (tenant-scoped
                or shard-level).
            KeyError: For a status/cancel naming an unknown job.
        """
        frontend = self.frontend
        if isinstance(message, PingRequest):
            return PingResult()
        if isinstance(message, SubmitRequest):
            return frontend.submit(
                message.spec, tenant=message.tenant, vc=message.vc
            )
        if isinstance(message, StatusRequest):
            return StatusResult(data=frontend.status(message.job_id))
        if isinstance(message, CancelRequest):
            return CancelResult(cancelled=frontend.cancel(message.job_id))
        if isinstance(message, DrainRequest):
            frontend.drain()
            return DrainResult()
        if isinstance(message, ResultRequest):
            if frontend.result is None:
                return ResultPoll(done=False)
            return ResultPoll(done=True, result=frontend.result)
        raise ValueError(f"unhandled request type {type(message).__name__}")
