"""Pacing drivers for the service loop.

The daemon advances the simulation from one event horizon to the next;
the clock decides how long to *really* wait after each jump before the
loop acts on it (processes the horizon's events, reports a drain).

* :class:`VirtualClock` never waits: simulated time jumps straight
  through the horizons, so a drained run is deterministic and as fast
  as the machine allows (the test/CI driver).
* :class:`WallClock` anchors simulated time to the wall clock: the
  effects of simulated time ``t`` become visible no earlier than
  ``t * time_scale`` real seconds after the service started, and the
  sleep is cut short whenever a client submission, cancel, or drain
  arrives (the wake event).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import asyncio

__all__ = ["VirtualClock", "WallClock"]


class VirtualClock:
    """Deterministic driver: never blocks on real time.

    ``pause`` yields control once (so socket clients sharing the event
    loop are served) and returns immediately — simulated time is free
    to jump to the next horizon.
    """

    async def pause(
        self,
        sim_now: float,
        sim_deadline: Optional[float],
        wake: Optional[asyncio.Event] = None,
    ) -> None:
        """Yield to other tasks without waiting for real time."""
        import asyncio

        await asyncio.sleep(0)


class WallClock:
    """Real-time driver: simulated seconds map to real seconds.

    Args:
        time_scale: Real seconds per simulated second.  ``1.0`` runs
            in real time; ``0.01`` runs 100x faster (useful for
            demos).  Must be > 0.

    The mapping is anchored at the first :meth:`pause`, so a long
    simulation does not drift: each horizon gets an absolute real
    deadline instead of accumulating per-sleep rounding.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.time_scale = time_scale
        self._epoch_real: Optional[float] = None
        self._epoch_sim = 0.0

    async def pause(
        self,
        sim_now: float,
        sim_deadline: Optional[float],
        wake: Optional[asyncio.Event] = None,
    ) -> None:
        """Sleep until ``sim_deadline``'s real time, or until woken.

        Args:
            sim_now: Current simulated time.
            sim_deadline: Simulated time of the next event; None means
                nothing is scheduled (no wait).
            wake: Optional event that interrupts the sleep early (a
                submission or drain changed the horizon).
        """
        import asyncio

        if sim_deadline is None:
            await asyncio.sleep(0)
            return
        if self._epoch_real is None:
            self._epoch_real = time.monotonic()
            self._epoch_sim = sim_now
        real_deadline = self._epoch_real + (
            (sim_deadline - self._epoch_sim) * self.time_scale
        )
        delay = real_deadline - time.monotonic()
        if delay <= 0:
            await asyncio.sleep(0)
            return
        if wake is None:
            await asyncio.sleep(delay)
            return
        try:
            await asyncio.wait_for(wake.wait(), timeout=delay)
        except asyncio.TimeoutError:
            pass
