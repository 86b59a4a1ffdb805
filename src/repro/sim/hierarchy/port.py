"""The port: a component's only connection to time and back-pressure.

A :class:`Port` bundles the two things every hierarchy component needs
and nothing else may touch directly:

* **latency scheduling** against the shared :class:`~repro.sim.engine.
  Engine` -- components call ``port.schedule``; lint rule SIM008 flags
  any hierarchy component calling ``engine.schedule`` itself, so the
  engine-facing surface stays in one reviewable place;
* **MSHR back-pressure** -- components read their
  :class:`~repro.cache.mshr.MshrFile` as ``port.mshr``.  When it is
  full, requests are deferred into its FIFO pending queue
  (:meth:`defer`) and replayed in order as registers free up
  (:meth:`replay`).  This queueing is the mechanism that inflates miss
  latency under bandwidth constraint (paper Fig. 3).

``port.schedule`` *is* the engine's ``schedule``, bound when the port is
built, so a scheduled hop costs one frame.  The runtime sanitizer
(:mod:`repro.analysis.sanitizer`) installs its checking shim on the
engine after wiring and then re-points every hierarchy port at it, so a
sanitized run still checks each schedule.  Components must therefore
read ``self.port.schedule`` at call time, never cache it.  The MSHR
methods the sanitizer wraps (``allocate``, ``merge``, ``release``) are
likewise resolved on the ``MshrFile`` instance at each call.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.mshr import MshrFile
from repro.sim.engine import Engine

_NO_MSHR = "port has no MSHR file attached"


class Port:
    """One component's engine access plus (optional) MSHR back-pressure."""

    __slots__ = ("engine", "mshr", "schedule")

    def __init__(self, engine: Engine,
                 mshr: Optional[MshrFile] = None) -> None:
        self.engine = engine
        self.mshr = mshr
        #: ``schedule(cycle, callback, *args)`` runs ``callback(*args)``
        #: at ``cycle``: the engine's own method, so a call is one frame.
        self.schedule: Callable[..., None] = engine.schedule

    @property
    def now(self) -> int:
        return self.engine.now

    # -- MSHR back-pressure --------------------------------------------

    def defer(self, thunk: Callable[[], None]) -> None:
        """Queue ``thunk`` until an MSHR register frees up (FIFO)."""
        if self.mshr is None:
            raise TypeError(_NO_MSHR)
        self.mshr.pending.append(thunk)

    def replay(self) -> None:
        """Replay deferred requests in FIFO order while registers last.

        Returns at once when nothing is pending; the components also
        skip the call then, as they check ``mshr.pending`` after each
        release.  A replayed request may re-fill the MSHR immediately;
        the loop re-checks occupancy before each pop so later entries
        keep their place in line instead of being dropped or reordered.
        """
        mshr = self.mshr
        if mshr is None:
            raise TypeError(_NO_MSHR)
        pending = mshr.pending
        entries = mshr.entries
        while pending and len(entries) < mshr.capacity:
            pending.popleft()()
