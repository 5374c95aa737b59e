"""Live solver search telemetry: heartbeats sampled off cold branches.

PR 8's spans answer "where did the time go" *after* a job finishes; this
module answers "what is the CDCL search doing *right now*".  The solver
samples a heartbeat -- conflicts, propagations/s over a sliding window,
trail depth, decision level, learned-DB size, arena occupancy, LBD
histogram, restart cadence -- at the cold branches it already owns
(restart, DB-reduce, deadline-poll; the ``# hot-loop`` propagate/analyse
regions are never touched), the BMC engine stamps each heartbeat with the
bound being searched and adds one summary heartbeat per completed bound,
and the serving layer ships them up the same channel the span batches
ride (tagged ``__telemetry__`` alongside ``__obs__``) into a per-job ring
buffer behind ``GET /jobs/<id>/telemetry``.

Design rules, inherited from :mod:`repro.obs.trace`:

* **Module-global sink, fork-inherited.**  ``install()`` puts one
  :class:`TelemetrySink` in a module global; forked workers inherit it
  through the fork memory snapshot and ship their heartbeats home with
  :meth:`TelemetrySink.batch_since` (the parent absorbs them).  The
  disabled cost at every sampling site is one module-global load plus an
  ``is None`` branch.
* **Read-only sampling.**  A heartbeat is built purely from counters the
  solver already maintains; nothing observable feeds back into the
  search, so results and :class:`~repro.eval.campaign.BugDetectionRecord`
  payloads are byte-identical with telemetry on or off.
* **Bounded everywhere.**  The sink keeps at most ``max_heartbeats``
  recent heartbeats (older ones are dropped and counted), and sampling is
  throttled by :meth:`TelemetrySink.due` so a restart storm cannot turn
  the telemetry layer itself into the bottleneck.

Heartbeat counters (``conflicts``/``propagations``/...) are the solver
instance's *lifetime* totals, so a sequence of heartbeats from one reused
incremental solver -- the BMC engine's normal regime -- is monotonically
non-decreasing across bounds.  Heartbeats from distinct processes carry
their ``pid`` and interleave without any cross-process ordering claim.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_MAX_HEARTBEATS",
    "DEFAULT_MIN_INTERVAL_SECONDS",
    "DEFAULT_FLUSH_INTERVAL_SECONDS",
    "TelemetrySink",
    "install",
    "clear",
    "active",
    "set_enabled",
    "enabled",
]

#: Ring-buffer bound of one sink: heartbeats beyond this drop the oldest.
DEFAULT_MAX_HEARTBEATS = 512
#: Minimum seconds between sampled heartbeats (:meth:`TelemetrySink.due`).
DEFAULT_MIN_INTERVAL_SECONDS = 0.05
#: Minimum seconds between ``on_flush`` shipments of pending heartbeats.
DEFAULT_FLUSH_INTERVAL_SECONDS = 0.25
#: Samples kept in the propagations/s sliding window.
_PPS_WINDOW = 16


class TelemetrySink:
    """A bounded heartbeat ring with sliding-window throughput.

    ``on_flush`` (optional) receives batches of newly recorded heartbeats
    at most every ``flush_interval_seconds`` -- the serving layer installs
    a callback that ships them over the job progress queue, which is what
    makes ``GET /jobs/<id>/telemetry`` live *during* a solve rather than a
    post-mortem.  Forked workers that ship heartbeats home explicitly via
    :meth:`batch_since` call :meth:`detach_flush` first, so a heartbeat
    never travels both channels.
    """

    __slots__ = (
        "max_heartbeats",
        "min_interval_seconds",
        "flush_interval_seconds",
        "heartbeats",
        "dropped",
        "flush_errors",
        "_total",
        "_flushed_total",
        "_seq",
        "_last_sample",
        "_last_flush",
        "_window",
        "_context",
        "_on_flush",
    )

    def __init__(
        self,
        *,
        max_heartbeats: int = DEFAULT_MAX_HEARTBEATS,
        min_interval_seconds: float = DEFAULT_MIN_INTERVAL_SECONDS,
        on_flush: Optional[Callable[[List[dict]], None]] = None,
        flush_interval_seconds: float = DEFAULT_FLUSH_INTERVAL_SECONDS,
    ) -> None:
        if max_heartbeats < 1:
            raise ValueError("max_heartbeats must be at least 1")
        self.max_heartbeats = max_heartbeats
        self.min_interval_seconds = min_interval_seconds
        self.flush_interval_seconds = flush_interval_seconds
        #: Most recent heartbeats, oldest first (bounded ring).
        self.heartbeats: List[dict] = []
        #: Heartbeats evicted from the ring (recorded - retained).
        self.dropped = 0
        #: ``on_flush`` callbacks that raised (swallowed, never re-raised).
        self.flush_errors = 0
        self._total = 0
        self._flushed_total = 0
        self._seq = 0
        # Monotonic instants of the last sample/flush; ``None`` = never.
        # (A 0.0 seed would read as "sampled at boot", so a host booted
        # less than one interval ago would throttle its first heartbeat.)
        self._last_sample: Optional[float] = None
        self._last_flush: Optional[float] = None
        self._window: List[Tuple[float, int]] = []
        self._context: Dict[str, object] = {}
        self._on_flush = on_flush

    # -- sampling ------------------------------------------------------
    def due(self) -> bool:
        """Whether enough wall clock passed to sample another heartbeat.

        The solver's cold branches guard their (cheap, but not free)
        heartbeat construction with this, so a restart storm samples at a
        bounded rate instead of once per restart.
        """
        last = self._last_sample
        return (
            last is None
            or time.monotonic() - last >= self.min_interval_seconds
        )

    def record(self, site: str, **fields: object) -> dict:
        """Record one heartbeat sampled at *site* and return it.

        ``fields`` are raw solver counters (``conflicts``,
        ``propagations``, ``trail_depth``, ...).  The sink stamps sequence
        number, pid, wall-clock time and the ambient context (e.g. the
        BMC bound being searched), and derives ``pps`` -- propagations
        per second over a sliding window of recent heartbeats.  The
        window resets itself when ``propagations`` decreases, i.e. when a
        fresh solver instance starts reporting.
        """
        now = time.monotonic()
        heartbeat: dict = {
            "seq": self._seq,
            "pid": os.getpid(),
            "t": time.time(),
            "site": site,
        }
        heartbeat.update(self._context)
        heartbeat.update(fields)
        propagations = fields.get("propagations")
        if isinstance(propagations, int):
            window = self._window
            if window and propagations < window[-1][1]:
                del window[:]
            window.append((now, propagations))
            if len(window) > _PPS_WINDOW:
                del window[0]
            span = window[-1][0] - window[0][0]
            if span > 0:
                heartbeat["pps"] = (window[-1][1] - window[0][1]) / span
        self._seq += 1
        self._last_sample = now
        self._append(heartbeat)
        self.maybe_flush()
        return heartbeat

    def _append(self, heartbeat: dict) -> None:
        self.heartbeats.append(heartbeat)
        self._total += 1
        if len(self.heartbeats) > self.max_heartbeats:
            del self.heartbeats[0]
            self.dropped += 1

    # -- context -------------------------------------------------------
    def set_context(self, **fields: object) -> None:
        """Merge *fields* into every subsequent heartbeat (``None`` drops).

        The BMC engine uses this to stamp solver heartbeats with the
        bound currently being searched.
        """
        for key, value in fields.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    # -- fork shipping -------------------------------------------------
    def mark(self) -> int:
        """Position token for :meth:`batch_since` (count recorded so far)."""
        return self._total

    def batch_since(self, mark: int) -> List[dict]:
        """Heartbeats recorded after *mark* that are still retained.

        A forked worker records its own heartbeats on the inherited sink
        copy and ships ``batch_since(mark)`` home with its result, the
        same protocol span batches use.
        """
        new = self._total - mark
        if new <= 0:
            return []
        return list(self.heartbeats[max(0, len(self.heartbeats) - new) :])

    def absorb(self, batch: List[dict]) -> None:
        """Merge a shipped worker batch into this sink's ring."""
        for heartbeat in batch:
            self._append(heartbeat)
        self.maybe_flush()

    # -- flushing ------------------------------------------------------
    def detach_flush(self) -> None:
        """Drop the flush callback (forked workers ship explicitly)."""
        self._on_flush = None

    def maybe_flush(self, force: bool = False) -> None:
        """Ship pending heartbeats through ``on_flush`` if one is due.

        Callback exceptions are counted and swallowed: telemetry delivery
        must never fail a solve.
        """
        if self._on_flush is None:
            return
        pending = self._total - self._flushed_total
        if pending <= 0:
            return
        now = time.monotonic()
        last = self._last_flush
        if (
            not force
            and last is not None
            and now - last < self.flush_interval_seconds
        ):
            return
        batch = list(self.heartbeats[max(0, len(self.heartbeats) - pending) :])
        self._flushed_total = self._total
        self._last_flush = now
        try:
            self._on_flush(batch)
        except Exception:
            self.flush_errors += 1

    def flush(self) -> None:
        """Ship everything pending immediately (job teardown path)."""
        self.maybe_flush(force=True)

    # -- inspection ----------------------------------------------------
    def snapshot(self) -> List[dict]:
        """A copy of the retained heartbeats, oldest first."""
        return list(self.heartbeats)


# ----------------------------------------------------------------------
# Module-global sink (fork-inherited), mirroring repro.obs.trace.
# ----------------------------------------------------------------------
_SINK: Optional[TelemetrySink] = None
_ENABLED = True


def install(sink: Optional[TelemetrySink] = None) -> TelemetrySink:
    """Install *sink* (or a fresh default one) as the process sink."""
    global _SINK
    _SINK = sink if sink is not None else TelemetrySink()
    return _SINK


def clear() -> None:
    """Uninstall the process sink (sampling sites go back to no-ops)."""
    global _SINK
    _SINK = None


def active() -> Optional[TelemetrySink]:
    """The installed sink, or ``None`` when absent or globally disabled."""
    if not _ENABLED:
        return None
    return _SINK


def set_enabled(value: bool) -> None:
    """Globally enable/disable telemetry without touching the sink."""
    global _ENABLED
    _ENABLED = bool(value)


def enabled() -> bool:
    """Whether telemetry is globally enabled (default ``True``)."""
    return _ENABLED
