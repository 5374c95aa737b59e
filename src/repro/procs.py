"""Fork-child runner: the one place :mod:`repro` starts a child process.

Five sites hand work to children -- the cube pool
(:mod:`repro.dist.scheduler`), portfolio racers
(:mod:`repro.dist.portfolio`), campaign jobs (:mod:`repro.eval.campaign`),
served local jobs (:mod:`repro.serve.queue`) and fleet solves
(:mod:`repro.serve.fleet`).  All of them go through this module, so a
child is started, watched, torn down and heard from the same way
everywhere:

:class:`Child`
    ``target(emit, *args)`` in a ``fork``-context daemon process that is a
    direct child of the caller.  ``emit(event)`` streams a picklable event
    home over a synchronous pipe (no feeder thread, so an event sent just
    before a SIGKILL is never lost); the return value, or the exception,
    becomes :meth:`Child.outcome` (an exit, interrupt or signal that ends
    the child makes it a crash).  :meth:`Child.kill` is SIGTERM, a
    :data:`KILL_GRACE_SECONDS` grace, then SIGKILL and a join.
:class:`ThreadChild`
    The same interface on a daemon thread (``use_processes=False``).  A
    thread cannot be killed; ``kill()`` abandons it.

Both report one outcome shape: ``{"result": value}``,
``{"error": "Type: message"}`` or ``{"crashed": True, "exitcode": code}``.

Observability crosses the boundary as one payload: :func:`mark` in the
child before the work, :func:`ship` after it (spans and heartbeats since
the mark plus the process-metrics delta), and :func:`absorb` in the parent,
which merges it into the active collector, the active telemetry sink and
the process registry.  Streamed events keep the vocabulary the serving
layer's progress path understands: per-bound dicts,
``{"__telemetry__": [...]}`` and ``{"__obs__": <payload>}``.

Fork-safety: everything the child side runs is lock- and asyncio-free
(this module is in the ``scripts/lint_repro.py`` fork scope).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace

__all__ = [
    "KILL_GRACE_SECONDS",
    "Child",
    "ObsMark",
    "ThreadChild",
    "absorb",
    "context",
    "kill_all",
    "mark",
    "ship",
]

#: Seconds a child gets between SIGTERM and SIGKILL.
KILL_GRACE_SECONDS = 2.0

Outcome = Dict[str, object]


def context():
    """The multiprocessing context children, queues and pipes come from.

    ``fork`` keeps the imported package, warm per-process caches and the
    installed collector/sink/injector in the child; platforms without it
    fall back to their default method.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def _child_main(conn, target: Callable, args: Tuple) -> None:  # fork-entry
    """Child side of :class:`Child`: run *target*, send events + outcome."""
    # An asyncio parent leaves its signal wakeup fd and a no-op SIGTERM
    # handler behind: SIGTERM would then be ignored here and wake the
    # parent's loop instead.  Children die on SIGTERM.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:
        pass
    # Heartbeats ship home explicitly (ship/absorb or the serving layer's
    # own streaming sink), never through a fork-inherited flush callback.
    sink = obs_telemetry.active()
    if sink is not None:
        sink.detach_flush()

    def emit(event: object) -> None:
        try:
            conn.send(("event", event))
        except OSError:
            pass  # the parent stopped listening; events are best-effort

    try:
        outcome: Outcome = {"result": target(emit, *args)}
    except Exception as exc:
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    try:
        conn.send(("outcome", outcome))
    except OSError:
        pass  # the parent is gone
    conn.close()


class Child:
    """``target(emit, *args)`` in a forked daemon process."""

    def __init__(self, target: Callable, *args: object) -> None:
        ctx = context()
        self._conn, send = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_child_main, args=(send, target, args), daemon=True
        )
        self._process.start()
        send.close()
        self.pid: Optional[int] = self._process.pid
        self._events: List[object] = []
        self._outcome: Optional[Outcome] = None
        self._eof = False

    def _receive(self) -> None:
        try:
            kind, payload = self._conn.recv()
        except (EOFError, OSError):
            self._eof = True
            return
        if kind == "event":
            self._events.append(payload)
        else:
            self._outcome = payload

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Collect what the child sent for up to *timeout* seconds
        (``None``: until it exits); ``True`` once it has exited."""
        end = None if timeout is None else time.monotonic() + timeout
        sentinel = self._process.sentinel
        while True:
            waitables = [sentinel] if self._eof else [self._conn, sentinel]
            remaining = None if end is None else max(0.0, end - time.monotonic())
            ready = multiprocessing.connection.wait(waitables, remaining)
            if self._conn in ready:
                self._receive()
            elif sentinel in ready:
                # Whatever it sent before exiting is still in the pipe.
                while not self._eof and self._conn.poll(0):
                    self._receive()
                self._process.join()
                self._conn.close()
                self._eof = True
                return True
            else:
                return False

    def events(self) -> List[object]:
        """Events received so far (each is returned once)."""
        events, self._events = self._events, []
        return events

    def outcome(self) -> Outcome:
        """The child's result or error, or how it died (after :meth:`wait`)."""
        if self._outcome is not None:
            return self._outcome
        return {"crashed": True, "exitcode": self._process.exitcode}

    def kill(self) -> None:
        """SIGTERM, a grace period, SIGKILL; always reaps the process."""
        kill_all([self])


def kill_all(children: Sequence[Child]) -> None:
    """Tear several children down with one shared grace period."""
    for child in children:
        if child._process.exitcode is None:
            child._process.terminate()
    end = time.monotonic() + KILL_GRACE_SECONDS
    for child in children:
        child._process.join(max(0.0, end - time.monotonic()))
    for child in children:
        if child._process.exitcode is None:
            child._process.kill()
            child._process.join()
        child._conn.close()
        child._eof = True


class ThreadChild:
    """:class:`Child`'s interface on a daemon thread (no fork)."""

    def __init__(self, target: Callable, *args: object) -> None:
        self._events: List[object] = []
        self._lock = threading.Lock()
        self._outcome: Optional[Outcome] = None

        def emit(event: object) -> None:
            with self._lock:
                self._events.append(event)

        def main() -> None:
            try:
                self._outcome = {"result": target(emit, *args)}
            except Exception as exc:
                self._outcome = {"error": f"{type(exc).__name__}: {exc}"}

        self._thread = threading.Thread(target=main, name="procs-child", daemon=True)
        self._thread.start()

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def events(self) -> List[object]:
        with self._lock:
            events, self._events = self._events, []
        return events

    def outcome(self) -> Outcome:
        if self._outcome is not None:
            return self._outcome
        return {"crashed": True, "exitcode": None}

    def kill(self) -> None:
        pass  # threads cannot be killed; the daemon thread is abandoned


# ----------------------------------------------------------------------
# The obs payload: what a child recorded, shipped home in one dict.

@dataclass(frozen=True)
class ObsMark:
    """Where the active collector, sink and process registry stood."""

    collector: Optional[obs_trace.ObsCollector]
    spans: Tuple[int, int]
    sink: Optional[obs_telemetry.TelemetrySink]
    heartbeats: int
    metrics: Dict[str, object]


def mark() -> ObsMark:
    """Mark the active collector, sink and process registry."""
    collector = obs_trace.active()
    sink = obs_telemetry.active()
    return ObsMark(
        collector=collector,
        spans=(0, 0) if collector is None else collector.mark(),
        sink=sink,
        heartbeats=0 if sink is None else sink.mark(),
        metrics=obs_metrics.process_metrics().snapshot(),
    )


def ship(since: ObsMark) -> Dict[str, object]:
    """Spans, heartbeats and the metrics delta recorded since *since*.

    Reads the collector and sink that were active at the mark, so a
    caller may uninstall them before shipping.
    """
    payload: Dict[str, object] = {"pid": os.getpid()}
    if since.collector is not None:
        payload.update(since.collector.batch_since(since.spans))
    if since.sink is not None:
        payload["heartbeats"] = since.sink.batch_since(since.heartbeats)
    payload["metrics"] = obs_metrics.diff_snapshots(
        obs_metrics.process_metrics().snapshot(), since.metrics
    )
    return payload


def absorb(payload: object) -> None:
    """Merge a shipped payload into the active collector, the active sink
    and the process registry.

    A payload from this very process (a :class:`ThreadChild`) is skipped:
    the thread recorded straight into the shared collector, sink and
    registry already.
    """
    if not isinstance(payload, dict) or payload.get("pid") == os.getpid():
        return
    collector = obs_trace.active()
    if collector is not None:
        collector.absorb(payload)
    sink = obs_telemetry.active()
    heartbeats = payload.get("heartbeats")
    if sink is not None and isinstance(heartbeats, list) and heartbeats:
        sink.absorb(heartbeats)
    metrics = payload.get("metrics")
    if isinstance(metrics, dict):
        obs_metrics.process_metrics().merge(metrics)
