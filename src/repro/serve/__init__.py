"""Verification-as-a-service over the Symbolic QED campaign machinery.

The paper's industrial flow is a *service*: engineers launch per-block
Symbolic QED runs against design versions all day, and most queries repeat
-- same version, same focus set, same bound.  This package turns the
repository's campaign jobs into exactly that service: an async job queue
with a content-addressed result cache behind a small stdlib HTTP API, so
the second ask of any query is a cache lookup instead of a solve.

Architecture
============

::

    client / CLI (repro.serve.client, scripts/serve_qed.py)
        |  POST /jobs {bug_id | spec, deadline_seconds?}
        |  GET /jobs/<id>?wait= (long-poll, streams per-bound BoundStats)
        |  [transport error -> retry w/ capped, seed-jittered exponential
        v   backoff; safe: submissions are content-addressed / idempotent]
    +------------------ QEDServer (repro.serve.server) ------------------+
    |  stdlib asyncio HTTP: parse -> route; malformed input => 4xx on    |
    |  that connection only, the accept loop never dies                  |
    |  admission control: bounded queue depth + per-client token bucket  |
    |  (X-Client-Id) => 429 + Retry-After instead of unbounded backlog   |
    |  GET /healthz: readiness (cache writability, queue depth, fleet    |
    |  liveness) -- 503 while the cache is read-only / draining /        |
    |  fleet-only with no live remote worker                             |
    |  SIGTERM -> drain(): running solves finish (local AND leased       |
    |  remote), queued specs persist to queue_state.json, restored on    |
    |  the next start                                                    |
    +------+--------------------------------+-----------------------------+
           v                                | POST /fleet/* (remote pull)
    (local children)                        v
    +----------- FleetCoordinator + FleetWorker (repro.serve.fleet) ------+
    |  worker protocol: register -> lease(job, fence epoch, TTL) ->       |
    |  heartbeat (renews lease, ships telemetry/progress batches) ->      |
    |  complete {lease_id, fence, result | crashed | error}               |
    |                                                                     |
    |  lease / fence state machine (per job):                             |
    |      grant: fence += 1, lease ACTIVE, expires = now + TTL           |
    |      heartbeat: expires = now + TTL (healthy slow solves never      |
    |          expire); revoked lease answered "revoked" -> worker kills  |
    |          its child solve                                            |
    |      expiry (missed beats / dead worker): lease removed => token    |
    |          invalid, job requeued into the capped-backoff/quarantine   |
    |          machinery, reassignment counted                            |
    |      commit: accepted iff lease still ACTIVE and body.fence ==      |
    |          current epoch -- a paused-then-resumed zombie's late       |
    |          commit is fence-rejected, never double-applied             |
    |  failure detection: live -> suspect (2 missed beats) -> dead (4);   |
    |  any request from the worker revives it                            |
    +---------------------------+-----------------------------------------+
                                v  (remote commits join the SAME
                                    completion path as local solves)
    +------------------ JobQueue (repro.serve.queue) ---------------------+
    |  JobSpec.resolved().cache_key()   (repro.serve.keys: canonical      |
    |      version+fingerprint+mode+focus+bound+knobs -> SHA-256;         |
    |      deadlines/retries are NOT keyed -- submission, not semantics)  |
    |    |                                                                |
    |    |-- cache hit  -> DONE immediately (served_from_cache=True)      |
    |    |-- identical in-flight spec -> coalesce (N waiters, one solve)  |
    |    |-- quarantined spec (kept killing workers) -> fail fast,        |
    |    |       force=True clears                                        |
    |    '-- else: priority heap -> scheduler -> one repro.procs.Child    |
    |              per dispatch: detect_bug(...) with remaining deadline  |
    |              budget, on_bound streaming BoundStats back over the    |
    |              child's pipe; outcome -> complete / fail / requeue,    |
    |              the same methods a fleet commit uses; child crash =>   |
    |              retry with capped backoff, then quarantine (never a    |
    |              hung job); deadline expiry => honest non-definitive    |
    |              UNKNOWN                                                |
    +---------------------------+-----------------------------------------+
                                v
    +------------------ ResultCache (repro.serve.cache) ------------------+
    |  tier 1: in-memory LRU     tier 2: append-only JSON-lines log       |
    |  keys embed the design fingerprint (content, not version name)      |
    |  monotone upgrades: UNKNOWN-at-budget/-deadline may become          |
    |  definitive, never the reverse -- including across restarts (log    |
    |  replay); torn tails are healed at the next append                  |
    |      |  GET /cache/log?since=<offset> (raw byte ranges)             |
    |      v                                                              |
    |  CacheFollower (repro.serve.fleet): byte-mirrors the append-only    |
    |  log onto a standby, which replays it and serves warm hits after    |
    |  primary loss (torn tails skipped, healed on the next sync)         |
    +----------------------------------------------------------------------+

Deployment shapes: :class:`~repro.serve.server.LocalServer` runs the whole
stack on a background thread in-process (tests, quickstart, CLI spawn
mode); ``scripts/serve_qed.py serve`` runs it standalone, and
``scripts/serve_qed.py worker --server URL`` joins its fleet from another
host.  The invariant that matters: a definitive verdict is byte-identical
whether the solve ran locally, remotely, or survived any schedule of
worker kills, partitions and zombie commits -- fault tolerance changes
*when* the answer arrives, never *what* it is.  Exercised by the seeded
chaos harness (:mod:`repro.faults` driving ``tests/chaos``, including the
network-boundary sites) and ``scripts/loadgen_qed.py`` for the admission
path.
"""

from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.client import (
    JobView,
    ServeClient,
    ServeError,
    run_campaign_via_server,
)
from repro.serve.fleet import (
    AdmissionController,
    CacheFollower,
    FleetCoordinator,
    FleetWorker,
)
from repro.serve.keys import JobSpec
from repro.serve.queue import (
    Job,
    JobQueue,
    JobState,
    QueueDraining,
    QueueFull,
    execute_job_spec,
)
from repro.serve.server import LocalServer, QEDServer

__all__ = [
    "AdmissionController",
    "CacheEntry",
    "CacheFollower",
    "FleetCoordinator",
    "FleetWorker",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JobView",
    "LocalServer",
    "QEDServer",
    "QueueDraining",
    "QueueFull",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "execute_job_spec",
    "run_campaign_via_server",
]
