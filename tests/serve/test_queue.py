"""Job queue: priority, coalescing, cancellation, crash recovery, caching.

Most tests drive the queue with the deterministic
:func:`repro.serve.queue._selftest_entry` double on thread children
(fast, no fork); the crash-recovery test uses real child processes
because killing the child is the point.
"""

import asyncio

import pytest

from repro.serve.cache import ResultCache
from repro.serve.queue import JobQueue, JobState, _selftest_entry

from serve_helpers import make_spec as spec


async def wait_terminal(queue, job, timeout=20.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not job.state.terminal and loop.time() < deadline:
        await queue.wait(job, since=job.version, timeout=deadline - loop.time())
    assert job.state.terminal, f"job stuck in {job.state} ({job.error})"
    return job


def run(coro):
    return asyncio.run(coro)


async def with_queue(body, **kwargs):
    kwargs.setdefault("entry", _selftest_entry)
    kwargs.setdefault("use_processes", False)
    queue = JobQueue(**kwargs)
    await queue.start()
    try:
        return await body(queue)
    finally:
        await queue.stop()


class TestScheduling:
    def test_submit_executes_and_records(self):
        async def body(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE
            assert job.record["detected_by"] == {"eddiv": True}
            assert job.record["cache_key"] == job.cache_key
            assert queue.executed == 1
            # The selftest entry emits one progress event.
            assert job.progress and job.progress[0]["verdict"] == "unsat"

        run(with_queue(body))

    def test_priority_order_single_worker(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.4__"))
            # Wait until the blocker actually occupies the only slot, so
            # the later submissions really contend on the heap.
            while blocker.state is JobState.QUEUED:
                await queue.wait(blocker, since=blocker.version, timeout=1.0)
            low = queue.submit(spec("__echo__", tag="low"), priority=0)
            high = queue.submit(spec("__echo__", tag="high"), priority=5)
            await wait_terminal(queue, low)
            await wait_terminal(queue, high)
            assert high.started_at < low.started_at

        run(with_queue(body))

    def test_cancel_queued_job(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.4__"))
            victim = queue.submit(spec("__echo__", tag="victim"))
            assert queue.cancel(victim.job_id) is True
            assert victim.state is JobState.CANCELLED
            await wait_terminal(queue, blocker)
            # Scheduler must skip the cancelled entry, not run it.
            await asyncio.sleep(0.05)
            assert victim.state is JobState.CANCELLED
            assert queue.executed == 1 and queue.cancelled == 1

        run(with_queue(body))

    def test_cancel_spares_coalesced_waiters(self):
        async def body(queue):
            blocker = queue.submit(spec("__sleep:0.4__"))
            shared = queue.submit(spec("__echo__", tag="shared"))
            twin = queue.submit(spec("__echo__", tag="shared"))
            assert twin is shared and shared.coalesced == 1
            # One waiter must not tear down the other's solve.
            assert queue.cancel(shared.job_id) is False
            assert shared.state is JobState.QUEUED
            assert shared.cancel_requested
            await wait_terminal(queue, blocker)
            await wait_terminal(queue, shared)
            assert shared.state is JobState.DONE

        run(with_queue(body))

    def test_cancel_running_is_best_effort(self):
        async def body(queue):
            job = queue.submit(spec("__sleep:0.3__"))
            while job.state is JobState.QUEUED:
                await queue.wait(job, since=job.version, timeout=1.0)
            assert queue.cancel(job.job_id) is False
            assert job.cancel_requested
            await wait_terminal(queue, job)
            assert job.state is JobState.DONE  # the solve still lands

        run(with_queue(body))

    def test_unknown_job_raises(self):
        async def body(queue):
            with pytest.raises(KeyError):
                queue.cancel("job-404")

        run(with_queue(body))


class TestCoalescing:
    def test_identical_inflight_specs_share_one_solve(self):
        async def body(queue):
            first = queue.submit(spec("__sleep:0.3__"))
            second = queue.submit(spec("__sleep:0.3__"))
            third = queue.submit(spec("__sleep:0.3__"))
            assert second is first and third is first
            assert first.coalesced == 2
            await wait_terminal(queue, first)
            assert queue.executed == 1
            assert queue.coalesced == 2
            assert queue.submitted == 3

        run(with_queue(body))

    def test_different_specs_do_not_coalesce(self):
        async def body(queue):
            a = queue.submit(spec("__echo__", tag="a"))
            b = queue.submit(spec("__echo__", tag="b"))
            assert a is not b
            await wait_terminal(queue, a)
            await wait_terminal(queue, b)
            assert queue.executed == 2

        run(with_queue(body, workers=2))


class TestCacheIntegration:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(str(tmp_path))

        async def body(queue):
            cold = queue.submit(spec())
            await wait_terminal(queue, cold)
            warm = queue.submit(spec())
            assert warm.state is JobState.DONE and warm.cache_hit
            assert warm.record["served_from_cache"] is True
            assert warm.record["cache_key"] == cold.cache_key
            assert queue.executed == 1 and queue.cache_hits == 1

        run(with_queue(body, cache=cache))

    def test_force_resolve_refreshes_nondefinitive_entries(self, tmp_path):
        """force=True bypasses the cache read; the fresh (definitive)
        result upgrades a non-definitive entry under the monotone rule."""
        cache = ResultCache(str(tmp_path))
        key = spec().cache_key()
        cache.put(
            key,
            {"bug_id": "__echo__", "qed_definitive": False},
            fingerprint="f" * 64,
            definitive=False,
        )

        async def body(queue):
            stale = queue.submit(spec())
            assert stale.cache_hit  # the non-definitive entry still serves
            fresh = queue.submit(spec(), force=True)
            assert not fresh.cache_hit
            await wait_terminal(queue, fresh)
            assert queue.executed == 1
            entry = cache.get(key)
            assert entry.definitive and entry.record["detected_by"]

        run(with_queue(body, cache=cache))
        assert cache.upgrades == 1

    def test_terminal_jobs_are_evicted_beyond_the_cap(self):
        async def body(queue):
            jobs = [
                queue.submit(spec("__echo__", index=i)) for i in range(5)
            ]
            for job in jobs:
                await wait_terminal(queue, job)
            # Cap is 3: the two oldest terminal views are gone, the rest
            # (and the stats counters) survive.
            assert len(queue.jobs) == 3
            assert jobs[0].job_id not in queue.jobs
            assert jobs[-1].job_id in queue.jobs
            assert queue.executed == 5

        run(with_queue(body, max_tracked_jobs=3))

    def test_cache_survives_queue_restart(self, tmp_path):
        directory = str(tmp_path)

        async def first(queue):
            job = queue.submit(spec())
            await wait_terminal(queue, job)

        async def second(queue):
            job = queue.submit(spec())
            assert job.cache_hit and job.state is JobState.DONE
            assert queue.executed == 0

        run(with_queue(first, cache=ResultCache(directory)))
        run(with_queue(second, cache=ResultCache(directory)))


class TestWorkerCrash:
    """A dying job child must FAIL the job, never hang the queue."""

    def test_crash_fails_job_then_pool_recovers(self):
        async def body(queue):
            doomed = queue.submit(spec("__crash__"))
            await wait_terminal(queue, doomed, timeout=60.0)
            assert doomed.state is JobState.FAILED
            assert "worker_crash" in doomed.error
            # The next job forks a fresh child and runs normally.
            healthy = queue.submit(spec("__echo__", tag="after"))
            await wait_terminal(queue, healthy, timeout=60.0)
            assert healthy.state is JobState.DONE
            assert queue.failed == 1 and queue.executed == 1

        run(with_queue(body, use_processes=True))

    def test_entry_exception_fails_job_without_breaking_pool(self):
        async def body(queue):
            bad = queue.submit(spec("__boom__"))
            await wait_terminal(queue, bad)
            assert bad.state is JobState.FAILED
            assert "RuntimeError" in bad.error
            # An ordinary exception (vs. a crash) leaves the queue usable:
            # a next job completes.
            after = queue.submit(spec("__echo__", tag="after-boom"))
            await wait_terminal(queue, after)
            assert after.state is JobState.DONE

        run(with_queue(body, entry=_raising_entry))


def _raising_entry(spec_dict, job_id="", progress=None):
    if spec_dict.get("bug_id") == "__boom__":
        raise RuntimeError("entry exploded")
    return _selftest_entry(spec_dict, job_id, progress)
