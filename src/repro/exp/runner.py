"""The batch experiment engine: fan jobs over worker processes.

:class:`ParallelRunner` takes a list of :class:`~repro.exp.jobspec.JobSpec`
and returns one :class:`JobResult` per spec **in submission order**,
regardless of how many worker processes computed them or in which order
they finished.  Each result carries wall-clock seconds, a cached flag,
the attempt count and, for failed jobs, a structured :class:`JobError`
(exception type, message, traceback, and whether the failure was a task
error, a timeout or a worker crash) -- one bad sweep point never takes
down the batch.

Execution modes
---------------
One scheduler, the supervised worker pool of :mod:`repro.exp.pool`,
runs every batch that needs worker processes; ``pool=`` (or
``REPRO_POOL``) picks how it treats its workers.  Both modes produce
bit-identical results:

``"persistent"`` (default)
    Long-lived warm workers shared across batches through a
    module-level pool handle, small jobs chunked per dispatch to
    amortize IPC, and large result arrays moved through
    ``multiprocessing.shared_memory`` instead of the pipe.

``"per-job"``
    The supervised pool with one job per worker: a private pool,
    spawned for the batch and never shared, dispatches one job at a
    time and retires each worker after its single attempt, so a job
    that leaks memory, mutates globals or calls ``os._exit`` can never
    carry state into another job.

In both modes a worker that crashes or overruns a deadline is killed
and replaced by the supervisor (the rest of a persistent worker's
chunk is re-queued without consuming retry attempts); a per-job
``timeout_s`` (on the spec, on the runner, or via
``REPRO_JOB_TIMEOUT``) reports ``error.kind == "timeout"``; a dead
worker yields ``error.kind == "crash"``; ``JobSpec.retries`` re-runs a
failed job with exponential backoff before giving up.

Checkpointing
-------------
Cache lookups happen in the parent before any work is dispatched, so a
warm cache never spawns a worker at all; each completed result is
written back **as it finishes**, so an interrupted sweep resumes from
the cache on the next run instead of recomputing finished points.

Every batch and job is traced through :mod:`repro.obs`: the parent
records ``exp.batch`` / ``exp.job`` spans and grafts the spans each
worker produced (flow stages, annealing, routing) under its job.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from .. import obs
from ..api.config import (ENV_CACHE_DIR, POOL_MODES, POOL_PER_JOB,
                          POOL_PERSISTENT, Config)
from .cache import NullCache, ResultCache
from .jobspec import JobSpec

__all__ = ["JobError", "JobFailedError", "JobResult", "ParallelRunner",
           "POOL_PERSISTENT", "POOL_PER_JOB", "default_runner"]

#: Chunking bounds for the persistent pool: never group more than this
#: many jobs per dispatch, and aim for this many chunks per worker so
#: stragglers still load-balance.
CHUNK_MAX = 32
CHUNK_OVERSUBSCRIBE = 4


@dataclass(frozen=True)
class JobError:
    """Structured failure record: what failed, and how.

    ``kind`` distinguishes the three failure classes callers react to
    differently: ``"error"`` (the task raised), ``"timeout"`` (the
    worker exceeded its deadline and was terminated) and ``"crash"``
    (the worker process died without reporting -- killed, OOM'd or
    ``os._exit``).
    """

    exc_type: str
    message: str
    traceback: str = ""
    kind: str = "error"

    def __str__(self) -> str:
        return self.traceback or f"{self.exc_type}: {self.message}"

    @property
    def is_timeout(self) -> bool:
        return self.kind == "timeout"

    @property
    def is_crash(self) -> bool:
        return self.kind == "crash"


class JobFailedError(RuntimeError):
    """Raised by :meth:`JobResult.unwrap`; carries the failed result."""

    def __init__(self, result: "JobResult"):
        self.result = result
        self.error = result.error
        super().__init__(
            f"job {result.spec} failed after {result.attempts} "
            f"attempt(s) [{result.error.kind}: "
            f"{result.error.exc_type}]:\n{result.error}")


@dataclass
class JobResult:
    """Outcome of one job: value or captured failure, plus accounting."""

    spec: JobSpec
    key: str
    value: Any = None
    seconds: float = 0.0
    cached: bool = False
    error: JobError | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        if self.error is not None:
            raise JobFailedError(self)
        return self.value


def _execute_spec(spec: JobSpec) -> tuple[Any, float, JobError | None]:
    """Run one job; never raises (top-level so workers can pickle it)."""
    from . import tasks  # late import: breaks import cycles, and under
    # spawn it (re)populates the registry inside the worker process
    t0 = time.perf_counter()
    try:
        value = tasks.execute(spec)
        return value, time.perf_counter() - t0, None
    except Exception as exc:
        err = JobError(exc_type=type(exc).__name__, message=str(exc),
                       traceback=traceback.format_exc())
        return None, time.perf_counter() - t0, err


@dataclass(frozen=True)
class _WorkerSettings:
    """Observability state a worker must replicate, start-method safe.

    Forked workers inherit module globals, but ``spawn`` workers import
    :mod:`repro` afresh and would silently fall back to defaults --
    dropping spans when the parent enabled tracing programmatically and
    losing ``REPRO_*`` knobs set after interpreter start.  The parent
    snapshots its state here and the child applies it first thing, so
    worker spans and metrics are never dropped by the start method.
    """

    trace_enabled: bool = True
    env: dict[str, str] | None = None

    #: Environment knobs snapshotted into every worker.
    FORWARDED = (obs.ENV_TRACE, obs.ENV_RUN_DB, ENV_CACHE_DIR,
                 obs.live.ENV_TELEMETRY, obs.live.ENV_HB_INTERVAL)

    @classmethod
    def snapshot(cls) -> "_WorkerSettings":
        return cls(trace_enabled=obs.enabled(),
                   env={k: os.environ[k] for k in cls.FORWARDED
                        if k in os.environ})

    def apply(self) -> None:
        """Make the worker's state match the snapshot exactly.

        Forwarded keys are overwritten (and removed when absent from
        the snapshot) rather than defaulted: a persistent pool worker
        outlives many batches, so leftovers from an earlier batch must
        not shadow the parent's current environment.
        """
        obs.set_enabled(self.trace_enabled)
        env = self.env or {}
        for k in self.FORWARDED:
            if k in env:
                os.environ[k] = env[k]
            else:
                os.environ.pop(k, None)


@dataclass
class _Pending:
    """A job attempt waiting for a worker slot."""

    index: int
    attempt: int
    ready_at: float     # monotonic time before which it must not start


class ParallelRunner:
    """Run independent jobs over worker processes with result caching.

    ``jobs``          concurrent workers; ``<= 0`` means ``os.cpu_count()``.
    ``cache``         a :class:`ResultCache` to share, or ``None`` to build
                      one from ``use_cache`` (``NullCache`` when false).
    ``code_version``  override the package digest in cache keys (tests).
    ``timeout_s``     default per-job timeout for specs that set none;
                      ``None`` means unlimited.
    ``backoff_s``     base of the exponential retry backoff: attempt
                      ``n`` waits ``backoff_s * 2**(n-1)`` before
                      re-running.
    ``start_method``  multiprocessing start method for worker processes
                      (``"fork"``, ``"spawn"``, ``"forkserver"``);
                      ``None`` uses the platform default.  Observability
                      state is forwarded explicitly (see
                      :class:`_WorkerSettings`), so spans and metrics
                      survive any start method.
    ``pool``          pool mode: ``"persistent"`` (warm shared pool,
                      the default) or ``"per-job"`` (one job per
                      worker, a fresh process per attempt).  An
                      unrecognized argument raises.
    ``chunk``         jobs grouped per pool dispatch; ``None`` sizes
                      chunks automatically from the batch (``1``
                      disables chunking; per-job mode always uses 1).

    ``timeout_s``, ``pool`` and ``chunk`` left at ``None`` fall back to
    :meth:`repro.api.Config.from_env` (``REPRO_JOB_TIMEOUT``,
    ``REPRO_POOL``, ``REPRO_CHUNK``).  Execution is inline (in-process)
    only when ``jobs == 1`` and no job has a timeout; otherwise the
    pool keeps crashes and timeouts isolated in worker processes.
    """

    def __init__(self, jobs: int = 1, *,
                 cache: ResultCache | None = None,
                 use_cache: bool = True,
                 code_version: str | None = None,
                 timeout_s: float | None = None,
                 backoff_s: float = 0.25,
                 start_method: str | None = None,
                 pool: str | None = None,
                 chunk: int | None = None):
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        if cache is None:
            cache = ResultCache() if use_cache else NullCache()
        self.cache = cache
        self.code_version = code_version
        env = Config.from_env()
        if timeout_s is None:
            timeout_s = env.job_timeout_s
        # Non-positive means "no timeout" (an explicit 0 lets callers
        # disable a timeout without consulting the environment).
        if timeout_s is not None and timeout_s <= 0:
            timeout_s = None
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s
        self.start_method = start_method
        if pool is None:
            pool = env.pool
        elif pool not in POOL_MODES:
            raise ValueError(
                f"pool must be one of {POOL_MODES}, got {pool!r}")
        self.pool = pool
        if chunk is None:
            chunk = env.chunk
        # As with timeout_s: non-positive always means automatic.
        if chunk is not None and chunk <= 0:
            chunk = None
        self.chunk = chunk

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Execute all jobs; results align one-to-one with ``specs``."""
        keys = [spec.key(self.code_version) for spec in specs]
        results: list[JobResult | None] = [None] * len(specs)
        lru_hits_before = getattr(self.cache, "lru_hits", 0)

        with obs.span("exp.batch", n_jobs=len(specs),
                      workers=self.jobs) as bsp:
            pending: list[int] = []
            for i, (spec, key) in enumerate(zip(specs, keys)):
                hit, value = self.cache.get(key)
                if hit:
                    results[i] = JobResult(spec=spec, key=key,
                                           value=value, cached=True)
                    obs.emit("exp.job", kind=spec.kind, cached=True,
                             outcome="cached")
                else:
                    pending.append(i)

            hub = obs.live.session_hub()
            if hub is not None:
                hub.batch_started(len(specs), workers=self.jobs,
                                  cached=len(specs) - len(pending))
            try:
                if pending:
                    inline = (self.jobs == 1
                              and all(self._timeout_for(specs[i]) is None
                                      for i in pending))
                    if inline:
                        for i in pending:
                            results[i] = self._run_inline(specs[i],
                                                          keys[i], hub)
                    else:
                        self._run_persistent(specs, keys, results,
                                             pending, hub)
            finally:
                if hub is not None:
                    hub.batch_finished()

            bsp.set_attr(
                cache_hits=len(specs) - len(pending),
                failures=sum(1 for r in results
                             if r is not None and not r.ok))
        ms = obs.metrics.metric_set()
        ms.counter("exp.jobs", len(specs))
        ms.counter("exp.cache_hits", len(specs) - len(pending))
        lru_delta = getattr(self.cache, "lru_hits", 0) - lru_hits_before
        if lru_delta > 0:
            ms.counter("exp.cache.lru_hits", lru_delta)
        for r in results:
            if r is None:
                continue
            if not r.ok:
                ms.counter("exp.failures")
            if r.attempts > 1:
                ms.counter("exp.retries", r.attempts - 1)
            if not r.cached:
                ms.dist("exp.job_seconds", r.seconds)
        return results  # type: ignore[return-value]

    def run_values(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Like :meth:`run` but unwraps values, raising on any failure."""
        return [r.unwrap() for r in self.run(specs)]

    # -- policy helpers -------------------------------------------------
    def _timeout_for(self, spec: JobSpec) -> float | None:
        return spec.timeout_s if spec.timeout_s is not None \
            else self.timeout_s

    def _backoff(self, failed_attempt: int) -> float:
        return self.backoff_s * (2 ** (failed_attempt - 1))

    # -- inline path (serial, no timeouts) ------------------------------
    def _run_inline(self, spec: JobSpec, key: str, hub) -> JobResult:
        attempt = 0
        while True:
            attempt += 1
            with obs.span("exp.job", kind=spec.kind,
                          attempt=attempt) as sp:
                value, seconds, err = _execute_spec(spec)
                sp.set_attr(outcome="ok" if err is None else err.kind)
            if err is None or attempt > spec.retries:
                break
            if hub is not None:
                hub.job_retried(spec.kind)
            backoff = self._backoff(attempt)
            obs.metrics.metric_set().dist("exp.retry_wait_s", backoff)
            time.sleep(backoff)
        if err is None:
            self.cache.put(key, value)
        if hub is not None:
            hub.job_finished(spec.kind, err is None, seconds)
        return JobResult(spec=spec, key=key, value=value,
                         seconds=seconds, error=err, attempts=attempt)

    # -- persistent-pool path (warm workers, chunked dispatch) ----------
    def _chunk_target(self, n_pending: int) -> int:
        """Jobs per dispatch: explicit ``chunk``, else batch-derived so
        each worker sees ~``CHUNK_OVERSUBSCRIBE`` chunks (stragglers can
        still load-balance), capped at ``CHUNK_MAX``."""
        if self.chunk is not None:
            return max(1, self.chunk)
        per_worker = max(1, self.jobs) * CHUNK_OVERSUBSCRIBE
        return max(1, min(CHUNK_MAX, -(-n_pending // per_worker)))

    def _run_persistent(self, specs: Sequence[JobSpec],
                        keys: Sequence[str],
                        results: list[JobResult | None],
                        pending_idx: list[int], hub) -> None:
        """Schedule the batch over the supervised worker pool.

        Submission-order results, per-job timeouts/retries, crash
        isolation, as-they-finish cache writes and span/metric grafting
        hold in both pool modes; one streamed message per job comes
        back, so a chunk never delays its siblings' results.  The head
        of a worker's chunk is the job actually executing; when the
        worker dies or overruns that job's deadline, only the head is
        charged with the failure -- the rest of the chunk never started
        and is re-queued with its attempt count untouched.

        Persistent mode uses the shared warm pool and chunked dispatch.
        Per-job mode builds a private pool for this batch, dispatches
        one job per worker and retires every worker after the job it
        served, topping the pool up with fresh workers as jobs become
        ready.
        """
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait
        from . import pool as pool_mod

        ms = obs.metrics.metric_set()
        spawned_before = pool_mod.spawn_count()
        per_job = self.pool == POOL_PER_JOB
        if per_job:
            pl = pool_mod.PersistentPool(
                min(self.jobs, len(pending_idx)),
                mp.get_context(self.start_method))
            chunk_target = 1
        else:
            pl = pool_mod.get_pool(self.jobs, self.start_method)
            chunk_target = self._chunk_target(len(pending_idx))
        settings = _WorkerSettings.snapshot()
        queue: deque[_Pending] = deque(
            _Pending(i, 1, 0.0) for i in pending_idx)
        ms.gauge("exp.pool.workers", len(pl.workers))
        stalled_prev: list[int] | None = None
        if hub is not None:
            hub.attach(pl.telemetry)

        def finalize(item: _Pending, value: Any, seconds: float,
                     err: JobError | None, spans: list | None = None,
                     metric_rows: list | None = None) -> None:
            spec = specs[item.index]
            if err is not None and item.attempt <= spec.retries:
                obs.emit("exp.job", seconds=seconds, kind=spec.kind,
                         attempt=item.attempt,
                         outcome=f"retry:{err.kind}")
                if hub is not None:
                    hub.job_retried(spec.kind)
                backoff = self._backoff(item.attempt)
                ms.dist("exp.retry_wait_s", backoff)
                queue.append(_Pending(item.index, item.attempt + 1,
                                      time.monotonic() + backoff))
                return
            results[item.index] = JobResult(
                spec=spec, key=keys[item.index], value=value,
                seconds=seconds, error=err, attempts=item.attempt)
            if hub is not None:
                hub.job_finished(spec.kind, err is None, seconds)
            job_id = obs.emit(
                "exp.job", seconds=seconds, kind=spec.kind,
                attempt=item.attempt,
                outcome="ok" if err is None else err.kind)
            if spans:
                obs.adopt(spans, parent_id=job_id)
            if err is None:
                if metric_rows:
                    ms.merge(metric_rows)
                self.cache.put(keys[item.index], value)

        def fail_head(w, kind: str) -> None:
            """Charge the executing job; re-queue the rest of the chunk."""
            head = w.inflight.popleft()
            rest = list(w.inflight)
            w.inflight.clear()
            for item in reversed(rest):
                queue.appendleft(item)
            elapsed = time.monotonic() - w.job_started_at
            if kind == "timeout":
                t = self._timeout_for(specs[head.index])
                err = JobError(exc_type="TimeoutError",
                               message=f"job exceeded timeout of {t}s",
                               kind="timeout")
            else:
                err = JobError(
                    exc_type="WorkerCrashed",
                    message=(f"pooled worker exited with code "
                             f"{w.proc.exitcode} before returning "
                             f"a result"),
                    kind="crash")
            finalize(head, None, elapsed, err)
            recycle(w, force=True)

        def on_broken(w) -> None:
            if w.inflight:
                fail_head(w, "crash")
            else:
                recycle(w, force=True)

        def recycle(w, *, force: bool) -> None:
            """Take ``w`` out of service: a persistent worker is
            replaced in place, a per-job worker retired for good."""
            if per_job:
                if w.served:
                    ms.dist("exp.pool.reuse", w.served)
                pl.retire(w, force=force)
            else:
                pl.replace(w)
            if hub is not None:
                # Fold the stopped worker's last queued beats first, or
                # they would re-register it after it is forgotten.
                hub.drain()
                hub.forget_worker(w.proc.pid)

        def on_message(w, msg) -> None:
            if msg[0] == "ack":
                ms.dist("exp.pool.dispatch_s",
                        max(0.0, msg[1] - w.sent_at))
                w.job_started_at = msg[1]
                return
            _, value, seconds, err, spans, metric_rows, _shm = msg
            item = w.inflight.popleft()
            w.served += 1
            w.job_started_at = time.monotonic()
            if err is None:
                try:
                    value, nbytes = pool_mod.decode_value(value)
                except Exception as exc:
                    value, err = None, JobError(
                        exc_type=type(exc).__name__,
                        message=("shared-memory result decode "
                                 f"failed: {exc}"),
                        traceback=traceback.format_exc())
                else:
                    if nbytes:
                        ms.counter("exp.pool.shm_bytes", nbytes)
            finalize(item, value, seconds, err, spans, metric_rows)
            if per_job:
                recycle(w, force=False)

        def deadline(w) -> float | None:
            if not w.inflight:
                return None
            t = self._timeout_for(specs[w.inflight[0].index])
            return None if t is None else w.job_started_at + t

        try:
            while queue or any(w.inflight for w in pl.workers):
                now = time.monotonic()
                if queue:
                    # Dispatch chunks to idle workers.  A non-chunkable
                    # spec (e.g. an already-batched tensor job) travels
                    # alone so its runtime never hides siblings.
                    ready = deque(p for p in queue if p.ready_at <= now)
                    if per_job:
                        idle = sum(1 for w in pl.workers if not w.inflight)
                        for _ in range(min(len(ready) - idle,
                                           self.jobs - len(pl.workers))):
                            pl.add_worker()
                    for w in list(pl.workers):
                        if not ready:
                            break
                        if w.inflight:
                            continue
                        take: list[_Pending] = []
                        while ready and len(take) < chunk_target:
                            if take and not specs[ready[0].index].chunkable:
                                break
                            take.append(ready.popleft())
                            if not specs[take[-1].index].chunkable:
                                break
                        for item in take:
                            queue.remove(item)
                        try:
                            pl.dispatch(w, settings,
                                        [specs[p.index] for p in take])
                        except Exception:
                            for item in reversed(take):
                                queue.appendleft(item)
                            recycle(w, force=True)
                            continue
                        w.inflight.extend(take)
                        w.sent_at = now
                        w.job_started_at = now
                        ms.dist("exp.pool.chunk_size", len(take))
                busy = [w for w in pl.workers if w.inflight]
                if hub is not None:
                    # Queue depth counts undispatched jobs plus the tail of
                    # each worker's chunk (only the chunk head executes).
                    hub.progress(
                        len(queue) + sum(len(w.inflight) - 1 for w in busy),
                        len(busy))
                if not busy:
                    if not queue:
                        break
                    # Only backoff-delayed retries remain: sleep until the
                    # soonest becomes ready.
                    wake = min(p.ready_at for p in queue)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue
                now = time.monotonic()
                waits = [d - now for w in busy
                         if (d := deadline(w)) is not None]
                waits += [p.ready_at - now for p in queue
                          if p.ready_at > now]
                timeout = max(0.0, min(waits)) if waits else None
                if hub is not None:
                    # Wake at heartbeat granularity so a hung worker is
                    # noticed (and the stalled gauge raised) well before
                    # any job timeout fires -- or when there is none.
                    cap = 2.0 * hub.hb_interval_s
                    timeout = cap if timeout is None else min(timeout, cap)
                ready_conns = conn_wait([w.conn for w in busy], timeout)
                for w in busy:
                    if w.conn not in ready_conns:
                        continue
                    try:
                        while w.inflight and w.conn.poll():
                            on_message(w, w.conn.recv())
                    except (EOFError, OSError):
                        on_broken(w)
                now = time.monotonic()
                for w in list(pl.workers):
                    d = deadline(w)
                    if d is None or d > now:
                        continue
                    # Drain any result that raced the deadline before
                    # declaring the timeout.
                    try:
                        while w.inflight and w.conn.poll():
                            on_message(w, w.conn.recv())
                    except (EOFError, OSError):
                        on_broken(w)
                        continue
                    d = deadline(w)
                    if d is not None and d <= now:
                        fail_head(w, "timeout")
                if hub is not None:
                    stalled = hub.stalled_pids()
                    if stalled != stalled_prev:
                        ms.gauge("exp.pool.stalled", len(stalled))
                        stalled_prev = stalled

        finally:
            if per_job:
                if hub is not None:
                    hub.detach(pl.telemetry)
                pl.close()
        for w in pl.workers:
            if w.served:
                ms.dist("exp.pool.reuse", w.served)
        spawned = pool_mod.spawn_count() - spawned_before
        if spawned:
            ms.counter("exp.pool.spawns", spawned)


def default_runner() -> ParallelRunner:
    """Runner configured from the environment (``REPRO_JOBS``,
    ``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``, ``REPRO_JOB_TIMEOUT``,
    ``REPRO_POOL``, ``REPRO_CHUNK``; see :class:`repro.api.Config`).

    Invalid values fall back to the defaults rather than raising, so a
    stray environment variable can never break a batch.
    """
    return Config.from_env().runner()
