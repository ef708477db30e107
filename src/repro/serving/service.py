"""A multi-tenant detection service over a pool of worker processes.

This is the serving front door the paper's deployment story implies
(Section V-I: the detector guards the ASR on the request path of a
voice assistant).  A :class:`DetectionService` owns

* one detection pipeline per *tenant* — a named
  :class:`~repro.specs.DetectorSpec` manifest, so different products
  can run different suites behind one service;
* a pool of ``workers`` forked worker processes, each holding every
  tenant's pipeline (built once in the parent, inherited by fork — the
  detectors are deliberately never pickled);
* an admission-controlled request queue: once ``queue_depth`` requests
  are in the house, new submissions are *shed* with a typed
  ``rejected``/429 result instead of queuing without bound;
* a per-request deadline: requests that expire in the queue or inside
  a worker resolve to a typed ``timeout``/504 result, and a worker
  stuck past a deadline is terminated and respawned;
* crash recovery: a worker that dies mid-batch is respawned and its
  in-flight requests are retried **once** on another worker — a second
  death resolves them to typed ``error``/500 results.

Every submission resolves — to a verdict or to a typed failure; the
service never hangs a caller and never lets a worker exception
propagate.  :meth:`DetectionService.submit` returns a
:class:`concurrent.futures.Future`; :meth:`DetectionService.asubmit`
awaits the same future on an asyncio loop, which is what ``repro
serve`` drives.

Workers share on-disk caches through the concurrency-safe stores in
:mod:`repro.store` (append-only journals for transcriptions and pair
scores, a content-addressed directory for feature matrices) when the
service is given a ``cache_dir`` — every worker write-throughs its
entries and merges the others' before each batch, so a clip
transcribed by worker 1 is a cache hit on worker 2.

Fork, not spawn, is a hard requirement: detectors hold thread locks
and unpicklable component graphs.  The pool is forked from
:meth:`start` before the service's own threads exist; respawned
workers get a *fresh* task queue and a *fresh* result pipe.  Results
travel over one :func:`multiprocessing.Pipe` per worker, never a
shared queue: a shared queue's write lock is a cross-process
semaphore, and a worker SIGKILL'd inside it would wedge every other
worker's result path forever.  With per-worker pipes a dead worker
can only poison its own channel, which the collector observes as a
clean EOF and retires.

The audio data plane between the dispatcher and the pool is selected
by ``transport``: ``"shm"`` (the default) writes each clip's samples
once into a :class:`~repro.serving.arena.ShmArena` created before the
fork and ships only ``(slot, offset, shape, dtype, generation)``
descriptors through the task queues — a retry re-dispatches the same
descriptor with zero extra copies, slots are reclaimed exactly when
their request resolves (crashed or not), and the arena segment is
always unlinked on :meth:`stop`; ``"pickle"`` ships the full sample
arrays through the queues (the pre-arena behaviour, kept as the
fallback for platforms without POSIX shared memory).  Both transports
are bit-identical to each other and to the sequential path — pinned by
``tests/test_serving_concurrency.py``.
"""

from __future__ import annotations

import itertools
import json
import logging
import multiprocessing
import multiprocessing.connection
import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.audio.waveform import Waveform
from repro.serving.arena import (
    DESCRIPTOR_NBYTES,
    ArenaError,
    ShmArena,
    ShmClip,
    restore_waveform,
    share_waveform,
)

logger = logging.getLogger(__name__)

#: Typed outcome statuses, with their HTTP-flavoured codes.
STATUS_CODES = {"ok": 200, "rejected": 429, "timeout": 504, "error": 500}

#: Valid ``transport`` values (mirrors ``repro.specs.SERVE_TRANSPORTS``).
TRANSPORTS = ("shm", "pickle")


@dataclass(frozen=True)
class ServeResult:
    """The typed outcome of one served detection request.

    Attributes:
        status: ``"ok"`` (verdict inside), ``"rejected"`` (shed at
            admission — the queue was full), ``"timeout"`` (deadline
            expired in the queue or inside a worker) or ``"error"``
            (unknown tenant, worker exception, or a request whose
            worker died twice).
        code: HTTP-flavoured numeric code — 200, 429, 504, 500 (404
            for an unknown tenant).
        tenant: the tenant the request addressed.
        request_id: caller-supplied or generated label.
        is_adversarial: the verdict (``None`` unless ``status == "ok"``).
        scores: per-auxiliary similarity scores as a tuple of floats
            (``None`` unless ``status == "ok"``).
        target_transcription: what the tenant's target ASR heard.
        detail: human-readable failure detail (empty when ok).
        queue_seconds: time from submission to worker dispatch.
        total_seconds: time from submission to resolution.
        worker_id: the worker that answered (``-1`` when none did).
        retried: whether the request was retried after a worker crash.
    """

    status: str
    code: int
    tenant: str
    request_id: str
    is_adversarial: bool | None = None
    scores: tuple[float, ...] | None = None
    target_transcription: str | None = None
    detail: str = ""
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    worker_id: int = -1
    retried: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServiceStats:
    """Counters of one :class:`DetectionService`'s lifetime.

    ``ipc_bytes_out`` approximates the audio payload bytes shipped
    through the task queues (full sample arrays under the pickle
    transport, constant-size descriptors under shm, counted per
    dispatch including retries); ``ipc_bytes_in`` approximates the
    result payload bytes shipped back.  ``requests_retried`` counts the
    distinct requests that were ever retried after a worker crash
    (``retries`` counts retry *events*; they coincide under the
    retry-once policy).  ``cache_refresh_failures`` counts the results
    whose worker failed to merge the shared caches before serving their
    batch (the batch is still served; the worker logs a warning).
    ``batch_fallbacks`` counts the results that were detected one
    request at a time because their tenant batch's ``detect_batch``
    raised (the worker logs a warning naming the tenant, the batch size
    and the exception).  ``collector_failures`` counts the times the
    result collector died on a pipe error while the service was running
    (it logs an error naming the exception, every outstanding request
    resolves as a 500 naming the failure, and so does every request
    submitted after it).
    """

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    timeouts: int = 0
    errors: int = 0
    retries: int = 0
    requests_retried: int = 0
    respawns: int = 0
    ipc_bytes_out: int = 0
    ipc_bytes_in: int = 0
    cache_refresh_failures: int = 0
    batch_fallbacks: int = 0
    collector_failures: int = 0

    def snapshot(self) -> "ServiceStats":
        return replace(self)


@dataclass
class _Request:
    """Parent-side state of one in-house request (internal)."""

    key: int
    tenant: str
    request_id: str
    audio: Waveform
    future: Future
    submitted_at: float
    deadline: float | None
    dispatched_at: float | None = None
    worker_id: int = -1
    retried: bool = False
    #: Arena-resident samples (shm transport): written at first
    #: dispatch, reused verbatim on a crash retry, freed at resolution.
    shm_clip: ShmClip | None = None


def _refresh_shared_caches(pipelines: Mapping[str, Any]) -> None:
    """Merge journal entries other workers appended since the last look."""
    seen: set[int] = set()
    for pipeline in pipelines.values():
        detector = pipeline.detector
        for cache in (detector.engine.cache, detector.scoring.cache):
            if cache is not None and id(cache) not in seen:
                seen.add(id(cache))
                cache.refresh()


def _detect_one(pipeline, audio: Waveform) -> dict:
    result = pipeline.detect(audio)
    return {
        "ok": True,
        "is_adversarial": bool(result.is_adversarial),
        "scores": [float(s) for s in result.scores],
        "target_transcription": result.target_transcription,
    }


def _materialise(arena: ShmArena | None, payload) -> Waveform:
    """Turn a task payload back into a waveform.

    A :class:`ShmClip` becomes a zero-copy read-only view over the
    fork-inherited arena pages; anything else travelled by value.
    Raises :class:`~repro.serving.arena.ArenaError` (``StaleSlot``) when
    the descriptor's slot was reclaimed — the caller converts that into
    a typed error rather than reading reused bytes.
    """
    if isinstance(payload, ShmClip):
        if arena is None:
            raise ArenaError("shm payload but worker has no arena")
        return restore_waveform(arena, payload)
    return payload


def _post_result(result_conn, item) -> None:
    """Send one result over the worker's pipe; drop it if the parent
    has already closed its end (the service is stopping — nobody will
    read the answer, and dying on EPIPE would look like a crash)."""
    try:
        result_conn.send(item)
    except (BrokenPipeError, OSError):
        pass


def _worker_main(worker_id: int, pipelines: Mapping[str, Any],
                 task_q, result_conn, max_batch_size: int,
                 shared_caches: bool, arena: ShmArena | None = None) -> None:
    """Worker loop: drain a micro-batch, detect per tenant, post results.

    Tasks are ``(key, tenant, payload)`` tuples — the payload is a
    :class:`~repro.audio.waveform.Waveform` (pickle transport) or a
    :class:`~repro.serving.arena.ShmClip` descriptor (shm transport);
    ``None`` is the shutdown sentinel.  Results go back over this
    worker's private ``result_conn`` pipe end.  Requests of the same
    tenant within one drain are detected with one ``detect_batch``
    call (amortised classifier overhead); an exception during the
    batch falls back to per-request detection so one poisoned clip
    cannot fail its batchmates.
    """
    # A parent that already served requests forked live thread pools
    # into this child; their threads do not exist here, so any engine
    # still holding one would queue work nothing will ever run.
    for pipeline in pipelines.values():
        engine = getattr(getattr(pipeline, "detector", None), "engine", None)
        if engine is not None and hasattr(engine, "reset_after_fork"):
            engine.reset_after_fork()
    while True:
        task = task_q.get()
        if task is None:
            return
        batch = [task]
        while len(batch) < max_batch_size:
            try:
                extra = task_q.get_nowait()
            except queue.Empty:
                break
            if extra is None:
                _run_batch(worker_id, pipelines, batch, result_conn,
                           shared_caches, arena)
                return
            batch.append(extra)
        _run_batch(worker_id, pipelines, batch, result_conn, shared_caches,
                   arena)


def _run_batch(worker_id: int, pipelines, batch, result_conn,
               shared_caches: bool, arena: ShmArena | None = None) -> None:
    refresh_failed = False
    if shared_caches:
        try:
            _refresh_shared_caches(pipelines)
        except Exception as exc:
            # A torn refresh must never take down the batch: serve it
            # from this worker's own cache entries and flag its results.
            refresh_failed = True
            logger.warning("worker %d: shared-cache refresh failed (%s: %s);"
                           " serving the batch without other workers'"
                           " entries", worker_id, type(exc).__name__, exc,
                           exc_info=True)

    def post(key: int, payload: dict) -> None:
        if refresh_failed:
            payload["cache_refresh_failed"] = True
        _post_result(result_conn, (worker_id, key, payload))

    by_tenant: dict[str, list] = {}
    for key, tenant, payload in batch:
        try:
            audio = _materialise(arena, payload)
        except ArenaError as exc:
            # A stale/unreadable descriptor must not poison the batch:
            # answer this request with a typed error and keep going.
            post(key, {"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            continue
        by_tenant.setdefault(tenant, []).append((key, audio))
    for tenant, items in by_tenant.items():
        pipeline = pipelines[tenant]
        payloads: list[tuple[int, dict]] = []
        try:
            outcome = pipeline.detect_batch([audio for _, audio in items])
            for (key, _), result in zip(items, outcome.results):
                payloads.append((key, {
                    "ok": True,
                    "is_adversarial": bool(result.is_adversarial),
                    "scores": [float(s) for s in result.scores],
                    "target_transcription": result.target_transcription,
                }))
        except Exception as batch_exc:
            # Isolate the failure: re-run the batch one request at a
            # time so only the offending clip reports an error.
            logger.warning("worker %d: tenant %r batch of %d failed in "
                           "detect_batch (%s: %s); detecting each request "
                           "on its own", worker_id, tenant, len(items),
                           type(batch_exc).__name__, batch_exc)
            payloads = []
            for key, audio in items:
                try:
                    payload = _detect_one(pipeline, audio)
                except Exception as exc:
                    payload = {"ok": False,
                               "error": f"{type(exc).__name__}: {exc}"}
                payload["batch_fallback"] = True
                payloads.append((key, payload))
        for key, payload in payloads:
            post(key, payload)


class DetectionService:
    """Admission-controlled multi-process front door over tenant detectors.

    Args:
        pipelines: mapping of tenant name to a built
            :class:`~repro.pipeline.detection.DetectionPipeline` (or a
            detector, which is wrapped).  Built **before** the pool is
            forked, so every worker inherits every tenant.
        workers: worker process count; ``0`` runs every request inline
            in the submitting thread (no pool, no deadline enforcement
            — the parity baseline and the test default).
        queue_depth: admission bound — the maximum number of requests
            pending + in flight before new submissions are shed.
        request_timeout_seconds: per-request deadline from submission,
            ``None`` to disable.
        max_batch_size: micro-batch drain bound per worker, and the
            per-worker in-flight cap the dispatcher respects.
        cache_dir: optional directory of concurrency-safe shared cache
            stores rewired onto every tenant's engines (see
            :func:`attach_shared_caches`).
        transport: audio data plane — ``"shm"`` (default) ships samples
            through a shared-memory arena, ``"pickle"`` through the
            task queues; see the module docstring.  When shared memory
            is unavailable the service silently degrades to pickle
            (``active_transport`` reports what actually runs).
        arena_bytes: shm arena capacity.  The default budgets one
            megabyte (~8 s of 16 kHz float64 audio) per admissible
            request; clips that do not fit fall back to pickle per
            dispatch.
    """

    _TICK_SECONDS = 0.005

    #: Default per-admissible-request arena budget (see ``arena_bytes``).
    _ARENA_BYTES_PER_REQUEST = 1 << 20

    def __init__(self, pipelines: Mapping[str, Any], *, workers: int = 2,
                 queue_depth: int = 64,
                 request_timeout_seconds: float | None = 30.0,
                 max_batch_size: int = 8,
                 cache_dir: str | None = None,
                 transport: str = "shm",
                 arena_bytes: int | None = None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if request_timeout_seconds is not None and request_timeout_seconds <= 0:
            raise ValueError("request_timeout_seconds must be > 0 or None")
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, "
                             f"got {transport!r}")
        from repro.pipeline.detection import DetectionPipeline
        self.pipelines: dict[str, Any] = {}
        for tenant, obj in pipelines.items():
            if not isinstance(obj, DetectionPipeline):
                obj = DetectionPipeline(obj)
            self.pipelines[tenant] = obj
        self.workers = workers
        self.queue_depth = queue_depth
        self.request_timeout_seconds = request_timeout_seconds
        self.max_batch_size = max(1, max_batch_size)
        self.cache_dir = cache_dir
        self.transport = transport
        #: What actually runs — ``"pickle"`` when shm was requested but
        #: unavailable (set by :meth:`start`), and always for workers=0.
        self.active_transport = transport if workers > 0 else "pickle"
        self.arena_bytes = (int(arena_bytes) if arena_bytes is not None
                            else self._ARENA_BYTES_PER_REQUEST
                            * max(1, queue_depth))
        self._arena: ShmArena | None = None
        if cache_dir is not None:
            attach_shared_caches(self.pipelines, cache_dir)
        self.stats = ServiceStats()
        self._ctx = multiprocessing.get_context("fork")
        self._procs: dict[int, Any] = {}
        self._task_qs: dict[int, Any] = {}
        # One result pipe (recv end) per live worker, plus dead workers'
        # ends the collector has not yet drained to EOF.  Mutated with
        # GIL-atomic list ops only: _spawn runs under self._lock while
        # the collector reads without it.
        self._result_conns: list[Any] = []
        self._wake_r = None
        self._wake_w = None
        self._lock = threading.Lock()
        self._pending: deque[_Request] = deque()
        self._inflight: dict[int, dict[int, _Request]] = {}
        self._requests: dict[int, _Request] = {}
        self._keys = itertools.count(1)
        self._started = False
        self._stopping = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None
        # Set (under the lock) once the collector has failed: no result
        # can reach a request any more, so none is admitted.
        self._collector_failure: str | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "DetectionService":
        """Fork the worker pool and start the dispatcher/collector.

        The shm arena is created *before* the first fork so every
        worker — including later respawns, which fork from this same
        parent — inherits the mapping; if creation fails (no POSIX
        shared memory, /dev/shm full) the service degrades to the
        pickle transport instead of refusing to start.
        """
        if self._started:
            return self
        self._started = True
        if self.workers > 0:
            if self.transport == "shm":
                try:
                    self._arena = ShmArena(
                        self.arena_bytes,
                        slots=max(64, self.queue_depth + 16))
                    self.active_transport = "shm"
                except (ImportError, OSError, ValueError):
                    self._arena = None
                    self.active_transport = "pickle"
            else:
                self.active_transport = "pickle"
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            for worker_id in range(self.workers):
                self._spawn(worker_id)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatch", daemon=True)
            self._collector = threading.Thread(
                target=self._collect_loop, name="serve-collect", daemon=True)
            self._dispatcher.start()
            self._collector.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        """Fork one worker with a fresh task queue and result pipe
        (also used on respawn)."""
        old_q = self._task_qs.get(worker_id)
        if old_q is not None:
            # Retire the dead worker's queue.  Its feeder thread may be
            # blocked on a full pipe nobody will ever read again; without
            # cancel_join_thread, interpreter exit would join that feeder
            # forever.  The queued tasks are not lost — the dispatcher
            # retries the dead worker's in-flight requests explicitly.
            old_q.close()
            old_q.cancel_join_thread()
        task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self.pipelines, task_q, send_conn,
                  self.max_batch_size, self.cache_dir is not None,
                  self._arena),
            name=f"serve-worker-{worker_id}", daemon=True)
        proc.start()
        # Close the parent's copy of the send end *before* any later
        # fork: the worker now holds the only write end, so its death
        # — even SIGKILL mid-send — surfaces as EOF on recv_conn, and
        # no sibling inherits a write end that would mask it.
        send_conn.close()
        self._procs[worker_id] = proc
        self._task_qs[worker_id] = task_q
        self._result_conns.append(recv_conn)
        if self._wake_w is not None:
            try:
                # Re-arm the collector: its current wait() predates
                # recv_conn and would not watch it until timeout.
                self._wake_w.send_bytes(b"r")
            except (OSError, ValueError):
                pass
        self._inflight.setdefault(worker_id, {})

    def stop(self) -> None:
        """Stop the pool; outstanding requests resolve as errors.

        The arena is destroyed unconditionally (``finally``), so no
        ``/dev/shm`` segment survives the service — even when workers
        were SIGKILL'd or a join above raised.
        """
        if not self._started:
            return
        try:
            self._stopping.set()
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=5.0)
            for worker_id, task_q in list(self._task_qs.items()):
                try:
                    task_q.put(None)
                except (OSError, ValueError):
                    pass
            for worker_id, proc in list(self._procs.items()):
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
            if self._wake_w is not None:
                try:
                    self._wake_w.send_bytes(b"q")
                except (OSError, ValueError):
                    pass
            if self._collector is not None:
                self._collector.join(timeout=5.0)
            for task_q in self._task_qs.values():
                task_q.close()
                task_q.cancel_join_thread()
            for conn in self._result_conns:
                try:
                    conn.close()
                except OSError:
                    pass
            self._result_conns.clear()
            for conn in (self._wake_r, self._wake_w):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            self._wake_r = self._wake_w = None
            self._task_qs.clear()
            self._procs.clear()
            self._fail_outstanding("service stopped")
        finally:
            if self._arena is not None:
                self._arena.destroy()
                self._arena = None
            self._started = False

    def __enter__(self) -> "DetectionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ submission
    def submit(self, tenant: str, audio: Waveform,
               request_id: str | None = None) -> Future:
        """Submit one clip; returns a Future resolving to a ServeResult.

        The future always resolves — with a verdict, or with a typed
        rejection/timeout/error result.  It never raises.
        """
        key = next(self._keys)
        request_id = request_id if request_id is not None else f"r{key}"
        future: Future = Future()
        # One clock read for both stamps: the deadline is defined
        # relative to submitted_at, not to a second, slightly later now.
        now = time.monotonic()
        request = _Request(
            key=key, tenant=tenant, request_id=request_id, audio=audio,
            future=future, submitted_at=now,
            deadline=(now + self.request_timeout_seconds
                      if self.request_timeout_seconds is not None
                      else None))
        with self._lock:
            self.stats.submitted += 1
        if tenant not in self.pipelines:
            self._resolve(request, status="error", code=404,
                          detail=f"unknown tenant {tenant!r}")
            return future
        if self.workers == 0:
            return self._submit_inline(request)
        with self._lock:
            failure = self._collector_failure
            queued = False
            if self._started and failure is None:
                in_house = len(self._pending) + sum(
                    len(flight) for flight in self._inflight.values())
                queued = in_house < self.queue_depth
                if queued:
                    self._requests[key] = request
                    self._pending.append(request)
        if not queued:
            if failure is not None:
                self._resolve(request, status="error", code=500,
                              detail=failure)
            elif self._started:
                self._resolve(request, status="rejected", code=429,
                              detail="queue full")
            else:
                self._resolve(request, status="error", code=500,
                              detail="service not started")
        return future

    async def asubmit(self, tenant: str, audio: Waveform,
                      request_id: str | None = None) -> ServeResult:
        """Asyncio front door: awaitable :meth:`submit`."""
        import asyncio
        return await asyncio.wrap_future(self.submit(
            tenant, audio, request_id=request_id))

    def _submit_inline(self, request: _Request) -> Future:
        """workers=0 path: run in the caller's thread, same typed surface."""
        pipeline = self.pipelines[request.tenant]
        request.dispatched_at = time.monotonic()
        try:
            payload = _detect_one(pipeline, request.audio)
        except Exception as exc:
            self._resolve(request, status="error", code=500,
                          detail=f"{type(exc).__name__}: {exc}")
            return request.future
        self._resolve(request, status="ok", code=200, payload=payload,
                      worker_id=0)
        return request.future

    # ------------------------------------------------------------ scheduling
    def _dispatch_loop(self) -> None:
        # A failed collector ends dispatching too: work handed to a
        # worker now could never come back.
        while not self._stopping.is_set() and self._collector_failure is None:
            self._tick()
            time.sleep(self._TICK_SECONDS)

    def _tick(self) -> None:
        now = time.monotonic()
        expired: list[_Request] = []
        crash_victims: list[_Request] = []
        hang_victims: list[_Request] = []
        with self._lock:
            # 1. Shed requests whose deadline expired while queued.
            keep: deque[_Request] = deque()
            for request in self._pending:
                if request.deadline is not None and now >= request.deadline:
                    self._requests.pop(request.key, None)
                    expired.append(request)
                else:
                    keep.append(request)
            self._pending = keep
            # 2. Dead workers: respawn, retry their in-flight once.
            for worker_id, proc in list(self._procs.items()):
                if proc.is_alive():
                    continue
                victims = list(self._inflight[worker_id].values())
                self._inflight[worker_id].clear()
                self.stats.respawns += 1
                self._spawn(worker_id)
                for request in victims:
                    if request.retried:
                        self._requests.pop(request.key, None)
                        crash_victims.append(request)
                    else:
                        request.retried = True
                        request.worker_id = -1
                        self.stats.retries += 1
                        self.stats.requests_retried += 1
                        self._pending.appendleft(request)
            # 3. Hung workers: any in-flight deadline expired means the
            #    worker is stuck past a deadline — kill it, time out the
            #    expired requests, retry the innocent bystanders once.
            for worker_id, inflight in list(self._inflight.items()):
                overdue = [request for request in inflight.values()
                           if request.deadline is not None
                           and now >= request.deadline]
                if not overdue:
                    continue
                proc = self._procs[worker_id]
                proc.terminate()
                proc.join(timeout=2.0)
                victims = list(inflight.values())
                inflight.clear()
                self.stats.respawns += 1
                self._spawn(worker_id)
                for request in victims:
                    if (request.deadline is not None
                            and now >= request.deadline):
                        self._requests.pop(request.key, None)
                        hang_victims.append(request)
                    elif request.retried:
                        self._requests.pop(request.key, None)
                        crash_victims.append(request)
                    else:
                        request.retried = True
                        request.worker_id = -1
                        self.stats.retries += 1
                        self.stats.requests_retried += 1
                        self._pending.appendleft(request)
            # 4. Assign pending requests to the least-loaded workers.
            #    A retried request is dispatched *solo* to an idle
            #    worker — never batched — so a poison clip cannot take
            #    its innocent batchmates down a second time (and a
            #    worker holding a retried request takes nothing else).
            while self._pending:
                head = self._pending[0]
                eligible = [
                    wid for wid, flight in self._inflight.items()
                    if not any(r.retried for r in flight.values())
                    and len(flight) < self.max_batch_size
                    and (not head.retried or not flight)]
                if not eligible:
                    break
                worker_id = min(
                    eligible, key=lambda wid: len(self._inflight[wid]))
                request = self._pending.popleft()
                request.dispatched_at = now
                request.worker_id = worker_id
                self._inflight[worker_id][request.key] = request
                payload = self._dispatch_payload(request)
                self._task_qs[worker_id].put(
                    (request.key, request.tenant, payload))
        for request in expired:
            self._resolve(request, status="timeout", code=504,
                          detail="deadline expired in queue")
        for request in hang_victims:
            self._resolve(request, status="timeout", code=504,
                          detail="deadline expired in worker")
        for request in crash_victims:
            self._resolve(request, status="error", code=500,
                          detail="worker died twice processing this request")

    def _dispatch_payload(self, request: _Request):
        """Build the task payload for one dispatch (caller holds the lock).

        Under the shm transport the samples are written into the arena
        once — a crash retry reuses the existing descriptor verbatim
        (the parent wrote the bytes; workers never mutate them), so the
        retry costs zero extra copies.  When the arena is absent or
        full, this dispatch falls back to shipping the waveform by
        value; ``ipc_bytes_out`` accounts whichever payload was sent.
        """
        if self._arena is not None:
            clip = request.shm_clip
            if clip is None:
                clip = share_waveform(self._arena, request.audio)
            if clip is not None:
                request.shm_clip = clip
                self.stats.ipc_bytes_out += DESCRIPTOR_NBYTES
                return clip
        self.stats.ipc_bytes_out += int(request.audio.samples.nbytes)
        return request.audio

    @staticmethod
    def _result_nbytes(payload: dict) -> int:
        """Approximate wire size of one result payload (fixed overhead
        plus the variable-length fields)."""
        nbytes = 96
        scores = payload.get("scores")
        if scores is not None:
            nbytes += 8 * len(scores)
        for field in ("target_transcription", "error"):
            value = payload.get(field)
            if isinstance(value, str):
                nbytes += len(value)
        return nbytes

    def _collect_loop(self) -> None:
        """Drain every worker's result pipe until stop() signals.

        ``wait()`` watches all current pipes plus the wake pipe, which
        ``_spawn`` pings when a respawn adds a pipe mid-wait and
        ``stop()`` pings to shut the loop down.  A dead worker's pipe
        reads EOF once drained (the worker held the only write end)
        and is retired here — its in-flight requests are the
        dispatcher's business, not ours.  A failing ``wait()`` or wake
        pipe ends the loop; outside ``stop()`` that is a collector
        failure (see :meth:`_collector_failed`).
        """
        while not self._stopping.is_set():
            conns = list(self._result_conns)
            try:
                ready = multiprocessing.connection.wait(
                    conns + [self._wake_r], timeout=1.0)
            except OSError as exc:
                self._collector_failed(exc)
                return
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        conn.recv_bytes()
                    except (EOFError, OSError) as exc:
                        self._collector_failed(exc)
                        return
                    continue
                try:
                    item = conn.recv()
                except (EOFError, OSError):
                    try:
                        self._result_conns.remove(conn)
                    except ValueError:
                        pass
                    conn.close()
                    continue
                self._handle_result(*item)

    def _collector_failed(self, exc: BaseException) -> None:
        """The collector is exiting on ``exc``: unless the service is
        stopping, count and log it, and resolve every outstanding request
        now, and every request submitted from now on — no result can
        reach them any more."""
        if self._stopping.is_set():
            return
        detail = f"result collector failed: {type(exc).__name__}: {exc}"
        with self._lock:
            self.stats.collector_failures += 1
            self._collector_failure = detail
        logger.error("%s; resolving outstanding requests as errors", detail)
        self._fail_outstanding(detail)

    def _fail_outstanding(self, detail: str) -> None:
        """Resolve every request still in the house as a 500 with
        ``detail``."""
        with self._lock:
            leftovers = list(self._requests.values())
            self._requests.clear()
            self._pending.clear()
            for inflight in self._inflight.values():
                inflight.clear()
        for request in leftovers:
            self._resolve(request, status="error", detail=detail, code=500)

    def _handle_result(self, worker_id: int, key: int, payload: dict) -> None:
        with self._lock:
            self.stats.ipc_bytes_in += self._result_nbytes(payload)
            if payload.get("cache_refresh_failed"):
                self.stats.cache_refresh_failures += 1
            if payload.get("batch_fallback"):
                self.stats.batch_fallbacks += 1
            request = self._requests.pop(key, None)
            for inflight in self._inflight.values():
                inflight.pop(key, None)
        if request is None:
            return  # already timed out / stopped: drop the late answer
        if (request.deadline is not None
                and time.monotonic() >= request.deadline):
            # The answer arrived after the deadline but before the
            # dispatcher's next expiry sweep.  The deadline governs:
            # the caller was promised a resolution by then and may
            # already have given up — a late verdict is a timeout,
            # not a success that depends on which thread won a race.
            self._resolve(request, status="timeout", code=504,
                          detail="deadline expired in worker",
                          worker_id=worker_id)
        elif payload.get("ok"):
            self._resolve(request, status="ok", code=200,
                          payload=payload, worker_id=worker_id)
        else:
            self._resolve(request, status="error", code=500,
                          detail=payload.get("error", "worker error"),
                          worker_id=worker_id)

    # ------------------------------------------------------------ resolution
    def _resolve(self, request: _Request, *, status: str, code: int,
                 detail: str = "", payload: dict | None = None,
                 worker_id: int = -1) -> None:
        now = time.monotonic()
        payload = payload or {}
        # Resolution is the single reclamation point of the request's
        # arena slot — ok, timeout, crash-retry exhaustion and stop()
        # all funnel through here, so dead-worker slots are reclaimed
        # exactly once and never leak.
        if request.shm_clip is not None:
            if self._arena is not None:
                self._arena.free(request.shm_clip.ref)
            request.shm_clip = None
        result = ServeResult(
            status=status, code=code, tenant=request.tenant,
            request_id=request.request_id,
            is_adversarial=payload.get("is_adversarial"),
            scores=(tuple(payload["scores"]) if "scores" in payload
                    else None),
            target_transcription=payload.get("target_transcription"),
            detail=detail,
            queue_seconds=((request.dispatched_at or now)
                           - request.submitted_at),
            total_seconds=now - request.submitted_at,
            worker_id=worker_id if worker_id >= 0 else request.worker_id,
            retried=request.retried)
        with self._lock:
            if status == "ok":
                self.stats.completed += 1
            elif status == "rejected":
                self.stats.rejected += 1
            elif status == "timeout":
                self.stats.timeouts += 1
            else:
                self.stats.errors += 1
        if not request.future.done():
            request.future.set_result(result)

    # ------------------------------------------------------------- manifests
    @classmethod
    def from_manifest(cls, manifest: Mapping | str | None = None, *,
                      fit: bool = True) -> "DetectionService":
        """Build a service from a tenant manifest (dict or JSON path).

        The manifest maps tenant names to detector specs::

            {"tenants": {"voice": "configs/voice.json",
                         "iot": {"suite": {...}}},
             "serving": {"workers": 2, "queue_depth": 64},
             "cache_dir": "cache/serve"}

        Each tenant value is a spec path, an inline spec dict, or
        ``null`` for the paper's default system.  The optional
        ``serving`` section overrides the pool configuration (fields of
        :class:`~repro.specs.ServingSpec`); otherwise the first
        tenant's ``serving`` section governs.  Anything that is *not* a
        manifest (no ``"tenants"`` key) is treated as a single-tenant
        spec under the name ``"default"``.
        """
        from repro.build import build, build_pipeline, resolve_spec
        from repro.specs import ServingSpec
        manifest = load_manifest(manifest)
        serving_over = manifest.get("serving") or {}
        pipelines: dict[str, Any] = {}
        first_serving: ServingSpec | None = None
        for tenant, entry in manifest["tenants"].items():
            spec = resolve_spec(entry)
            if first_serving is None:
                first_serving = spec.serving
            pipelines[tenant] = build_pipeline(detector=build(spec, fit=fit))
        serving = first_serving if first_serving is not None else ServingSpec()
        if serving_over:
            serving = ServingSpec.from_dict(
                {**serving.to_dict(), **serving_over})
        return cls(pipelines,
                   workers=serving.workers,
                   queue_depth=serving.queue_depth,
                   request_timeout_seconds=serving.request_timeout_seconds,
                   max_batch_size=serving.max_batch_size,
                   cache_dir=manifest.get("cache_dir"),
                   transport=serving.transport)


def load_manifest(manifest: Mapping | str | None) -> dict:
    """Normalise a manifest argument into ``{"tenants": {...}, ...}``.

    Accepts a manifest dict, a path to a manifest JSON file, a spec (in
    any form :func:`repro.build.resolve_spec` takes) or ``None``; specs
    become single-tenant manifests under the name ``"default"``.
    """
    if manifest is None:
        return {"tenants": {"default": None}}
    if isinstance(manifest, str):
        with open(manifest, encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, Mapping) and "tenants" in data:
            data = dict(data)
            # Tenant spec paths are relative to the manifest file.
            base = os.path.dirname(os.path.abspath(manifest))
            data["tenants"] = {
                tenant: (os.path.normpath(os.path.join(base, entry))
                         if isinstance(entry, str)
                         and not os.path.isabs(entry) else entry)
                for tenant, entry in data["tenants"].items()}
            if isinstance(data.get("cache_dir"), str) \
                    and not os.path.isabs(data["cache_dir"]):
                data["cache_dir"] = os.path.normpath(
                    os.path.join(base, data["cache_dir"]))
            return data
        return {"tenants": {"default": manifest}}
    if isinstance(manifest, Mapping) and "tenants" in manifest:
        return dict(manifest)
    return {"tenants": {"default": manifest}}


def attach_shared_caches(pipelines: Mapping[str, Any],
                         cache_dir: str) -> None:
    """Rewire every tenant's engines onto concurrency-safe shared stores.

    One journal/directory per cache kind, shared by every tenant and —
    after the fork — every worker process:

    * ``transcriptions.jsonl`` — :class:`~repro.store.Journal`-backed
      :class:`~repro.pipeline.cache.TranscriptionCache`;
    * ``scores.jsonl`` — journal-backed
      :class:`~repro.similarity.score_cache.PairScoreCache`;
    * ``features/`` — :class:`~repro.store.ContentDirectoryStore`-backed
      :class:`~repro.dsp.feature_cache.FeatureCache`.
    """
    from repro.dsp.feature_cache import FeatureCache
    from repro.pipeline.cache import TranscriptionCache
    from repro.similarity.score_cache import PairScoreCache
    os.makedirs(cache_dir, exist_ok=True)
    transcription_cache = TranscriptionCache(
        path=os.path.join(cache_dir, "transcriptions.jsonl"))
    score_cache = PairScoreCache(path=os.path.join(cache_dir, "scores.jsonl"))
    feature_cache = FeatureCache(path=os.path.join(cache_dir, "features"))
    for pipeline in pipelines.values():
        detector = pipeline.detector
        detector.engine.cache = transcription_cache
        detector.scoring.cache = score_cache
        if detector.engine.feature_engine is not None:
            detector.engine.feature_engine.cache = feature_cache
