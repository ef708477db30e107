"""The parallel transcription engine.

The paper's deployment model (Section V-I) runs the target ASR and every
auxiliary ASR *in parallel*, so the recognition overhead of the detector
is only the time the slowest auxiliary needs beyond the target model.
:class:`TranscriptionEngine` implements that model with a
``concurrent.futures`` thread pool: one waveform (or a batch) fans out
across the whole ASR suite, results are cached by audio content hash
(see :mod:`repro.pipeline.cache`), and ``workers=0`` falls back to the
original sequential path so the paper's timing tables stay reproducible.

Threads, not processes, are the right pool here: the simulated ASRs are
numpy-heavy (the FFT front end and template scoring release the GIL) and
their model state is effectively immutable after fitting.  BLAS itself
runs on one thread per process (``import repro`` pins it, see
:mod:`repro._blas`): the matmuls are small, this pool already spreads
the suite over the CPUs, and OpenBLAS's own pool spin-waited between
calls — on 2 vCPUs a sequential ``detect()`` of a 5 s clip cost about
180 ms of CPU for 90 ms of wall time, and 87 ms of both once pinned.  The one
mutable piece is the word decoder's per-instance segment memo dict,
which only ever inserts deterministic values — concurrent inserts are
benign under CPython's atomic dict operations, but it is *not* strictly
read-only; keep that in mind before adding eviction or iteration there.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

from repro.asr.base import ASRSystem, Transcription
from repro.audio.waveform import Waveform
from repro.caching import CacheStats
from repro.pipeline.cache import TranscriptionCache

#: Environment variable overriding the default worker-pool size.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_worker_count(n_tasks: int | None = None) -> int:
    """Default number of pool workers.

    Resolution order: the ``REPRO_WORKERS`` environment variable, then the
    CPU count.  When ``n_tasks`` is given the result is capped at it —
    there is no point keeping more threads than concurrent transcriptions.
    """
    raw = os.environ.get(WORKERS_ENV)
    workers = int(raw) if raw else (os.cpu_count() or 1)
    if n_tasks is not None:
        workers = min(workers, n_tasks)
    return max(1, workers)


@lru_cache(maxsize=1)
def get_shared_cache() -> TranscriptionCache:
    """The process-wide transcription cache shared by default engines.

    Sharing one content-hash store across every engine means an engine
    built for DS0+{DS1} reuses transcriptions another engine computed for
    DS0+{DS1, GCS, AT} — the cross-experiment win that makes a full
    benchmark run cheap.  Set ``REPRO_TRANSCRIPTION_CACHE`` to a file path
    to persist the shared cache across processes (call
    :meth:`TranscriptionEngine.save_cache` to write it out).
    """
    return TranscriptionCache(capacity=8192,
                              path=os.environ.get("REPRO_TRANSCRIPTION_CACHE"))


def resolve_transcription_cache(spec) -> TranscriptionCache | bool:
    """Coerce a cache policy into an engine ``cache`` argument.

    The policy surface (``"shared"``/``"private"``/``"off"``/JSON path,
    a bool, or a :class:`TranscriptionCache` instance) is shared with
    :func:`repro.similarity.engine.resolve_score_cache` — see
    :func:`repro.caching.resolve_cache_policy`.  This is what
    :class:`~repro.specs.PipelineSpec`'s ``cache`` field feeds through.
    """
    from repro.caching import resolve_cache_policy
    return resolve_cache_policy(spec, TranscriptionCache,
                                "transcription-cache policy")


@dataclass(frozen=True)
class SuiteTranscription:
    """One waveform transcribed by the whole ASR suite.

    Attributes:
        target: the target model's transcription.
        auxiliaries: auxiliary transcriptions keyed by ASR short name, in
            suite order.
        wall_seconds: wall-clock time of the fan-out (with a warm cache
            this is near zero even though ``elapsed_seconds`` of the
            individual transcriptions records the original decode cost).
        cache_hits: transcriptions served from the cache.
        cache_misses: transcriptions actually decoded.
    """

    target: Transcription
    auxiliaries: dict[str, Transcription]
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def auxiliary_texts(self) -> dict[str, str]:
        """Auxiliary transcription texts keyed by ASR short name."""
        return {name: result.text for name, result in self.auxiliaries.items()}

    @property
    def recognition_overhead(self) -> float:
        """Extra decode time of the slowest auxiliary beyond the target.

        This is the quantity the paper's overhead experiment reports: with
        all ASRs running in parallel, the detector only delays the target
        model's answer by ``max(aux decode time) - target decode time``.
        """
        if not self.auxiliaries:
            return 0.0
        slowest = max(result.elapsed_seconds for result in self.auxiliaries.values())
        return max(0.0, slowest - self.target.elapsed_seconds)


@dataclass
class _TaskResult:
    transcription: Transcription
    from_cache: bool = False


class TranscriptionEngine:
    """Fans waveforms out across a target + auxiliary ASR suite.

    Args:
        target_asr: the model under protection.
        auxiliary_asrs: the diverse auxiliary models.
        workers: pool size.  ``0`` disables the pool entirely (the
            original sequential path); ``None`` resolves a default from
            ``REPRO_WORKERS`` / the CPU count, capped at the suite size.
        cache: ``True`` (default) shares the process-wide cache from
            :func:`get_shared_cache`; ``False``/``None`` disables caching;
            a :class:`TranscriptionCache` instance is used as given.
        feature_engine: optional :class:`~repro.dsp.engine.FeatureEngine`.
            When set, suite members that support precomputed features get
            their front-end matrices from the engine (computed once per
            (clip, front-end configuration), shared across members and
            batches through the feature cache) and batches are pre-warmed
            through the vectorized batch front end.  Transcriptions are
            identical either way.
    """

    def __init__(self, target_asr: ASRSystem, auxiliary_asrs: list[ASRSystem],
                 workers: int | None = None,
                 cache: TranscriptionCache | bool | None = True,
                 feature_engine=None):
        self.target_asr = target_asr
        self.auxiliary_asrs = list(auxiliary_asrs)
        self.feature_engine = feature_engine
        n_systems = 1 + len(self.auxiliary_asrs)
        if workers is None:
            workers = resolve_worker_count(n_systems)
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        if isinstance(cache, TranscriptionCache):
            self.cache: TranscriptionCache | None = cache
        elif cache:
            self.cache = get_shared_cache()
        else:
            self.cache = None
        self._pool: ThreadPoolExecutor | None = None
        # Single-flight bookkeeping: key -> Event set when the first task
        # to decode that (ASR, audio) pair has stored its result.
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()

    # -------------------------------------------------------------- plumbing
    @property
    def asr_suite(self) -> list[ASRSystem]:
        """Target followed by the auxiliaries, in suite order."""
        return [self.target_asr, *self.auxiliary_asrs]

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the engine's cache (zeros if disabled)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    @property
    def feature_stats(self):
        """Feature-cache statistics (zeros when no feature engine is set).

        Returns a snapshot copy, so callers can diff before/after values
        around a batch (the live stats object mutates in place).
        """
        if self.feature_engine is None:
            return CacheStats()
        return replace(self.feature_engine.stats)

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-transcribe")
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def reset_after_fork(self) -> None:
        """Discard runtime state that does not survive ``os.fork``.

        The executor's threads and any single-flight waiters live only
        in the parent process; a forked child that inherited them would
        submit work no thread will ever run.  Worker processes call
        this before serving their first batch.  The child is
        single-threaded at that point, so no locking is needed (and the
        inherited lock itself may have been snapshotted held).
        """
        self._pool = None
        self._inflight = {}
        self._inflight_lock = threading.Lock()

    def __enter__(self) -> "TranscriptionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def save_cache(self, path: str | None = None) -> str:
        """Persist the cache to disk (see :meth:`TranscriptionCache.save`)."""
        if self.cache is None:
            raise RuntimeError("engine has no cache to save")
        return self.cache.save(path)

    # ---------------------------------------------------------- transcription
    def _transcribe(self, asr: ASRSystem, audio: Waveform) -> Transcription:
        """One decode, routed through the feature engine when possible."""
        if self.feature_engine is not None \
                and asr.supports_precomputed_features:
            features = self.feature_engine.features(asr.feature_extractor,
                                                    audio)
            return asr.transcribe_with_features(audio, features)
        return asr.transcribe(audio)

    def _prewarm_features(self, audios: list[Waveform]) -> None:
        """Batch-fill the feature cache for every clip a member will decode.

        Clips whose transcription is already cached are skipped — their
        front end will never run.  Each supporting member's missing clips
        go through the batched front end in one stacked pass.
        """
        if self.feature_engine is None:
            return
        for asr in self.asr_suite:
            if not asr.supports_precomputed_features:
                continue
            clips = [audio for audio in audios
                     if self.cache is None
                     or TranscriptionCache.key_for(asr, audio) not in self.cache]
            if clips:
                self.feature_engine.prewarm(asr.feature_extractor, clips)

    def _run_one(self, asr: ASRSystem, audio: Waveform) -> _TaskResult:
        if self.cache is None:
            return _TaskResult(self._transcribe(asr, audio), from_cache=False)
        key = TranscriptionCache.key_for(asr, audio)
        cached = self.cache.get(key)
        if cached is not None:
            return _TaskResult(cached, from_cache=True)
        # Single-flight: if another pool task is already decoding this
        # exact (ASR, audio) pair, wait for it instead of decoding twice.
        # An event in the map implies its owner is already running, so a
        # waiter can never starve the owner of its worker slot.
        with self._inflight_lock:
            event = self._inflight.get(key)
            is_owner = event is None
            if is_owner:
                event = self._inflight[key] = threading.Event()
        if not is_owner:
            event.wait()
            cached = self.cache.get(key)
            if cached is not None:
                return _TaskResult(cached, from_cache=True)
            # The owner failed (or the entry was evicted); decode directly.
            return _TaskResult(self._transcribe(asr, audio), from_cache=False)
        try:
            result = self._transcribe(asr, audio)
            self.cache.put(key, result)
        finally:
            event.set()
            with self._inflight_lock:
                self._inflight.pop(key, None)
        return _TaskResult(result, from_cache=False)

    def _collect(self, tasks: list[_TaskResult], wall_seconds: float) -> SuiteTranscription:
        return SuiteTranscription(
            target=tasks[0].transcription,
            auxiliaries={asr.short_name: task.transcription
                         for asr, task in zip(self.auxiliary_asrs, tasks[1:])},
            wall_seconds=wall_seconds,
            cache_hits=sum(task.from_cache for task in tasks),
            cache_misses=sum(not task.from_cache for task in tasks),
        )

    def transcribe(self, audio: Waveform) -> SuiteTranscription:
        """Fan one waveform out across the whole suite."""
        start = time.perf_counter()
        if self.workers == 0:
            tasks = [self._run_one(asr, audio) for asr in self.asr_suite]
        else:
            futures = [self._executor().submit(self._run_one, asr, audio)
                       for asr in self.asr_suite]
            tasks = [future.result() for future in futures]
        return self._collect(tasks, time.perf_counter() - start)

    def transcribe_batch(self, audios: list[Waveform]) -> list[SuiteTranscription]:
        """Fan a batch of waveforms out across the whole suite.

        The full (waveform × ASR) task grid is submitted to the pool at
        once, so a slow ASR on one clip overlaps with fast ASRs on the
        next clip instead of serialising the batch per sample.
        """
        audios = list(audios)
        if not audios:
            return []
        start = time.perf_counter()
        self._prewarm_features(audios)
        suite = self.asr_suite
        if self.workers == 0:
            grid = [[self._run_one(asr, audio) for asr in suite]
                    for audio in audios]
        else:
            futures = [[self._executor().submit(self._run_one, asr, audio)
                        for asr in suite] for audio in audios]
            grid = [[future.result() for future in row] for row in futures]
        wall_seconds = time.perf_counter() - start
        # Attribute the batch wall time evenly; per-transcription decode
        # costs stay available on each Transcription.elapsed_seconds.
        per_item = wall_seconds / len(audios)
        return [self._collect(tasks, per_item) for tasks in grid]
