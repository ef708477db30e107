"""Throughput counters for the serving layer.

Every serving component — the streaming detector, a plain
:class:`~repro.pipeline.detection.DetectionPipeline`, the detection
service's transport counters — can record into one
:class:`ServingMetrics` instance, which accumulates per-stage clip
counts and wall-clock seconds (the same ``recognition`` /
``similarity`` / ``classification`` stages the paper's overhead
experiment measures) and cache hit rates.  Embedders can poll
:meth:`snapshot` from a stats endpoint.

The ``observe_batch`` method has the signature
:class:`~repro.pipeline.detection.DetectionPipeline` expects of its
``observer`` hook, so wiring the two together is one constructor
argument::

    metrics = ServingMetrics()
    pipeline = DetectionPipeline(detector, observer=metrics.observe_batch)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class StageStats:
    """Accumulated clip count and wall-clock seconds for one stage."""

    clips: int = 0
    seconds: float = 0.0

    def record(self, clips: int, seconds: float) -> None:
        self.clips += clips
        self.seconds += seconds

    @property
    def mean_seconds(self) -> float:
        """Mean seconds per clip (0 when nothing was recorded)."""
        return self.seconds / self.clips if self.clips else 0.0

    @property
    def throughput(self) -> float:
        """Clips per second of stage wall-clock (0 when unused)."""
        return self.clips / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ServingMetrics:
    """Thread-safe counters shared across serving components.

    Attributes:
        stages: per-stage :class:`StageStats`, keyed by stage name
            (``recognition``, ``similarity``, ``classification``,
            ``total``).
        requests: clips that flowed through an observed pipeline batch.
        batches: pipeline batches observed.
        cache_hits: transcriptions served from the engine cache.
        cache_misses: transcriptions actually decoded.
        score_cache_hits: pair scores served from the pair-score cache.
        score_cache_misses: pair scores actually computed.
        feature_cache_hits: front-end feature matrices served from the
            feature cache.
        feature_cache_misses: front-end feature matrices computed.
        ipc_bytes_out: audio payload bytes shipped to worker processes
            (descriptors under the shm transport, full arrays under
            pickle) — mirrored from
            :class:`~repro.serving.service.ServiceStats`.
        ipc_bytes_in: result payload bytes shipped back from workers.
        requests_retried: distinct requests retried after a worker crash.
    """

    stages: dict = field(default_factory=dict)
    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    score_cache_hits: int = 0
    score_cache_misses: int = 0
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0
    ipc_bytes_out: int = 0
    ipc_bytes_in: int = 0
    requests_retried: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # ----------------------------------------------------------- recording
    def observe_batch(self, batch) -> None:
        """Record one :class:`BatchDetectionResult` (pipeline observer hook)."""
        n = len(batch)
        with self._lock:
            self.batches += 1
            self.requests += n
            self.cache_hits += batch.cache_hits
            self.cache_misses += batch.cache_misses
            self.score_cache_hits += getattr(batch, "score_cache_hits", 0)
            self.score_cache_misses += getattr(batch, "score_cache_misses", 0)
            self.feature_cache_hits += getattr(batch, "feature_cache_hits", 0)
            self.feature_cache_misses += getattr(batch,
                                                 "feature_cache_misses", 0)
            for stage, seconds in batch.stage_seconds.items():
                self.stages.setdefault(stage, StageStats()).record(n, seconds)

    def observe_service(self, stats) -> None:
        """Fold a :class:`~repro.serving.service.ServiceStats` snapshot's
        transport counters into these metrics (idempotent per snapshot:
        callers pass deltas or call once at the end of a run)."""
        with self._lock:
            self.ipc_bytes_out += getattr(stats, "ipc_bytes_out", 0)
            self.ipc_bytes_in += getattr(stats, "ipc_bytes_in", 0)
            self.requests_retried += getattr(stats, "requests_retried", 0)

    # ----------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of every counter."""
        with self._lock:
            stages = {
                name: {
                    "clips": stats.clips,
                    "seconds": stats.seconds,
                    "mean_seconds": stats.mean_seconds,
                    "throughput_clips_per_s": stats.throughput,
                }
                for name, stats in self.stages.items()
            }
            cache_lookups = self.cache_hits + self.cache_misses
            score_lookups = self.score_cache_hits + self.score_cache_misses
            feature_lookups = (self.feature_cache_hits
                               + self.feature_cache_misses)
            return {
                "requests": self.requests,
                "batches": self.batches,
                "mean_batch_size": (self.requests / self.batches
                                    if self.batches else 0.0),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_hit_rate": (self.cache_hits / cache_lookups
                                   if cache_lookups else 0.0),
                "score_cache_hits": self.score_cache_hits,
                "score_cache_misses": self.score_cache_misses,
                "score_cache_hit_rate": (self.score_cache_hits / score_lookups
                                         if score_lookups else 0.0),
                "feature_cache_hits": self.feature_cache_hits,
                "feature_cache_misses": self.feature_cache_misses,
                "feature_cache_hit_rate": (
                    self.feature_cache_hits / feature_lookups
                    if feature_lookups else 0.0),
                "ipc_bytes_out": self.ipc_bytes_out,
                "ipc_bytes_in": self.ipc_bytes_in,
                "requests_retried": self.requests_retried,
                "stages": stages,
            }

    def format_table(self) -> str:
        """Human-readable rendering of :meth:`snapshot`."""
        snap = self.snapshot()
        lines = [
            f"requests {snap['requests']}  batches {snap['batches']}  "
            f"mean batch {snap['mean_batch_size']:.2f}  "
            f"cache hit rate {snap['cache_hit_rate']:.0%} "
            f"({snap['cache_hits']}/{snap['cache_hits'] + snap['cache_misses']})"
            f"  score cache {snap['score_cache_hit_rate']:.0%} "
            f"({snap['score_cache_hits']}/"
            f"{snap['score_cache_hits'] + snap['score_cache_misses']})"
            f"  feature cache {snap['feature_cache_hit_rate']:.0%} "
            f"({snap['feature_cache_hits']}/"
            f"{snap['feature_cache_hits'] + snap['feature_cache_misses']})",
            f"{'stage':<16}{'clips':>8}{'seconds':>10}{'ms/clip':>10}{'clips/s':>10}",
        ]
        for name in ("recognition", "similarity", "classification", "total"):
            stats = snap["stages"].get(name)
            if stats is None:
                continue
            lines.append(f"{name:<16}{stats['clips']:>8}"
                         f"{stats['seconds']:>10.3f}"
                         f"{stats['mean_seconds'] * 1000:>10.2f}"
                         f"{stats['throughput_clips_per_s']:>10.1f}")
        if snap["ipc_bytes_out"] or snap["ipc_bytes_in"]:
            lines.append(f"ipc              out {snap['ipc_bytes_out']} B  "
                         f"in {snap['ipc_bytes_in']} B  "
                         f"retried {snap['requests_retried']}")
        return "\n".join(lines)
