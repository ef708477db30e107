"""The serving layer: streaming detection and the detection service.

This package turns the batched :mod:`repro.pipeline` execution layer
into a runtime guard that matches the paper's deployment story (a
detector sitting on the serving path of a voice assistant, Section V-I):

* :mod:`repro.serving.chunker` — :class:`StreamConfig` and the window
  slicer cutting long/continuous audio into overlapping detection
  windows.
* :mod:`repro.serving.aggregator` — per-window verdicts folded into a
  stream-level verdict with hysteresis; flagged time spans.
* :mod:`repro.serving.streaming` — :class:`StreamingDetector` (one-shot
  ``detect_stream`` and incremental :class:`StreamSession`).
* :mod:`repro.serving.metrics` — :class:`ServingMetrics`, per-stage
  throughput counters and cache hit rates folded from pipeline batches
  and service snapshots.
* :mod:`repro.serving.arena` — :class:`ShmArena`, the shared-memory
  slab the service's zero-copy ``"shm"`` transport writes audio into
  (generation-tagged slots, crash-safe reclamation).
* :mod:`repro.serving.service` — :class:`DetectionService`, the
  multi-tenant multi-process front door (admission control, deadlines,
  crash recovery, shared caches) behind ``repro serve``; its workers
  drain queued requests in micro-batches with per-request isolation.

See ``docs/SERVING.md`` for the full tour and ``docs/API.md`` for the
stable public surface.
"""

from repro.serving.arena import (
    ArenaError,
    ShmArena,
    ShmClip,
    SlotRef,
    StaleSlot,
    list_arena_segments,
)
from repro.serving.aggregator import (
    ADVERSARIAL,
    BENIGN,
    FlaggedSpan,
    StreamAggregator,
    StreamDetectionResult,
    WindowVerdict,
)
from repro.serving.chunker import (
    StreamConfig,
    StreamWindow,
    chunk_waveform,
    iter_windows,
)
from repro.serving.metrics import ServingMetrics, StageStats
from repro.serving.service import (
    DetectionService,
    ServeResult,
    ServiceStats,
    load_manifest,
)
from repro.serving.streaming import StreamingDetector, StreamSession

__all__ = [
    "ArenaError",
    "ShmArena",
    "ShmClip",
    "SlotRef",
    "StaleSlot",
    "list_arena_segments",
    "ADVERSARIAL",
    "BENIGN",
    "FlaggedSpan",
    "StreamAggregator",
    "StreamDetectionResult",
    "WindowVerdict",
    "StreamConfig",
    "StreamWindow",
    "chunk_waveform",
    "iter_windows",
    "ServingMetrics",
    "StageStats",
    "DetectionService",
    "ServeResult",
    "ServiceStats",
    "load_manifest",
    "StreamingDetector",
    "StreamSession",
]
