"""Streaming detection: chunker → pipeline → hysteresis aggregate.

:class:`StreamingDetector` screens long or continuous audio with a
fitted :class:`~repro.core.detector.MVPEarsDetector`: the stream is cut
into overlapping windows (:mod:`repro.serving.chunker`), every window is
scored through the batched
:class:`~repro.pipeline.detection.DetectionPipeline` (so recognition of
consecutive windows overlaps in the engine's worker pool, and similarity
scoring of repeated transcription pairs — overlapping windows re-hear the
same audio — is served from the detector's shared pair-score cache), and
the per-window verdicts fold into a stream-level verdict with hysteresis
(:mod:`repro.serving.aggregator`).

Two entry points:

* :meth:`StreamingDetector.detect_stream` — screen one complete
  recording in a single call.
* :meth:`StreamingDetector.session` — an incremental
  :class:`StreamSession` for audio that arrives in pieces: ``push()``
  chunks of any size as they arrive (complete windows are scored
  immediately, in one pipeline batch per push) and ``flush()`` at end of
  stream for the tail window and the flagged spans.

With ``hop == window`` (non-overlapping tiling) the windows partition
the stream exactly, so a stream built by concatenating equal-length
clips yields precisely those clips as windows — and therefore the same
per-clip verdicts as calling the detector on each clip (the equivalence
``tests/test_serving.py`` pins down).
"""

from __future__ import annotations

import numpy as np

from repro.audio.waveform import Waveform
from repro.pipeline.detection import DetectionPipeline
from repro.serving.aggregator import (
    StreamAggregator,
    StreamDetectionResult,
    WindowVerdict,
)
from repro.serving.chunker import StreamConfig, StreamWindow, tail_window_span

#: Stage keys accumulated into ``StreamDetectionResult.stage_seconds``.
_STAGES = ("recognition", "similarity", "classification", "total")


class StreamSession:
    """Incremental screening state for one audio stream.

    Create via :meth:`StreamingDetector.session`.  Not thread-safe; one
    session serves one stream.
    """

    def __init__(self, pipeline: DetectionPipeline, config: StreamConfig):
        self.pipeline = pipeline
        self.config = config
        self.aggregator = StreamAggregator(
            trigger_windows=config.trigger_windows,
            release_windows=config.release_windows)
        self.windows: list[WindowVerdict] = []
        self._sample_rate: int | None = None
        self._buffer = np.zeros(0)
        self._base = 0          # absolute sample index of _buffer[0]
        self._next_start = 0    # absolute start of the next window
        self._covered_end = 0   # absolute end of the last full window cut
        self._finished = False
        self._n_cut = 0
        self._stage_seconds = dict.fromkeys(_STAGES, 0.0)
        self._cache_hits = 0
        self._cache_misses = 0
        self._score_cache_hits = 0
        self._score_cache_misses = 0

    # ------------------------------------------------------------ properties
    @property
    def state(self) -> str:
        """Current stream-level verdict state (``benign``/``adversarial``)."""
        return self.aggregator.state

    # -------------------------------------------------------------- feeding
    def push(self, audio: Waveform) -> list[WindowVerdict]:
        """Append arriving audio; score and return newly complete windows."""
        if self._finished:
            raise RuntimeError("stream session already flushed")
        if self._sample_rate is None:
            self._sample_rate = audio.sample_rate
        elif audio.sample_rate != self._sample_rate:
            raise ValueError(
                f"sample rate changed mid-stream "
                f"({self._sample_rate} -> {audio.sample_rate})")
        self._buffer = np.concatenate([self._buffer, audio.samples])
        return self._drain_complete_windows()

    def flush(self) -> StreamDetectionResult:
        """End the stream: score the tail window, close spans, report."""
        if self._finished:
            raise RuntimeError("stream session already flushed")
        self._finished = True
        tail = self._tail_window()
        if tail is not None:
            self._score_windows([tail])
        spans = self.aggregator.finalize()
        return StreamDetectionResult(
            windows=self.windows,
            spans=spans,
            stage_seconds=dict(self._stage_seconds),
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            score_cache_hits=self._score_cache_hits,
            score_cache_misses=self._score_cache_misses,
        )

    # ------------------------------------------------------------- internals
    def _drain_complete_windows(self) -> list[WindowVerdict]:
        window = self.config.window_samples(self._sample_rate)
        hop = self.config.hop_samples(self._sample_rate)
        end = self._base + len(self._buffer)
        pending: list[StreamWindow] = []
        while self._next_start + window <= end:
            pending.append(self._cut(self._next_start,
                                     self._next_start + window))
            self._covered_end = self._next_start + window
            self._next_start += hop
        # Drop consumed samples, keeping any overlap the next window needs.
        keep_from = min(self._next_start, end)
        if keep_from > self._base:
            self._buffer = self._buffer[keep_from - self._base:]
            self._base = keep_from
        return self._score_windows(pending)

    def _tail_window(self) -> StreamWindow | None:
        if self._sample_rate is None:
            return None
        # The tail policy itself is shared with the offline chunker.
        span = tail_window_span(
            self._next_start, self._covered_end,
            self._base + len(self._buffer),
            self.config.min_tail_samples(self._sample_rate),
            windows_cut=self._n_cut > 0)
        if span is None:
            return None
        return self._cut(*span)

    def _cut(self, start: int, end: int) -> StreamWindow:
        index = self._n_cut
        self._n_cut += 1
        samples = self._buffer[start - self._base:end - self._base]
        audio = Waveform(
            np.array(samples),
            sample_rate=self._sample_rate,
            metadata={"stream_window": index,
                      "stream_start_seconds": start / self._sample_rate},
        )
        return StreamWindow(index=index, start_sample=start,
                            end_sample=end, audio=audio)

    def _score_windows(self, pending: list[StreamWindow]) -> list[WindowVerdict]:
        if not pending:
            return []
        batch = self.pipeline.detect_batch([w.audio for w in pending])
        for stage in _STAGES:
            self._stage_seconds[stage] += batch.stage_seconds.get(stage, 0.0)
        self._cache_hits += batch.cache_hits
        self._cache_misses += batch.cache_misses
        self._score_cache_hits += batch.score_cache_hits
        self._score_cache_misses += batch.score_cache_misses
        verdicts = []
        for window, result in zip(pending, batch.results):
            state = self.aggregator.update(window.start_seconds,
                                           window.end_seconds,
                                           result.is_adversarial)
            verdict = WindowVerdict(
                index=window.index,
                start_seconds=window.start_seconds,
                end_seconds=window.end_seconds,
                is_adversarial=result.is_adversarial,
                scores=result.scores,
                target_transcription=result.target_transcription,
                state=state,
            )
            verdicts.append(verdict)
            self.windows.append(verdict)
        return verdicts


class StreamingDetector:
    """Screens continuous audio through a fitted detector.

    Args:
        detector: a fitted :class:`~repro.core.detector.MVPEarsDetector`.
        config: windowing + hysteresis settings (default
            :class:`StreamConfig`).
        pipeline: inject a pre-built
            :class:`~repro.pipeline.detection.DetectionPipeline` (e.g. to
            share a metrics observer); defaults to one over ``detector``.
    """

    def __init__(self, detector=None, config: StreamConfig | None = None,
                 pipeline: DetectionPipeline | None = None):
        if pipeline is None:
            if detector is None:
                raise ValueError("pass a detector or a pipeline")
            pipeline = DetectionPipeline(detector)
        self.pipeline = pipeline
        self.config = config or StreamConfig()

    @classmethod
    def from_spec(cls, spec, detector=None) -> "StreamingDetector":
        """Build a streaming detector from a declarative spec.

        ``spec`` is anything :func:`repro.build.resolve_spec` accepts (a
        :class:`~repro.specs.DetectorSpec`, dict or config path).  The
        windowing/hysteresis config comes from ``spec.serving``; the
        detector is built (and fitted) from the spec unless one is
        passed in.  :func:`repro.build.build_streaming` is the
        convenience wrapper.
        """
        from repro.build import build, resolve_spec
        spec = resolve_spec(spec)
        if detector is None:
            detector = build(spec)
        return cls(detector, config=spec.serving.stream_config())

    def session(self) -> StreamSession:
        """A fresh incremental session (one per concurrent stream)."""
        return StreamSession(self.pipeline, self.config)

    def detect_stream(self, audio: Waveform) -> StreamDetectionResult:
        """Screen one complete recording and aggregate its verdict."""
        session = self.session()
        session.push(audio)
        return session.flush()
