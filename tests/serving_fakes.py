"""Fault-injection doubles shared by the serving test modules.

The fakes run inside forked worker processes, so every fault is driven
by *clip metadata* (plain dicts survive the fork and the task queue)
rather than by mutable fake state:

* ``{"raise": True}`` — the pipeline raises mid-detection;
* ``{"crash": True}`` — the worker process dies (``os._exit``), as a
  segfaulting native library would;
* ``{"hang": seconds}`` — the pipeline blocks past any deadline.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.audio.waveform import Waveform
from repro.pipeline.detection import DetectionPipeline
from repro.serving.arena import SEGMENT_PREFIX, list_arena_segments

SR = 16_000
_T = np.linspace(0.0, 0.25, 4000, endpoint=False)


def own_arena_segments() -> list[str]:
    """Live ``/dev/shm`` arena segments created by this process.

    Arena names embed the creating pid, so another live arena on the
    host (a second test session, a running ``repro serve``) is not
    counted against the service under test.
    """
    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    return [name for name in list_arena_segments() if name.startswith(prefix)]


def make_clip(meta: dict | None = None, freq: float = 220.0) -> Waveform:
    """A deterministic short test clip carrying fault-injection metadata."""
    return Waveform(samples=0.5 * np.sin(2 * np.pi * freq * _T),
                    sample_rate=SR, metadata=dict(meta or {}))


class FakeResult:
    """Duck-typed DetectionResult carrying just what the service reads."""

    def __init__(self, verdict: bool, score: float, text: str):
        self.is_adversarial = verdict
        self.scores = np.array([score], dtype=np.float64)
        self.target_transcription = text


class FakeBatch:
    def __init__(self, results):
        self.results = results


class FaultyPipeline(DetectionPipeline):
    """A DetectionPipeline double that fails on command.

    ``verdict``/``score``/``text`` parameterise the healthy answer so
    multi-tenant tests can tell tenants apart by their results.
    """

    def __init__(self, verdict: bool = False, score: float = 0.5,
                 text: str = "ok"):
        self.verdict = verdict
        self.score = score
        self.text = text

    def detect(self, audio: Waveform) -> FakeResult:
        return self._one(audio)

    def detect_batch(self, audios) -> FakeBatch:
        return FakeBatch([self._one(audio) for audio in audios])

    def _one(self, audio: Waveform) -> FakeResult:
        meta = audio.metadata or {}
        if meta.get("crash"):
            os._exit(13)
        if meta.get("hang"):
            time.sleep(float(meta["hang"]))
        if meta.get("raise"):
            raise RuntimeError("injected pipeline fault")
        return FakeResult(self.verdict, self.score, self.text)


class FaultyASR:
    """An ASR wrapper that raises on poisoned clips (metadata marker).

    Everything else delegates to the wrapped real ASR, so the detector
    built around it is genuine — the fault surfaces inside the real
    recognition stage, not in a test double.
    """

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _check(self, audio: Waveform) -> None:
        if (audio.metadata or {}).get("poison_asr"):
            raise RuntimeError("injected ASR fault")

    def transcribe(self, audio: Waveform):
        self._check(audio)
        return self._inner.transcribe(audio)

    def transcribe_batch(self, audios):
        for audio in audios:
            self._check(audio)
        return self._inner.transcribe_batch(audios)
