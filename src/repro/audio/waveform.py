"""The :class:`Waveform` value type used across the library.

A waveform is an immutable wrapper around a 1-D float64 sample array in
``[-1, 1]`` plus a sample rate and optional ground-truth text.  All audio in
the library — synthesised benign speech, adversarial examples, noisy
variants — flows through this type.

The samples are frozen read-only at ingest, which is what lets a
waveform hash its content once (:attr:`Waveform.fingerprint`) and hand
that one digest to every content-addressed cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.caching import audio_fingerprint

#: Serialises first computations of a fingerprint, so the suite members
#: a pool fans one new clip out to hash it once between them.
_FINGERPRINT_LOCK = threading.Lock()


@dataclass(frozen=True)
class Waveform:
    """An audio clip.

    Attributes:
        samples: 1-D float64 array of samples, nominally in ``[-1, 1]``;
            read-only.  A writeable input array is copied once, so a
            caller who later writes to the array they passed in cannot
            change the waveform; a read-only input (a shared-memory
            view, a cached array) is wrapped without a copy.
        sample_rate: sampling rate in Hz.
        text: ground-truth transcription (empty if unknown).
        label: free-form tag ("benign", "whitebox-ae", ...).
        metadata: extra provenance information (attack target phrase, host
            sentence, attack iterations, ...).
    """

    samples: np.ndarray
    sample_rate: int = 16_000
    text: str = ""
    label: str = "benign"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalise to C-contiguous float64 exactly once at ingest, so
        # shared-memory copies, content hashing and DSP framing can all
        # assume a flat buffer and never re-convert per stage.  For an
        # already-contiguous float64 array this is a no-copy passthrough;
        # a writeable buffer someone else may still hold (the caller's
        # array, or a view of one) is then copied, so a later write to
        # it can neither reach the waveform nor stale its fingerprint.
        given = self.samples
        samples = np.ascontiguousarray(given, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("Waveform samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if samples.flags.writeable:
            if samples is given or samples.base is not None:
                samples = samples.copy()
            samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __setstate__(self, state: dict) -> None:
        # Unpickling rebuilds the samples as a fresh writeable array
        # without calling __init__; freeze it again.
        self.__dict__.update(state)
        self.samples.flags.writeable = False

    @property
    def fingerprint(self) -> str:
        """Content hash of the samples and the sample rate.

        Computed on first use and kept: every content-cache key (see
        ``docs/ARCHITECTURE.md``, "Content caches") derives from it, so
        a clip is hashed once however many caches and suite members
        look it up.  The value is
        :func:`repro.caching.audio_fingerprint` of this clip.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            with _FINGERPRINT_LOCK:
                cached = self.__dict__.get("_fingerprint")
                if cached is None:
                    cached = audio_fingerprint(self.samples, self.sample_rate)
                    object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------ properties
    def __len__(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration(self) -> float:
        """Duration in seconds."""
        return len(self) / self.sample_rate

    @property
    def rms(self) -> float:
        """Root-mean-square amplitude."""
        if len(self) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples ** 2)))

    @property
    def peak(self) -> float:
        """Maximum absolute sample value."""
        if len(self) == 0:
            return 0.0
        return float(np.max(np.abs(self.samples)))

    # ------------------------------------------------------------ operations
    def with_samples(self, samples: np.ndarray, **metadata_updates) -> "Waveform":
        """Return a copy carrying ``samples`` and updated metadata."""
        merged = dict(self.metadata)
        merged.update(metadata_updates)
        return replace(self, samples=np.asarray(samples, dtype=np.float64),
                       metadata=merged)

    def with_text(self, text: str) -> "Waveform":
        """Return a copy with a different ground-truth text."""
        return replace(self, text=text)

    def with_label(self, label: str) -> "Waveform":
        """Return a copy with a different label."""
        return replace(self, label=label)

    def clipped(self, limit: float = 1.0) -> "Waveform":
        """Return a copy with samples clipped to ``[-limit, limit]``."""
        if limit <= 0:
            raise ValueError("clip limit must be positive")
        return self.with_samples(np.clip(self.samples, -limit, limit))

    def normalized(self, peak: float = 0.9) -> "Waveform":
        """Return a copy scaled so the maximum absolute sample is ``peak``."""
        current = self.peak
        if current == 0:
            return self
        return self.with_samples(self.samples * (peak / current))

    def padded_to(self, n_samples: int) -> "Waveform":
        """Return a copy zero-padded (or truncated) to ``n_samples``."""
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if n_samples <= len(self):
            return self.with_samples(self.samples[:n_samples])
        pad = np.zeros(n_samples - len(self))
        return self.with_samples(np.concatenate([self.samples, pad]))

    def mixed_with(self, other: "Waveform", gain: float = 1.0) -> "Waveform":
        """Return this waveform plus ``gain * other`` (lengths aligned)."""
        if other.sample_rate != self.sample_rate:
            raise ValueError("cannot mix waveforms with different sample rates")
        n = max(len(self), len(other))
        mixed = self.padded_to(n).samples + gain * other.padded_to(n).samples
        return self.with_samples(mixed)
