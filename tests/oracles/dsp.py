"""Seed DSP kernels: the parity references of the vectorised front end."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.audio.waveform import Waveform
from repro.dsp.features import FeatureExtractor
from repro.dsp.mel import _band_edges


@lru_cache(maxsize=32)
def mel_filterbank_reference(n_filters: int, n_fft: int, sample_rate: int,
                             f_min: float = 0.0,
                             f_max: float | None = None) -> np.ndarray:
    """Per-filter scalar-loop filterbank construction (the seed library's path).

    Kept as the parity reference for :func:`mel_filterbank`; same
    signature, same matrix, bit for bit.
    """
    bin_points = _band_edges(n_filters, n_fft, sample_rate, f_min, f_max)
    n_bins = n_fft // 2 + 1

    bank = np.zeros((n_filters, n_bins))
    for i in range(n_filters):
        left, center, right = bin_points[i], bin_points[i + 1], bin_points[i + 2]
        if center == left:
            center = min(left + 1, n_bins - 1)
        if right == center:
            right = min(center + 1, n_bins - 1)
        for k in range(left, center):
            bank[i, k] = (k - left) / max(1, center - left)
        for k in range(center, right + 1):
            bank[i, k] = (right - k) / max(1, right - center)
        bank[i, center] = 1.0
    return bank


def overlap_add_reference(frames: np.ndarray, hop_length: int,
                          n_samples: int | None = None) -> np.ndarray:
    """Per-frame Python-loop overlap-add (the seed library's path).

    Kept as the parity reference for :func:`overlap_add`.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("overlap_add expects a 2-D frame matrix")
    count, frame_length = frames.shape
    total = frame_length + hop_length * max(0, count - 1) if count else 0
    if n_samples is None:
        n_samples = total
    signal = np.zeros(max(n_samples, total))
    for i in range(count):
        start = i * hop_length
        signal[start:start + frame_length] += frames[i]
    return signal[:n_samples]


class ReferenceFeatureBackend:
    """Per-clip front-end computation (the seed library's path)."""

    name = "reference"

    def features(self, extractor: FeatureExtractor,
                 audio: Waveform) -> np.ndarray:
        return extractor.transform(audio.samples)

    def features_batch(self, extractor: FeatureExtractor,
                       batch: list[np.ndarray]) -> list[np.ndarray]:
        return [extractor.transform(samples) for samples in batch]
