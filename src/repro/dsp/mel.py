"""Mel scale conversions and triangular mel filterbanks."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def hz_to_mel(hz):
    """Convert frequency in Hz to mel (HTK formula)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    """Convert mel values back to Hz."""
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _band_edges(n_filters: int, n_fft: int, sample_rate: int,
                f_min: float, f_max: float | None) -> np.ndarray:
    """FFT-bin edge indices of the triangular filters, shape ``(n_filters + 2,)``."""
    if n_filters <= 0:
        raise ValueError("n_filters must be positive")
    if f_max is None:
        f_max = sample_rate / 2.0
    if not 0 <= f_min < f_max <= sample_rate / 2.0:
        raise ValueError("require 0 <= f_min < f_max <= Nyquist")
    n_bins = n_fft // 2 + 1
    mel_points = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_points = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    return np.clip(bin_points, 0, n_bins - 1)


@lru_cache(maxsize=32)
def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int,
                   f_min: float = 0.0, f_max: float | None = None) -> np.ndarray:
    """Triangular mel filterbank matrix of shape ``(n_filters, n_fft // 2 + 1)``.

    Vectorized construction; bit-identical to the seed library's
    per-filter loop kept in ``tests/oracles/`` (pinned by
    ``tests/test_dsp_vectorized``).

    Args:
        n_filters: number of triangular filters.
        n_fft: FFT size used for the power spectrum.
        sample_rate: sampling rate in Hz.
        f_min: lowest band edge in Hz.
        f_max: highest band edge in Hz (defaults to Nyquist).
    """
    bin_points = _band_edges(n_filters, n_fft, sample_rate, f_min, f_max)
    n_bins = n_fft // 2 + 1

    lefts = bin_points[:-2]
    centers = bin_points[1:-1]
    rights = bin_points[2:]
    # Collision fixes in the reference order: centers off lefts first,
    # then rights off the already-fixed centers.
    centers = np.where(centers == lefts,
                       np.minimum(lefts + 1, n_bins - 1), centers)
    rights = np.where(rights == centers,
                      np.minimum(centers + 1, n_bins - 1), rights)

    k = np.arange(n_bins)[None, :]
    lefts_c = lefts[:, None]
    centers_c = centers[:, None]
    rights_c = rights[:, None]
    rising = (k - lefts_c) / np.maximum(1, centers_c - lefts_c)
    falling = (rights_c - k) / np.maximum(1, rights_c - centers_c)
    bank = np.where((k >= lefts_c) & (k < centers_c), rising, 0.0)
    bank = np.where((k >= centers_c) & (k <= rights_c), falling, bank)
    bank[np.arange(n_filters), centers] = 1.0
    return bank

