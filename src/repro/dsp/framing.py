"""Frame segmentation of waveforms.

Every ASR front end starts by slicing the waveform into short overlapping
frames ("slide window segmentation" in the paper's Figure 2).  Different ASR
simulators use different frame lengths and hops, which is one of the axes of
diversity the detection approach relies on.
"""

from __future__ import annotations

import numpy as np


def num_frames(n_samples: int, frame_length: int, hop_length: int) -> int:
    """Number of full frames obtainable from ``n_samples`` samples."""
    if frame_length <= 0 or hop_length <= 0:
        raise ValueError("frame_length and hop_length must be positive")
    if n_samples < frame_length:
        return 0
    return 1 + (n_samples - frame_length) // hop_length


def frame_signal(samples: np.ndarray, frame_length: int, hop_length: int,
                 pad: bool = True) -> np.ndarray:
    """Slice ``samples`` into overlapping frames.

    Args:
        samples: 1-D float array.
        frame_length: samples per frame.
        hop_length: samples between consecutive frame starts.
        pad: if True, zero-pad the signal so at least one frame exists and
            the tail of the signal is covered.

    Returns:
        Array of shape ``(n_frames, frame_length)``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("frame_signal expects a 1-D signal")
    n = samples.shape[0]
    if pad:
        if n < frame_length:
            target = frame_length
        else:
            remainder = (n - frame_length) % hop_length
            target = n if remainder == 0 else n + (hop_length - remainder)
        if target > n:
            samples = np.concatenate([samples, np.zeros(target - n)])
            n = target
    count = num_frames(n, frame_length, hop_length)
    if count == 0:
        return np.zeros((0, frame_length))
    indices = (np.arange(frame_length)[None, :]
               + hop_length * np.arange(count)[:, None])
    return samples[indices]


def overlap_add(frames: np.ndarray, hop_length: int,
                n_samples: int | None = None) -> np.ndarray:
    """Reassemble frames into a signal by overlap-add.

    Used by the white-box attack to map per-frame gradients back onto the
    waveform.  Overlapping regions are summed (not averaged): the caller is
    expected to normalise if needed.

    Vectorized scatter-add; bit-identical to the seed library's
    frame-by-frame loop kept in ``tests/oracles/`` (``np.add.at``
    accumulates repeated indices in row-major order, which is exactly
    that loop's order).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("overlap_add expects a 2-D frame matrix")
    count, frame_length = frames.shape
    total = frame_length + hop_length * max(0, count - 1) if count else 0
    if n_samples is None:
        n_samples = total
    signal = np.zeros(max(n_samples, total))
    if count:
        indices = (np.arange(frame_length)[None, :]
                   + hop_length * np.arange(count)[:, None])
        np.add.at(signal, indices.ravel(), frames.ravel())
    return signal[:n_samples]

