"""Seed decode kernels: the parity references of the vectorised decoder."""

from __future__ import annotations

from types import MethodType

import numpy as np

from repro.asr.decoder import WordDecoder
from repro.text.metrics import edit_distance
from repro.text.phonemes import PHONEMES, Phoneme


def smoothed_frame_labels_reference(log_posteriors: np.ndarray,
                                    window: int = 2) -> list[Phoneme]:
    """Per-column ``np.convolve`` smoothing (the seed library's path).

    Kept as the parity reference for :func:`smoothed_frame_labels`.
    """
    log_posteriors = np.asarray(log_posteriors)
    if window < 1:
        raise ValueError("window must be at least 1")
    n_frames = log_posteriors.shape[0]
    if n_frames == 0:
        return []
    kernel = np.ones(2 * window + 1)
    kernel /= kernel.sum()
    padded = np.pad(log_posteriors, ((window, window), (0, 0)), mode="edge")
    smoothed = np.empty_like(log_posteriors)
    for k in range(log_posteriors.shape[1]):
        smoothed[:, k] = np.convolve(padded[:, k], kernel, mode="valid")
    return [PHONEMES[i] for i in smoothed.argmax(axis=1)]


def best_word_scalar(decoder: WordDecoder, segment: tuple[Phoneme, ...],
                     previous: str | None) -> tuple[str, float]:
    """Per-word loop lexicon search (the seed library's path).

    Kept as the parity reference for :meth:`WordDecoder._search_lexicon`.
    """
    seg_len = len(segment)
    best_word = ""
    best_score = float("inf")
    for length in range(max(1, seg_len - 2), seg_len + 3):
        for idx in decoder._by_length.get(length, ()):
            word, pron = decoder._entries[idx]
            distance = edit_distance(pron, segment)
            if distance - 1 > best_score:
                continue
            lm_bonus = decoder.language_model.word_score(previous, word)
            score = distance - decoder.lm_weight * lm_bonus
            if score < best_score:
                best_score = score
                best_word = word
    if not best_word:
        # Fall back to an unconstrained search over the whole lexicon.
        for word, pron in decoder._entries:
            distance = edit_distance(pron, segment)
            if distance < best_score:
                best_score = distance
                best_word = word
    result = (best_word, float(best_score if best_score != float("inf") else seg_len))
    return result


def use_scalar_search(decoder: WordDecoder) -> WordDecoder:
    """Make ``decoder`` search the lexicon with :func:`best_word_scalar`.

    Only the per-segment search is replaced; segmentation, the two-word
    split and the segment memo are the decoder's own.  Returns the
    decoder.
    """
    decoder._search_lexicon = MethodType(best_word_scalar, decoder)
    return decoder
