"""Forced alignment of a target phrase onto analysis frames.

Both targeted attacks need a frame-level supervision signal: which phoneme
the target model should output at every frame so that, after CTC-style
collapsing and word decoding, the transcription equals the attacker's
phrase.  The alignment spreads the target phonemes over the available
frames proportionally to their nominal durations, inserting silence at word
boundaries and at the edges of the utterance.
"""

from __future__ import annotations

import numpy as np

from repro.text.lexicon import Lexicon
from repro.text.normalize import tokenize
from repro.text.phonemes import PHONEME_TO_INDEX, SILENCE, Phoneme, phoneme_profile


class HostTooShortError(ValueError):
    """The host audio has too few frames to carry the target phrase.

    A property of the host, not of the attack: dataset builders catch it
    and move on to the next host.
    """


def target_frame_alignment(target_text: str, n_frames: int, lexicon: Lexicon,
                           min_frames_per_phoneme: int = 2) -> np.ndarray:
    """Assign a target phoneme index to each of ``n_frames`` frames.

    Args:
        target_text: the attacker's phrase.
        n_frames: number of analysis frames of the host audio.
        lexicon: pronunciation lexicon shared with the ASRs.
        min_frames_per_phoneme: lower bound on the number of frames assigned
            to each phoneme (the CTC-style decoders drop runs shorter than
            their ``min_run``).

    Returns:
        Integer array of length ``n_frames`` with phoneme indices.

    Raises:
        HostTooShortError: if the host audio is too short to carry the
            phrase.
        ValueError: if the phrase is empty after normalisation.
    """
    if n_frames <= 0:
        raise HostTooShortError("host audio produced no frames")
    phonemes = lexicon.pronounce_sentence(target_text)
    if len(phonemes) <= 2:
        raise ValueError("target text is empty after normalisation")
    if n_frames < len(phonemes) * min_frames_per_phoneme:
        raise HostTooShortError(
            f"host audio too short: {n_frames} frames for {len(phonemes)} phonemes")

    durations = np.array([phoneme_profile(p).duration for p in phonemes])
    weights = durations / durations.sum()
    counts = np.maximum(min_frames_per_phoneme,
                        np.round(weights * n_frames).astype(int))
    # Adjust the longest/shortest segments until the counts sum to n_frames.
    while counts.sum() > n_frames:
        candidates = np.where(counts > min_frames_per_phoneme)[0]
        if candidates.size == 0:
            break
        counts[candidates[np.argmax(counts[candidates])]] -= 1
    while counts.sum() < n_frames:
        counts[int(np.argmax(weights))] += 1

    alignment = np.empty(n_frames, dtype=int)
    position = 0
    for phoneme, count in zip(phonemes, counts):
        end = min(n_frames, position + int(count))
        alignment[position:end] = PHONEME_TO_INDEX[phoneme]
        position = end
    if position < n_frames:
        alignment[position:] = PHONEME_TO_INDEX[SILENCE]
    return alignment


def _stretch_phonemes(phonemes: list[Phoneme], n_frames: int,
                      min_frames_per_phoneme: int) -> list[int]:
    """Spread ``phonemes`` over ``n_frames`` frames proportionally."""
    durations = np.array([phoneme_profile(p).duration for p in phonemes])
    weights = durations / durations.sum()
    counts = np.maximum(min_frames_per_phoneme,
                        np.round(weights * n_frames).astype(int))
    while counts.sum() > n_frames:
        candidates = np.where(counts > min_frames_per_phoneme)[0]
        if candidates.size == 0:
            break
        counts[candidates[np.argmax(counts[candidates])]] -= 1
    while counts.sum() < n_frames:
        counts[int(np.argmax(weights))] += 1
    labels: list[int] = []
    for phoneme, count in zip(phonemes, counts):
        labels.extend([PHONEME_TO_INDEX[phoneme]] * int(count))
    return labels[:n_frames]


def target_alignment_from_host(target_text: str, host_frame_labels: list[Phoneme],
                               lexicon: Lexicon,
                               min_frames_per_phoneme: int = 2) -> np.ndarray:
    """Align the target phrase onto the host's existing speech regions.

    Perturbing silence into speech and speech into silence is the most
    expensive thing an audio attack can do, so instead of stretching the
    target phrase uniformly over the utterance this alignment reuses the
    host's structure: leading/trailing silence stays silent, the host's
    longest internal pauses become the target's word boundaries, and each
    target word is stretched over the speech frames between two boundaries.

    Args:
        target_text: the attacker's phrase.
        host_frame_labels: the target ASR's frame labels for the *host*
            audio (obtained from a normal transcription pass).
        lexicon: pronunciation lexicon shared with the ASRs.
        min_frames_per_phoneme: lower bound per phoneme, matching the
            decoder's minimum run length.

    Returns:
        Integer array with one target phoneme index per host frame.

    Raises:
        HostTooShortError: if the host's speech frames cannot carry the
            phrase.
        ValueError: if the phrase is empty or the host has no speech.
    """
    n_frames = len(host_frame_labels)
    words = tokenize(target_text)
    if not words:
        raise ValueError("target text is empty after normalisation")
    silence_index = PHONEME_TO_INDEX[SILENCE]

    is_speech = np.array([label != SILENCE for label in host_frame_labels])
    if not is_speech.any():
        raise ValueError("host audio contains no speech frames")
    first_speech = int(np.argmax(is_speech))
    last_speech = int(n_frames - np.argmax(is_speech[::-1]) - 1)
    speech_span = range(first_speech, last_speech + 1)

    # Internal pauses (runs of silence inside the speech span), longest first.
    pauses: list[tuple[int, int]] = []
    run_start = None
    for i in speech_span:
        if not is_speech[i]:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            pauses.append((run_start, i - 1))
            run_start = None
    pauses.sort(key=lambda span: span[1] - span[0], reverse=True)
    boundaries = sorted(pauses[: max(0, len(words) - 1)])

    # Build word regions between consecutive boundaries.
    regions: list[tuple[int, int]] = []
    start = first_speech
    for pause_start, pause_end in boundaries:
        regions.append((start, pause_start - 1))
        start = pause_end + 1
    regions.append((start, last_speech))
    regions = [(s, e) for s, e in regions if e >= s]

    alignment = np.full(n_frames, silence_index, dtype=int)
    if len(regions) >= len(words):
        # One region per word; spare regions are merged into the last word.
        merged = regions[: len(words) - 1] + [(regions[len(words) - 1][0],
                                               regions[-1][1])]
        for word, (region_start, region_end) in zip(words, merged):
            span = region_end - region_start + 1
            phonemes = list(lexicon.pronounce(word))
            needed = len(phonemes) * min_frames_per_phoneme
            if span < needed:
                # Grow the region to the right if the host word is too short.
                region_end = min(last_speech, region_start + needed - 1)
                span = region_end - region_start + 1
            if span < needed:
                raise HostTooShortError(
                    "host audio too short for the target phrase")
            alignment[region_start:region_end + 1] = _stretch_phonemes(
                phonemes, span, min_frames_per_phoneme)
        return alignment

    # Fewer host regions than target words: stretch the full pronunciation
    # (with inter-word silences) over the whole speech span.
    span = last_speech - first_speech + 1
    phonemes = lexicon.pronounce_sentence(target_text)
    if span < len(phonemes) * min_frames_per_phoneme:
        raise HostTooShortError("host audio too short for the target phrase")
    alignment[first_speech:last_speech + 1] = _stretch_phonemes(
        phonemes, span, min_frames_per_phoneme)
    return alignment
