"""Content-addressed transcription caching.

Transcribing a clip is by far the most expensive operation in the
library, and the same waveforms are transcribed again and again: every
experiment table re-reads the same dataset bundle, the overhead benchmark
replays clips the scored dataset already saw, and a deployed detector
screens repeated audio (replayed commands, re-submitted uploads).

The cache key is the clip's content hash
(:attr:`~repro.audio.waveform.Waveform.fingerprint`: the raw samples
plus the sample rate, computed once per waveform) and the ASR's
identity (``name`` and ``short_name``), so two
:class:`~repro.audio.waveform.Waveform` instances with identical audio
share one cache entry regardless of label or metadata.  Simulated ASRs
are deterministic — the same samples always decode to the same
transcription — which is what makes caching sound.  Caveat: two ASR
instances reporting the same ``name``/``short_name`` pair are assumed to
be the same system; custom variants with identical names but different
configuration must use distinct names or a private cache
(``cache=False`` / a dedicated :class:`TranscriptionCache`).

Storage is a :class:`~repro.caching.ContentCache`, optionally on disk
(:func:`~repro.caching.json_store`) so new processes skip decoding too.
"""

from __future__ import annotations

import json

from repro.asr.base import Transcription
from repro.audio.waveform import Waveform
from repro.caching import ContentCache


def _transcription_to_json(result: Transcription) -> dict:
    payload = {
        "text": result.text,
        "phonemes": list(result.phonemes),
        "frame_labels": list(result.frame_labels),
        "asr_name": result.asr_name,
        "elapsed_seconds": result.elapsed_seconds,
    }
    try:
        json.dumps(result.extra)
        payload["extra"] = result.extra
    except (TypeError, ValueError):
        payload["extra"] = {}
    return payload


def _transcription_from_json(payload: dict) -> Transcription:
    return Transcription(
        text=payload["text"],
        phonemes=tuple(payload.get("phonemes", ())),
        frame_labels=tuple(payload.get("frame_labels", ())),
        asr_name=payload.get("asr_name", ""),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        extra=dict(payload.get("extra", {})),
    )


class TranscriptionCache(ContentCache):
    """LRU cache of transcriptions keyed by ASR identity + audio content.

    A ``.jsonl`` path is an append-only journal shared by concurrent
    processes (the serving workers' store); any other path is a JSON
    snapshot.  Transcriptions are cached as given.
    """

    default_capacity = 4096
    _encode = staticmethod(_transcription_to_json)
    _decode = staticmethod(_transcription_from_json)

    @staticmethod
    def key_for(asr, audio: Waveform) -> str:
        """Cache key of one (ASR, waveform) pair.

        ``asr`` is an :class:`~repro.asr.base.ASRSystem`; its ``name``
        and ``short_name`` together identify the system (see the module
        docstring for the same-name caveat).
        """
        return f"{asr.short_name}|{asr.name}:{audio.fingerprint}"
