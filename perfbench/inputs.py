"""Seeded benchmark inputs and the properties the workloads record about them.

Every input is a pure function of the run's ``--seed``: a detection clip
is a function of ``(seed, stream, index)``, so a stream can be extended
lazily and still be identical from run to run.  The program under test
only ever sees the generated waveforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.asr.registry import get_shared_lexicon
from repro.audio.synthesis import SpeechSynthesizer
from repro.audio.waveform import Waveform
from repro.config import SAMPLE_RATE
from repro.text.corpus import librispeech_like_corpus

#: Every detection clip is a natural utterance zero-padded to this length.
CLIP_SECONDS = 5.0

#: Seed streams, so workloads and phases never share clips by accident.
(STREAM_UNIQUE, STREAM_HOT, STREAM_SERVE, STREAM_CRAFT, STREAM_ARRIVALS,
 STREAM_WARMUP) = range(1, 7)


class ClipStream:
    """Distinct natural utterances from the LibriSpeech-like corpus."""

    def __init__(self, seed: int, stream: int):
        self.seed = seed
        self.stream = stream
        self.corpus = librispeech_like_corpus()
        self.synthesizer = SpeechSynthesizer(lexicon=get_shared_lexicon(),
                                             seed=seed)
        self._n_samples = int(round(CLIP_SECONDS * SAMPLE_RATE))

    def clip(self, index: int) -> Waveform:
        rng = np.random.default_rng((self.seed, self.stream, index))
        sentence = self.corpus.sample_one(rng)
        utterance = self.synthesizer.synthesize(sentence, rng=rng)
        if len(utterance) > self._n_samples:
            raise ValueError(f"utterance {sentence!r} is longer than "
                             f"{CLIP_SECONDS} s")
        return utterance.padded_to(self._n_samples)

    def clips(self, start: int, count: int) -> list[Waveform]:
        return [self.clip(index) for index in range(start, start + count)]


def content_digest(audio: Waveform) -> str:
    return hashlib.sha1(audio.samples.tobytes()).hexdigest()


def clip_properties(texts: list[str], contents: list[str]) -> dict:
    """Input properties later claims can cite by measured share.

    ``texts`` are the clips' sentences and ``contents`` their
    :func:`content_digest` values, one per clip sent.
    """
    n = len(texts)
    return {
        "clips": n,
        "clip_seconds": CLIP_SECONDS,
        "distinct_content_share": len(set(contents)) / n if n else 0.0,
        "repeated_sentence_share": 1.0 - len(set(texts)) / n if n else 0.0,
        "corpus_sentences": len(librispeech_like_corpus()),
    }


def poisson_schedule(seed: int, phase: int, rate: float,
                     seconds: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process
    conditioned on exactly ``rate * seconds`` arrivals.

    Given its count, a Poisson process's arrival times are independent
    and uniform over the window; fixing the count keeps every run's
    sample size the same without making the arrivals regular.
    """
    rng = np.random.default_rng((seed, STREAM_ARRIVALS, phase))
    count = int(round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count))
