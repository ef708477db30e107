"""Similarity-score feature extraction.

Turns an audio clip (or a batch of pre-computed transcriptions) into the
similarity-score feature vector consumed by the binary classifiers: one
score per auxiliary ASR, each comparing the target ASR's transcription with
that auxiliary's transcription.  Transcription is routed through a
:class:`~repro.pipeline.engine.TranscriptionEngine`, so batches fan out
across the worker pool and repeated clips hit the shared transcription
cache; pass ``workers=0`` (or an engine built that way) to force the
original sequential path.  Scoring is routed through a
:class:`~repro.similarity.engine.SimilarityEngine`, so every function here
is a thin wrapper over its batch APIs: repeated text pairs hit the shared
pair-score cache and each distinct transcription is encoded exactly once.
Pass ``scoring=`` to inject a configured engine (say, one with a private
cache); the ``scorer`` argument alone builds a default engine around it.
"""

from __future__ import annotations

import numpy as np

from repro.asr.base import ASRSystem
from repro.audio.waveform import Waveform
from repro.pipeline.engine import TranscriptionEngine
from repro.similarity.engine import SimilarityEngine
from repro.similarity.scorer import SimilarityScorer


def _resolve_scoring(scorer: SimilarityScorer | str | None,
                     scoring: SimilarityEngine | None) -> SimilarityEngine:
    """The engine to score with; ``scoring`` wins over ``scorer``."""
    if scoring is not None:
        return scoring
    return SimilarityEngine(scorer=scorer)


def suite_score_vector(suite, auxiliary_asrs: list[ASRSystem],
                       scorer: SimilarityScorer | None = None,
                       scoring: SimilarityEngine | None = None) -> np.ndarray:
    """Feature vector from one engine :class:`SuiteTranscription`."""
    return scores_from_transcriptions(
        suite.target.text,
        [suite.auxiliaries[aux.short_name].text for aux in auxiliary_asrs],
        scorer, scoring)


def score_vector(audio: Waveform, target_asr: ASRSystem,
                 auxiliary_asrs: list[ASRSystem],
                 scorer: SimilarityScorer | None = None,
                 engine: TranscriptionEngine | None = None,
                 workers: int | None = None,
                 scoring: SimilarityEngine | None = None) -> np.ndarray:
    """Similarity-score feature vector of a single audio clip."""
    if engine is not None:
        return suite_score_vector(engine.transcribe(audio), auxiliary_asrs,
                                  scorer, scoring)
    with TranscriptionEngine(target_asr, auxiliary_asrs, workers=workers) as engine:
        return suite_score_vector(engine.transcribe(audio), auxiliary_asrs,
                                  scorer, scoring)


def score_vectors(audios: list[Waveform], target_asr: ASRSystem,
                  auxiliary_asrs: list[ASRSystem],
                  scorer: SimilarityScorer | None = None,
                  engine: TranscriptionEngine | None = None,
                  workers: int | None = None,
                  scoring: SimilarityEngine | None = None) -> np.ndarray:
    """Similarity-score feature matrix of a batch of audio clips."""
    if engine is not None:
        suites = engine.transcribe_batch(list(audios))
    else:
        with TranscriptionEngine(target_asr, auxiliary_asrs,
                                 workers=workers) as engine:
            suites = engine.transcribe_batch(list(audios))
    if not suites:
        return np.empty((0, len(auxiliary_asrs)), dtype=np.float64)
    return _resolve_scoring(scorer, scoring).score_suites(suites, auxiliary_asrs)


def scores_from_transcriptions(target_text: str, auxiliary_texts: list[str],
                               scorer: SimilarityScorer | None = None,
                               scoring: SimilarityEngine | None = None) -> np.ndarray:
    """Feature vector from already-computed transcriptions."""
    return np.asarray(
        _resolve_scoring(scorer, scoring).score_texts(target_text,
                                                      auxiliary_texts),
        dtype=np.float64)
