"""Batched detection on top of the transcription engine.

:class:`DetectionPipeline` runs the three stages of MVP-EARS detection —
recognition, similarity calculation, classification — over a *batch* of
clips: recognition fans out through a
:class:`~repro.pipeline.engine.TranscriptionEngine`, similarity scoring
is one :meth:`~repro.similarity.engine.SimilarityEngine.score_suites`
batch call (encode-once fast kernels + the shared pair-score cache), and
classification is one vectorised classifier call for the whole batch.
Per-stage wall-clock timing is reported in the same three components the
paper's overhead experiment (Section V-I) measures; both cache layers'
hit/miss counts ride along on the batch result, so the observer hook
(e.g. :class:`~repro.serving.metrics.ServingMetrics`) sees transcription
*and* pair-score hit rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.audio.waveform import Waveform
from repro.pipeline.engine import SuiteTranscription, TranscriptionEngine

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import:
    # repro.core.detector builds its engine from repro.pipeline.engine.
    from repro.core.detector import DetectionResult, MVPEarsDetector

#: Stage keys reported by the pipeline, matching the paper's overhead
#: experiment components.
STAGE_KEYS: tuple[str, ...] = ("recognition", "similarity", "classification")


@dataclass(frozen=True)
class BatchDetectionResult:
    """Outcome of detecting a batch of clips in one pipeline pass.

    Attributes:
        results: one :class:`~repro.core.detector.DetectionResult` per
            input clip, in input order.
        features: the similarity-score matrix, shape ``(n, n_aux)``.
        predictions: classifier labels (0 benign, 1 adversarial).
        stage_seconds: total wall-clock seconds per stage (keys
            ``recognition``, ``similarity``, ``classification``) plus
            ``total``.
        recognition_overheads: per-clip parallel recognition overhead
            (slowest auxiliary decode time beyond the target's).
        target_decode_seconds: per-clip decode time of the target model
            alone — the baseline the paper compares every overhead
            component against.
        cache_hits: transcriptions served from the engine cache.
        cache_misses: transcriptions actually decoded.
        score_cache_hits: pair scores served from the pair-score cache.
        score_cache_misses: pair scores actually computed.
        feature_cache_hits: front-end feature matrices served from the
            feature cache during this batch.
        feature_cache_misses: front-end feature matrices computed.
    """

    results: list[DetectionResult]
    features: np.ndarray
    predictions: np.ndarray
    stage_seconds: dict = field(default_factory=dict)
    recognition_overheads: np.ndarray = field(default_factory=lambda: np.zeros(0))
    target_decode_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cache_hits: int = 0
    cache_misses: int = 0
    score_cache_hits: int = 0
    score_cache_misses: int = 0
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def n_adversarial(self) -> int:
        """Number of clips classified as adversarial."""
        return int(np.sum(self.predictions == 1))

    def mean_stage_seconds(self) -> dict:
        """Per-clip mean wall-clock seconds for each stage."""
        n = max(1, len(self.results))
        return {key: value / n for key, value in self.stage_seconds.items()}


class DetectionPipeline:
    """Batched recognition → similarity → classification.

    Args:
        detector: a fitted :class:`~repro.core.detector.MVPEarsDetector`;
            its scorer and classifier are reused.
        engine: the transcription engine to fan recognition out with.
            Defaults to the detector's own engine, so pipeline and
            single-clip detection share one cache and worker pool.
        observer: optional callable invoked with every non-empty
            :class:`BatchDetectionResult` this pipeline produces — the
            hook the serving layer uses to accumulate throughput
            counters (see :class:`repro.serving.metrics.ServingMetrics`,
            whose ``observe_batch`` method has this signature).
    """

    def __init__(self, detector: MVPEarsDetector,
                 engine: TranscriptionEngine | None = None,
                 observer=None):
        self.detector = detector
        self.engine = engine if engine is not None else detector.engine
        self.observer = observer

    # -------------------------------------------------------------- features
    def transcribe_batch(self, audios: list[Waveform]) -> list[SuiteTranscription]:
        """Recognition stage only: suite transcriptions for a batch."""
        return self.engine.transcribe_batch(audios)

    def score_suites(self, suites: list[SuiteTranscription]) -> np.ndarray:
        """Similarity stage only: score matrix from suite transcriptions.

        One :meth:`SimilarityEngine.score_suites` batch call — every
        distinct transcription in the batch is encoded once and repeated
        pairs come from the pair-score cache.
        """
        return self.detector.scoring.score_suites(
            suites, self.detector.auxiliary_asrs)

    def extract_features(self, audios: list[Waveform]) -> np.ndarray:
        """Similarity-score feature matrix for a batch of clips."""
        return self.score_suites(self.transcribe_batch(audios))

    # -------------------------------------------------------------- detection
    def detect(self, audio: Waveform) -> DetectionResult:
        """Detect a single clip (delegates to the detector)."""
        return self.detector.detect(audio)

    def detect_batch(self, audios: list[Waveform]) -> BatchDetectionResult:
        """Detect a batch of clips with per-stage timing.

        Classification is one vectorised call on the whole score matrix,
        which is how a deployed detector amortises classifier overhead
        across concurrent requests.
        """
        from repro.core.detector import DetectionResult

        audios = list(audios)
        if not audios:
            # Not observed: an empty batch did no work and would dilute
            # observer throughput/batch-size statistics.
            return BatchDetectionResult(
                results=[], features=np.zeros((0, 0)),
                predictions=np.zeros(0, dtype=int),
                stage_seconds=dict.fromkeys((*STAGE_KEYS, "total"), 0.0))
        feature_before = self.engine.feature_stats
        start = time.perf_counter()
        suites = self.engine.transcribe_batch(audios)
        recognition_end = time.perf_counter()
        feature_after = self.engine.feature_stats
        features, score_report = self.detector.scoring.score_suites_report(
            suites, self.detector.auxiliary_asrs)
        similarity_end = time.perf_counter()
        predictions = self.detector.predict_features(features)
        classification_end = time.perf_counter()

        n = len(audios)
        similarity_each = (similarity_end - recognition_end) / n
        classification_each = (classification_end - similarity_end) / n
        overheads = np.array([suite.recognition_overhead for suite in suites])
        results = [
            DetectionResult(
                is_adversarial=bool(predictions[row] == 1),
                scores=features[row],
                target_transcription=suite.target.text,
                auxiliary_transcriptions=suite.auxiliary_texts,
                elapsed_seconds=(suite.wall_seconds + similarity_each
                                 + classification_each),
                timing={
                    "recognition": suite.wall_seconds,
                    "recognition_overhead": suite.recognition_overhead,
                    "similarity": similarity_each,
                    "classification": classification_each,
                },
            )
            for row, suite in enumerate(suites)
        ]
        return self._observed(BatchDetectionResult(
            results=results,
            features=features,
            predictions=np.asarray(predictions, dtype=int),
            stage_seconds={
                "recognition": recognition_end - start,
                "similarity": similarity_end - recognition_end,
                "classification": classification_end - similarity_end,
                "total": classification_end - start,
            },
            recognition_overheads=overheads,
            target_decode_seconds=np.array(
                [suite.target.elapsed_seconds for suite in suites]),
            cache_hits=sum(suite.cache_hits for suite in suites),
            cache_misses=sum(suite.cache_misses for suite in suites),
            score_cache_hits=score_report.cache_hits,
            score_cache_misses=score_report.cache_misses,
            feature_cache_hits=feature_after.hits - feature_before.hits,
            feature_cache_misses=feature_after.misses - feature_before.misses,
        ))

    def _observed(self, batch: BatchDetectionResult) -> BatchDetectionResult:
        if self.observer is not None:
            self.observer(batch)
        return batch
