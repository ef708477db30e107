"""The MVP-EARS detector (Figure 3 of the paper).

A detector is a target ASR, a set of auxiliary ASRs, a similarity scorer
and a binary classifier.  Given an audio clip, every ASR transcribes it in
parallel — recognition fans out across a
:class:`~repro.pipeline.engine.TranscriptionEngine` worker pool, with
``workers=0`` selecting the original sequential path — one similarity
score per auxiliary is computed between the target transcription and that
auxiliary's transcription through a
:class:`~repro.similarity.engine.SimilarityEngine` (encode-once kernels
+ shared pair-score cache, the ``scoring`` constructor argument), and the
score vector is classified as benign or adversarial.  Batched detection
over many clips lives in
:class:`~repro.pipeline.detection.DetectionPipeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.asr.base import ASRSystem
from repro.audio.waveform import Waveform
from repro.core.features import score_vectors, suite_score_vector
from repro.ml.base import BinaryClassifier
from repro.ml.metrics import ClassificationReport, classification_report
from repro.ml.registry import build_classifier
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.engine import TranscriptionEngine
from repro.similarity.engine import SimilarityEngine
from repro.similarity.scorer import SimilarityScorer


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of detecting one audio clip.

    Attributes:
        is_adversarial: the detector's verdict.
        scores: the per-auxiliary similarity scores.
        target_transcription: what the target ASR heard.
        auxiliary_transcriptions: what each auxiliary ASR heard.
        elapsed_seconds: end-to-end detection time, split into the three
            components measured by the paper's overhead experiment.
        timing: dict with ``recognition``, ``recognition_overhead``,
            ``similarity`` and ``classification`` wall-clock seconds.
    """

    is_adversarial: bool
    scores: np.ndarray
    target_transcription: str
    auxiliary_transcriptions: dict[str, str]
    elapsed_seconds: float
    timing: dict = field(default_factory=dict)


class MVPEarsDetector:
    """Multi-version-programming-inspired audio AE detector.

    Args:
        target_asr: the model under protection.
        auxiliary_asrs: the diverse auxiliary models.
        classifier: a fitted-later binary classifier or a registry name.
        scorer: similarity scorer or registry name (default: the paper's
            PE_JaroWinkler); ignored when ``scoring`` is a pre-built
            engine.
        workers: transcription worker-pool size; ``0`` keeps the original
            sequential path, ``None`` picks a default from the CPU count.
        engine: inject a pre-built :class:`TranscriptionEngine` (for a
            shared pool/cache); overrides ``workers``/``cache``.
        cache: transcription cache policy, passed through to the engine
            (``True`` shares the process-wide content-hash cache).
        scoring: a pre-built
            :class:`~repro.similarity.engine.SimilarityEngine`, or
            ``None`` for an engine over ``scorer`` with the shared
            pair-score cache.
        feature_engine: optional :class:`~repro.dsp.engine.FeatureEngine`
            handed to a newly built transcription engine so suite members
            share front-end feature matrices (ignored when ``engine`` is
            injected — the injected engine keeps its own).
    """

    def __init__(self, target_asr: ASRSystem, auxiliary_asrs: list[ASRSystem],
                 classifier: BinaryClassifier | str = "SVM",
                 scorer: SimilarityScorer | str | None = None,
                 workers: int | None = None,
                 engine: TranscriptionEngine | None = None,
                 cache: TranscriptionCache | bool | None = True,
                 scoring: SimilarityEngine | None = None,
                 feature_engine=None):
        if not auxiliary_asrs:
            raise ValueError("at least one auxiliary ASR is required")
        self.target_asr = target_asr
        self.auxiliary_asrs = list(auxiliary_asrs)
        self.classifier = (build_classifier(classifier)
                           if isinstance(classifier, str) else classifier)
        self.scoring = (scoring if scoring is not None
                        else SimilarityEngine(scorer=scorer))
        self.scorer = self.scoring.scorer
        self.engine = engine if engine is not None else TranscriptionEngine(
            target_asr, self.auxiliary_asrs, workers=workers, cache=cache,
            feature_engine=feature_engine)
        self._fitted = False

    def close(self) -> None:
        """Shut the engine's worker pool down (idempotent)."""
        self.engine.close()

    # ----------------------------------------------------------- description
    @property
    def system_name(self) -> str:
        """Name in the paper's ``Target+{Aux1, ...}`` notation."""
        auxiliaries = ", ".join(asr.short_name for asr in self.auxiliary_asrs)
        return f"{self.target_asr.short_name}+{{{auxiliaries}}}"

    @property
    def n_features(self) -> int:
        """Dimensionality of the similarity-score feature vector."""
        return len(self.auxiliary_asrs)

    # ------------------------------------------------------------- training
    def extract_features(self, audios: list[Waveform]) -> np.ndarray:
        """Similarity-score feature matrix for a batch of audio clips."""
        return score_vectors(audios, self.target_asr, self.auxiliary_asrs,
                             engine=self.engine, scoring=self.scoring)

    def fit(self, audios: list[Waveform], labels: np.ndarray) -> "MVPEarsDetector":
        """Train the binary classifier on labelled audio clips."""
        features = self.extract_features(audios)
        return self.fit_features(features, labels)

    def fit_features(self, features: np.ndarray, labels: np.ndarray) -> "MVPEarsDetector":
        """Train the binary classifier on pre-computed score vectors."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"expected features with {self.n_features} columns, got {features.shape}")
        self.classifier.fit(features, np.asarray(labels))
        self._fitted = True
        return self

    # ------------------------------------------------------------- inference
    def detect(self, audio: Waveform) -> DetectionResult:
        """Classify a single audio clip, reporting component timings."""
        if not self._fitted:
            raise RuntimeError("detector has not been trained; call fit() first")
        start = time.perf_counter()
        suite = self.engine.transcribe(audio)
        recognition_end = time.perf_counter()

        scores = suite_score_vector(suite, self.auxiliary_asrs,
                                    scoring=self.scoring)
        similarity_end = time.perf_counter()
        verdict = bool(self.classifier.predict(scores[None, :])[0] == 1)
        classification_end = time.perf_counter()

        return DetectionResult(
            is_adversarial=verdict,
            scores=scores,
            target_transcription=suite.target.text,
            auxiliary_transcriptions=suite.auxiliary_texts,
            elapsed_seconds=classification_end - start,
            timing={
                "recognition": recognition_end - start,
                # Recognition overhead attributable to the detector is the
                # extra decode time of the slowest auxiliary beyond the
                # target model, since all ASRs run in parallel.
                "recognition_overhead": suite.recognition_overhead,
                "similarity": similarity_end - recognition_end,
                "classification": classification_end - similarity_end,
            },
        )

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """Predict labels for pre-computed score vectors."""
        if not self._fitted:
            raise RuntimeError("detector has not been trained; call fit() first")
        return self.classifier.predict(np.asarray(features, dtype=np.float64))

    def evaluate_features(self, features: np.ndarray,
                          labels: np.ndarray) -> ClassificationReport:
        """Accuracy / FPR / FNR report on pre-computed score vectors."""
        predictions = self.predict_features(features)
        return classification_report(np.asarray(labels), predictions)
