"""Transformation-ensemble detection.

The paper detects AEs by disagreement between *different ASR models*;
WaveGuard shows the same disagreement signal appears between the target
model's view of the original audio and its view of cheaply *transformed*
variants.  This module makes transformations first-class members of the
multiversion suite:

* :class:`TransformedASR` adapts a ``(transform, ASR)`` pair into an
  ordinary :class:`~repro.asr.base.ASRSystem`, so the transcription
  engine fans it out in parallel, the content-hash cache stores its
  results, and the pipeline/serving layers need no changes at all.
* :class:`TransformEnsembleDetector` is an
  :class:`~repro.core.detector.MVPEarsDetector` whose auxiliaries are
  transformed versions of the *target* model — optionally alongside real
  auxiliary ASRs (the "combined" system).

Because every transform is deterministic and every score is a pure
function of transcription texts, the similarity-score vectors are
bit-identical whether a clip is detected sequentially, in a pipeline
batch, through the detection service or as a stream window.
"""

from __future__ import annotations

import numpy as np

from repro.asr.base import ASRSystem, Transcription
from repro.core.detector import MVPEarsDetector
from repro.defenses.transforms import Transform, default_transform_suite
from repro.ml.base import BinaryClassifier
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.engine import TranscriptionEngine
from repro.similarity.engine import ScoringBackend, SimilarityEngine
from repro.similarity.scorer import SimilarityScorer


class TransformedASR(ASRSystem):
    """An ASR "version" that hears the audio through a transform.

    ``transcribe`` applies the transform and delegates to the base
    system; reported timing covers transform plus decode, so overhead
    accounting in the engine stays honest.  ``name``/``short_name``
    embed the transform's parameter-bearing name, keeping cache keys
    distinct per configuration (see
    :meth:`~repro.pipeline.cache.TranscriptionCache.key_for`).
    """

    def __init__(self, base_asr: ASRSystem, transform: Transform):
        self.base_asr = base_asr
        self.transform = transform
        self.name = f"{base_asr.name} via {transform.name}"
        self.short_name = f"{base_asr.short_name}~{transform.name}"
        self.is_cloud = base_asr.is_cloud

    def _transcribe_samples(self, samples: np.ndarray,
                            sample_rate: int) -> Transcription:
        transformed = np.clip(
            self.transform.apply_samples(np.asarray(samples, dtype=np.float64),
                                         sample_rate),
            -1.0, 1.0)
        return self.base_asr._transcribe_samples(transformed, sample_rate)


def transformed_suite(base_asr: ASRSystem,
                      transforms: list[Transform] | None = None) -> list[TransformedASR]:
    """Wrap ``base_asr`` once per transform (default: the standard suite)."""
    transforms = list(transforms) if transforms is not None else \
        default_transform_suite()
    return [TransformedASR(base_asr, transform) for transform in transforms]


class TransformEnsembleDetector(MVPEarsDetector):
    """MVP-EARS detection with transformations as auxiliary versions.

    The auxiliary suite is ``asr_auxiliaries`` (real diverse models —
    empty for the pure transform ensemble) followed by one
    :class:`TransformedASR` per transform.  Everything else — parallel
    fan-out, caching, batched pipeline, streaming, micro-batching,
    classifier training — is inherited unchanged from
    :class:`~repro.core.detector.MVPEarsDetector`.

    Args:
        target_asr: the model under protection (also the model that
            hears every transformed variant).
        transforms: the transformation ensemble (default:
            :func:`~repro.defenses.transforms.default_transform_suite`).
        asr_auxiliaries: real auxiliary ASRs to keep alongside the
            transforms; pass the paper's suite for the combined system.
        classifier / scorer / workers / engine / cache / scoring: as for
            :class:`~repro.core.detector.MVPEarsDetector`.  The shared
            pair-score cache matters doubly here: transform auxiliaries
            often agree with the target verbatim on benign audio, so
            their suite pairs collapse to a handful of cache entries.
    """

    def __init__(self, target_asr: ASRSystem,
                 transforms: list[Transform] | None = None,
                 asr_auxiliaries: list[ASRSystem] | None = None,
                 classifier: BinaryClassifier | str = "SVM",
                 scorer: SimilarityScorer | str | None = None,
                 workers: int | None = None,
                 engine: TranscriptionEngine | None = None,
                 cache: TranscriptionCache | bool | None = True,
                 scoring: SimilarityEngine | ScoringBackend | str | None = None,
                 feature_engine=None):
        transforms = list(transforms) if transforms is not None else \
            default_transform_suite()
        if not transforms and not asr_auxiliaries:
            raise ValueError("need at least one transform or ASR auxiliary")
        auxiliaries: list[ASRSystem] = list(asr_auxiliaries or [])
        auxiliaries.extend(TransformedASR(target_asr, t) for t in transforms)
        super().__init__(target_asr, auxiliaries, classifier=classifier,
                         scorer=scorer, workers=workers, engine=engine,
                         cache=cache, scoring=scoring,
                         feature_engine=feature_engine)
        self.transforms = transforms
        self.asr_auxiliaries = list(asr_auxiliaries or [])

    # ----------------------------------------------------------- construction
    @classmethod
    def from_spec(cls, spec, fit: bool = True) -> "TransformEnsembleDetector":
        """Build a transform ensemble from a declarative spec.

        ``spec`` is anything :func:`repro.build.resolve_spec` accepts.
        The suite must have the canonical ensemble shape — plain
        auxiliaries followed by transformed views of the target (what
        ``DetectorSpec.default(defense="transform"|"combined")``
        produces); anything else is refused up front, before any
        dataset or training work, since :func:`repro.build.build` would
        return a plain :class:`MVPEarsDetector` for it.
        """
        from repro.build import build, is_canonical_ensemble, resolve_spec
        from repro.specs import InvalidSpecError
        spec = resolve_spec(spec)
        if not is_canonical_ensemble(spec.suite):
            raise InvalidSpecError(
                ["suite.auxiliaries: not a transform-ensemble shape (expected "
                 "plain auxiliaries followed by transformed views of the "
                 "target); use repro.build() for arbitrary suites"])
        detector = build(spec, fit=fit)
        assert isinstance(detector, cls)
        return detector

    # ---------------------------------------------------------- description
    @property
    def transform_names(self) -> tuple[str, ...]:
        """Names of the transformation ensemble, in auxiliary order."""
        return tuple(t.name for t in self.transforms)

    # ------------------------------------------------------------- training
    def fit_bundle(self, bundle) -> "TransformEnsembleDetector":
        """Fit the classifier on a :class:`DatasetBundle`'s audio.

        Transform-disagreement scores cannot come from the pre-computed
        multi-ASR scored dataset, so training extracts fresh features
        from the bundle's benign + adversarial audio (transcriptions are
        served from the engine cache on repeat runs).
        """
        samples = bundle.all_samples
        audios = [sample.waveform for sample in samples]
        labels = np.array([sample.label for sample in samples], dtype=int)
        return self.fit(audios, labels)
