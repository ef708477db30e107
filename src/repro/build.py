"""One entry point from spec to running system: ``repro.build(spec)``.

Where :mod:`repro.specs` describes a detection system as data, this
module turns that data into objects: a fitted
:class:`~repro.core.detector.MVPEarsDetector` (:func:`build`), a batched
:class:`~repro.pipeline.detection.DetectionPipeline`
(:func:`build_pipeline`), a
:class:`~repro.serving.streaming.StreamingDetector`
(:func:`build_streaming`) or a multi-process
:class:`~repro.serving.service.DetectionService`
(:func:`build_service`).  Every constructor accepts a
:class:`~repro.specs.DetectorSpec`, a plain dict, or a path to a JSON
config file, and validates the spec before touching any heavy machinery
— a typo fails with the field name and the allowed values, not a stack
trace from deep inside the suite build.

A spec produced by :meth:`DetectorSpec.default` builds the paper's
headline system ``DS0+{DS1, GCS, AT}``, trained on the scored dataset.
"""

from __future__ import annotations

import os
from typing import Mapping

from repro.asr.base import ASRSystem
from repro.asr.registry import build_asr
from repro.core.detector import MVPEarsDetector
from repro.pipeline.engine import resolve_transcription_cache
from repro.similarity.engine import SimilarityEngine, resolve_score_cache
from repro.specs import ASRSpec, DetectorSpec, InvalidSpecError


def resolve_spec(spec: DetectorSpec | Mapping | str | None) -> DetectorSpec:
    """Coerce ``spec`` into a validated :class:`DetectorSpec`.

    Accepts a spec instance, a plain dict (``DetectorSpec.from_dict``),
    a path to a JSON file (``DetectorSpec.load`` — includes the
    environment overlay), or ``None`` for the default system.
    """
    if spec is None:
        spec = DetectorSpec.default()
    elif isinstance(spec, (str, os.PathLike)):
        spec = DetectorSpec.load(os.fspath(spec))
    elif isinstance(spec, Mapping):
        spec = DetectorSpec.from_dict(spec)
    elif not isinstance(spec, DetectorSpec):
        raise TypeError(
            f"expected a DetectorSpec, dict or config path, got {spec!r}")
    return spec.validate()


def _resolve_member(member: ASRSpec) -> ASRSystem:
    base = build_asr(member.name)
    if member.transform is None:
        return base
    from repro.defenses.ensemble import TransformedASR
    return TransformedASR(base, member.transform.build())


def build_suite(suite) -> tuple[ASRSystem, list[ASRSystem]]:
    """Resolve a :class:`~repro.specs.SuiteSpec` into ASR instances.

    Returns ``(target, auxiliaries)`` in suite order; transformed
    members come back as :class:`TransformedASR` views.
    """
    return (_resolve_member(suite.target),
            [_resolve_member(member) for member in suite.auxiliaries])


def is_canonical_ensemble(suite) -> bool:
    """Whether a suite has the transform-ensemble shape.

    Canonical: plain auxiliaries followed by at least one transformed
    view *of the target* — the shape
    ``DetectorSpec.default(defense="transform"|"combined")`` produces.
    :func:`build` maps exactly these suites to a
    :class:`~repro.defenses.ensemble.TransformEnsembleDetector`.
    """
    members = tuple(suite.auxiliaries)
    plain = tuple(m for m in members if m.transform is None)
    tail = members[len(plain):]
    return (bool(tail) and members[:len(plain)] == plain
            and all(m.transform is not None and m.name == suite.target.name
                    for m in tail))


def build_feature_engine(features_spec):
    """Resolve a :class:`~repro.specs.FeaturesSpec` into a feature engine.

    ``backend="off"`` returns ``None`` — the transcription engine then
    leaves every ASR to run its own front end from raw samples (the
    fully paper-faithful per-clip path).
    """
    if features_spec.backend == "off":
        return None
    from repro.dsp.engine import FeatureEngine, resolve_feature_cache
    return FeatureEngine(cache=resolve_feature_cache(features_spec.cache))


def _training_source(spec: DetectorSpec) -> str:
    """Resolve ``training.source`` (``auto`` -> ``scored``/``bundle``).

    The pre-computed scored dataset covers exactly the paper's
    plain-ASR systems — its target and columns are the import-time
    snapshot in :mod:`repro.datasets.scores` (what the cached artefacts
    actually hold), not the live registry, so a ``default_suite=True``
    plugin never fools ``auto`` into picking a dataset without its
    column.  Anything uncovered trains from the audio bundle.
    """
    source = spec.training.source
    if source != "auto":
        return source
    from repro.datasets.scores import AUXILIARY_ORDER, SCORED_TARGET
    covered = (spec.suite.target.transform is None
               and spec.suite.target.name == SCORED_TARGET
               and all(aux.transform is None and aux.name in AUXILIARY_ORDER
                       for aux in spec.suite.auxiliaries))
    return "scored" if covered else "bundle"


def build(spec: DetectorSpec | Mapping | str | None = None, *,
          fit: bool = True) -> MVPEarsDetector:
    """Build (and by default fit) the detection system a spec describes.

    This is the one way from a spec to a detector.  A component with no
    spec form (a custom ``Transform`` subclass, a seeded ``NoiseFlood``,
    an injected cache) is passed to the
    :class:`~repro.core.detector.MVPEarsDetector` or
    :class:`~repro.defenses.ensemble.TransformEnsembleDetector`
    constructor directly instead.

    Args:
        spec: a :class:`DetectorSpec`, a plain dict, a JSON config path,
            or ``None`` for the paper's default system.
        fit: train the classifier per ``spec.training`` (pass ``False``
            for an unfitted detector to train yourself).

    Returns:
        An :class:`~repro.core.detector.MVPEarsDetector`; a
        :class:`~repro.defenses.ensemble.TransformEnsembleDetector` when
        the suite's tail is transformed views of the target (the shape
        :meth:`DetectorSpec.default` produces for the transform-based
        defenses), so the transform-aware surface (``fit_bundle``,
        ``transform_names``) stays available.
    """
    spec = resolve_spec(spec)
    scoring = SimilarityEngine(scorer=spec.scoring.scorer,
                               cache=resolve_score_cache(spec.scoring.cache))
    common = dict(classifier=spec.classifier.name,
                  workers=spec.pipeline.workers,
                  cache=resolve_transcription_cache(spec.pipeline.cache),
                  scoring=scoring,
                  feature_engine=build_feature_engine(spec.pipeline.features))
    target = _resolve_member(spec.suite.target)
    members = spec.suite.auxiliaries
    if is_canonical_ensemble(spec.suite):
        from repro.defenses.ensemble import TransformEnsembleDetector
        detector: MVPEarsDetector = TransformEnsembleDetector(
            target,
            transforms=[m.transform.build() for m in members
                        if m.transform is not None],
            asr_auxiliaries=[_resolve_member(m) for m in members
                             if m.transform is None],
            **common)
    else:
        # Any other mix (e.g. a transformed view of a non-target member)
        # builds a generic suite with every member resolved in spec order.
        detector = MVPEarsDetector(
            target, [_resolve_member(m) for m in members], **common)

    if not fit:
        return detector
    return _fit(detector, spec, scoring)


def _fit(detector: MVPEarsDetector, spec: DetectorSpec,
         scoring: SimilarityEngine) -> MVPEarsDetector:
    import numpy as np

    source = _training_source(spec)
    if source == "scored":
        from repro.datasets.scores import (
            AUXILIARY_ORDER,
            SCORED_TARGET,
            load_scored_dataset,
        )
        aux_names = tuple(aux.name for aux in spec.suite.auxiliaries)
        uncovered = [aux.name for aux in spec.suite.auxiliaries
                     if aux.transform is not None
                     or aux.name not in AUXILIARY_ORDER]
        if (spec.suite.target.transform is not None
                or spec.suite.target.name != SCORED_TARGET):
            raise InvalidSpecError(
                [f"training.source: 'scored' is computed against the "
                 f"{SCORED_TARGET!r} target; this suite targets "
                 f"{spec.suite.target.name!r} (use source 'bundle' or "
                 f"'auto')"])
        if uncovered:
            raise InvalidSpecError(
                [f"training.source: 'scored' only covers plain auxiliaries "
                 f"from {list(AUXILIARY_ORDER)}; not covered: {uncovered} "
                 f"(use source 'bundle' or 'auto')"])
        dataset = load_scored_dataset(spec.training.scale,
                                      seed=spec.training.seed)
        features, labels = dataset.features_for(
            aux_names, method=scoring.scorer.name, scoring=scoring)
        return detector.fit_features(features, labels)
    from repro.datasets.builder import load_standard_bundle
    bundle = load_standard_bundle(spec.training.scale, spec.training.seed)
    samples = bundle.all_samples
    audios = [sample.waveform for sample in samples]
    labels = np.array([sample.label for sample in samples], dtype=int)
    return detector.fit(audios, labels)


def build_pipeline(spec: DetectorSpec | Mapping | str | None = None,
                   detector: MVPEarsDetector | None = None,
                   observer=None):
    """A batched :class:`DetectionPipeline` over a (spec-built) detector."""
    from repro.pipeline.detection import DetectionPipeline
    if detector is None:
        detector = build(spec)
    return DetectionPipeline(detector, observer=observer)


def build_streaming(spec: DetectorSpec | Mapping | str | None = None,
                    detector: MVPEarsDetector | None = None):
    """A :class:`StreamingDetector` configured from ``spec.serving``."""
    from repro.serving.streaming import StreamingDetector
    return StreamingDetector.from_spec(resolve_spec(spec), detector=detector)


def build_service(manifest: Mapping | str | None = None, *,
                  fit: bool = True, start: bool = False):
    """A :class:`~repro.serving.service.DetectionService` from a manifest.

    ``manifest`` is a tenant manifest (dict or JSON path with a
    ``"tenants"`` key) or anything :func:`resolve_spec` accepts, which
    becomes a single-tenant service named ``"default"``.  Pass
    ``start=True`` to fork the worker pool immediately; otherwise call
    ``start()`` (or use the service as a context manager) yourself.
    """
    from repro.serving.service import DetectionService
    service = DetectionService.from_manifest(manifest, fit=fit)
    return service.start() if start else service

