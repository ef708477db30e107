"""Legacy one-call construction, now a shim over the spec tree.

:func:`default_detector` predates the declarative configuration surface
(:mod:`repro.specs` / :mod:`repro.build`): every capability it grew was
bolted on as another keyword argument.  The keywords still work — each
call translates them into a :class:`~repro.specs.DetectorSpec` and
builds through :func:`repro.build.build`, so the result is identical —
but new code should construct the spec directly::

    from repro import DetectorSpec, build

    detector = build(DetectorSpec.default(scale="tiny"))       # the paper's system
    detector = build("my_config.json")                          # or from a file

Passing any keyword argument emits a :class:`DeprecationWarning`;
``docs/CONFIG.md`` documents the replacement for each one.
"""

from __future__ import annotations

import warnings

from repro.asr.registry import default_suite_names
from repro.core.detector import MVPEarsDetector
from repro.pipeline.cache import TranscriptionCache
from repro.similarity.score_cache import PairScoreCache
from repro.similarity.scorer import SimilarityScorer
from repro.specs import DEFENSE_MODES, DetectorSpec  # noqa: F401 - re-export

#: Auxiliary suite of the paper's headline system DS0+{DS1, GCS, AT},
#: derived from the ASR registry's default-suite registrations.
DEFAULT_AUXILIARIES: tuple[str, ...] = default_suite_names()[1:]

_UNSET = object()


def default_detector(target=_UNSET, auxiliaries=_UNSET, classifier=_UNSET,
                     scale=_UNSET, workers=_UNSET, cache=_UNSET,
                     defense=_UNSET, transforms=_UNSET, scorer=_UNSET,
                     score_cache=_UNSET) -> MVPEarsDetector:
    """Build and fit a default detection system (legacy keyword surface).

    .. deprecated::
        Construct a :class:`~repro.specs.DetectorSpec` and call
        :func:`repro.build.build` instead; every keyword below maps to
        one spec field (see ``docs/CONFIG.md``).  A bare
        ``default_detector()`` is equivalent to
        ``build(DetectorSpec.default())``.

    Args:
        target: target ASR short name (spec: ``suite.target``).
        auxiliaries: auxiliary short names (spec: ``suite.auxiliaries``).
        classifier: classifier registry name (spec: ``classifier.name``).
        scale: scored-dataset scale preset (spec: ``training.scale``).
        workers: transcription worker-pool size (spec:
            ``pipeline.workers``).
        cache: transcription cache policy — a policy string, bool, or a
            :class:`TranscriptionCache` instance (spec:
            ``pipeline.cache``).
        defense: ``multi-asr`` / ``transform`` / ``combined`` (spec:
            the shape of ``suite.auxiliaries``).
        transforms: transformation ensemble for the transform-based
            modes — spec strings or built ``Transform`` instances
            (spec: ``suite.auxiliaries[i].transform``).
        scorer: similarity method name or a
            :class:`~repro.similarity.scorer.SimilarityScorer` (spec:
            ``scoring.scorer``).
        score_cache: pair-score cache policy — a policy string, bool, or
            a :class:`PairScoreCache` instance (spec: ``scoring.cache``).

    Returns:
        A fitted :class:`~repro.core.detector.MVPEarsDetector` (a
        :class:`~repro.defenses.ensemble.TransformEnsembleDetector` for
        the transform-based modes).
    """
    from repro.build import build

    passed = {name: value for name, value in (
        ("target", target), ("auxiliaries", auxiliaries),
        ("classifier", classifier), ("scale", scale), ("workers", workers),
        ("cache", cache), ("defense", defense), ("transforms", transforms),
        ("scorer", scorer), ("score_cache", score_cache))
        if value is not _UNSET}
    if passed:
        warnings.warn(
            f"default_detector({', '.join(sorted(passed))}=...) keywords are "
            f"deprecated; build a DetectorSpec and call repro.build() "
            f"(see docs/CONFIG.md)", DeprecationWarning, stacklevel=2)

    overrides: dict = {}
    spec_kwargs: dict = {}
    for name in ("target", "classifier", "scale", "workers", "defense"):
        if name in passed:
            spec_kwargs[name] = passed[name]
    if "auxiliaries" in passed:
        spec_kwargs["auxiliaries"] = tuple(passed["auxiliaries"])

    if "cache" in passed:
        value = passed["cache"]
        if isinstance(value, TranscriptionCache):
            overrides["cache"] = value
        elif isinstance(value, (bool, type(None))):
            spec_kwargs["cache"] = "shared" if value else "off"
        else:
            spec_kwargs["cache"] = value
    if "score_cache" in passed:
        value = passed["score_cache"]
        if isinstance(value, (PairScoreCache, bool, type(None))):
            overrides["score_cache"] = value
        else:
            spec_kwargs["score_cache"] = value
    if "scorer" in passed:
        value = passed["scorer"]
        if isinstance(value, SimilarityScorer):
            overrides["scorer"] = value
        elif value is not None:
            spec_kwargs["scorer"] = value
    from repro.build import default_spec_with_transforms
    spec, transform_overrides = default_spec_with_transforms(
        passed.get("transforms"), **spec_kwargs)
    overrides.update(transform_overrides)
    return build(spec, overrides=overrides)
