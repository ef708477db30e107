"""The declarative spec tree: every detection system as one value.

A :class:`DetectorSpec` describes a complete detection system — the ASR
suite, the similarity scoring configuration, the classifier, the
execution layer and the serving layer — as a tree of small frozen
dataclasses.  Specs are plain data: they can be compared, hashed,
round-tripped through ``to_dict``/``from_dict`` and JSON files, overlaid
with environment variables, validated field by field, and handed to
:func:`repro.build.build` to produce a fitted detector.  A reproducible
experiment is therefore a JSON file, not a pile of keyword arguments.

The tree::

    DetectorSpec
    ├── suite:      SuiteSpec        # target + auxiliary versions
    │   ├── target:      ASRSpec    # registry name (+ optional transform)
    │   └── auxiliaries: (ASRSpec, ...)
    │                     └── transform: TransformSpec | None
    ├── scoring:    ScoringSpec      # method, backend, pair-score cache
    ├── classifier: ClassifierSpec   # registry name
    ├── pipeline:   PipelineSpec     # workers, transcription cache
    │   └── features:    FeaturesSpec  # front-end backend + feature cache
    ├── serving:    ServingSpec      # stream windows, micro-batching
    └── training:   TrainingSpec     # scale preset, seed, data source

Component *names* inside the tree resolve through the open registries
(:func:`repro.asr.registry.register_asr` and friends), so a spec can
reference user plugins as freely as built-ins.  Validation
(:meth:`DetectorSpec.validate`) checks every name against its registry
and reports **all** problems at once, each naming the offending field
and the allowed values.

Environment overlay: :meth:`DetectorSpec.with_env_overlay` folds the
``REPRO_*`` variables (see :data:`ENV_OVERLAYS`) onto a spec, so the
precedence everywhere is *explicit flags > environment > config file >
built-in defaults* — :meth:`DetectorSpec.load` applies it after reading
a JSON file.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.config import DEFAULT_SEED, scale_names
from repro.errors import UnknownComponentError

#: The defense modes :meth:`DetectorSpec.default` can express as suites.
DEFENSE_MODES: tuple[str, ...] = ("multi-asr", "transform", "combined")

#: Where :meth:`TrainingSpec` may draw its training data from.
TRAINING_SOURCES: tuple[str, ...] = ("auto", "scored", "bundle")

#: Audio transports :class:`ServingSpec` can route dispatches through.
SERVE_TRANSPORTS: tuple[str, ...] = ("shm", "pickle")

#: Dataset scale presets, derived from :mod:`repro.config`'s registry.
SCALE_NAMES: tuple[str, ...] = scale_names()


#: Identities of DetectorSpec instances that already passed validate()
#: (entries are discarded when the instance is garbage-collected).
_VALIDATED_IDS: set[int] = set()


class InvalidSpecError(ValueError):
    """A spec failed validation.

    ``problems`` lists every offending field as
    ``"<path>: <what is wrong; allowed values>"`` — all of them, not
    just the first, so a config file can be fixed in one pass.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        super().__init__(
            "invalid spec (%d problem%s):\n  %s" % (
                len(self.problems), "s" if len(self.problems) != 1 else "",
                "\n  ".join(self.problems)))


# ----------------------------------------------------------------- utilities
def _check_keys(data: Mapping, cls, path: str) -> None:
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InvalidSpecError([
            f"{path}: unknown field {name!r} "
            f"(allowed: {sorted(allowed)})" for name in unknown])


def _expect_mapping(data: Any, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise InvalidSpecError(
            [f"{path}: expected an object, got {type(data).__name__}"])
    return data


def _coerce(value: Any, kind: Callable, path: str, none_ok: bool = False):
    if value is None:
        if none_ok:
            return None
        raise InvalidSpecError([f"{path}: must not be null"])
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidSpecError(
            [f"{path}: expected {kind.__name__}, got {value!r}"]) from None


# ------------------------------------------------------------------ ASR suite
@dataclass(frozen=True)
class TransformSpec:
    """One input transformation in compact parse syntax.

    ``spec`` is the syntax :func:`repro.defenses.transforms.parse_transform`
    accepts: ``"quantize:8"``, ``"lowpass:3000"``, chains like
    ``"quantize:8+lowpass:3000"``.  Serialises as the bare string.
    """

    spec: str

    def build(self):
        """The configured :class:`~repro.defenses.transforms.Transform`."""
        from repro.defenses.transforms import parse_transform
        return parse_transform(self.spec)

    def problems(self, path: str = "transform") -> list[str]:
        from repro.defenses.transforms import parse_transform
        try:
            parse_transform(self.spec)
        except ValueError as exc:
            return [f"{path}: {exc}"]
        return []

    @classmethod
    def from_value(cls, value: Any, path: str) -> "TransformSpec":
        if isinstance(value, TransformSpec):
            return value
        if isinstance(value, str):
            return cls(value)
        raise InvalidSpecError(
            [f"{path}: expected a transform spec string, got {value!r}"])


@dataclass(frozen=True)
class ASRSpec:
    """One suite member: a registered ASR, optionally heard through a
    transform.

    ``name`` resolves through the open ASR registry
    (:func:`repro.asr.registry.build_asr` — built-ins and
    :func:`~repro.asr.registry.register_asr` plugins alike).  With
    ``transform`` set, the member is a
    :class:`~repro.defenses.ensemble.TransformedASR` view: the named
    model hearing the transformed audio.  Serialises as the bare name
    string when there is no transform.
    """

    name: str
    transform: TransformSpec | None = None

    def to_dict(self) -> dict | str:
        if self.transform is None:
            return self.name
        return {"name": self.name, "transform": self.transform.spec}

    @classmethod
    def from_value(cls, value: Any, path: str) -> "ASRSpec":
        if isinstance(value, ASRSpec):
            return value
        if isinstance(value, str):
            return cls(value)
        data = _expect_mapping(value, path)
        _check_keys(data, cls, path)
        if "name" not in data:
            raise InvalidSpecError([f"{path}: missing required field 'name'"])
        name = _coerce(data["name"], str, f"{path}.name")
        transform = data.get("transform")
        if transform is not None:
            transform = TransformSpec.from_value(transform, f"{path}.transform")
        return cls(name=name, transform=transform)

    def problems(self, path: str = "asr") -> list[str]:
        from repro.asr.registry import asr_name_resolvable, available_asr_names
        out = []
        if not self.name or not isinstance(self.name, str):
            out.append(f"{path}.name: must be a non-empty string")
        elif not asr_name_resolvable(self.name):
            out.append(f"{path}.name: unknown ASR system {self.name!r}; "
                       f"available: {list(available_asr_names())}")
        if self.transform is not None:
            out.extend(self.transform.problems(f"{path}.transform"))
        return out


def _default_target() -> "ASRSpec":
    from repro.asr.registry import default_suite_names
    return ASRSpec(default_suite_names()[0])


def _default_auxiliaries() -> tuple["ASRSpec", ...]:
    from repro.asr.registry import default_suite_names
    return tuple(ASRSpec(name) for name in default_suite_names()[1:])


@dataclass(frozen=True)
class SuiteSpec:
    """The multiversion suite: one target, any mix of auxiliary versions.

    Auxiliaries may freely mix built-in ASRs, registered plugins and
    transformed views (of the target or of any other member) — the
    diversity knob the paper's detection strength comes from.  Defaults
    to the paper's headline DS0+{DS1, GCS, AT} suite, derived from the
    registry's default-suite registrations.
    """

    target: ASRSpec = field(default_factory=_default_target)
    auxiliaries: tuple[ASRSpec, ...] = field(
        default_factory=_default_auxiliaries)

    def to_dict(self) -> dict:
        return {"target": self.target.to_dict(),
                "auxiliaries": [aux.to_dict() for aux in self.auxiliaries]}

    @classmethod
    def from_dict(cls, data: Any, path: str = "suite") -> "SuiteSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: dict = {}
        if "target" in data:
            kwargs["target"] = ASRSpec.from_value(data["target"],
                                                  f"{path}.target")
        if "auxiliaries" in data:
            raw = data["auxiliaries"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise InvalidSpecError(
                    [f"{path}.auxiliaries: expected a list, got {raw!r}"])
            kwargs["auxiliaries"] = tuple(
                ASRSpec.from_value(item, f"{path}.auxiliaries[{i}]")
                for i, item in enumerate(raw))
        return cls(**kwargs)

    def problems(self, path: str = "suite") -> list[str]:
        out = self.target.problems(f"{path}.target")
        if not self.auxiliaries:
            out.append(f"{path}.auxiliaries: at least one auxiliary version "
                       f"is required")
        for i, aux in enumerate(self.auxiliaries):
            out.extend(aux.problems(f"{path}.auxiliaries[{i}]"))
        return out


# ------------------------------------------------------------------- scoring
def _default_scorer() -> str:
    from repro.similarity.scorer import DEFAULT_METHOD
    return DEFAULT_METHOD


def _default_backend() -> str:
    from repro.similarity.engine import DEFAULT_SCORING_BACKEND
    return DEFAULT_SCORING_BACKEND


@dataclass(frozen=True)
class ScoringSpec:
    """The similarity scoring stage.

    Attributes:
        scorer: similarity method name (Table III; default the paper's
            ``PE_JaroWinkler``).
        backend: scoring backend registry name (``"fast"`` /
            ``"reference"`` / a registered plugin).
        cache: pair-score cache policy — ``"shared"``, ``"private"``,
            ``"off"`` or an on-disk JSON path (see
            :func:`repro.similarity.engine.resolve_score_cache`).
    """

    scorer: str = field(default_factory=_default_scorer)
    backend: str = field(default_factory=_default_backend)
    cache: str = "shared"

    def to_dict(self) -> dict:
        return {"scorer": self.scorer, "backend": self.backend,
                "cache": self.cache}

    @classmethod
    def from_dict(cls, data: Any, path: str = "scoring") -> "ScoringSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs = {key: _coerce(data[key], str, f"{path}.{key}")
                  for key in ("scorer", "backend", "cache") if key in data}
        return cls(**kwargs)

    def problems(self, path: str = "scoring") -> list[str]:
        from repro.caching import check_cache_policy
        from repro.similarity.engine import scoring_backend_names
        from repro.similarity.scorer import available_method_names
        out = []
        if self.scorer not in available_method_names():
            out.append(f"{path}.scorer: unknown similarity method "
                       f"{self.scorer!r}; available: "
                       f"{list(available_method_names())}")
        if self.backend not in scoring_backend_names():
            out.append(f"{path}.backend: unknown scoring backend "
                       f"{self.backend!r}; available: "
                       f"{list(scoring_backend_names())}")
        try:
            # Policy check only — validation must not read cache files.
            check_cache_policy(self.cache, "score-cache policy")
        except UnknownComponentError as exc:
            out.append(f"{path}.cache: {exc}")
        return out


# ---------------------------------------------------------------- classifier
@dataclass(frozen=True)
class ClassifierSpec:
    """The binary classifier, by registry name (default: the paper's SVM)."""

    name: str = "SVM"

    def to_dict(self) -> dict:
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Any, path: str = "classifier") -> "ClassifierSpec":
        if isinstance(data, str):        # shorthand: "SVM"
            return cls(data)
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs = {}
        if "name" in data:
            kwargs["name"] = _coerce(data["name"], str, f"{path}.name")
        return cls(**kwargs)

    def problems(self, path: str = "classifier") -> list[str]:
        from repro.ml.registry import available_classifier_names
        if self.name not in available_classifier_names():
            return [f"{path}.name: unknown classifier {self.name!r}; "
                    f"available: {list(available_classifier_names())}"]
        return []


# ------------------------------------------------------------------ pipeline
@dataclass(frozen=True)
class FeaturesSpec:
    """The front-end feature stage: compute backend and feature cache.

    Attributes:
        backend: feature backend registry name (``"fast"`` — batch
            vectorized, the default — / ``"reference"`` — the per-clip
            seed path — / a registered plugin), or ``"off"`` to disable
            the shared :class:`~repro.dsp.engine.FeatureEngine` entirely
            so every ASR runs its own front end from raw samples.
        cache: feature cache policy — ``"shared"``, ``"private"``,
            ``"off"`` or an on-disk ``.npz`` path (see
            :func:`repro.dsp.engine.resolve_feature_cache`).
    """

    backend: str = "fast"
    cache: str = "shared"

    def to_dict(self) -> dict:
        return {"backend": self.backend, "cache": self.cache}

    @classmethod
    def from_dict(cls, data: Any, path: str = "pipeline.features"
                  ) -> "FeaturesSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs = {key: _coerce(data[key], str, f"{path}.{key}")
                  for key in ("backend", "cache") if key in data}
        return cls(**kwargs)

    def problems(self, path: str = "pipeline.features") -> list[str]:
        from repro.caching import check_cache_policy
        from repro.dsp.engine import feature_backend_names
        out = []
        if self.backend != "off" \
                and self.backend not in feature_backend_names():
            out.append(f"{path}.backend: unknown feature backend "
                       f"{self.backend!r}; available: "
                       f"{['off', *feature_backend_names()]}")
        try:
            # Policy check only — validation must not read cache files.
            check_cache_policy(self.cache, "feature-cache policy",
                               suffixes=(".npz",))
        except UnknownComponentError as exc:
            out.append(f"{path}.cache: {exc}")
        return out


@dataclass(frozen=True)
class PipelineSpec:
    """The execution layer: transcription fan-out, caching, front end.

    Attributes:
        workers: worker-pool size (``0`` = the paper-faithful sequential
            path, ``None`` = ``REPRO_WORKERS`` / CPU count).
        cache: transcription cache policy — ``"shared"``, ``"private"``,
            ``"off"`` or an on-disk JSON path (see
            :func:`repro.pipeline.engine.resolve_transcription_cache`).
        features: the front-end feature stage (see :class:`FeaturesSpec`).
    """

    workers: int | None = None
    cache: str = "shared"
    features: FeaturesSpec = field(default_factory=FeaturesSpec)

    def to_dict(self) -> dict:
        return {"workers": self.workers, "cache": self.cache,
                "features": self.features.to_dict()}

    @classmethod
    def from_dict(cls, data: Any, path: str = "pipeline") -> "PipelineSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: dict = {}
        if "workers" in data:
            kwargs["workers"] = _coerce(data["workers"], int,
                                        f"{path}.workers", none_ok=True)
        if "cache" in data:
            kwargs["cache"] = _coerce(data["cache"], str, f"{path}.cache")
        if "features" in data:
            kwargs["features"] = FeaturesSpec.from_dict(data["features"],
                                                        f"{path}.features")
        return cls(**kwargs)

    def problems(self, path: str = "pipeline") -> list[str]:
        from repro.caching import check_cache_policy
        out = []
        if self.workers is not None and self.workers < 0:
            out.append(f"{path}.workers: must be >= 0 or null, "
                       f"got {self.workers}")
        try:
            # Policy check only — validation must not read cache files.
            check_cache_policy(self.cache, "transcription-cache policy")
        except UnknownComponentError as exc:
            out.append(f"{path}.cache: {exc}")
        out.extend(self.features.problems(f"{path}.features"))
        return out


# ------------------------------------------------------------------- serving
@dataclass(frozen=True)
class ServingSpec:
    """The serving layer: stream windowing, the detection service pool.

    The stream fields mirror :class:`repro.serving.chunker.StreamConfig`;
    the pool fields configure
    :class:`repro.serving.service.DetectionService` — ``workers``
    worker processes (``0`` = run requests inline in the caller), each
    draining at most ``max_batch_size`` queued requests per micro-batch,
    admission control rejecting new requests once ``queue_depth``
    requests are pending, and a per-request deadline of
    ``request_timeout_seconds`` (``None`` disables the deadline).
    """

    window_seconds: float = 2.0
    hop_seconds: float | None = None
    min_tail_fraction: float = 0.25
    trigger_windows: int = 2
    release_windows: int = 2
    max_batch_size: int = 8
    workers: int = 2
    queue_depth: int = 64
    request_timeout_seconds: float | None = 30.0
    #: Audio data plane between the dispatcher and the worker pool:
    #: ``"shm"`` (default) writes samples once into a shared-memory
    #: arena and ships only descriptors through the task queues —
    #: falling back to ``"pickle"`` per dispatch when the arena is full
    #: and wholesale when shared memory is unavailable; ``"pickle"``
    #: ships the full sample arrays through the queues.
    transport: str = "shm"

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Any, path: str = "serving") -> "ServingSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: dict = {}
        for name, kind, none_ok in (
                ("window_seconds", float, False),
                ("hop_seconds", float, True),
                ("min_tail_fraction", float, False),
                ("trigger_windows", int, False),
                ("release_windows", int, False),
                ("max_batch_size", int, False),
                ("workers", int, False),
                ("queue_depth", int, False),
                ("request_timeout_seconds", float, True),
                ("transport", str, False)):
            if name in data:
                kwargs[name] = _coerce(data[name], kind, f"{path}.{name}",
                                       none_ok=none_ok)
        return cls(**kwargs)

    def stream_config(self):
        """The equivalent :class:`~repro.serving.chunker.StreamConfig`."""
        from repro.serving.chunker import StreamConfig
        return StreamConfig(window_seconds=self.window_seconds,
                            hop_seconds=self.hop_seconds,
                            min_tail_fraction=self.min_tail_fraction,
                            trigger_windows=self.trigger_windows,
                            release_windows=self.release_windows)

    def problems(self, path: str = "serving") -> list[str]:
        out = []
        try:
            self.stream_config()
        except ValueError as exc:
            out.append(f"{path}: {exc}")
        if self.max_batch_size < 1:
            out.append(f"{path}.max_batch_size: must be >= 1, "
                       f"got {self.max_batch_size}")
        if self.workers < 0:
            out.append(f"{path}.workers: must be >= 0, got {self.workers}")
        if self.queue_depth < 1:
            out.append(f"{path}.queue_depth: must be >= 1, "
                       f"got {self.queue_depth}")
        if (self.request_timeout_seconds is not None
                and self.request_timeout_seconds <= 0):
            out.append(f"{path}.request_timeout_seconds: must be > 0 or "
                       f"null, got {self.request_timeout_seconds}")
        if self.transport not in SERVE_TRANSPORTS:
            out.append(f"{path}.transport: unknown transport "
                       f"{self.transport!r}; available: "
                       f"{list(SERVE_TRANSPORTS)}")
        return out


# ------------------------------------------------------------------ training
@dataclass(frozen=True)
class TrainingSpec:
    """How the classifier is fitted.

    Attributes:
        scale: dataset scale preset (``tiny``/``small``/``medium``/
            ``paper``; ``None`` reads ``REPRO_SCALE``, defaulting to
            ``small``).
        seed: dataset seed (default: the paper's Random Forest seed).
        source: ``"scored"`` fits on the pre-computed scored dataset
            (only valid for plain-ASR suites covered by it),
            ``"bundle"`` extracts fresh features from the audio bundle,
            ``"auto"`` picks ``scored`` when the suite allows it.
    """

    scale: str | None = None
    seed: int = DEFAULT_SEED
    source: str = "auto"

    def to_dict(self) -> dict:
        return {"scale": self.scale, "seed": self.seed, "source": self.source}

    @classmethod
    def from_dict(cls, data: Any, path: str = "training") -> "TrainingSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: dict = {}
        if "scale" in data:
            kwargs["scale"] = _coerce(data["scale"], str, f"{path}.scale",
                                      none_ok=True)
        if "seed" in data:
            kwargs["seed"] = _coerce(data["seed"], int, f"{path}.seed")
        if "source" in data:
            kwargs["source"] = _coerce(data["source"], str, f"{path}.source")
        return cls(**kwargs)

    def problems(self, path: str = "training") -> list[str]:
        out = []
        if self.scale is not None and self.scale not in SCALE_NAMES:
            out.append(f"{path}.scale: unknown scale preset {self.scale!r}; "
                       f"available: {list(SCALE_NAMES)}")
        if self.source not in TRAINING_SOURCES:
            out.append(f"{path}.source: unknown training source "
                       f"{self.source!r}; available: {list(TRAINING_SOURCES)}")
        return out


# ---------------------------------------------------------------- env overlay
#: ``REPRO_*`` variables folded onto a spec by
#: :meth:`DetectorSpec.with_env_overlay`: variable name ->
#: (dotted spec path, parser).  One table instead of scattered
#: ``os.environ`` reads; environment values win over config-file values.
ENV_OVERLAYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "REPRO_SCALE": ("training.scale", str),
    "REPRO_WORKERS": ("pipeline.workers", int),
    "REPRO_TRANSCRIPTION_CACHE": ("pipeline.cache", str),
    "REPRO_FEATURE_BACKEND": ("pipeline.features.backend", str),
    "REPRO_FEATURE_CACHE": ("pipeline.features.cache", str),
    "REPRO_SCORE_CACHE": ("scoring.cache", str),
    "REPRO_SCORER": ("scoring.scorer", str),
    "REPRO_SCORING_BACKEND": ("scoring.backend", str),
    "REPRO_CLASSIFIER": ("classifier.name", str),
    "REPRO_SERVE_WORKERS": ("serving.workers", int),
    "REPRO_SERVE_QUEUE": ("serving.queue_depth", int),
    "REPRO_SERVE_TIMEOUT": ("serving.request_timeout_seconds", float),
    "REPRO_SERVE_TRANSPORT": ("serving.transport", str),
}


# ------------------------------------------------------------- detector spec
@dataclass(frozen=True)
class DetectorSpec:
    """A complete detection system, declaratively.

    Build one with :meth:`default` (the paper's presets), read one from
    JSON with :meth:`from_json`/:meth:`load`, or compose the sub-specs
    directly.  Hand it to :func:`repro.build.build` (fitted detector),
    :func:`repro.build.build_streaming` (streaming detector) or the CLI
    (``repro --config``).
    """

    suite: SuiteSpec = field(default_factory=SuiteSpec)
    scoring: ScoringSpec = field(default_factory=ScoringSpec)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)

    # ------------------------------------------------------------- factories
    @classmethod
    def default(cls, target: str | None = None,
                auxiliaries: Iterable[str] | None = None,
                classifier: str = "SVM",
                scale: str | None = None,
                workers: int | None = None,
                cache: str = "shared",
                defense: str = "multi-asr",
                transforms: Any = None,
                scorer: str | None = None,
                scoring_backend: str | None = None,
                score_cache: str = "shared") -> "DetectorSpec":
        """The spec equivalent of the legacy ``default_detector`` kwargs.

        ``defense`` shapes the suite: ``"multi-asr"`` (the paper's
        system — diverse auxiliary models), ``"transform"`` (transformed
        views of the target as auxiliaries) or ``"combined"`` (both).
        ``transforms`` accepts a comma-separated spec string, a sequence
        of spec strings, or built :class:`Transform` instances that
        carry a ``spec`` (default: the standard five-transform suite).
        """
        from repro.asr.registry import default_suite_names
        if defense not in DEFENSE_MODES:
            raise UnknownComponentError("defense mode", defense, DEFENSE_MODES)
        target_name = target if target is not None else default_suite_names()[0]
        if auxiliaries is None:
            aux_names = tuple(default_suite_names()[1:])
        else:
            aux_names = tuple(auxiliaries)
        members: list[ASRSpec] = []
        if defense in ("multi-asr", "combined"):
            members.extend(ASRSpec(name) for name in aux_names)
        if defense in ("transform", "combined"):
            members.extend(ASRSpec(target_name, transform=spec)
                           for spec in _transform_specs(transforms))
        return cls(
            suite=SuiteSpec(target=ASRSpec(target_name),
                            auxiliaries=tuple(members)),
            scoring=ScoringSpec(
                scorer=scorer if scorer is not None else _default_scorer(),
                backend=(scoring_backend if scoring_backend is not None
                         else _default_backend()),
                cache=score_cache),
            classifier=ClassifierSpec(classifier),
            pipeline=PipelineSpec(workers=workers, cache=cache),
            # "auto" resolves to the pre-computed scored dataset exactly
            # when the suite is covered by it (the paper's systems) and
            # to the audio bundle otherwise — so a non-default target or
            # a plugin auxiliary never silently trains on DS0's scores.
            training=TrainingSpec(scale=scale, source="auto"),
        )

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {"suite": self.suite.to_dict(),
                "scoring": self.scoring.to_dict(),
                "classifier": self.classifier.to_dict(),
                "pipeline": self.pipeline.to_dict(),
                "serving": self.serving.to_dict(),
                "training": self.training.to_dict()}

    @classmethod
    def from_dict(cls, data: Any, path: str = "detector") -> "DetectorSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        sections = {"suite": SuiteSpec, "scoring": ScoringSpec,
                    "classifier": ClassifierSpec, "pipeline": PipelineSpec,
                    "serving": ServingSpec, "training": TrainingSpec}
        kwargs = {}
        problems: list[str] = []
        for name, section in sections.items():
            if name in data:
                try:
                    kwargs[name] = section.from_dict(data[name],
                                                     f"{path}.{name}")
                except InvalidSpecError as exc:
                    problems.extend(exc.problems)
        if problems:
            raise InvalidSpecError(problems)
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document (what :meth:`from_json` reads)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def save(self, path: str) -> str:
        """Write the spec to a JSON file; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        return path

    @classmethod
    def from_json(cls, path: str) -> "DetectorSpec":
        """Read a spec from the JSON file at ``path`` (strictly parsed)."""
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidSpecError([f"{path}: not valid JSON: {exc}"]) \
                    from exc
        return cls.from_dict(data, path=os.path.basename(path))

    @classmethod
    def load(cls, path: str, env: Mapping[str, str] | None = None
             ) -> "DetectorSpec":
        """:meth:`from_json` plus the environment overlay (env wins)."""
        return cls.from_json(path).with_env_overlay(env)

    # -------------------------------------------------------------- overlays
    def with_env_overlay(self, env: Mapping[str, str] | None = None
                         ) -> "DetectorSpec":
        """A copy with every set ``REPRO_*`` variable folded in.

        Environment values take precedence over the spec's current
        (e.g. file-loaded) values; unset variables change nothing.
        """
        if env is None:
            env = os.environ
        spec = self
        for variable, (dotted, parse) in ENV_OVERLAYS.items():
            raw = env.get(variable)
            if raw is None or raw == "":
                continue
            try:
                value = parse(raw)
            except (TypeError, ValueError):
                raise InvalidSpecError(
                    [f"${variable}: expected {parse.__name__}, "
                     f"got {raw!r}"]) from None
            spec = spec.with_value(dotted, value)
        return spec

    def with_value(self, dotted: str, value: Any) -> "DetectorSpec":
        """A copy with the field at ``dotted`` path replaced.

        ``spec.with_value("scoring.backend", "reference")`` is the
        programmatic form of one flag/env overlay.  Paths may descend
        any number of levels (``"pipeline.features.backend"``).
        """
        return _replace_path(self, dotted, value)

    # ------------------------------------------------------------ validation
    def problems(self) -> list[str]:
        """Every validation problem, one message per offending field."""
        out = []
        out.extend(self.suite.problems("suite"))
        out.extend(self.scoring.problems("scoring"))
        out.extend(self.classifier.problems("classifier"))
        out.extend(self.pipeline.problems("pipeline"))
        out.extend(self.serving.problems("serving"))
        out.extend(self.training.problems("training"))
        return out

    def validate(self) -> "DetectorSpec":
        """Raise :class:`InvalidSpecError` listing *all* problems; else self.

        Validation of a given *instance* is memoised, so a spec threaded
        through several builders (``build_streaming`` ->
        ``StreamingDetector.from_spec`` -> ``build``) pays the registry
        walk once.  Mutating a registry after an instance validated (a
        test unregistering a plugin) does not re-flag that instance;
        construct a fresh spec to re-check.
        """
        if id(self) in _VALIDATED_IDS:
            return self
        problems = self.problems()
        if problems:
            raise InvalidSpecError(problems)
        _VALIDATED_IDS.add(id(self))
        weakref.finalize(self, _VALIDATED_IDS.discard, id(self))
        return self


def _replace_path(node: Any, dotted: str, value: Any):
    """Replace the field at ``dotted`` in a nested frozen-dataclass tree."""
    head, _, rest = dotted.partition(".")
    if not rest:
        return replace(node, **{head: value})
    return replace(node,
                   **{head: _replace_path(getattr(node, head), rest, value)})


# ----------------------------------------------------------- experiment spec
#: ``REPRO_*`` variables folded onto an :class:`ExperimentSpec` by its
#: :meth:`~ExperimentSpec.with_env_overlay` (the detector subtree gets
#: the full :data:`ENV_OVERLAYS` table on top).
EXPERIMENT_ENV_OVERLAYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "REPRO_SCALE": ("scale", str),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment run, declaratively (see docs/EXPERIMENTS.md).

    Attributes:
        experiment: registry name of the experiment
            (:func:`repro.experiments.registry.experiment_names`).
        scale: dataset scale preset (``None`` reads ``REPRO_SCALE``,
            defaulting to ``small``).
        seed: dataset seed (the bundle / scored-dataset seed, not the
            experiment-internal seeds — those live in :attr:`params`).
        workers: shard worker *processes* (``0`` = run shards inline).
        params: experiment-specific knobs overriding the experiment's
            declared defaults (e.g. ``{"n_splits": 3}``).
        detector: :class:`DetectorSpec` overlay consulted by experiments
            that build detectors or classifiers (``classifier.name``,
            ``scoring.scorer``, ``scoring.backend``, ...); sweeps vary
            its dotted paths per grid point.
    """

    experiment: str = ""
    scale: str | None = None
    seed: int = DEFAULT_SEED
    workers: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    detector: DetectorSpec = field(default_factory=DetectorSpec)

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "scale": self.scale,
                "seed": self.seed, "workers": self.workers,
                "params": dict(self.params),
                "detector": self.detector.to_dict()}

    @classmethod
    def from_dict(cls, data: Any, path: str = "experiment") -> "ExperimentSpec":
        data = _expect_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: dict = {}
        if "experiment" in data:
            kwargs["experiment"] = _coerce(data["experiment"], str,
                                           f"{path}.experiment")
        if "scale" in data:
            kwargs["scale"] = _coerce(data["scale"], str, f"{path}.scale",
                                      none_ok=True)
        if "seed" in data:
            kwargs["seed"] = _coerce(data["seed"], int, f"{path}.seed")
        if "workers" in data:
            kwargs["workers"] = _coerce(data["workers"], int,
                                        f"{path}.workers")
        if "params" in data:
            params = _expect_mapping(data["params"], f"{path}.params")
            bad = [key for key in params if not isinstance(key, str)]
            if bad:
                raise InvalidSpecError(
                    [f"{path}.params: parameter names must be strings, "
                     f"got {key!r}" for key in bad])
            kwargs["params"] = dict(params)
        if "detector" in data:
            kwargs["detector"] = DetectorSpec.from_dict(data["detector"],
                                                        f"{path}.detector")
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, path: str) -> "ExperimentSpec":
        """Read a spec from the JSON file at ``path`` (strictly parsed)."""
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidSpecError([f"{path}: not valid JSON: {exc}"]) \
                    from exc
        return cls.from_dict(data, path=os.path.basename(path))

    # -------------------------------------------------------------- overlays
    def with_env_overlay(self, env: Mapping[str, str] | None = None
                         ) -> "ExperimentSpec":
        """A copy with ``REPRO_*`` variables folded in (env wins).

        ``REPRO_SCALE`` overlays the experiment's own scale; the whole
        :data:`ENV_OVERLAYS` table overlays the detector subtree, so
        e.g. ``REPRO_CLASSIFIER`` reaches detector-building experiments.
        """
        if env is None:
            env = os.environ
        spec = self
        for variable, (dotted, parse) in EXPERIMENT_ENV_OVERLAYS.items():
            raw = env.get(variable)
            if raw is None or raw == "":
                continue
            try:
                value = parse(raw)
            except (TypeError, ValueError):
                raise InvalidSpecError(
                    [f"${variable}: expected {parse.__name__}, "
                     f"got {raw!r}"]) from None
            spec = spec.with_value(dotted, value)
        return replace(spec, detector=spec.detector.with_env_overlay(env))

    def with_value(self, dotted: str, value: Any) -> "ExperimentSpec":
        """A copy with the field at ``dotted`` path replaced.

        ``"params.<name>"`` sets one experiment parameter;
        ``"detector.<...>"`` descends the :class:`DetectorSpec` tree
        (``"detector.scoring.scorer"``); top-level fields are plain
        names (``"scale"``).
        """
        head, _, rest = dotted.partition(".")
        if head == "params" and rest:
            params = dict(self.params)
            params[rest] = value
            return replace(self, params=params)
        return _replace_path(self, dotted, value)

    # ------------------------------------------------------------ validation
    def problems(self, path: str = "experiment") -> list[str]:
        out = []
        from repro.experiments.registry import (
            experiment_defaults,
            experiment_names,
        )
        names = experiment_names()
        if not self.experiment:
            out.append(f"{path}.experiment: missing experiment name; "
                       f"available: {list(names)}")
        elif self.experiment not in names:
            out.append(f"{path}.experiment: unknown experiment "
                       f"{self.experiment!r}; available: {list(names)}")
        else:
            allowed = experiment_defaults(self.experiment)
            for key in sorted(set(self.params) - set(allowed)):
                out.append(f"{path}.params.{key}: unknown parameter for "
                           f"{self.experiment!r} "
                           f"(allowed: {sorted(allowed)})")
        if self.scale is not None and self.scale not in SCALE_NAMES:
            out.append(f"{path}.scale: unknown scale preset {self.scale!r}; "
                       f"available: {list(SCALE_NAMES)}")
        if self.workers < 0:
            out.append(f"{path}.workers: must be >= 0, got {self.workers}")
        out.extend(self.detector.problems())
        return out

    def validate(self) -> "ExperimentSpec":
        """Raise :class:`InvalidSpecError` listing *all* problems; else self."""
        if id(self) in _VALIDATED_IDS:
            return self
        problems = self.problems()
        if problems:
            raise InvalidSpecError(problems)
        _VALIDATED_IDS.add(id(self))
        weakref.finalize(self, _VALIDATED_IDS.discard, id(self))
        return self


@dataclass(frozen=True)
class SweepSpec:
    """A grid of spec overlays over one base :class:`ExperimentSpec`.

    The JSON form is an experiment spec plus a ``"grid"`` object (and an
    optional ``"name"``): each grid key is a dotted
    :meth:`ExperimentSpec.with_value` path, each value a non-empty list
    of alternatives.  :meth:`points` expands the cartesian product in
    declaration order — one resumable run per point.
    """

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    grid: tuple[tuple[str, tuple], ...] = ()
    name: str = ""

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        payload = self.base.to_dict()
        payload["grid"] = {dotted: list(values)
                           for dotted, values in self.grid}
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, data: Any, path: str = "sweep") -> "SweepSpec":
        data = dict(_expect_mapping(data, path))
        name = _coerce(data.pop("name", ""), str, f"{path}.name")
        raw_grid = data.pop("grid", {})
        grid_map = _expect_mapping(raw_grid, f"{path}.grid")
        problems: list[str] = []
        grid: list[tuple[str, tuple]] = []
        for dotted, values in grid_map.items():
            if not isinstance(values, Sequence) or isinstance(values, str):
                problems.append(f"{path}.grid.{dotted}: expected a list of "
                                f"values, got {values!r}")
                continue
            if not values:
                problems.append(f"{path}.grid.{dotted}: must list at least "
                                f"one value")
                continue
            grid.append((str(dotted), tuple(values)))
        if problems:
            raise InvalidSpecError(problems)
        base = ExperimentSpec.from_dict(data, path)
        return cls(base=base, grid=tuple(grid), name=name)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, path: str) -> "SweepSpec":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidSpecError([f"{path}: not valid JSON: {exc}"]) \
                    from exc
        return cls.from_dict(data, path=os.path.basename(path))

    # ------------------------------------------------------------- expansion
    def with_env_overlay(self, env: Mapping[str, str] | None = None
                         ) -> "SweepSpec":
        """A copy whose base spec has the environment folded in."""
        return replace(self, base=self.base.with_env_overlay(env))

    def points(self) -> list["SweepPoint"]:
        """Every grid point: label, overlay values, and the expanded spec.

        Labels are stable across invocations of the same sweep file
        (``<index>-<leaf>=<value>,...``), which is what lets a killed
        sweep resume into the same per-point run directories.
        """
        import itertools
        import re

        if not self.grid:
            return [SweepPoint(label="000-base", overlays={}, spec=self.base)]
        paths = [dotted for dotted, _ in self.grid]
        combos = itertools.product(*(values for _, values in self.grid))
        points = []
        for index, combo in enumerate(combos):
            spec = self.base
            overlays = {}
            for dotted, value in zip(paths, combo):
                spec = spec.with_value(dotted, value)
                overlays[dotted] = value
            pieces = ",".join(f"{dotted.rsplit('.', 1)[-1]}={value}"
                              for dotted, value in overlays.items())
            label = f"{index:03d}-" + re.sub(r"[^A-Za-z0-9_.+=,-]", "-",
                                             pieces)[:80]
            points.append(SweepPoint(label=label, overlays=overlays,
                                     spec=spec))
        return points

    # ------------------------------------------------------------ validation
    def problems(self, path: str = "sweep") -> list[str]:
        out = []
        seen: set[str] = set()
        for point in self._expand_for_validation(path, out):
            for problem in point.spec.problems(path):
                if problem not in seen:
                    seen.add(problem)
                    out.append(problem)
        return out

    def _expand_for_validation(self, path: str,
                               out: list[str]) -> list["SweepPoint"]:
        try:
            return self.points()
        except (AttributeError, TypeError) as exc:
            # An overlay path that does not exist in the spec tree.
            bad = ", ".join(dotted for dotted, _ in self.grid)
            out.append(f"{path}.grid: cannot apply overlay ({bad}): {exc}")
            return []

    def validate(self) -> "SweepSpec":
        """Raise :class:`InvalidSpecError` listing *all* problems; else self."""
        if id(self) in _VALIDATED_IDS:
            return self
        problems = self.problems()
        if problems:
            raise InvalidSpecError(problems)
        _VALIDATED_IDS.add(id(self))
        weakref.finalize(self, _VALIDATED_IDS.discard, id(self))
        return self


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point of a :class:`SweepSpec`."""

    label: str
    overlays: Mapping[str, Any]
    spec: ExperimentSpec


def _transform_specs(transforms: Any) -> list[TransformSpec]:
    """Coerce the ``transforms`` argument of :meth:`DetectorSpec.default`."""
    if transforms is None:
        from repro.defenses.transforms import default_transform_suite
        transforms = default_transform_suite()
    if isinstance(transforms, str):
        parts = [p.strip() for p in transforms.split(",") if p.strip()]
        if not parts:
            raise ValueError("no transform specs given")
        return [TransformSpec(part) for part in parts]
    out = []
    for item in transforms:
        if isinstance(item, TransformSpec):
            out.append(item)
        elif isinstance(item, str):
            out.append(TransformSpec(item))
        else:
            spec = getattr(item, "spec", None)
            if not spec:
                raise ValueError(
                    f"transform {getattr(item, 'name', item)!r} has no "
                    f"compact spec representation and cannot appear in a "
                    f"serialisable DetectorSpec; pass a spec string instead")
            out.append(TransformSpec(spec))
    return out
