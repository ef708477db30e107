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
    ├── scoring:    ScoringSpec      # method, pair-score cache
    ├── classifier: ClassifierSpec   # registry name
    ├── pipeline:   PipelineSpec     # workers, transcription cache
    │   └── features:    FeaturesSpec  # feature engine on/off + cache
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

import functools
import json
import os
import types
import typing
import weakref
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Iterable, Mapping, Sequence

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


#: Identities of spec instances that already passed validate()
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


# --------------------------------------------------------------------- codec
# One codec serves every spec class: it reads each dataclass's field
# annotations, so a field's type is stated once, in its annotation.
@functools.cache
def _hints(cls) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _decode(hint: Any, value: Any, path: str, problems: list[str]) -> Any:
    """``value`` read as ``hint``; each fault is appended to ``problems``
    (the return value is then meaningless) so a parse reports them all.

    ``X | None`` is the only annotation that admits null; ``tuple[X, ...]``
    reads a list; ``Mapping`` reads an object with string keys; a spec
    class reads an object (or its shorthand string); a scalar type
    coerces the value with its constructor.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint)
                   if arg is not type(None)]
        return _decode(hint, value, path, problems)
    if origin is tuple:
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
            problems.append(f"{path}: expected a list, got {value!r}")
            return ()
        item = typing.get_args(hint)[0]
        return tuple(_decode(item, entry, f"{path}[{i}]", problems)
                     for i, entry in enumerate(value))
    if origin is not None and issubclass(origin, Mapping):
        if not isinstance(value, Mapping):
            problems.append(
                f"{path}: expected an object, got {type(value).__name__}")
            return {}
        problems.extend(f"{path}: parameter names must be strings, "
                        f"got {key!r}" for key in value
                        if not isinstance(key, str))
        return dict(value)
    if isinstance(hint, type) and issubclass(hint, _Spec):
        if isinstance(value, hint):
            return value
        if isinstance(value, str) and hint._shorthand:
            return hint(**{hint._shorthand: value})
        if hint._string_only:
            problems.append(
                f"{path}: expected {hint._string_only}, got {value!r}")
            return None
        if not isinstance(value, Mapping):
            problems.append(
                f"{path}: expected an object, got {type(value).__name__}")
            return None
        return hint._from_mapping(value, path, problems)
    if value is None:
        problems.append(f"{path}: must not be null")
        return None
    try:
        return hint(value)
    except (TypeError, ValueError):
        problems.append(f"{path}: expected {hint.__name__}, got {value!r}")
        return None


def _read(hint: Any, value: Any, path: str) -> Any:
    """:func:`_decode`, raising one :class:`InvalidSpecError` listing
    every problem."""
    problems: list[str] = []
    value = _decode(hint, value, path, problems)
    if problems:
        raise InvalidSpecError(problems)
    return value


def _encode(value: Any) -> Any:
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


def _replace_path(node: Any, dotted: str, value: Any):
    """Replace the field at ``dotted`` in a nested frozen-dataclass tree
    (a mapping field takes the rest of the path as one key)."""
    head, _, rest = dotted.partition(".")
    if not rest:
        return replace(node, **{head: value})
    child = getattr(node, head)
    if isinstance(child, Mapping):
        return replace(node, **{head: {**child, rest: value}})
    return replace(node, **{head: _replace_path(child, rest, value)})


def _env_overlay(spec: Any, table: Mapping[str, str],
                 env: Mapping[str, str] | None) -> Any:
    """``spec`` with every set variable of ``table`` (variable -> dotted
    path) parsed at that path's annotation and folded in."""
    if env is None:
        env = os.environ
    for variable, dotted in table.items():
        raw = env.get(variable)
        if raw is None or raw == "":
            continue
        hint = type(spec)
        for name in dotted.split("."):
            hint = _hints(hint)[name]
        spec = _replace_path(spec, dotted, _read(hint, raw, f"${variable}"))
    return spec


class _Spec:
    """Base of every serialisable spec: the one codec's entry points.

    ``to_dict`` gives each field's value by name (nested specs in their
    own form); ``from_dict`` parses the same shape strictly, reading
    each field at its annotation and reporting every bad field at once.
    Error paths start at the class name without ``Spec``, lower-cased
    (``"suite"``), unless the class sets ``_path``.
    """

    #: Root of ``from_dict``'s error paths, when not the default.
    _path = ""
    #: The field a bare JSON string fills (``"DS1"`` for ``{"name": "DS1"}``).
    _shorthand = ""
    #: Set on specs whose only JSON form is that string: what a parse
    #: error says it expected instead.
    _string_only = ""

    def to_dict(self) -> Any:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Any, path: str | None = None):
        """Parse the :meth:`to_dict` form strictly; raise
        :class:`InvalidSpecError` listing every bad field."""
        if path is None:
            path = cls._path or cls.__name__.removesuffix("Spec").lower()
        return _read(cls, data, path)

    @classmethod
    def _from_mapping(cls, data: Mapping, path: str, problems: list[str]):
        """The object form: one key per field, unknown keys rejected."""
        before = len(problems)
        known = [f.name for f in fields(cls)]
        problems.extend(f"{path}: unknown field {name!r} "
                        f"(allowed: {sorted(known)})"
                        for name in sorted(set(data) - set(known)))
        hints = _hints(cls)
        kwargs = {}
        for f in fields(cls):
            if f.name in data:
                kwargs[f.name] = _decode(hints[f.name], data[f.name],
                                         f"{path}.{f.name}", problems)
            elif f.default is MISSING and f.default_factory is MISSING:
                problems.append(f"{path}: missing required field {f.name!r}")
        return cls(**kwargs) if len(problems) == before else None

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document (what :meth:`from_json` reads)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, path: str):
        """Read a spec from the JSON file at ``path`` (strictly parsed)."""
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InvalidSpecError([f"{path}: not valid JSON: {exc}"]) \
                    from exc
        return cls.from_dict(data, path=os.path.basename(path))

    def validate(self):
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


# ------------------------------------------------------------------ ASR suite
@dataclass(frozen=True)
class TransformSpec(_Spec):
    """One input transformation in compact parse syntax.

    ``spec`` is the syntax :func:`repro.defenses.transforms.parse_transform`
    accepts: ``"quantize:8"``, ``"lowpass:3000"``, chains like
    ``"quantize:8+lowpass:3000"``.  Serialises as the bare string.
    """

    spec: str

    _shorthand = "spec"
    _string_only = "a transform spec string"

    def to_dict(self) -> str:
        return self.spec

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


@dataclass(frozen=True)
class ASRSpec(_Spec):
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

    _shorthand = "name"

    def to_dict(self) -> dict | str:
        return self.name if self.transform is None else super().to_dict()

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
class SuiteSpec(_Spec):
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


@dataclass(frozen=True)
class ScoringSpec(_Spec):
    """The similarity scoring stage.

    Attributes:
        scorer: similarity method name (Table III; default the paper's
            ``PE_JaroWinkler``).
        cache: pair-score cache policy — ``"shared"``, ``"private"``,
            ``"off"`` or an on-disk JSON path (see
            :func:`repro.similarity.engine.resolve_score_cache`).
    """

    scorer: str = field(default_factory=_default_scorer)
    cache: str = "shared"

    def problems(self, path: str = "scoring") -> list[str]:
        from repro.caching import check_cache_policy
        from repro.similarity.scorer import available_method_names
        out = []
        if self.scorer not in available_method_names():
            out.append(f"{path}.scorer: unknown similarity method "
                       f"{self.scorer!r}; available: "
                       f"{list(available_method_names())}")
        try:
            # Policy check only — validation must not read cache files.
            check_cache_policy(self.cache, "score-cache policy")
        except UnknownComponentError as exc:
            out.append(f"{path}.cache: {exc}")
        return out


# ---------------------------------------------------------------- classifier
@dataclass(frozen=True)
class ClassifierSpec(_Spec):
    """The binary classifier, by registry name (default: the paper's SVM)."""

    name: str = "SVM"

    _shorthand = "name"        # "classifier": "SVM"

    def problems(self, path: str = "classifier") -> list[str]:
        from repro.ml.registry import available_classifier_names
        if self.name not in available_classifier_names():
            return [f"{path}.name: unknown classifier {self.name!r}; "
                    f"available: {list(available_classifier_names())}"]
        return []


# ------------------------------------------------------------------ pipeline
#: Allowed :attr:`FeaturesSpec.backend` values.
FEATURE_BACKENDS = ("off", "fast")


@dataclass(frozen=True)
class FeaturesSpec(_Spec):
    """The front-end feature stage: feature engine on or off, and its cache.

    Attributes:
        backend: ``"fast"`` (the default) shares one batch-vectorized
            :class:`~repro.dsp.engine.FeatureEngine` across the suite;
            ``"off"`` disables it entirely so every ASR runs its own
            front end from raw samples.
        cache: feature cache policy — ``"shared"``, ``"private"``,
            ``"off"`` or an on-disk ``.npz`` path (see
            :func:`repro.dsp.engine.resolve_feature_cache`).
    """

    backend: str = "fast"
    cache: str = "shared"

    _path = "pipeline.features"

    def problems(self, path: str = "pipeline.features") -> list[str]:
        from repro.caching import check_cache_policy
        out = []
        if self.backend not in FEATURE_BACKENDS:
            out.append(f"{path}.backend: unknown feature backend "
                       f"{self.backend!r}; available: "
                       f"{list(FEATURE_BACKENDS)}")
        try:
            # Policy check only — validation must not read cache files.
            check_cache_policy(self.cache, "feature-cache policy",
                               suffixes=(".npz",))
        except UnknownComponentError as exc:
            out.append(f"{path}.cache: {exc}")
        return out


@dataclass(frozen=True)
class PipelineSpec(_Spec):
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
class ServingSpec(_Spec):
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
class TrainingSpec(_Spec):
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
#: :meth:`DetectorSpec.with_env_overlay`: variable name -> dotted spec
#: path, whose annotation parses the value.  One table instead of
#: scattered ``os.environ`` reads; environment values win over
#: config-file values.
ENV_OVERLAYS: dict[str, str] = {
    "REPRO_SCALE": "training.scale",
    "REPRO_WORKERS": "pipeline.workers",
    "REPRO_TRANSCRIPTION_CACHE": "pipeline.cache",
    "REPRO_FEATURE_BACKEND": "pipeline.features.backend",
    "REPRO_FEATURE_CACHE": "pipeline.features.cache",
    "REPRO_SCORE_CACHE": "scoring.cache",
    "REPRO_SCORER": "scoring.scorer",
    "REPRO_CLASSIFIER": "classifier.name",
    "REPRO_SERVE_WORKERS": "serving.workers",
    "REPRO_SERVE_QUEUE": "serving.queue_depth",
    "REPRO_SERVE_TIMEOUT": "serving.request_timeout_seconds",
    "REPRO_SERVE_TRANSPORT": "serving.transport",
}


# ------------------------------------------------------------- detector spec
@dataclass(frozen=True)
class DetectorSpec(_Spec):
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
                score_cache: str = "shared") -> "DetectorSpec":
        """The paper's detection systems as a spec.

        ``defense`` shapes the suite: ``"multi-asr"`` (the paper's
        system — diverse auxiliary models), ``"transform"`` (transformed
        views of the target as auxiliaries) or ``"combined"`` (both).
        ``transforms`` accepts a comma-separated spec string, or a
        sequence of spec strings, :class:`TransformSpec` objects or
        built :class:`Transform` instances that carry a ``spec``
        (default: the standard five-transform suite); a transform with
        no spec raises ``ValueError``.
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
    def save(self, path: str) -> str:
        """Write the spec to a JSON file; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        return path

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
        return _env_overlay(self, ENV_OVERLAYS, env)

    def with_value(self, dotted: str, value: Any) -> "DetectorSpec":
        """A copy with the field at ``dotted`` path replaced.

        ``spec.with_value("scoring.scorer", "PE_Jaccard")`` is the
        programmatic form of one flag/env overlay.  Paths may descend
        any number of levels (``"pipeline.features.cache"``).
        """
        return _replace_path(self, dotted, value)

    # ------------------------------------------------------------ validation
    def problems(self) -> list[str]:
        """Every validation problem, one message per offending field."""
        return [problem for section in fields(self)
                for problem in getattr(self, section.name).problems(
                    section.name)]


# ----------------------------------------------------------- experiment spec
#: ``REPRO_*`` variables folded onto an :class:`ExperimentSpec` by its
#: :meth:`~ExperimentSpec.with_env_overlay` (the detector subtree gets
#: the full :data:`ENV_OVERLAYS` table on top).
EXPERIMENT_ENV_OVERLAYS: dict[str, str] = {
    "REPRO_SCALE": "scale",
}


@dataclass(frozen=True)
class ExperimentSpec(_Spec):
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
            ``scoring.scorer``, ``scoring.cache``, ...); sweeps vary
            its dotted paths per grid point.
    """

    experiment: str = ""
    scale: str | None = None
    seed: int = DEFAULT_SEED
    workers: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    detector: DetectorSpec = field(default_factory=DetectorSpec)

    # -------------------------------------------------------------- overlays
    def with_env_overlay(self, env: Mapping[str, str] | None = None
                         ) -> "ExperimentSpec":
        """A copy with ``REPRO_*`` variables folded in (env wins).

        ``REPRO_SCALE`` overlays the experiment's own scale; the whole
        :data:`ENV_OVERLAYS` table overlays the detector subtree, so
        e.g. ``REPRO_CLASSIFIER`` reaches detector-building experiments.
        """
        spec = _env_overlay(self, EXPERIMENT_ENV_OVERLAYS, env)
        return replace(spec, detector=spec.detector.with_env_overlay(env))

    def with_value(self, dotted: str, value: Any) -> "ExperimentSpec":
        """A copy with the field at ``dotted`` path replaced.

        ``"params.<name>"`` sets one experiment parameter;
        ``"detector.<...>"`` descends the :class:`DetectorSpec` tree
        (``"detector.scoring.scorer"``); top-level fields are plain
        names (``"scale"``).
        """
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


@dataclass(frozen=True)
class SweepSpec(_Spec):
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
    # The flat form: the base experiment's fields, plus "grid" and "name".
    def to_dict(self) -> dict:
        payload = self.base.to_dict()
        payload["grid"] = {dotted: list(values)
                           for dotted, values in self.grid}
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def _from_mapping(cls, data: Mapping, path: str, problems: list[str]):
        before = len(problems)
        data = dict(data)
        name = _decode(str, data.pop("name", ""), f"{path}.name", problems)
        grid_map = _decode(Mapping[str, Any], data.pop("grid", {}),
                           f"{path}.grid", problems)
        grid: list[tuple[str, tuple]] = []
        for dotted, values in grid_map.items():
            if not isinstance(values, Sequence) or isinstance(values, str):
                problems.append(f"{path}.grid.{dotted}: expected a list of "
                                f"values, got {values!r}")
            elif not values:
                problems.append(f"{path}.grid.{dotted}: must list at least "
                                f"one value")
            else:
                grid.append((str(dotted), tuple(values)))
        base = _decode(ExperimentSpec, data, path, problems)
        if len(problems) > before:
            return None
        return cls(base=base, grid=tuple(grid), name=name)

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
