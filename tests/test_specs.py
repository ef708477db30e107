"""Tests for the declarative spec tree, repro.build and the registries.

Covers the PR's acceptance criteria: spec JSON round-trips are identity,
the environment overlay wins over file values, a spec-built detector is
score-identical to the legacy kwarg-built one in all three defense
modes, a ``register_asr`` plugin participates in a suite by name, the
legacy ``default_detector`` kwargs still work under
``DeprecationWarning``, and every registry raises one
``UnknownComponentError``.
"""

import json
import warnings

import numpy as np
import pytest

from repro.asr.base import ASRSystem, Transcription
from repro.asr.registry import (
    available_asr_names,
    build_asr,
    default_suite_names,
    register_asr,
    unregister_asr,
)
from repro.build import build, build_pipeline, build_service, build_streaming
from repro.core.bootstrap import default_detector
from repro.errors import UnknownComponentError
from repro.specs import (
    ASRSpec,
    DetectorSpec,
    InvalidSpecError,
    ScoringSpec,
    SuiteSpec,
    TransformSpec,
)

SPEC_VARIANTS = {
    "multi-asr": lambda: DetectorSpec.default(scale="tiny"),
    "transform": lambda: DetectorSpec.default(
        scale="tiny", defense="transform", transforms="quantize:6,lowpass:2500"),
    "combined": lambda: DetectorSpec.default(
        scale="tiny", defense="combined", transforms="quantize:6,lowpass:2500"),
    "mixed": lambda: DetectorSpec(
        suite=SuiteSpec(
            target=ASRSpec("DS0"),
            auxiliaries=(ASRSpec("DS1"),
                         ASRSpec("DS0", transform=TransformSpec("median:5")),
                         ASRSpec("GCS"))),
        scoring=ScoringSpec(scorer="PE_Jaccard", backend="reference",
                            cache="private")),
}


# ------------------------------------------------------------- round trips
@pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
def test_spec_dict_json_round_trip_is_identity(variant):
    spec = SPEC_VARIANTS[variant]()
    payload = json.loads(json.dumps(spec.to_dict()))
    assert DetectorSpec.from_dict(payload) == spec


def test_spec_file_round_trip_is_identity(tmp_path):
    spec = DetectorSpec.default(scale="tiny", defense="combined")
    path = spec.save(str(tmp_path / "system.json"))
    assert DetectorSpec.from_json(path) == spec


def test_asr_spec_serialises_compactly():
    assert ASRSpec("DS1").to_dict() == "DS1"
    assert ASRSpec("DS0", TransformSpec("quantize:8")).to_dict() == {
        "name": "DS0", "transform": "quantize:8"}


# -------------------------------------------------------------- env overlay
def test_env_overlay_wins_over_file_values(tmp_path):
    path = DetectorSpec.default(scale="tiny").save(str(tmp_path / "c.json"))
    env = {"REPRO_SCALE": "medium", "REPRO_WORKERS": "3",
           "REPRO_SCORING_BACKEND": "reference", "REPRO_CLASSIFIER": "KNN"}
    spec = DetectorSpec.load(path, env=env)
    assert spec.training.scale == "medium"
    assert spec.pipeline.workers == 3
    assert spec.scoring.backend == "reference"
    assert spec.classifier.name == "KNN"
    # Unset variables leave file values untouched.
    untouched = DetectorSpec.load(path, env={})
    assert untouched == DetectorSpec.from_json(path)


def test_env_overlay_reports_bad_values():
    with pytest.raises(InvalidSpecError, match="REPRO_WORKERS"):
        DetectorSpec.default().with_env_overlay({"REPRO_WORKERS": "many"})


def test_with_value_replaces_one_leaf():
    spec = DetectorSpec.default()
    changed = spec.with_value("scoring.backend", "reference")
    assert changed.scoring.backend == "reference"
    assert changed.with_value("scoring.backend", "fast") == spec


# --------------------------------------------------------------- validation
def test_validation_names_every_bad_field_with_choices():
    spec = DetectorSpec.from_dict({
        "suite": {"target": "SIRI",
                  "auxiliaries": [{"name": "DS0", "transform": "reverb:3"}]},
        "scoring": {"scorer": "nope", "backend": "slow"},
        "classifier": "MLP",
        "training": {"scale": "gigantic", "source": "csv"},
    })
    with pytest.raises(InvalidSpecError) as excinfo:
        spec.validate()
    message = str(excinfo.value)
    for field, choice in (("suite.target.name", "DS0"),
                          ("suite.auxiliaries[0].transform", "quantize"),
                          ("scoring.scorer", "PE_JaroWinkler"),
                          ("scoring.backend", "fast"),
                          ("classifier.name", "SVM"),
                          ("training.scale", "tiny"),
                          ("training.source", "bundle")):
        assert field in message and choice in message
    assert len(excinfo.value.problems) == 7


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(InvalidSpecError, match="backnd"):
        DetectorSpec.from_dict({"scoring": {"backnd": "fast"}})
    with pytest.raises(InvalidSpecError, match="allowed"):
        DetectorSpec.from_dict({"sute": {}})
    with pytest.raises(InvalidSpecError,
                       match="serving: unknown field 'max_latency_seconds'"):
        DetectorSpec.from_dict({"serving": {"max_latency_seconds": 0.01}})


def test_empty_auxiliaries_is_invalid():
    with pytest.raises(InvalidSpecError, match="auxiliaries"):
        DetectorSpec.from_dict({"suite": {"auxiliaries": []}}).validate()


def test_scored_source_rejects_uncovered_suites():
    spec = DetectorSpec.from_dict({
        "suite": {"target": "DS0",
                  "auxiliaries": [{"name": "DS0", "transform": "quantize:8"}]},
        "training": {"scale": "tiny", "source": "scored"}})
    with pytest.raises(InvalidSpecError, match="scored"):
        build(spec)
    # A non-default target is equally uncovered by the scored dataset.
    retargeted = DetectorSpec.from_dict({
        "suite": {"target": "KAL", "auxiliaries": ["DS1"]},
        "training": {"scale": "tiny", "source": "scored"}})
    with pytest.raises(InvalidSpecError, match="target"):
        build(retargeted)


def test_validation_never_reads_cache_files(tmp_path):
    # A cache *path* that exists but holds junk must not break (or even
    # be opened by) validation; it only matters at build time.
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    before = junk.read_text()
    spec = (DetectorSpec.default(scale="tiny")
            .with_value("scoring.cache", str(junk))
            .with_value("pipeline.cache", str(junk)))
    assert spec.validate() is spec
    assert junk.read_text() == before


def test_unregister_restores_shadowed_builtin():
    from repro.asr.registry import asr_name_resolvable

    original = build_asr("DS1")

    class _Shadow(_EchoASR):
        def __init__(self):
            self._inner = original      # not via build_asr: DS1 is shadowed

    register_asr("DS1", _Shadow)
    try:
        assert isinstance(build_asr("DS1"), _Shadow)
    finally:
        unregister_asr("DS1")
    assert default_suite_names() == ("DS0", "DS1", "GCS", "AT")
    restored = build_asr("DS1")
    assert not isinstance(restored, _Shadow)
    assert type(restored) is type(original)
    assert asr_name_resolvable("KAL-fs3") and not asr_name_resolvable("SIRI")


# ---------------------------------------------------- spec / legacy parity
@pytest.mark.parametrize("mode", ["multi-asr", "transform", "combined"])
def test_spec_build_matches_legacy_kwargs(mode, synthesizer):
    spec_kwargs = dict(scale="tiny", defense=mode)
    if mode != "multi-asr":
        spec_kwargs["transforms"] = "quantize:6,lowpass:2500"
    from_spec = build(DetectorSpec.default(**spec_kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = default_detector(**spec_kwargs)
    assert from_spec.system_name == legacy.system_name
    for text in ("turn off all the lights", "open the front door"):
        clip = synthesizer.synthesize(text)
        spec_result = from_spec.detect(clip)
        legacy_result = legacy.detect(clip)
        assert np.array_equal(spec_result.scores, legacy_result.scores)
        assert spec_result.is_adversarial == legacy_result.is_adversarial


def test_config_file_alone_reproduces_headline_system(tmp_path, synthesizer):
    path = DetectorSpec.default(scale="tiny").save(str(tmp_path / "sys.json"))
    from_file = build(DetectorSpec.from_json(path))
    from_path = build(path)        # build() accepts the path directly
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = default_detector(scale="tiny")
    assert from_file.system_name == "DS0+{DS1, GCS, AT}"
    clip = synthesizer.synthesize("the weather is nice today")
    reference = legacy.detect(clip).scores
    assert np.array_equal(from_file.detect(clip).scores, reference)
    assert np.array_equal(from_path.detect(clip).scores, reference)


def test_legacy_kwargs_warn_but_bare_call_does_not():
    with pytest.deprecated_call():
        default_detector(scale="tiny")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build(DetectorSpec.default(scale="tiny"))      # spec path never warns


def test_legacy_instance_arguments_still_work():
    from repro.defenses.transforms import BitDepthQuantize, NoiseFlood
    from repro.pipeline.cache import TranscriptionCache
    from repro.similarity.score_cache import PairScoreCache

    cache = TranscriptionCache()
    score_cache = PairScoreCache()
    with pytest.deprecated_call():
        detector = default_detector(
            scale="tiny", defense="transform",
            transforms=[BitDepthQuantize(6), NoiseFlood(20.0, seed=3)],
            cache=cache, score_cache=score_cache)
    assert detector.transform_names == ("quantize-6", "noise-20-s3")
    assert detector.engine.cache is cache
    assert detector.scoring.cache is score_cache


# ------------------------------------------------------------ ASR registry
class _EchoASR(ASRSystem):
    """Minimal plugin ASR: delegates to DS1 (cheap, deterministic)."""

    name = "Echo (test plugin)"
    short_name = "ECHO"

    def __init__(self):
        self._inner = build_asr("DS1")

    def _transcribe_samples(self, samples, sample_rate) -> Transcription:
        return self._inner._transcribe_samples(samples, sample_rate)


@pytest.fixture
def echo_asr():
    register_asr("ECHO", _EchoASR)
    try:
        yield
    finally:
        unregister_asr("ECHO")


def test_registered_plugin_joins_a_suite_by_name(echo_asr, synthesizer):
    assert "ECHO" in available_asr_names()
    spec = DetectorSpec.from_dict({
        "suite": {"target": "DS0", "auxiliaries": ["DS1", "ECHO"]},
        "training": {"scale": "tiny", "source": "bundle"}})
    detector = build(spec)
    assert detector.system_name == "DS0+{DS1, ECHO}"
    result = detector.detect(synthesizer.synthesize("open the front door"))
    # The plugin echoes DS1, so their similarity columns agree exactly.
    assert result.scores[0] == result.scores[1]
    # CLI suite choices are registry-derived, so the plugin is selectable.
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["screen", "x.wav", "--target", "DS0",
                              "--auxiliaries", "DS1,ECHO"])
    assert args.auxiliaries == "DS1,ECHO"


def test_default_suite_is_registry_derived():
    assert default_suite_names() == ("DS0", "DS1", "GCS", "AT")
    register_asr("ZZZ-test", _EchoASR)
    try:
        # Plugins are available but do not change the paper's default suite.
        assert "ZZZ-test" in available_asr_names()
        assert default_suite_names() == ("DS0", "DS1", "GCS", "AT")
    finally:
        unregister_asr("ZZZ-test")
    assert "ZZZ-test" not in available_asr_names()


def test_reregistration_replaces_cached_instance(echo_asr):
    first = build_asr("ECHO")
    assert build_asr("ECHO") is first
    register_asr("ECHO", _EchoASR)
    assert build_asr("ECHO") is not first


# ------------------------------------------------- unified registry errors
@pytest.mark.parametrize("lookup,kind", [
    (lambda: build_asr("SIRI"), "ASR system"),
    (lambda: __import__("repro.ml.registry", fromlist=["build_classifier"])
        .build_classifier("MLP"), "classifier"),
    (lambda: __import__("repro.similarity.scorer", fromlist=["get_scorer"])
        .get_scorer("nope"), "similarity method"),
    (lambda: __import__("repro.similarity.engine",
                        fromlist=["get_scoring_backend"])
        .get_scoring_backend("slow"), "scoring backend"),
    (lambda: __import__("repro.similarity.engine",
                        fromlist=["resolve_score_cache"])
        .resolve_score_cache("sharde"), "score-cache policy"),
    (lambda: __import__("repro.pipeline.engine",
                        fromlist=["resolve_transcription_cache"])
        .resolve_transcription_cache("sharde"), "transcription-cache policy"),
    (lambda: __import__("repro.defenses.transforms",
                        fromlist=["parse_transform"])
        .parse_transform("reverb:3"), "transform"),
    (lambda: DetectorSpec.default(defense="waveguard"), "defense mode"),
])
def test_every_registry_raises_unknown_component_error(lookup, kind):
    with pytest.raises(UnknownComponentError) as excinfo:
        lookup()
    error = excinfo.value
    assert error.kind == kind
    assert error.available, "available names must be reported"
    assert str(error.name) in str(error)
    # Backwards compatible with both historical exception types.
    assert isinstance(error, ValueError) and isinstance(error, KeyError)


def test_unknown_component_error_message_is_plain():
    error = UnknownComponentError("widget", "x", ["a", "b"])
    assert str(error) == "unknown widget 'x'; available: ['a', 'b']"


# ------------------------------------------------------- serving from spec
def test_build_streaming_uses_serving_section(tiny_detector_spec):
    spec = (tiny_detector_spec
            .with_value("serving.window_seconds", 1.0)
            .with_value("serving.hop_seconds", 1.0)
            .with_value("serving.trigger_windows", 1))
    streaming = build_streaming(spec)
    assert streaming.config.window_seconds == 1.0
    assert streaming.config.hop_seconds == 1.0
    assert streaming.config.trigger_windows == 1


def test_build_service_uses_serving_section(tiny_detector_spec):
    spec = tiny_detector_spec.with_value("serving.max_batch_size", 3)
    service = build_service(spec, fit=False)
    assert service.max_batch_size == 3


def test_serving_transport_field_validates_and_overlays():
    from repro.specs import SERVE_TRANSPORTS, DetectorSpec, ServingSpec

    assert ServingSpec().transport == "shm"
    assert ServingSpec.from_dict({"transport": "pickle"}).problems() == []
    assert ServingSpec.from_dict({"transport": "smoke-signal"}).problems()
    round_trip = ServingSpec.from_dict(ServingSpec(transport="pickle").to_dict())
    assert round_trip.transport == "pickle"
    overlaid = DetectorSpec().with_env_overlay(
        {"REPRO_SERVE_TRANSPORT": "pickle"})
    assert overlaid.serving.transport == "pickle"
    assert set(SERVE_TRANSPORTS) == {"shm", "pickle"}


def test_build_pipeline_and_detect(tiny_detector_spec, synthesizer):
    pipeline = build_pipeline(tiny_detector_spec)
    batch = pipeline.detect_batch(
        [synthesizer.synthesize("turn the volume to maximum")])
    assert len(batch) == 1


@pytest.fixture(scope="module")
def tiny_detector_spec():
    return DetectorSpec.default(scale="tiny")


def test_scored_dataset_with_custom_suite_keeps_column_order(tiny_bundle):
    from repro.datasets.scores import compute_scored_dataset

    # Auxiliaries deliberately in non-paper order: columns must follow
    # the dataset's own order, not the global AUXILIARY_ORDER.
    suite = SuiteSpec(target=ASRSpec("DS0"),
                      auxiliaries=(ASRSpec("GCS"), ASRSpec("DS1")))
    dataset = compute_scored_dataset(tiny_bundle, workers=0, suite=suite)
    assert dataset.auxiliary_order == ("GCS", "DS1")
    gcs_ds1, _ = dataset.features_for(("GCS", "DS1"))
    ds1_gcs, _ = dataset.features_for(("DS1", "GCS"))
    assert np.array_equal(gcs_ds1[:, 0], ds1_gcs[:, 1])
    assert np.array_equal(dataset.scores, gcs_ds1)
    with pytest.raises(UnknownComponentError, match="AT"):
        dataset.features_for(("AT",))


def test_override_transforms_refuse_noncanonical_suites():
    from repro.defenses.transforms import BitDepthQuantize

    spec = DetectorSpec.from_dict({
        "suite": {"target": "DS0",
                  "auxiliaries": ["DS1",
                                  {"name": "DS1", "transform": "median:5"}]},
        "training": {"scale": "tiny", "source": "bundle"}})
    with pytest.raises(InvalidSpecError, match="non-target"):
        build(spec, fit=False,
              overrides={"transforms": [BitDepthQuantize(6)]})


# ------------------------------------------------------ shape edge cases
def test_transformed_non_target_members_are_kept():
    # A transformed view of a *non-target* member is not the canonical
    # ensemble shape; the generic path must keep every declared member.
    spec = DetectorSpec.from_dict({
        "suite": {"target": "DS0",
                  "auxiliaries": ["DS1",
                                  {"name": "DS0", "transform": "quantize:8"},
                                  {"name": "DS1", "transform": "median:5"}]},
        "training": {"scale": "tiny", "source": "bundle"}})
    detector = build(spec, fit=False)
    assert [a.short_name for a in detector.auxiliary_asrs] == [
        "DS1", "DS0~quantize-8", "DS1~median-5"]


def test_checked_in_combined_config_builds_every_member():
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "examples", "configs",
        "combined-six-versions.json")
    detector = build(DetectorSpec.from_json(path), fit=False)
    assert detector.n_features == 6
    assert "DS1~median-5" in {a.short_name for a in detector.auxiliary_asrs}


def test_default_uses_auto_source_so_nondefault_targets_train_on_bundle():
    from repro.build import _training_source
    assert DetectorSpec.default().training.source == "auto"
    assert _training_source(DetectorSpec.default()) == "scored"
    assert _training_source(DetectorSpec.default(target="KAL")) == "bundle"
    assert _training_source(
        DetectorSpec.default(auxiliaries=("DS1", "KAL"))) == "bundle"


def test_ensemble_from_spec_refuses_plain_suites_before_building():
    from repro.defenses.ensemble import TransformEnsembleDetector

    with pytest.raises(InvalidSpecError, match="transform-ensemble shape"):
        TransformEnsembleDetector.from_spec(DetectorSpec.default(scale="tiny"))
    ensemble = TransformEnsembleDetector.from_spec(
        DetectorSpec.default(scale="tiny", defense="transform",
                             transforms="quantize:6"), fit=False)
    assert ensemble.transform_names == ("quantize-6",)
