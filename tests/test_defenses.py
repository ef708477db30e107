"""Tests for the transformation-ensemble defense subsystem."""

import numpy as np
import pytest

from repro.asr.registry import build_asr
from repro.audio.waveform import Waveform
from repro.defenses import (
    AmplitudeClip,
    BitDepthQuantize,
    Compose,
    DownUpsample,
    LowPassFilter,
    MedianFilter,
    NoiseFlood,
    TransformEnsembleDetector,
    TransformedASR,
    default_transform_suite,
    parse_transform,
    parse_transforms,
    transformed_suite,
)
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.detection import DetectionPipeline
from repro.serving.chunker import StreamConfig
from repro.serving.streaming import StreamingDetector

ALL_TRANSFORMS = [BitDepthQuantize(8), DownUpsample(2), LowPassFilter(3000.0),
                  MedianFilter(5), NoiseFlood(20.0), AmplitudeClip(0.5)]

#: A small ensemble used by the heavier integration tests.
FAST_TRANSFORMS = lambda: [BitDepthQuantize(6), LowPassFilter(2500.0)]  # noqa: E731


@pytest.fixture(scope="module")
def clips(synthesizer):
    return [synthesizer.synthesize(text)
            for text in ("open the garage door",
                         "the storm passed over the hills before sunset",
                         "please call me later tonight")]


# ------------------------------------------------------------- transforms
@pytest.mark.parametrize("transform", ALL_TRANSFORMS,
                         ids=[t.name for t in ALL_TRANSFORMS])
def test_transform_preserves_geometry(transform, samples):
    wave = Waveform(samples=samples)
    out = transform(wave)
    assert isinstance(out, Waveform)
    assert len(out) == len(wave)
    assert out.sample_rate == wave.sample_rate
    assert out.metadata["transform"] == transform.name
    assert np.max(np.abs(out.samples)) <= 1.0


@pytest.mark.parametrize("transform", ALL_TRANSFORMS,
                         ids=[t.name for t in ALL_TRANSFORMS])
def test_transform_is_deterministic(transform, samples):
    wave = Waveform(samples=samples)
    assert np.array_equal(transform(wave).samples, transform(wave).samples)


@pytest.mark.parametrize("transform", ALL_TRANSFORMS,
                         ids=[t.name for t in ALL_TRANSFORMS])
def test_transform_actually_transforms(transform, samples):
    wave = Waveform(samples=samples)
    assert not np.array_equal(transform(wave).samples, wave.samples)


def test_transform_rejects_non_waveform(samples):
    with pytest.raises(TypeError):
        BitDepthQuantize(8)(samples)


def test_transform_parameter_validation():
    with pytest.raises(ValueError):
        BitDepthQuantize(1)
    with pytest.raises(ValueError):
        DownUpsample(1)
    with pytest.raises(ValueError):
        LowPassFilter(0)
    with pytest.raises(ValueError):
        MedianFilter(4)
    with pytest.raises(ValueError):
        AmplitudeClip(1.5)
    with pytest.raises(ValueError):
        Compose([])


def test_transforms_handle_degenerate_audio():
    silence = Waveform(samples=np.zeros(64))
    short = Waveform(samples=np.array([0.25]))
    for transform in ALL_TRANSFORMS:
        assert len(transform(silence)) == 64
        assert len(transform(short)) == 1


def test_quantize_limits_distinct_levels(samples):
    quantized = BitDepthQuantize(4)(Waveform(samples=samples))
    assert len(np.unique(quantized.samples)) <= 2 ** 4 + 1


def test_lowpass_removes_high_frequencies():
    t = np.arange(16000) / 16000.0
    high = np.sin(2 * np.pi * 6000.0 * t)
    filtered = LowPassFilter(3000.0)(Waveform(samples=high))
    assert filtered.rms < 0.05


def test_noise_flood_hits_snr_and_depends_on_content(samples):
    wave = Waveform(samples=samples)
    flooded = NoiseFlood(snr_db=20.0)(wave)
    noise = flooded.samples - np.clip(wave.samples, -1, 1)
    # Clipping at +-1 perturbs the realised SNR slightly; allow 2 dB.
    snr = 20.0 * np.log10(wave.rms / np.sqrt(np.mean(noise ** 2)))
    assert snr == pytest.approx(20.0, abs=2.0)
    other = NoiseFlood(snr_db=20.0)(Waveform(samples=samples * 0.5))
    assert not np.array_equal(flooded.samples - wave.samples,
                              other.samples - 0.5 * wave.samples)


def test_compose_applies_in_sequence(samples):
    wave = Waveform(samples=samples)
    composed = Compose([BitDepthQuantize(8), AmplitudeClip(0.5)])
    by_hand = AmplitudeClip(0.5)(BitDepthQuantize(8)(wave))
    assert np.allclose(composed(wave).samples, by_hand.samples)
    assert composed.name == "quantize-8+clip-0.5"


def test_parse_transform_specs():
    assert parse_transform("quantize:6").bits == 6
    assert parse_transform("lowpass").cutoff_hz == 3000.0
    assert isinstance(parse_transform("quantize:8+median:5"), Compose)
    transforms = parse_transforms("quantize:8, resample:2 ,noise:25")
    assert [t.name for t in transforms] == ["quantize-8", "resample-2",
                                            "noise-25"]
    with pytest.raises(ValueError):
        parse_transform("reverb:3")
    with pytest.raises(ValueError):
        parse_transform("quantize:loud")
    with pytest.raises(ValueError):
        parse_transforms(" , ")


def test_default_suite_names_are_unique():
    suite = default_transform_suite()
    names = [t.name for t in suite]
    assert len(names) == len(set(names)) == 5


# ---------------------------------------------------------- TransformedASR
def test_transformed_asr_identity_and_cache_keys(ds0, clips):
    versions = transformed_suite(ds0)
    names = {v.short_name for v in versions}
    assert len(names) == len(versions)
    keys = {TranscriptionCache.key_for(v, clips[0]) for v in [ds0, *versions]}
    assert len(keys) == len(versions) + 1  # no collisions with the base ASR


def test_transformed_asr_transcribes_benign_speech(ds0, clips):
    quantized = TransformedASR(ds0, BitDepthQuantize(8))
    original = ds0.transcribe(clips[0]).text
    through = quantized.transcribe(clips[0])
    assert through.asr_name == quantized.name
    assert through.text == original  # 8-bit quantisation is transparent


# ------------------------------------------------- TransformEnsembleDetector
def test_ensemble_requires_some_auxiliary(ds0):
    with pytest.raises(ValueError):
        TransformEnsembleDetector(ds0, transforms=[])


def test_ensemble_shape_and_names(ds0):
    detector = TransformEnsembleDetector(ds0, transforms=FAST_TRANSFORMS(),
                                         cache=False, workers=0)
    assert detector.n_features == 2
    assert detector.transform_names == ("quantize-6", "lowpass-2500")
    assert "DS0~quantize-6" in detector.system_name


def test_combined_ensemble_orders_asrs_first(ds0, asr_suite):
    detector = TransformEnsembleDetector(
        ds0, transforms=FAST_TRANSFORMS(),
        asr_auxiliaries=[asr_suite["DS1"]], cache=False, workers=0)
    short_names = [asr.short_name for asr in detector.auxiliary_asrs]
    assert short_names == ["DS1", "DS0~quantize-6", "DS0~lowpass-2500"]
    assert detector.n_features == 3


def test_scores_bit_identical_across_paths(ds0, clips):
    """Sequential, batched, batch-detected and streamed scores all agree."""
    make = lambda workers: TransformEnsembleDetector(  # noqa: E731
        ds0, transforms=FAST_TRANSFORMS(), cache=False, workers=workers)

    sequential = make(0)
    reference = sequential.extract_features(clips)

    batched = make(None)
    pipeline = DetectionPipeline(batched)
    assert np.array_equal(pipeline.extract_features(clips), reference)

    labels = np.array([0, 0, 1])
    batched.fit_features(reference, labels)
    detected = pipeline.detect_batch(clips)
    assert np.array_equal(
        np.array([result.scores for result in detected.results]), reference)

    # One stream window per clip (window == clip length, hop == window):
    # every window's scores must equal the per-clip reference row.
    streaming = StreamingDetector(
        batched, config=StreamConfig(window_seconds=clips[0].duration,
                                     hop_seconds=clips[0].duration))
    stream_result = streaming.detect_stream(clips[0])
    assert len(stream_result.windows) == 1
    assert np.array_equal(stream_result.windows[0].scores, reference[0])


def test_ensemble_detects_end_to_end(ds0, clips, rng):
    detector = TransformEnsembleDetector(ds0, transforms=FAST_TRANSFORMS(),
                                         workers=0, cache=False)
    features = detector.extract_features(clips)
    detector.fit_features(features, np.array([0, 0, 1]))
    result = detector.detect(clips[0])
    assert result.scores.shape == (2,)
    assert set(result.auxiliary_transcriptions) == {"DS0~quantize-6",
                                                    "DS0~lowpass-2500"}
    assert isinstance(result.is_adversarial, bool)


def test_ensemble_fit_bundle_and_separation(ds0, tiny_bundle):
    """Transform disagreement separates real AEs from benign audio."""
    detector = TransformEnsembleDetector(ds0, classifier="SVM")
    detector.fit_bundle(tiny_bundle)
    samples = tiny_bundle.all_samples
    features = detector.extract_features([s.waveform for s in samples])
    labels = np.array([s.label for s in samples])
    benign_mean = features[labels == 0].mean()
    adversarial_mean = features[labels == 1].mean()
    assert benign_mean > adversarial_mean
    report = detector.evaluate_features(features, labels)
    assert report.accuracy > 0.6  # in-sample, tiny data: a sanity floor


def test_transform_ensemble_comparison_table(tiny_bundle):
    from repro.experiments import run_transform_ensemble_comparison

    table = run_transform_ensemble_comparison(scale="tiny",
                                              transforms=FAST_TRANSFORMS())
    assert [row["system"] for row in table.rows] == ["transform", "multi-asr",
                                                     "combined"]
    for row in table.rows:
        for key in ("accuracy", "fpr", "fnr"):
            assert 0.0 <= row[key] <= 1.0
    assert table.rows[0]["n_versions"] == 2
    assert table.rows[2]["n_versions"] == 5
    markdown = table.to_markdown()
    assert "accuracy" in markdown and "fpr" in markdown and "fnr" in markdown


def test_bootstrap_defense_modes(tiny_bundle):
    from repro.build import build
    from repro.errors import UnknownComponentError
    from repro.specs import DetectorSpec

    detector = build(DetectorSpec.default(
        scale="tiny", defense="transform",
        transforms="quantize:6,lowpass:2500"))
    assert detector.n_features == 2
    combined = build(DetectorSpec.default(
        scale="tiny", defense="combined",
        transforms="quantize:6,lowpass:2500"))
    assert combined.n_features == 5  # 3 ASR auxiliaries + 2 transforms
    with pytest.raises(UnknownComponentError):
        DetectorSpec.default(scale="tiny", defense="waveguard")
