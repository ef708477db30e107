"""Tests for the serving layer: chunker, aggregator, streaming, metrics."""

import numpy as np
import pytest

from repro.audio.waveform import Waveform
from repro.core.detector import MVPEarsDetector
from repro.pipeline.detection import DetectionPipeline
from repro.serving.aggregator import ADVERSARIAL, BENIGN, StreamAggregator
from repro.serving.chunker import StreamConfig, chunk_waveform
from repro.serving.metrics import ServingMetrics
from repro.serving.streaming import StreamingDetector

SR = 16_000


def _train(detector, rng):
    n_aux = detector.n_features
    features = np.vstack([rng.uniform(0.85, 1.0, (40, n_aux)),
                          rng.uniform(0.0, 0.4, (40, n_aux))])
    labels = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
    return detector.fit_features(features, labels)


@pytest.fixture(scope="module")
def detector(ds0, asr_suite, rng):
    return _train(MVPEarsDetector(ds0, [asr_suite["DS1"], asr_suite["GCS"]],
                                  workers=2, cache=False), rng)


@pytest.fixture(scope="module")
def clips(synthesizer):
    sentences = (
        "the storm passed over the hills before sunset",
        "open the front door",
        "the captain studied the map for a long time",
    )
    return [synthesizer.synthesize(text) for text in sentences]


def _ramp(n, sample_rate=SR):
    return Waveform(np.linspace(-0.5, 0.5, n), sample_rate=sample_rate)


# ---------------------------------------------------------------- chunker


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(window_seconds=0)
    with pytest.raises(ValueError):
        StreamConfig(hop_seconds=-1.0)
    with pytest.raises(ValueError):
        StreamConfig(min_tail_fraction=1.5)
    with pytest.raises(ValueError):
        StreamConfig(trigger_windows=0)
    assert StreamConfig(window_seconds=2.0).hop_seconds == 1.0  # default half


def test_chunker_exact_tiling():
    config = StreamConfig(window_seconds=1.0, hop_seconds=1.0)
    windows = chunk_waveform(_ramp(3 * SR), config)
    assert [w.start_sample for w in windows] == [0, SR, 2 * SR]
    assert all(w.end_sample - w.start_sample == SR for w in windows)
    assert [w.index for w in windows] == [0, 1, 2]
    # The window samples are exactly the stream slices.
    stream = _ramp(3 * SR)
    for w in windows:
        assert np.array_equal(w.audio.samples,
                              stream.samples[w.start_sample:w.end_sample])


def test_chunker_overlap_and_boundaries():
    config = StreamConfig(window_seconds=1.0, hop_seconds=0.5,
                          min_tail_fraction=0.25)
    # Exactly 2 windows fit in 1.5 s with 0.5 s hop: [0,1) and [0.5,1.5).
    windows = chunk_waveform(_ramp(int(1.5 * SR)), config)
    assert [(w.start_sample, w.end_sample) for w in windows] == [
        (0, SR), (SR // 2, SR + SR // 2)]
    # One extra sample creates a tail [1.0s, 1.5s+1] that clears 25%.
    windows = chunk_waveform(_ramp(int(1.5 * SR) + 1), config)
    assert windows[-1].start_sample == SR
    assert windows[-1].end_sample == int(1.5 * SR) + 1


def test_chunker_tail_policy():
    config = StreamConfig(window_seconds=1.0, hop_seconds=1.0,
                          min_tail_fraction=0.5)
    # Tail of 0.25 window < 0.5 threshold: dropped.
    assert len(chunk_waveform(_ramp(SR + SR // 4), config)) == 1
    # Tail of 0.5 window meets the threshold: emitted.
    windows = chunk_waveform(_ramp(SR + SR // 2), config)
    assert len(windows) == 2
    assert windows[-1].duration == pytest.approx(0.5)
    # A stream shorter than one window is always emitted whole.
    short = chunk_waveform(_ramp(SR // 8), config)
    assert len(short) == 1
    assert short[0].duration == pytest.approx(1 / 8)
    # Empty stream: no windows.
    assert chunk_waveform(Waveform(np.zeros(0), sample_rate=SR), config) == []


class GeometryStubPipeline:
    """Returns benign placeholder results; used to compare window cuts."""

    def detect_batch(self, audios):
        from repro.core.detector import DetectionResult
        from repro.pipeline.detection import BatchDetectionResult

        results = [DetectionResult(is_adversarial=False, scores=np.zeros(1),
                                   target_transcription="", elapsed_seconds=0.0,
                                   auxiliary_transcriptions={})
                   for _ in audios]
        return BatchDetectionResult(
            results=results, features=np.zeros((len(audios), 1)),
            predictions=np.zeros(len(audios), dtype=int),
            stage_seconds={"total": 0.0})


@pytest.mark.parametrize("n_samples,window,hop,tail", [
    (3 * SR, 1.0, 1.0, 0.25),          # exact tiling
    (int(2.3 * SR), 1.0, 0.5, 0.25),   # overlap with tail
    (int(1.5 * SR), 1.0, 0.5, 0.25),   # overlap, covered end (no tail)
    (int(2.6 * SR), 0.5, 0.8, 0.25),   # hop > window (sparse sampling)
    (SR + SR // 8, 1.0, 1.0, 0.5),     # tail below threshold: dropped
    (SR // 4, 1.0, 1.0, 0.5),          # shorter than one window
])
def test_session_cuts_same_windows_as_offline_chunker(n_samples, window,
                                                      hop, tail):
    """The incremental session and iter_windows share one geometry."""
    config = StreamConfig(window_seconds=window, hop_seconds=hop,
                          min_tail_fraction=tail)
    stream = _ramp(n_samples)
    offline = [(w.start_sample, w.end_sample)
               for w in chunk_waveform(stream, config)]

    streaming = StreamingDetector(pipeline=GeometryStubPipeline(),
                                  config=config)
    one_shot = streaming.detect_stream(stream)
    session = streaming.session()
    step = int(0.3 * SR)  # pushes never aligned with window boundaries
    for start in range(0, n_samples, step):
        session.push(Waveform(stream.samples[start:start + step],
                              sample_rate=SR))
    incremental = session.flush()

    for result in (one_shot, incremental):
        cut = [(round(w.start_seconds * SR), round(w.end_seconds * SR))
               for w in result.windows]
        assert cut == offline


# -------------------------------------------------------------- aggregator


def _feed(aggregator, verdicts):
    states = []
    for i, adversarial in enumerate(verdicts):
        states.append(aggregator.update(float(i), float(i + 1), adversarial))
    return states


def test_hysteresis_single_noisy_window_does_not_flip():
    aggregator = StreamAggregator(trigger_windows=2, release_windows=2)
    states = _feed(aggregator, [False, True, False, False])
    assert states == [BENIGN] * 4
    assert aggregator.finalize() == []


def test_hysteresis_trigger_and_release():
    aggregator = StreamAggregator(trigger_windows=2, release_windows=2)
    states = _feed(aggregator, [False, True, True, True, False, False, False])
    assert states == [BENIGN, BENIGN, ADVERSARIAL, ADVERSARIAL,
                      ADVERSARIAL, BENIGN, BENIGN]
    spans = aggregator.finalize()
    assert len(spans) == 1
    # The span covers every adversarial window of the episode, including
    # the one that accumulated toward the trigger.
    assert (spans[0].start_seconds, spans[0].end_seconds) == (1.0, 4.0)
    assert spans[0].n_windows == 3


def test_hysteresis_open_episode_closed_at_finalize():
    aggregator = StreamAggregator(trigger_windows=2, release_windows=2)
    _feed(aggregator, [True, True])
    assert aggregator.state == ADVERSARIAL
    spans = aggregator.finalize()
    assert len(spans) == 1
    assert (spans[0].start_seconds, spans[0].end_seconds) == (0.0, 2.0)


def test_hysteresis_trigger_one_flags_immediately():
    aggregator = StreamAggregator(trigger_windows=1, release_windows=1)
    states = _feed(aggregator, [True, False, True])
    assert states == [ADVERSARIAL, BENIGN, ADVERSARIAL]
    assert len(aggregator.finalize()) == 2


def test_sub_trigger_streak_discarded_on_benign():
    aggregator = StreamAggregator(trigger_windows=3, release_windows=1)
    _feed(aggregator, [True, True, False, True, True, True])
    spans = aggregator.finalize()
    assert len(spans) == 1
    assert spans[0].start_seconds == 3.0  # episode restarts after the reset


# --------------------------------------------------------------- streaming


def test_streaming_matches_per_clip_verdicts(detector, clips):
    """Acceptance: window-aligned streaming == per-clip detection."""
    longest = max(len(clip) for clip in clips)
    padded = [clip.padded_to(longest) for clip in clips]
    stream = Waveform(np.concatenate([clip.samples for clip in padded]),
                      sample_rate=SR)
    config = StreamConfig(window_seconds=longest / SR,
                          hop_seconds=longest / SR, trigger_windows=1,
                          release_windows=1)
    result = StreamingDetector(detector, config=config).detect_stream(stream)
    assert len(result) == len(clips)
    for clip, window in zip(padded, result.windows):
        single = detector.detect(clip)
        assert window.is_adversarial == single.is_adversarial
        assert np.array_equal(window.scores, single.scores)
        assert window.target_transcription == single.target_transcription


def test_streaming_incremental_matches_one_shot(detector, clips):
    stream = Waveform(np.concatenate([clip.samples for clip in clips]),
                      sample_rate=SR)
    config = StreamConfig(window_seconds=0.8, hop_seconds=0.4)
    one_shot = StreamingDetector(detector, config=config).detect_stream(stream)

    session = StreamingDetector(detector, config=config).session()
    # Push in awkward 0.3 s pieces so window boundaries never align with
    # push boundaries.
    step = int(0.3 * SR)
    for start in range(0, len(stream), step):
        session.push(Waveform(stream.samples[start:start + step],
                              sample_rate=SR))
    incremental = session.flush()

    assert len(incremental) == len(one_shot)
    for a, b in zip(one_shot.windows, incremental.windows):
        assert (a.start_seconds, a.end_seconds) == (b.start_seconds, b.end_seconds)
        assert a.is_adversarial == b.is_adversarial
        assert np.array_equal(a.scores, b.scores)
    assert [tuple((s.start_seconds, s.end_seconds)) for s in one_shot.spans] == \
           [tuple((s.start_seconds, s.end_seconds)) for s in incremental.spans]


def test_stream_session_guards(detector):
    session = StreamingDetector(detector).session()
    session.push(_ramp(SR // 2))
    with pytest.raises(ValueError):
        session.push(_ramp(100, sample_rate=8_000))
    result = session.flush()
    assert len(result) == 1  # short stream emitted whole
    with pytest.raises(RuntimeError):
        session.push(_ramp(100))
    with pytest.raises(RuntimeError):
        session.flush()
    with pytest.raises(ValueError):
        StreamingDetector()  # neither detector nor pipeline


# ----------------------------------------------------------------- metrics


def test_metrics_observe_pipeline_batches(detector, clips):
    metrics = ServingMetrics()
    pipeline = DetectionPipeline(detector, observer=metrics.observe_batch)
    pipeline.detect_batch(clips)
    pipeline.detect_batch(clips[:1])
    snap = metrics.snapshot()
    assert snap["requests"] == len(clips) + 1
    assert snap["batches"] == 2
    assert snap["stages"]["total"]["clips"] == len(clips) + 1
    assert snap["stages"]["recognition"]["seconds"] > 0
    assert "throughput_clips_per_s" in snap["stages"]["total"]
    assert metrics.format_table()  # renders without error

