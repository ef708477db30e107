"""Golden-fixture regression test for the front-end feature kernels.

``tests/fixtures/golden_features.npz`` holds the raw samples and the
reference MFCC / LPCC feature matrices of three fixed utterances,
computed by the seed library's per-clip path when the vectorized front
end landed.  The per-clip oracle (``"reference"``, from
``tests/oracles/``), the feature engine's single-clip path (``"fast"``)
and its batched path must all reproduce the stored matrices *exactly*
(``np.array_equal``): any change to the DSP arithmetic — reordered
reductions, dtype drift, a "harmless" refactor of the Levinson-Durbin
recursion — fails this test even if the hypothesis parity tests still
pass (those only pin runtime == oracle, not either == history).
"""

import os

import numpy as np
import pytest

from oracles.dsp import ReferenceFeatureBackend
from repro.audio.waveform import Waveform
from repro.dsp.engine import FeatureEngine
from repro.dsp.feature_cache import FeatureCache
from repro.dsp.features import LpcFeatureExtractor, MfccFeatureExtractor

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "golden_features.npz")
N_UTTERANCES = 3


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE, allow_pickle=False) as payload:
        return {key: payload[key] for key in payload.files}


@pytest.fixture(scope="module")
def extractors():
    return {"mfcc": MfccFeatureExtractor(), "lpc": LpcFeatureExtractor()}


def test_fixture_has_three_utterances(golden):
    assert list(golden["sentences"].shape) == [N_UTTERANCES]
    for i in range(N_UTTERANCES):
        assert golden[f"samples_{i}"].ndim == 1
        assert golden[f"mfcc_{i}"].shape[1] == MfccFeatureExtractor().feature_dim
        assert golden[f"lpc_{i}"].shape[1] == LpcFeatureExtractor().feature_dim


@pytest.mark.parametrize("backend_name", ["reference", "fast"])
@pytest.mark.parametrize("family", ["mfcc", "lpc"])
def test_backends_reproduce_golden_features(golden, extractors, backend_name,
                                            family):
    backend = {"reference": ReferenceFeatureBackend(),
               "fast": FeatureEngine(cache=False)}[backend_name]
    extractor = extractors[family]
    for i in range(N_UTTERANCES):
        features = backend.features(
            extractor, Waveform(golden[f"samples_{i}"], 16_000))
        assert features.dtype == np.float64
        assert np.array_equal(features, golden[f"{family}_{i}"]), \
            f"{backend_name} backend diverged from golden {family} " \
            f"features of utterance {i} ({golden['sentences'][i]!r})"


@pytest.mark.parametrize("family", ["mfcc", "lpc"])
def test_batched_path_reproduces_golden_features(golden, extractors, family):
    extractor = extractors[family]
    batch = [golden[f"samples_{i}"] for i in range(N_UTTERANCES)]
    for i, features in enumerate(extractor.transform_batch(batch)):
        assert np.array_equal(features, golden[f"{family}_{i}"])
    # The engine's prewarm path fills its cache through the same batch.
    engine = FeatureEngine(cache=FeatureCache())
    clips = [Waveform(samples, 16_000) for samples in batch]
    assert engine.prewarm(extractor, clips) == N_UTTERANCES
    for i, clip in enumerate(clips):
        assert np.array_equal(engine.features(extractor, clip),
                              golden[f"{family}_{i}"])
    assert engine.stats.hits == N_UTTERANCES
