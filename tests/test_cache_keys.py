"""Pinned content-cache keys.

On-disk transcription journals, feature directory stores and the
tracked ``.repro_cache`` files are addressed by these strings, so any
change to how a clip is hashed (the SHA-1 over the samples' C-order
bytes plus the sample rate) would orphan every stored entry.  The
expected values below are committed literals, computed once; a test
failure here means the key bytes changed, not that the test is stale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.asr.registry import build_asr
from repro.audio.waveform import Waveform
from repro.caching import audio_fingerprint
from repro.dsp.feature_cache import FeatureCache
from repro.pipeline.cache import TranscriptionCache

#: SHA-1 of the pinned clip's 4,000 samples at 16 kHz.
CLIP_FINGERPRINT = "6306bf5e1e2fcd0cc5e7a570a598b64fa238bde7"


def _samples() -> np.ndarray:
    # Integer draws over a power-of-two scale: every value is exact, so
    # the bytes do not depend on floating-point rounding anywhere.
    rng = np.random.default_rng(19)
    return rng.integers(-32768, 32768, 4000) / 32768.0


@pytest.fixture
def clip() -> Waveform:
    return Waveform(_samples(), sample_rate=16_000)


def test_transcription_key_is_pinned(clip):
    assert TranscriptionCache.key_for(build_asr("DS0"), clip) == \
        f"DS0|DeepSpeech v0.1.0:{CLIP_FINGERPRINT}"


def test_feature_key_is_pinned(clip):
    assert FeatureCache.key_for("mfcc:pin", clip.samples,
                                clip.sample_rate) == \
        f"mfcc:pin:{CLIP_FINGERPRINT}"


@pytest.mark.parametrize("layout, sample_rate, expected", [
    ("strided", 8_000, "ed92d250227b3334228a488bc93d2213d090486c"),
    ("reversed", 16_000, "ba1a9853ca6617adabbe1f022d2e334c3c05609d"),
    ("transposed", 16_000, "01c2093fa8bb34d2da082c41bb04ff83edc128f1"),
])
def test_fingerprint_ignores_memory_layout(layout, sample_rate, expected):
    samples = _samples()
    view = {"strided": samples[::2],
            "reversed": samples[::-1],
            "transposed": samples.reshape(40, 100).T}[layout]
    assert not view.flags.c_contiguous
    assert audio_fingerprint(view, sample_rate) == expected
    assert audio_fingerprint(np.ascontiguousarray(view), sample_rate) \
        == expected


@pytest.mark.parametrize("dtype, expected", [
    ("<f4", "5b0436f49457bfb717db5e08c21f886b72c7098a"),
    (">f8", "a4049ab50c5183dc8d1617d8db8769a9ed558d69"),
])
def test_fingerprint_hashes_the_dtype_bytes(dtype, expected):
    assert audio_fingerprint(_samples().astype(dtype), 16_000) == expected


def test_fingerprint_of_an_empty_clip():
    assert audio_fingerprint(np.zeros(0), 16_000) == \
        "7c2b08a8ef93dcdfe7b39269073895f615d405a9"
