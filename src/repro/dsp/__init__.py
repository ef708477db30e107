"""Digital signal processing substrate.

Implements the feature-extraction stage of the ASR pipeline (Section II of
the paper): framing, windowing, spectrograms, mel filterbanks, MFCCs and
LPC-style features.  The MFCC pipeline additionally exposes an analytic
gradient with respect to the input samples, which is what makes the
white-box (Carlini-style) attack possible — the original attack back-
propagates through the MFCC computation into the waveform.
"""

from repro.dsp.framing import (
    frame_signal,
    num_frames,
    overlap_add,
    overlap_add_reference,
)
from repro.dsp.windows import hamming_window, hann_window
from repro.dsp.mel import (
    hz_to_mel,
    mel_to_hz,
    mel_filterbank,
    mel_filterbank_reference,
)
from repro.dsp.dct import dct_matrix
from repro.dsp.mfcc import MfccConfig, MfccExtractor, MfccGradientTape
from repro.dsp.lpc import (
    lpc_cepstra,
    lpc_coefficients,
    lpc_envelope_features,
    lpc_spectrum_features,
)
from repro.dsp.features import (
    FeatureExtractor,
    MfccFeatureExtractor,
    LogMelFeatureExtractor,
    LpcFeatureExtractor,
)
from repro.dsp.feature_cache import FeatureCache
from repro.dsp.engine import (
    FeatureEngine,
    feature_backend_names,
    get_feature_backend,
    get_shared_feature_cache,
    register_feature_backend,
    resolve_feature_cache,
)

__all__ = [
    "frame_signal",
    "num_frames",
    "overlap_add",
    "overlap_add_reference",
    "hamming_window",
    "hann_window",
    "hz_to_mel",
    "mel_to_hz",
    "mel_filterbank",
    "mel_filterbank_reference",
    "dct_matrix",
    "MfccConfig",
    "MfccExtractor",
    "MfccGradientTape",
    "lpc_cepstra",
    "lpc_coefficients",
    "lpc_envelope_features",
    "lpc_spectrum_features",
    "FeatureExtractor",
    "MfccFeatureExtractor",
    "LogMelFeatureExtractor",
    "LpcFeatureExtractor",
    "FeatureCache",
    "FeatureEngine",
    "feature_backend_names",
    "get_feature_backend",
    "get_shared_feature_cache",
    "register_feature_backend",
    "resolve_feature_cache",
]
