"""ASR simulators.

The paper's detector runs several heterogeneous off-the-shelf ASR systems
(DeepSpeech v0.1.0 / v0.1.1, Google Cloud Speech, Amazon Transcribe, and —
in an ablation — Kaldi).  None of those systems are available offline, so
this package provides simulated equivalents that follow the same pipeline
described in Section II of the paper (feature extraction → acoustic feature
recognition → phoneme assembling → language generation) while differing in
frame geometry, feature space, learned acoustic projections and decoding
strategy.  That diversity, not any specific architecture, is what the
MVP-inspired detection approach relies on.
"""

from repro.asr.base import ASRSystem, Transcription
from repro.asr.acoustic import TemplateAcousticModel
from repro.asr.decoder import (
    WordDecoder,
    collapse_frame_labels,
    greedy_frame_labels,
    smoothed_frame_labels,
    viterbi_frame_labels,
)
from repro.asr.deepspeech import DeepSpeechV010, DeepSpeechV011
from repro.asr.google import GoogleCloudSpeech
from repro.asr.amazon import AmazonTranscribe
from repro.asr.kaldi import Kaldi
from repro.asr.registry import (
    build_asr,
    default_asr_suite,
    get_shared_lexicon,
    get_shared_language_model,
    get_training_synthesizer,
)

__all__ = [
    "ASRSystem",
    "Transcription",
    "TemplateAcousticModel",
    "WordDecoder",
    "collapse_frame_labels",
    "greedy_frame_labels",
    "smoothed_frame_labels",
    "viterbi_frame_labels",
    "DeepSpeechV010",
    "DeepSpeechV011",
    "GoogleCloudSpeech",
    "AmazonTranscribe",
    "Kaldi",
    "build_asr",
    "default_asr_suite",
    "get_shared_lexicon",
    "get_shared_language_model",
    "get_training_synthesizer",
]
