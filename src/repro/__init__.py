"""MVP-EARS reproduction: multiversion-programming audio AE detection.

Re-exports the stable public surface (documented in ``docs/API.md``):
the declarative spec tree and the ``repro.build(spec)`` entry points
(see ``docs/CONFIG.md``), the detector and its batched pipeline, the
serving layer (streaming detection, the multi-process detection
service, metrics), the
similarity scoring engine (encode-once kernels + pair-score cache, see
``docs/SCORING.md``), the front-end feature engine (batched front ends
+ content-hash feature cache, see ``docs/FEATURES.md``), the
open ASR registry, the attacks, and the waveform value type.  Everything else lives in the subpackages and is
considered internal (see ``docs/ARCHITECTURE.md``).

Note: the ``build`` name is the *function* (``repro.build(spec)``); the
module it lives in remains importable as ``from repro.build import ...``.

Importing the package runs numpy's BLAS on one thread per process
(see :mod:`repro._blas`), overriding ``OPENBLAS_NUM_THREADS``.
"""

from repro import _blas

_blas.set_num_threads(1)

from repro.asr.registry import (
    available_asr_names,
    build_asr,
    default_asr_suite,
    register_asr,
    unregister_asr,
)
from repro.build import build, build_pipeline, build_service, build_streaming
from repro.attacks.blackbox import BlackBoxGeneticAttack
from repro.attacks.whitebox import WhiteBoxCarliniAttack
from repro.audio.waveform import Waveform
from repro.core.detector import DetectionResult, MVPEarsDetector
from repro.errors import BackendUnavailableError, UnknownComponentError
from repro.defenses.ensemble import TransformedASR, TransformEnsembleDetector
from repro.defenses.transforms import Transform, default_transform_suite, parse_transforms
from repro.dsp.engine import (
    FeatureEngine,
    get_shared_feature_cache,
    resolve_feature_cache,
)
from repro.caching import CacheStats
from repro.dsp.feature_cache import FeatureCache
from repro.pipeline.cache import TranscriptionCache
from repro.pipeline.detection import BatchDetectionResult, DetectionPipeline
from repro.pipeline.engine import TranscriptionEngine
from repro.serving.aggregator import (
    FlaggedSpan,
    StreamDetectionResult,
    WindowVerdict,
)
from repro.serving.chunker import StreamConfig, StreamWindow, chunk_waveform
from repro.serving.metrics import ServingMetrics
from repro.serving.service import (DetectionService, ServeResult,
                                   load_manifest)
from repro.serving.streaming import StreamingDetector, StreamSession
from repro.similarity.engine import SimilarityEngine
from repro.similarity.score_cache import PairScoreCache
from repro.similarity.scorer import SIMILARITY_METHODS, SimilarityScorer, get_scorer
from repro.specs import (
    ASRSpec,
    ClassifierSpec,
    DetectorSpec,
    FeaturesSpec,
    InvalidSpecError,
    PipelineSpec,
    ScoringSpec,
    ServingSpec,
    SuiteSpec,
    TrainingSpec,
    TransformSpec,
)

__all__ = [
    "available_asr_names",
    "build_asr",
    "default_asr_suite",
    "register_asr",
    "unregister_asr",
    "build",
    "build_pipeline",
    "build_service",
    "build_streaming",
    "ASRSpec",
    "ClassifierSpec",
    "DetectorSpec",
    "FeaturesSpec",
    "InvalidSpecError",
    "PipelineSpec",
    "ScoringSpec",
    "ServingSpec",
    "SuiteSpec",
    "TrainingSpec",
    "TransformSpec",
    "BackendUnavailableError",
    "UnknownComponentError",
    "BlackBoxGeneticAttack",
    "WhiteBoxCarliniAttack",
    "Waveform",
    "DetectionResult",
    "MVPEarsDetector",
    "Transform",
    "TransformedASR",
    "TransformEnsembleDetector",
    "default_transform_suite",
    "parse_transforms",
    "FeatureEngine",
    "FeatureCache",
    "CacheStats",
    "get_shared_feature_cache",
    "resolve_feature_cache",
    "TranscriptionCache",
    "BatchDetectionResult",
    "DetectionPipeline",
    "TranscriptionEngine",
    "FlaggedSpan",
    "StreamDetectionResult",
    "WindowVerdict",
    "StreamConfig",
    "StreamWindow",
    "chunk_waveform",
    "ServingMetrics",
    "StreamingDetector",
    "StreamSession",
    "DetectionService",
    "ServeResult",
    "load_manifest",
    "SimilarityEngine",
    "PairScoreCache",
    "SIMILARITY_METHODS",
    "SimilarityScorer",
    "get_scorer",
    "register_backend",
    "backend_names",
    "backend_status",
    "simulated_family",
]

# Imported last (it builds on the registries above) for its side
# effect: registering the shipped optional backends, so every entry
# point that imports repro sees them.
from repro.backends import (  # noqa: E402
    backend_names,
    backend_status,
    register_backend,
    simulated_family,
)
