"""Pre-computed similarity-score datasets with disk caching.

Every evaluation table is a function of the similarity-score feature
vectors of the benign and adversarial samples under the four ASRs.  Those
scores are expensive to compute (each sample is transcribed by every ASR),
so this module computes them once per scale preset and caches the result
both in memory and on disk under :func:`repro.config.cache_dir`.

The cached artefact stores, for every sample: its label, its attack kind
("benign", "whitebox-ae", "blackbox-ae", "nontargeted-ae"), the target
ASR's transcription and each auxiliary ASR's transcription — enough to
recompute the score vectors under any similarity method without touching
audio again (which is exactly what the Table III experiment needs).

This dataset-level cache sits above the per-transcription content-hash
cache in :mod:`repro.pipeline.cache`: computing a scored dataset routes
through a :class:`~repro.pipeline.engine.TranscriptionEngine`, which both
parallelises the ASR fan-out and leaves the shared transcription cache
warm for any experiment that replays the same clips afterwards.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.asr.registry import default_suite_names
from repro.config import DEFAULT_SEED, ReproScale, cache_dir, get_scale
from repro.datasets.builder import DatasetBundle, load_standard_bundle
from repro.pipeline.engine import TranscriptionEngine
from repro.similarity.engine import SimilarityEngine
from repro.specs import SuiteSpec
from repro.store import atomic_write_text

#: Target and auxiliary order of the *default* scored dataset (the
#: paper's suite, snapshotted from the ASR registry at import).  These
#: are what the cached artefacts under ``.repro_cache/`` actually
#: contain — a plugin registered later can never grow a column in them.
SCORED_TARGET: str = default_suite_names()[0]
AUXILIARY_ORDER: tuple[str, ...] = default_suite_names()[1:]


@dataclass
class ScoredDataset:
    """Transcriptions and similarity scores for one dataset bundle."""

    #: per-sample label: 0 benign, 1 adversarial.
    labels: np.ndarray
    #: per-sample attack kind string.
    kinds: list[str]
    #: per-sample target-model transcription.
    target_texts: list[str]
    #: per-sample auxiliary transcriptions, keyed by auxiliary short name.
    auxiliary_texts: dict[str, list[str]]
    #: similarity method used for :attr:`scores`.
    method: str = "PE_JaroWinkler"
    #: per-sample score vectors in :attr:`auxiliary_order`, shape (n, k).
    scores: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    #: column order of :attr:`scores` (defaults to the paper's suite;
    #: datasets computed for a custom :class:`SuiteSpec` carry their own).
    auxiliary_order: tuple[str, ...] = field(
        default_factory=lambda: AUXILIARY_ORDER)

    # ------------------------------------------------------------ selection
    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def mask_for(self, kinds: tuple[str, ...] | None = None) -> np.ndarray:
        """Boolean mask selecting samples of the given kinds (None = all)."""
        if kinds is None:
            return np.ones(len(self), dtype=bool)
        kind_array = np.array(self.kinds)
        return np.isin(kind_array, kinds)

    def features_for(self, auxiliaries: tuple[str, ...],
                     kinds: tuple[str, ...] | None = None,
                     method: str | None = None,
                     scoring: SimilarityEngine | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Score matrix and labels for a subsystem and sample subset.

        Args:
            auxiliaries: auxiliary short names defining the subsystem, e.g.
                ``("DS1",)`` for DS0+{DS1} or ``("DS1", "GCS", "AT")``.
            kinds: restrict to these attack kinds (None keeps every sample).
            method: similarity method; defaults to the dataset's method and
                recomputes scores from transcriptions when different.
            scoring: engine for the recompute path (honours the caller's
                cache policy); defaults to a fresh engine for
                ``method`` with the shared pair-score cache.
        """
        mask = self.mask_for(kinds)
        labels = self.labels[mask]
        for name in auxiliaries:
            if name not in self.auxiliary_order:
                from repro.errors import UnknownComponentError
                raise UnknownComponentError("scored-dataset auxiliary", name,
                                            self.auxiliary_order)
        if method is None or method == self.method:
            columns = [self.auxiliary_order.index(name)
                       for name in auxiliaries]
            return self.scores[mask][:, columns], labels
        # Recomputing under another method is one batch engine call: the
        # pair-score cache makes Table III's systems (which share
        # auxiliary columns) score each distinct pair exactly once.
        engine = scoring if scoring is not None else SimilarityEngine(scorer=method)
        indices = np.where(mask)[0]
        pairs = [(self.target_texts[index], self.auxiliary_texts[name][index])
                 for index in indices for name in auxiliaries]
        features = engine.score_pairs(pairs).reshape(indices.shape[0],
                                                     len(auxiliaries))
        return features, labels

    def benign_features(self, auxiliaries: tuple[str, ...] = AUXILIARY_ORDER,
                        method: str | None = None) -> np.ndarray:
        """Score matrix of the benign samples only."""
        return self.features_for(auxiliaries, ("benign",), method)[0]

    def adversarial_features(self, auxiliaries: tuple[str, ...] = AUXILIARY_ORDER,
                             kinds: tuple[str, ...] = ("whitebox-ae", "blackbox-ae"),
                             method: str | None = None) -> np.ndarray:
        """Score matrix of the (real audio) adversarial samples."""
        return self.features_for(auxiliaries, kinds, method)[0]


# --------------------------------------------------------------- computation


def compute_scored_dataset(bundle: DatasetBundle,
                           method: str = "PE_JaroWinkler",
                           include_nontargeted: bool = True,
                           workers: int | None = None,
                           suite: SuiteSpec | None = None) -> ScoredDataset:
    """Transcribe every sample with a full ASR suite and compute scores.

    The suite defaults to the paper's (target ``DS0``, auxiliaries in
    :data:`AUXILIARY_ORDER`); pass a
    :class:`~repro.specs.SuiteSpec` to score any other suite — plugins
    and transformed views included — keyed by each member's short name.

    Recognition fans out across a
    :class:`~repro.pipeline.engine.TranscriptionEngine` worker pool and
    populates the process-wide transcription cache, so later experiments
    (overhead, ablations, examples) that replay the same clips never
    re-decode them.  Pass ``workers=0`` for the sequential path.
    """
    from repro.build import build_suite
    target_asr, auxiliaries = build_suite(
        suite if suite is not None else SuiteSpec())
    aux_names = [asr.short_name for asr in auxiliaries]
    scoring = SimilarityEngine(scorer=method)

    samples = list(bundle.all_samples)
    if include_nontargeted:
        samples += list(bundle.nontargeted)

    labels = np.array([sample.label for sample in samples], dtype=int)
    kinds = [sample.kind for sample in samples]
    with TranscriptionEngine(target_asr, auxiliaries, workers=workers) as engine:
        suites = engine.transcribe_batch([sample.waveform for sample in samples])
    target_texts = [suite_t.target.text for suite_t in suites]
    auxiliary_texts = {name: [suite_t.auxiliaries[name].text
                              for suite_t in suites]
                       for name in aux_names}
    scores = (scoring.score_suites(suites, auxiliaries)
              if samples else np.empty((0, len(aux_names))))
    return ScoredDataset(labels=labels, kinds=kinds, target_texts=target_texts,
                         auxiliary_texts=auxiliary_texts, method=method,
                         scores=scores, auxiliary_order=tuple(aux_names))


# -------------------------------------------------------------- disk caching


def _suite_signature(method: str, auxiliary_order: tuple[str, ...]) -> str:
    """Short digest of what a scored payload actually depends on.

    The cache key used to be ``(scale, seed)`` only, but the stored
    transcriptions/scores are a function of the similarity *method* and
    the suite composition too — two datasets computed for different
    methods or suites silently shared one file.  The digest folds both
    (plus the target, for completeness) into the filename, so a file
    written for any other combination is simply a different name — i.e.
    a miss — rather than a wrong hit.
    """
    payload = json.dumps([method, SCORED_TARGET, list(auxiliary_order)],
                         separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:10]


def _cache_path(scale_name: str, seed: int,
                method: str = "PE_JaroWinkler",
                auxiliary_order: tuple[str, ...] = AUXILIARY_ORDER) -> str:
    signature = _suite_signature(method, auxiliary_order)
    return os.path.join(cache_dir(),
                        f"scored_{scale_name}_{seed}_{signature}.json")


def _to_json(dataset: ScoredDataset) -> dict:
    return {
        "labels": dataset.labels.tolist(),
        "kinds": dataset.kinds,
        "target_texts": dataset.target_texts,
        "auxiliary_texts": dataset.auxiliary_texts,
        "method": dataset.method,
        "scores": dataset.scores.tolist(),
        "auxiliary_order": list(dataset.auxiliary_order),
    }


def _from_json(payload: dict) -> ScoredDataset:
    return ScoredDataset(
        labels=np.array(payload["labels"], dtype=int),
        kinds=list(payload["kinds"]),
        target_texts=list(payload["target_texts"]),
        auxiliary_texts={k: list(v) for k, v in payload["auxiliary_texts"].items()},
        method=payload["method"],
        scores=np.array(payload["scores"], dtype=np.float64),
        # Cache files written before auxiliary_order existed hold the
        # paper's suite.
        auxiliary_order=tuple(payload.get("auxiliary_order",
                                          AUXILIARY_ORDER)),
    )


_SCORED_CACHE: dict[tuple[str, int, str], ScoredDataset] = {}


def _read_cached_dataset(path: str, method: str) -> ScoredDataset | None:
    """Parse one disk-cache file; anything unexpected is a miss.

    A torn or corrupt file (the write is atomic now, but files from
    older versions may predate that) and a payload whose method or
    suite differs from what the filename promises are both treated as
    misses — the dataset is recomputed and the file overwritten.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        dataset = _from_json(payload)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if dataset.method != method or dataset.auxiliary_order != AUXILIARY_ORDER:
        return None
    return dataset


def store_scored_dataset(dataset: ScoredDataset,
                         scale: ReproScale | str | None = None,
                         seed: int = DEFAULT_SEED) -> str:
    """Persist a computed dataset into the disk cache (atomic write).

    Returns the cache path.  Used by :func:`load_scored_dataset` and by
    the sharded ``scored_dataset`` experiment, whose reduce step
    installs its reassembled result here so every later experiment
    starts warm.
    """
    if scale is None or isinstance(scale, str):
        scale = get_scale(scale)
    path = _cache_path(scale.name, seed, dataset.method,
                       dataset.auxiliary_order)
    atomic_write_text(path, json.dumps(_to_json(dataset)))
    _SCORED_CACHE[(scale.name, seed, dataset.method)] = dataset
    return path


def load_scored_dataset(scale: ReproScale | str | None = None,
                        seed: int = DEFAULT_SEED,
                        use_disk_cache: bool = True,
                        method: str = "PE_JaroWinkler") -> ScoredDataset:
    """Load (from cache) or compute the scored dataset for a scale preset."""
    if scale is None or isinstance(scale, str):
        scale = get_scale(scale)
    key = (scale.name, seed, method)
    if key in _SCORED_CACHE:
        return _SCORED_CACHE[key]

    path = _cache_path(scale.name, seed, method)
    if use_disk_cache:
        dataset = _read_cached_dataset(path, method)
        if dataset is not None:
            _SCORED_CACHE[key] = dataset
            return dataset

    bundle = load_standard_bundle(scale, seed)
    dataset = compute_scored_dataset(bundle, method=method)
    if use_disk_cache:
        store_scored_dataset(dataset, scale, seed)
    _SCORED_CACHE[key] = dataset
    return dataset
