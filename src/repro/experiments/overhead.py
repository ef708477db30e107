"""Section V-I: time overhead of the detection system.

The paper measures the overhead of DS0+{DS1} (the cheapest deployable
configuration, both models local): the extra recognition time caused by
running the auxiliary model in parallel, the similarity-calculation time
and the classification time — all negligible compared with the target
model's own recognition time.

The measurement routes through :class:`~repro.pipeline.detection
.DetectionPipeline`, so recognition genuinely fans out across the engine
worker pool and per-stage wall-clock timing comes straight from the
pipeline.  Private, empty transcription *and* pair-score caches are used
so every number reflects real decode and scoring work; pass ``workers=0``
to reproduce the original sequential timing path.
"""

from __future__ import annotations

import numpy as np

from repro.build import build
from repro.datasets.builder import DatasetBundle
from repro.datasets.scores import ScoredDataset
from repro.experiments.registry import register
from repro.experiments.runner import (
    Experiment,
    ExperimentTable,
    WorkUnit,
    add_timing_rows,
)
from repro.pipeline.detection import DetectionPipeline
from repro.specs import (
    ASRSpec,
    ClassifierSpec,
    DetectorSpec,
    PipelineSpec,
    ScoringSpec,
    SuiteSpec,
)


def run_overhead_measurement(bundle: DatasetBundle, dataset: ScoredDataset,
                             max_samples: int = 24,
                             classifier_name: str = "SVM",
                             workers: int | None = None) -> ExperimentTable:
    """Measure per-component detection overhead on DS0+{DS1}.

    Args:
        bundle: audio samples to screen.
        dataset: pre-computed scores used to train the classifier.
        max_samples: number of clips to time.
        classifier_name: classifier registry name.
        workers: engine pool size (``0`` = sequential path, ``None`` =
            default parallel fan-out).
    """
    # Private caches: overhead numbers must reflect real decoding and
    # scoring, not hits left behind by earlier experiments in the same
    # process.  The system under measurement, as a declarative spec:
    spec = DetectorSpec(
        suite=SuiteSpec(target=ASRSpec("DS0"), auxiliaries=(ASRSpec("DS1"),)),
        scoring=ScoringSpec(cache="private"),
        classifier=ClassifierSpec(classifier_name),
        pipeline=PipelineSpec(workers=workers, cache="private"))
    detector = build(spec, fit=False)
    target_asr = detector.target_asr
    features, labels = dataset.features_for(("DS1",))
    detector.fit_features(features, labels)

    samples = (bundle.benign + bundle.adversarial)[:max_samples]
    pipeline = DetectionPipeline(detector)
    batch = pipeline.detect_batch([sample.waveform for sample in samples])

    # The baseline is the target model's own decode time — what the system
    # pays with no detector at all.  It is measured in a dedicated
    # sequential pass so pool contention inside the batch cannot inflate
    # it (aux-vs-target overheads inside the batch are contended equally,
    # so their difference stays meaningful).
    target_only = float(np.mean([target_asr.transcribe(s.waveform).elapsed_seconds
                                 for s in samples]))
    stage_means = batch.mean_stage_seconds()
    table = ExperimentTable("Overhead", "Detection time overhead on DS0+{DS1}")
    add_timing_rows(table, target_only, [
        ("parallel recognition overhead",
         float(np.mean(batch.recognition_overheads))),
        ("similarity calculation", stage_means["similarity"]),
        ("classification", stage_means["classification"]),
    ])
    # The batch total is reported for context, not as an overhead: it
    # contains the baseline decode itself, so a ratio would mislead.
    table.add_row(component="pipeline total (per clip)",
                  mean_seconds=stage_means["total"])
    return table


@register
class OverheadExperiment(Experiment):
    """Section V-I timing: single unit (wall-clock must not be contended).

    Sharding a timing measurement across sibling workers would make the
    pool contention part of the number; the whole measurement is one
    unit so its internal fan-out is the only parallelism.
    """

    name = "overhead"
    title = "Overhead"
    description = "Detection time overhead on DS0+{DS1}"
    defaults = {"max_samples": 24}

    def prepare(self) -> None:
        self.bundle()
        self.dataset()

    def shards(self, spec) -> list[WorkUnit]:
        return [WorkUnit(key="timing")]

    def run_shard(self, unit: WorkUnit) -> list[dict]:
        return run_overhead_measurement(
            self.bundle(), self.dataset(),
            max_samples=int(self.param("max_samples")),
            classifier_name=self.classifier_name).rows
