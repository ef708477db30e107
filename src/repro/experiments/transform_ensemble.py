"""Transform-ensemble vs multi-ASR vs combined detection.

The study behind ``docs/DEFENSES.md``: build the three default defense
systems — transformation ensemble only, the paper's multi-ASR suite, and
both kinds of auxiliary versions combined — extract similarity-score
features for the same benign + AE audio, and report held-out detection
accuracy / FPR / FNR per system in the paper's table format.

All three systems share one target model and one process-wide
transcription cache, so the target's transcriptions (and the real
auxiliaries' transcriptions, reused from the scored-dataset build) are
decoded once across the whole comparison.
"""

from __future__ import annotations

import numpy as np

from repro.build import build
from repro.config import DEFAULT_SEED, ReproScale
from repro.core.detector import MVPEarsDetector
from repro.datasets.builder import load_standard_bundle
from repro.experiments.registry import register
from repro.experiments.runner import Experiment, ExperimentTable, WorkUnit
from repro.ml.model_selection import train_test_split
from repro.specs import DetectorSpec

#: The three defense modes of the comparison, in table order.
DEFENSE_MODES = ("transform", "multi-asr", "combined")


def _build_defense(mode: str, classifier: str, transforms,
                   workers: int | None) -> MVPEarsDetector:
    # One system as a declarative spec over the shared target (fitting
    # happens on the experiment's own split, so fit=False).
    return build(DetectorSpec.default(defense=mode, classifier=classifier,
                                      workers=workers, transforms=transforms),
                 fit=False)


def _mode_row(mode: str, bundle, classifier: str, transforms,
              test_fraction: float, seed: int, workers: int | None) -> dict:
    """One defense mode's held-out accuracy on the shared split."""
    detector = _build_defense(mode, classifier, transforms, workers)
    samples = bundle.all_samples
    audios = [sample.waveform for sample in samples]
    labels = np.array([sample.label for sample in samples], dtype=int)
    features = detector.extract_features(audios)
    train_x, test_x, train_y, test_y = train_test_split(
        features, labels, test_fraction=test_fraction, seed=seed)
    detector.fit_features(train_x, train_y)
    report = detector.evaluate_features(test_x, test_y)
    return {
        "system": mode,
        "auxiliaries": detector.system_name,
        "n_versions": detector.n_features,
        "accuracy": report.accuracy,
        "fpr": report.fpr,
        "fnr": report.fnr,
    }


def run_transform_ensemble_comparison(
        scale: ReproScale | str | None = None,
        classifier: str = "SVM",
        transforms=None,
        test_fraction: float = 0.25,
        seed: int = DEFAULT_SEED,
        workers: int | None = None) -> ExperimentTable:
    """Accuracy / FPR / FNR of the three defense modes on one dataset.

    Args:
        scale: dataset scale preset (``None`` reads ``REPRO_SCALE``).
        classifier: classifier registry name used by every system.
        transforms: transformation ensemble for the transform and
            combined systems, in any form ``DetectorSpec.default``
            accepts: a comma-separated spec string, or a sequence of
            spec strings, ``TransformSpec`` objects or ``Transform``
            instances that carry a ``spec`` (default: the standard
            suite).  A transform with no spec raises ``ValueError``.
        test_fraction: held-out fraction for the evaluation split.
        seed: split seed (the same split is used for every system, so
            the three rows are directly comparable).
        workers: transcription worker-pool size.
    """
    bundle = load_standard_bundle(scale)
    table = ExperimentTable(
        "Transform ensemble",
        "Detection accuracy of transform vs multi-ASR vs combined auxiliaries")
    for mode in DEFENSE_MODES:
        table.rows.append(_mode_row(mode, bundle, classifier, transforms,
                                    test_fraction, seed, workers))
    return table


@register
class TransformEnsembleExperiment(Experiment):
    """Defense-mode comparison sharded per mode — 3 units."""

    name = "transform_ensemble"
    title = "Transform ensemble"
    description = ("Detection accuracy of transform vs multi-ASR vs "
                   "combined auxiliaries")
    defaults = {"test_fraction": 0.25}

    def prepare(self) -> None:
        self.bundle()

    def shards(self, spec) -> list[WorkUnit]:
        return [WorkUnit(key=mode, params={"mode": mode})
                for mode in DEFENSE_MODES]

    def run_shard(self, unit: WorkUnit) -> list[dict]:
        return [_mode_row(str(unit.params["mode"]), self.bundle(),
                          self.classifier_name, None,
                          float(self.param("test_fraction")),
                          self.spec.seed, None)]


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI shim
    import argparse

    parser = argparse.ArgumentParser(
        description="Transform-ensemble vs multi-ASR vs combined detection")
    parser.add_argument("--scale", default=None,
                        choices=("tiny", "small", "medium", "paper"))
    parser.add_argument("--classifier", default="SVM")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    table = run_transform_ensemble_comparison(
        scale=args.scale, classifier=args.classifier, seed=args.seed)
    print(table.to_markdown())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
