"""Classifier factory used by the experiments.

The paper evaluates three binary classifiers with fixed configurations:
SVM with a 3-degree polynomial kernel, KNN with 10 voting neighbours, and a
Random Forest seeded with 200.  Further classifiers can be registered with
:func:`register_classifier` and then addressed by name everywhere a
classifier name is accepted (specs, the CLI).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import UnknownComponentError
from repro.ml.base import BinaryClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNNClassifier
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.svm import KernelSVMClassifier, SVMClassifier

#: The classifier names used across the evaluation tables.
CLASSIFIER_NAMES: tuple[str, ...] = ("SVM", "KNN", "RandomForest")

_FACTORIES: dict[str, Callable[[], BinaryClassifier]] = {
    "SVM": lambda: SVMClassifier(degree=3),
    "KernelSVM": lambda: KernelSVMClassifier(degree=3),
    "KNN": lambda: KNNClassifier(n_neighbors=10),
    "RandomForest": lambda: RandomForestClassifier(seed=200),
    "LogisticRegression": lambda: LogisticRegressionClassifier(),
}


def register_classifier(name: str,
                        factory: Callable[[], BinaryClassifier]) -> None:
    """Register a classifier factory under ``name`` (overwrites allowed)."""
    _FACTORIES[name] = factory


def available_classifier_names() -> tuple[str, ...]:
    """Sorted names of every registered classifier."""
    return tuple(sorted(_FACTORIES))


def build_classifier(name: str) -> BinaryClassifier:
    """Build a fresh classifier configured as in the paper."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownComponentError("classifier", name,
                                    available_classifier_names()) from None
    return factory()
