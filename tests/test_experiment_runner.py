"""Tests for the unified experiment runner (PR 8).

Covers the spec tree additions (``ExperimentSpec`` / ``SweepSpec``),
the experiment registry, wrapper↔runner parity for the ported
experiments, resumable sharded execution (including a fork-child kill
mid-run), sweep expansion/merging, and the ``repro run`` / ``repro
sweep`` CLI surface.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from repro import experiments as E
from repro.cli import main
from repro.config import TINY
from repro.experiments import (
    RunSpecMismatch,
    RunStore,
    build_experiment,
    execute_experiment,
    experiment_defaults,
    experiment_names,
    run_sweep,
)
from repro.experiments.runner import Experiment, WorkUnit, canonical_rows
from repro.errors import UnknownComponentError
from repro.specs import ExperimentSpec, InvalidSpecError, SweepSpec

_CTX = multiprocessing.get_context("fork")


def _nn(value):
    """NaN-normalise a canonical-row structure so NaN == NaN in asserts."""
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, list):
        return [_nn(item) for item in value]
    if isinstance(value, dict):
        return {key: _nn(item) for key, item in value.items()}
    return value


def _execute(name: str, params: dict | None = None, **kwargs):
    spec = ExperimentSpec(experiment=name, scale="tiny",
                          params=params or {}).validate()
    return execute_experiment(build_experiment(spec), **kwargs)


# ------------------------------------------------------------------- specs


def test_experiment_spec_roundtrip_and_strict_parse():
    spec = ExperimentSpec(experiment="single_aux", scale="tiny",
                          params={"n_splits": 3})
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(InvalidSpecError, match="unknown field"):
        ExperimentSpec.from_dict({"experiment": "single_aux", "bogus": 1})


def test_experiment_spec_env_overlay_and_with_value():
    spec = ExperimentSpec(experiment="single_aux", scale="tiny")
    assert spec.with_env_overlay({"REPRO_SCALE": "small"}).scale == "small"
    assert spec.with_env_overlay({}).scale == "tiny"
    assert spec.with_value("params.n_splits", 2).params["n_splits"] == 2
    assert spec.with_value("detector.classifier.name",
                           "KNN").detector.classifier.name == "KNN"
    assert spec.params == {}  # with_value copies


def test_experiment_spec_validate_lists_every_problem():
    spec = ExperimentSpec(experiment="no_such_experiment", scale="huge",
                          workers=-1)
    with pytest.raises(InvalidSpecError) as excinfo:
        spec.validate()
    message = str(excinfo.value)
    assert "no_such_experiment" in message
    assert "huge" in message
    assert "workers" in message


def test_experiment_spec_rejects_unknown_param():
    spec = ExperimentSpec(experiment="single_aux", scale="tiny",
                          params={"bogus_knob": 1})
    with pytest.raises(InvalidSpecError, match="bogus_knob"):
        spec.validate()


def test_sweep_points_cartesian_and_stable_labels():
    sweep = SweepSpec(
        base=ExperimentSpec(experiment="nontargeted", scale="tiny"),
        grid=(("params.max_fpr", (0.05, 0.1)),
              ("detector.classifier.name", ("SVM", "KNN"))))
    points = sweep.points()
    assert [point.label for point in points] == [
        "000-max_fpr=0.05,name=SVM", "001-max_fpr=0.05,name=KNN",
        "002-max_fpr=0.1,name=SVM", "003-max_fpr=0.1,name=KNN"]
    assert points[2].spec.params["max_fpr"] == 0.1
    assert points[1].spec.detector.classifier.name == "KNN"
    # labels are a pure function of the sweep: rerunning yields the same
    assert [p.label for p in sweep.points()] == [p.label for p in points]


def test_sweep_empty_grid_is_single_base_point():
    sweep = SweepSpec(base=ExperimentSpec(experiment="nontargeted"))
    points = sweep.points()
    assert len(points) == 1
    assert points[0].label == "000-base"
    assert points[0].spec == sweep.base


def test_sweep_from_dict_rejects_bad_grids():
    base = {"experiment": "nontargeted", "scale": "tiny"}
    with pytest.raises(InvalidSpecError, match="list"):
        SweepSpec.from_dict({**base, "grid": {"params.max_fpr": 0.05}})
    with pytest.raises(InvalidSpecError, match="at least one"):
        SweepSpec.from_dict({**base, "grid": {"params.max_fpr": []}})


def test_sweep_validate_reports_bad_overlay_path():
    sweep = SweepSpec(base=ExperimentSpec(experiment="nontargeted",
                                          scale="tiny"),
                      grid=(("detector.no_such_field", (1,)),))
    with pytest.raises(InvalidSpecError, match="no_such_field"):
        sweep.validate()


# ---------------------------------------------------------------- registry


def test_registry_knows_every_ported_experiment():
    names = experiment_names()
    assert {"similarity_methods", "single_aux", "multi_aux", "asr_count",
            "nontargeted", "unseen_threshold", "figure5_roc", "cross_attack",
            "mae_accuracy", "mae_cross_type", "mae_comprehensive",
            "table1_example", "table2_dataset_summary", "figure4_histograms",
            "kaldi_ablation", "baseline_comparison", "transferability",
            "transform_ensemble", "overhead", "scored_dataset"} <= set(names)
    assert list(names) == sorted(names)


def test_registry_unknown_name_raises():
    with pytest.raises(UnknownComponentError, match="no_such"):
        build_experiment(ExperimentSpec(experiment="no_such"))
    with pytest.raises(UnknownComponentError):
        experiment_defaults("no_such")


def test_experiment_defaults_are_copies():
    defaults = experiment_defaults("single_aux")
    assert defaults["n_splits"] == 5
    defaults["n_splits"] = 99
    assert experiment_defaults("single_aux")["n_splits"] == 5


# ------------------------------------------------------- wrapper parity

# Each case: experiment name, spec params, and the legacy wrapper call
# producing the table the runner must match bit-for-bit (after the JSON
# canonicalisation resume applies to every row).
PARITY_CASES = [
    ("table2_dataset_summary", {},
     lambda d, b: E.run_table2_dataset_summary(d).rows),
    ("similarity_methods", {},
     lambda d, b: E.run_table3_similarity_methods(d).rows),
    ("single_aux", {"n_splits": 3},
     lambda d, b: E.run_table4_single_auxiliary(d, n_splits=3).rows),
    ("multi_aux", {"n_splits": 3},
     lambda d, b: E.run_table5_multi_auxiliary(d, n_splits=3).rows),
    ("asr_count", {"n_splits": 3},
     lambda d, b: E.run_table6_asr_count_impact(d, n_splits=3).rows),
    ("unseen_threshold", {},
     lambda d, b: E.run_table7_threshold_detector(d).rows),
    ("cross_attack", {},
     lambda d, b: E.run_table8_cross_attack(d).rows),
    ("mae_accuracy", {"n_per_type": TINY.n_mae_per_type},
     lambda d, b: E.run_table10_mae_accuracy(
         d, n_per_type=TINY.n_mae_per_type).rows),
    ("mae_cross_type", {"n_per_type": TINY.n_mae_per_type},
     lambda d, b: E.run_table11_cross_type_defense(
         d, n_per_type=TINY.n_mae_per_type).rows),
    ("mae_comprehensive", {"n_per_type": TINY.n_mae_per_type},
     lambda d, b: E.run_table12_comprehensive(
         d, n_per_type=TINY.n_mae_per_type).rows),
    ("nontargeted", {},
     lambda d, b: E.run_nontargeted_detection(d).rows),
    ("transferability", {"max_aes": 4},
     lambda d, b: E.run_transferability_study(b, max_aes=4).rows),
    ("baseline_comparison", {"max_samples": 12},
     lambda d, b: E.run_baseline_comparison(b, max_samples=12).rows),
    ("kaldi_ablation", {"max_samples": 8, "n_splits": 2},
     lambda d, b: E.run_kaldi_auxiliary_ablation(
         b, d, max_samples=8, n_splits=2).rows),
    ("table1_example", {},
     lambda d, b: E.run_table1_example().rows),
    ("transform_ensemble", {},
     lambda d, b: E.run_transform_ensemble_comparison(scale="tiny").rows),
]


@pytest.mark.parametrize("name,params,wrapper", PARITY_CASES,
                         ids=[case[0] for case in PARITY_CASES])
def test_wrapper_parity(name, params, wrapper, tiny_dataset, tiny_bundle):
    result = _execute(name, params)
    assert result.complete
    expected = canonical_rows(wrapper(tiny_dataset, tiny_bundle))
    assert _nn(result.table.rows) == _nn(expected)


def test_figure4_parity(tiny_dataset):
    from repro.experiments import run_figure4_histograms

    result = _execute("figure4_histograms")
    expected = run_figure4_histograms(tiny_dataset)
    assert [row["system"] for row in result.table.rows] \
        == [hist.system for hist in expected]
    for row, hist in zip(result.table.rows, expected):
        assert row["overlap_fraction"] == pytest.approx(hist.overlap_fraction)


def test_figure5_parity(tiny_dataset):
    from repro.experiments import run_figure5_roc

    result = _execute("figure5_roc")
    expected = run_figure5_roc(tiny_dataset)
    assert [row["system"] for row in result.table.rows] \
        == [roc.system for roc in expected]
    for row, roc in zip(result.table.rows, expected):
        assert row["auc"] == pytest.approx(roc.auc)


def test_overhead_experiment_structure(tiny_dataset, tiny_bundle):
    """Overhead rows are wall-clock timings — pin the shape, not values."""
    result = _execute("overhead", {"max_samples": 4})
    expected = E.run_overhead_measurement(tiny_bundle, tiny_dataset,
                                          max_samples=4)
    assert result.complete
    assert [row["component"] for row in result.table.rows] \
        == [row["component"] for row in expected.rows]
    assert all(row["mean_seconds"] >= 0 for row in result.table.rows)


def test_scored_dataset_experiment_rebuilds_identically(tiny_dataset):
    result = _execute("scored_dataset", {"chunk_size": 7})
    assert result.complete and result.total_units > 1
    from repro.datasets.scores import load_scored_dataset

    rebuilt = load_scored_dataset(TINY)
    assert np.array_equal(rebuilt.labels, tiny_dataset.labels)
    assert rebuilt.kinds == tiny_dataset.kinds
    assert rebuilt.target_texts == tiny_dataset.target_texts
    assert rebuilt.auxiliary_texts == tiny_dataset.auxiliary_texts
    assert np.array_equal(rebuilt.scores, tiny_dataset.scores)


# ------------------------------------------------------ sharded execution


def test_run_store_journals_and_resumes(tmp_path, tiny_dataset):
    run_dir = str(tmp_path / "run")
    first = _execute("nontargeted", store=RunStore(run_dir), max_shards=1)
    assert not first.complete
    assert first.table is None
    assert first.executed_units == 1
    manifest = RunStore(run_dir).manifest()
    assert manifest["status"] == "incomplete"

    second = _execute("nontargeted", store=RunStore(run_dir))
    assert second.complete
    assert second.resumed_units == 1
    assert second.executed_units == first.total_units - 1
    fresh = _execute("nontargeted")
    assert second.table.rows == fresh.table.rows
    report = RunStore(run_dir).report()
    assert report["rows"] == second.table.rows


def test_run_store_rejects_different_spec(tmp_path, tiny_dataset):
    run_dir = str(tmp_path / "run")
    _execute("nontargeted", store=RunStore(run_dir), max_shards=1)
    with pytest.raises(RunSpecMismatch):
        _execute("nontargeted", {"max_fpr": 0.2}, store=RunStore(run_dir))


def test_run_store_ignores_worker_count(tmp_path, tiny_dataset):
    run_dir = str(tmp_path / "run")
    spec = ExperimentSpec(experiment="nontargeted", scale="tiny").validate()
    execute_experiment(build_experiment(spec), store=RunStore(run_dir),
                       max_shards=1)
    resumed = ExperimentSpec(experiment="nontargeted", scale="tiny",
                             workers=2).validate()
    result = execute_experiment(build_experiment(resumed),
                                store=RunStore(run_dir))
    assert result.complete and result.resumed_units == 1


@pytest.mark.timeout(120)
def test_forked_execution_matches_inline(tiny_dataset, tmp_path):
    spec = ExperimentSpec(experiment="nontargeted", scale="tiny",
                          workers=2).validate()
    forked = execute_experiment(build_experiment(spec),
                                store=RunStore(str(tmp_path / "run")))
    inline = _execute("nontargeted")
    assert forked.complete
    assert forked.table.rows == inline.table.rows


def _crash_on_second_shard(run_dir: str) -> None:
    """Child target: die mid-run after exactly one shard committed."""
    spec = ExperimentSpec(experiment="nontargeted", scale="tiny").validate()
    experiment = build_experiment(spec)
    real = experiment.run_shard
    done = []

    def sabotaged(unit):
        if done:
            os._exit(17)  # simulated kill between shards
        done.append(unit.key)
        return real(unit)

    experiment.run_shard = sabotaged
    execute_experiment(experiment, store=RunStore(run_dir))
    os._exit(99)  # never reached: the run dies on shard two


@pytest.mark.timeout(120)
def test_killed_run_resumes_without_reexecuting(tmp_path, tiny_dataset):
    run_dir = str(tmp_path / "run")
    child = _CTX.Process(target=_crash_on_second_shard, args=(run_dir,))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 17

    journaled = set(RunStore(run_dir).completed_shards())
    assert len(journaled) == 1

    spec = ExperimentSpec(experiment="nontargeted", scale="tiny").validate()
    experiment = build_experiment(spec)
    real = experiment.run_shard
    executed = []

    def counting(unit):
        executed.append(unit.key)
        return real(unit)

    experiment.run_shard = counting
    result = execute_experiment(experiment, store=RunStore(run_dir))
    assert result.complete
    assert result.resumed_units == 1
    assert not journaled & set(executed)  # completed shard never re-runs

    uninterrupted = _execute("nontargeted")
    assert result.table.rows == uninterrupted.table.rows


# ------------------------------------------------------------------ sweeps


def _sweep_spec() -> SweepSpec:
    return SweepSpec(
        base=ExperimentSpec(experiment="nontargeted", scale="tiny"),
        grid=(("params.max_fpr", (0.05, 0.1)),),
        name="fpr-sweep").validate()


def test_sweep_merges_reports_with_overlay_columns(tmp_path, tiny_dataset):
    result = run_sweep(_sweep_spec(), str(tmp_path / "sweep"))
    assert result.complete
    assert result.total_points == 2
    assert result.report["sweep"] == "fpr-sweep"
    labels = [point["label"] for point in result.report["points"]]
    assert labels == ["000-max_fpr=0.05", "001-max_fpr=0.1"]
    with open(os.path.join(result.run_dir, "report.md"),
              encoding="utf-8") as handle:
        markdown = handle.read()
    assert "max_fpr" in markdown.splitlines()[1]
    with open(os.path.join(result.run_dir, "report.json"),
              encoding="utf-8") as handle:
        assert json.load(handle) == result.report


def test_interrupted_sweep_resumes_bit_identical(tmp_path, tiny_dataset):
    baseline = run_sweep(_sweep_spec(), str(tmp_path / "uninterrupted"))
    interrupted_dir = str(tmp_path / "interrupted")
    first = run_sweep(_sweep_spec(), interrupted_dir, max_shards=2)
    assert not first.complete
    assert first.executed_units == 2
    second = run_sweep(_sweep_spec(), interrupted_dir)
    assert second.complete
    assert second.resumed_units == 2
    assert second.executed_units == baseline.executed_units - 2
    assert second.report == baseline.report


class _BundlelessExperiment(Experiment):
    """Two trivial shards; building the audio bundle always fails."""

    name = "bundleless"

    def prepare(self) -> None:
        pass

    def bundle(self):
        raise RuntimeError("no bundle at this scale")

    def shards(self, spec) -> list[WorkUnit]:
        return [WorkUnit(key=f"u{i}", params={"i": i}) for i in range(2)]

    def run_shard(self, unit: WorkUnit) -> list[dict]:
        return [{"i": unit.params["i"]}]


@pytest.mark.timeout(60)
def test_failed_bundle_is_logged_and_the_run_completes(monkeypatch, caplog):
    from repro.pipeline import engine as engine_mod

    monkeypatch.setenv(engine_mod.SAMPLE_ARENA_ENV, "1")
    engine_mod.get_shared_sample_arena.cache_clear()
    spec = ExperimentSpec(experiment="nontargeted", scale="tiny").validate()
    try:
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            result = execute_experiment(_BundlelessExperiment(spec),
                                        workers=2)
    finally:
        arena = engine_mod.get_shared_sample_arena()
        engine_mod.get_shared_sample_arena.cache_clear()
        if arena is not None:
            arena.destroy()
    assert arena is not None, "the test needs POSIX shared memory"
    assert result.complete
    assert result.table.rows == [{"i": 0}, {"i": 1}]
    warnings = [record for record in caplog.records
                if record.name == "repro.experiments.runner"]
    assert len(warnings) == 1
    assert "RuntimeError" in warnings[0].getMessage()
    assert "no bundle at this scale" in warnings[0].getMessage()


class _UnattributableExperiment(_BundlelessExperiment):
    """Two trivial shards; the manifest attribution record always fails."""

    name = "unattributable"

    def manifest_extra(self) -> dict:
        raise ValueError("suite fingerprint unavailable")


@pytest.mark.timeout(60)
def test_failed_manifest_extra_is_logged_and_the_run_completes(tmp_path,
                                                               caplog):
    spec = ExperimentSpec(experiment="nontargeted", scale="tiny").validate()
    store = RunStore(str(tmp_path / "run"))
    with caplog.at_level("WARNING", logger="repro.experiments.runner"):
        result = execute_experiment(_UnattributableExperiment(spec),
                                    store=store, workers=0)
    assert result.complete
    assert result.table.rows == [{"i": 0}, {"i": 1}]
    assert store.manifest(), "the manifest is still written"
    warnings = [record for record in caplog.records
                if record.name == "repro.experiments.runner"
                and "manifest" in record.getMessage()]
    assert len(warnings) == 1
    assert "ValueError" in warnings[0].getMessage()
    assert "suite fingerprint unavailable" in warnings[0].getMessage()


# --------------------------------------------------------------------- CLI


def test_cli_run_lists_experiments(capsys):
    assert main(["run"]) == 0
    out = capsys.readouterr().out
    assert "nontargeted" in out and "scored_dataset" in out


def test_cli_run_executes_and_resumes(tmp_path, tiny_dataset, capsys):
    run_dir = str(tmp_path / "run")
    args = ["run", "nontargeted", "--scale", "tiny", "--run-dir", run_dir,
            "--param", "max_fpr=0.1"]
    assert main([*args, "--max-shards", "1"]) == 3
    assert "incomplete" in capsys.readouterr().out
    assert main([*args, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["resumed_units"] == 1
    assert all(row["threshold"] is not None for row in payload["rows"])


def test_cli_run_rejects_bad_input(capsys):
    assert main(["run", "no_such_experiment"]) == 2
    assert "no_such_experiment" in capsys.readouterr().err
    assert main(["run", "nontargeted", "--param", "oops"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_cli_sweep_and_config_validate(tmp_path, tiny_dataset, capsys):
    grid = tmp_path / "sweep.json"
    grid.write_text(json.dumps({
        "experiment": "nontargeted", "scale": "tiny",
        "grid": {"params.max_fpr": [0.05, 0.1]}}))
    assert main(["config", "validate", str(grid)]) == 0
    assert "ok" in capsys.readouterr().out
    run_dir = str(tmp_path / "sweep-run")
    assert main(["sweep", str(grid), "--run-dir", run_dir]) == 0
    out = capsys.readouterr().out
    assert "max_fpr" in out and "defense_rate" in out


def test_cli_config_validate_flags_bad_experiment_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "no_such_experiment"}))
    assert main(["config", "validate", str(bad)]) == 2
    assert "no_such_experiment" in capsys.readouterr().out
