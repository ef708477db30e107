"""The unified experiment runner: work units, sharding, execution.

Besides the generic :class:`ExperimentTable` and the timing-table helper
used by the overhead experiment, this module hosts the experiment
abstraction every paper table runs on:

* :class:`Experiment` — the protocol: an experiment names itself, holds
  an :class:`~repro.specs.ExperimentSpec`, splits its work into
  idempotent :class:`WorkUnit`\\ s (``shards``), computes each unit's
  rows (``run_shard``) and assembles the final table (``reduce``).
* :func:`execute_experiment` — the executor: runs the pending units
  inline or fanned out across forked worker processes, journals each
  completed shard into a :class:`~repro.experiments.store.RunStore`
  (append-only JSONL + atomic manifest), and resumes a killed run from
  the last completed unit.

Rows cross the process boundary and the journal as JSON, so every shard
result is canonicalised through one JSON round trip *before* reduction —
a resumed run reduces exactly the same row values as an uninterrupted
one (Python floats round-trip ``repr``-exactly through JSON).
"""

from __future__ import annotations

import json
import logging
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

logger = logging.getLogger(__name__)


@dataclass
class ExperimentTable:
    """A named table of result rows (list of dicts with common keys)."""

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append a result row."""
        self.rows.append(values)

    def column(self, key: str) -> list:
        """Values of one column across all rows."""
        return [row.get(key) for row in self.rows]

    def to_markdown(self) -> str:
        """Render the table as GitHub-flavoured markdown."""
        return format_table(self.rows, title=f"{self.name} — {self.description}")

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return self.to_markdown()


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def add_timing_rows(table: ExperimentTable, baseline_seconds: float,
                    components: list[tuple[str, float]],
                    baseline_name: str = "target recognition (baseline)") -> None:
    """Append per-component timing rows relative to a baseline time.

    The baseline row (the cost the system pays with no detector at all)
    is reported with a relative overhead of zero; every other component
    is expressed as a fraction of it.
    """
    floor = max(baseline_seconds, 1e-9)
    table.add_row(component=baseline_name, mean_seconds=float(baseline_seconds),
                  relative_overhead=0.0)
    for name, seconds in components:
        table.add_row(component=name, mean_seconds=float(seconds),
                      relative_overhead=float(seconds) / floor)


def format_table(rows: list[dict], title: str | None = None) -> str:
    """Render a list of dict rows as a markdown table."""
    if not rows:
        return f"## {title}\n(no rows)\n" if title else "(no rows)\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = []
    if title:
        lines.append(f"## {title}")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_format_value(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ protocol
class ExperimentError(Exception):
    """An experiment could not run (bad shards, a worker died, ...)."""


@dataclass(frozen=True)
class WorkUnit:
    """One idempotent shard of an experiment.

    ``key`` is the unit's identity: unique within the experiment, stable
    across runs of the same spec (it is what the shard journal matches
    on when resuming), and safe as a JSON string.  ``params`` carries
    the JSON-serialisable inputs ``run_shard`` needs beyond the spec.
    """

    key: str
    params: Mapping[str, Any] = field(default_factory=dict)


class Experiment:
    """Base class of every registered experiment.

    Subclasses set :attr:`name` (the registry name), :attr:`title` /
    :attr:`description` (the table header) and :attr:`defaults` (the
    experiment parameters :class:`~repro.specs.ExperimentSpec.params`
    may override), and implement the protocol:

    * ``shards(spec) -> [WorkUnit]`` — split the work into idempotent
      units, in the row order of the final table;
    * ``run_shard(unit) -> rows`` — compute one unit's rows (runs in a
      worker process under sharded execution, so it must load what it
      needs from the spec — the loaders below are process-memoised);
    * ``reduce(rows) -> ExperimentTable`` — assemble the table from the
      concatenated rows of every unit, in ``shards`` order.
    """

    name: str = ""
    title: str = ""
    description: str = ""
    #: Parameter defaults; ``spec.params`` may override any of these.
    defaults: Mapping[str, Any] = {}

    def __init__(self, spec):
        self.spec = spec

    # ----------------------------------------------------------- spec access
    def param(self, key: str):
        """One parameter: the spec's override or the declared default."""
        if key in self.spec.params:
            return self.spec.params[key]
        return self.defaults[key]

    @property
    def classifier_name(self) -> str:
        """The classifier the spec's detector overlay selects."""
        return self.spec.detector.classifier.name

    def dataset(self):
        """The scored dataset for the spec's scale/seed (memoised).

        Experiments that declare a ``"method"`` default score the suite
        with that similarity method — the hook ``repro sweep`` grids use
        to compare scoring methods end to end.
        """
        from repro.datasets.scores import load_scored_dataset
        kwargs = {}
        if "method" in self.defaults or "method" in self.spec.params:
            kwargs["method"] = str(self.param("method"))
        return load_scored_dataset(self.spec.scale, seed=self.spec.seed,
                                   **kwargs)

    def bundle(self):
        """The audio dataset bundle for the spec's scale/seed (memoised)."""
        from repro.datasets.builder import load_standard_bundle
        return load_standard_bundle(self.spec.scale, seed=self.spec.seed)

    def manifest_extra(self) -> dict:
        """Attribution record merged into the run-dir ``manifest.json``.

        The default records the spec's suite composition and per-system
        version fingerprints (see
        :func:`repro.backends.registry.describe_suite`), so every run
        directory states exactly which systems produced its numbers.
        Experiments that build other suites per shard extend this.
        """
        from repro.backends.registry import describe_suite
        suite = getattr(getattr(self.spec, "detector", None), "suite", None)
        if suite is None:
            return {}
        return {"suite": describe_suite(suite)}

    def prepare(self) -> None:
        """Warm shared context in the parent before workers fork.

        Forked workers inherit the process-level dataset/bundle memos,
        so the expensive attack generation and decoding happen once.
        The default warms whatever :meth:`shards` ultimately needs by
        loading the scored dataset; experiments that only need the raw
        bundle (or nothing) override this.
        """
        self.dataset()

    # ------------------------------------------------------------- protocol
    def shards(self, spec) -> list[WorkUnit]:
        raise NotImplementedError

    def run_shard(self, unit: WorkUnit) -> list[dict]:
        raise NotImplementedError

    def reduce(self, rows: list[dict]) -> ExperimentTable:
        table = ExperimentTable(self.title or self.name, self.description)
        table.rows = list(rows)
        return table


# ----------------------------------------------------------------- execution
@dataclass
class RunResult:
    """Outcome of one :func:`execute_experiment` invocation."""

    table: ExperimentTable | None
    total_units: int
    executed_units: int
    resumed_units: int
    complete: bool
    run_dir: str | None = None


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"shard rows must be JSON-serialisable, "
                    f"got {type(value).__name__}: {value!r}")


def canonical_rows(rows: list[dict]) -> list[dict]:
    """Rows after one JSON round trip (what the journal stores/replays).

    Numpy scalars/arrays collapse to builtins; floats survive exactly
    (``json`` emits ``repr``-round-trippable values, NaN included).
    Reduction always consumes canonical rows, so fresh and resumed
    shards are indistinguishable.
    """
    return json.loads(json.dumps(rows, default=_json_default))


def _fork_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def attach_worker_caches(directory: str) -> None:
    """Bind the process-wide shared caches to journals under ``directory``.

    Called in a freshly forked shard worker (mirroring the serving
    layer's ``attach_shared_caches``): the shared transcription and
    pair-score caches are rebuilt on ``.jsonl`` journals in the run
    directory, so every decode/score a worker pays is write-through
    journaled and eagerly reloaded by sibling workers and resumed runs.
    """
    import repro.pipeline.engine as pipeline_engine
    import repro.similarity.engine as similarity_engine

    os.makedirs(directory, exist_ok=True)
    os.environ["REPRO_TRANSCRIPTION_CACHE"] = os.path.join(
        directory, "transcriptions.jsonl")
    os.environ[similarity_engine.SCORE_CACHE_ENV] = os.path.join(
        directory, "scores.jsonl")
    pipeline_engine.get_shared_cache.cache_clear()
    similarity_engine.get_shared_score_cache.cache_clear()
    # Instantiate now: the constructors eagerly load existing journal
    # entries, so a resumed worker starts warm.
    pipeline_engine.get_shared_cache()
    similarity_engine.get_shared_score_cache()


def _intern_shared_samples(experiment) -> None:
    """Re-home the bundle's waveforms onto the shared sample arena.

    Runs in the parent immediately before the shard workers fork, so
    when ``REPRO_SAMPLE_ARENA`` opts a run in (see
    :func:`repro.pipeline.engine.get_shared_sample_arena`), every child
    inherits one content-interned resident copy of each clip through
    shared pages instead of duplicating the memoised bundle
    copy-on-write.  Strictly best effort: no arena, a full arena, or an
    experiment without a bundle all leave the inputs untouched; a bundle
    that fails to build is logged as a warning and skipped.
    """
    from repro.pipeline.engine import get_shared_sample_arena

    arena = get_shared_sample_arena()
    if arena is None or not arena.is_owner:
        return
    from dataclasses import replace

    from repro.caching import audio_fingerprint
    try:
        bundle = experiment.bundle()
    except Exception as exc:
        logger.warning("sample arena: bundle of %r failed (%s: %s); running"
                       " without interned samples", experiment.name,
                       type(exc).__name__, exc)
        return
    for collection in (bundle.benign, bundle.whitebox,
                       bundle.blackbox, bundle.nontargeted):
        for index, sample in enumerate(collection):
            audio = sample.waveform
            if arena.owns(audio.samples):
                continue
            view = arena.intern(audio_fingerprint(audio.samples,
                                                  audio.sample_rate),
                                audio.samples)
            if view is not None:
                collection[index] = replace(
                    sample, waveform=replace(audio, samples=view))


def _shard_worker(experiment, units: list[tuple[int, WorkUnit]],
                  result_queue, cache_dir: str | None) -> None:
    """Run one worker's statically assigned units (forked child body)."""
    if cache_dir is not None:
        attach_worker_caches(cache_dir)
    for index, unit in units:
        try:
            rows = canonical_rows(experiment.run_shard(unit))
        except BaseException:
            result_queue.put((index, unit.key, None, traceback.format_exc()))
            raise SystemExit(1)
        result_queue.put((index, unit.key, rows, None))


def _run_sharded(experiment, pending: list[tuple[int, WorkUnit]],
                 workers: int, cache_dir: str | None,
                 on_rows: Callable[[str, list[dict]], None]) -> None:
    """Fan pending units out across forked worker processes.

    Units are statically partitioned round-robin (no task queue, so no
    feeder threads exist in the parent before the fork); results come
    back over one queue and are journaled by the parent as they arrive.
    A dead worker fails the run — resuming re-executes only the units
    that never reported.
    """
    import queue as queue_module

    context = _fork_context()
    n_workers = min(workers, len(pending))
    result_queue = context.Queue()
    processes = []
    for worker_index in range(n_workers):
        assigned = pending[worker_index::n_workers]
        process = context.Process(
            target=_shard_worker,
            args=(experiment, assigned, result_queue, cache_dir),
            daemon=True)
        process.start()
        processes.append(process)
    outstanding = len(pending)
    failures: list[str] = []
    try:
        while outstanding and not failures:
            try:
                _, key, rows, error = result_queue.get(timeout=1.0)
            except queue_module.Empty:
                if all(not process.is_alive() for process in processes):
                    raise ExperimentError(
                        f"{outstanding} shard(s) never reported: a worker "
                        f"process died (see stderr)") from None
                continue
            outstanding -= 1
            if error is not None:
                failures.append(f"shard {key!r} failed:\n{error}")
            else:
                on_rows(key, rows)
    finally:
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
    if failures:
        raise ExperimentError("\n".join(failures))


def execute_experiment(experiment, store=None, workers: int | None = None,
                       max_shards: int | None = None) -> RunResult:
    """Run an experiment's shards (resumable) and reduce the final table.

    Args:
        experiment: an :class:`Experiment` instance.
        store: optional :class:`~repro.experiments.store.RunStore`; when
            given, completed shards found in its journal are *not*
            re-executed and every fresh shard is journaled on completion.
        workers: shard worker processes (default: the spec's ``workers``;
            ``0`` or a single pending unit runs inline).
        max_shards: execute at most this many fresh shards, then stop
            (``complete=False`` unless everything finished) — the
            incremental-budget knob the CI smoke uses.

    Returns a :class:`RunResult`; ``table`` is ``None`` while the run is
    incomplete.
    """
    spec = experiment.spec
    units = experiment.shards(spec)
    keys = [unit.key for unit in units]
    if len(set(keys)) != len(keys):
        raise ExperimentError(f"{experiment.name}: duplicate shard keys")
    completed: dict[str, list[dict]] = {}
    if store is not None:
        try:
            extra = experiment.manifest_extra()
        except Exception as exc:  # attribution must never fail a run
            logger.warning("manifest: extra attribution of %r failed "
                           "(%s: %s); writing the manifest without it",
                           experiment.name, type(exc).__name__, exc)
            extra = {}
        store.begin(spec, experiment=experiment.name, total_units=len(units),
                    extra=extra)
        journaled = store.completed_shards()
        completed = {key: journaled[key] for key in keys if key in journaled}
    pending = [(index, unit) for index, unit in enumerate(units)
               if unit.key not in completed]
    resumed = len(units) - len(pending)
    budget = len(pending) if max_shards is None else max(0, max_shards)
    to_run = pending[:budget]

    results = dict(completed)

    def on_rows(key: str, rows: list[dict]) -> None:
        if store is not None:
            store.record(key, rows)
        results[key] = rows

    if to_run:
        experiment.prepare()
    if workers is None:
        workers = spec.workers
    cache_dir = store.cache_dir if store is not None else None
    if workers and len(to_run) > 1 and _fork_context() is not None:
        _intern_shared_samples(experiment)
        _run_sharded(experiment, to_run, workers, cache_dir, on_rows)
    else:
        for _, unit in to_run:
            on_rows(unit.key, canonical_rows(experiment.run_shard(unit)))

    complete = all(unit.key in results for unit in units)
    run_dir = store.directory if store is not None else None
    if not complete:
        if store is not None:
            store.mark_incomplete()
        return RunResult(table=None, total_units=len(units),
                         executed_units=len(to_run), resumed_units=resumed,
                         complete=False, run_dir=run_dir)
    rows = [row for unit in units for row in results[unit.key]]
    table = experiment.reduce(rows)
    if store is not None:
        store.write_report(table, experiment=experiment.name)
    return RunResult(table=table, total_units=len(units),
                     executed_units=len(to_run), resumed_units=resumed,
                     complete=True, run_dir=run_dir)
