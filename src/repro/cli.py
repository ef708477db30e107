"""The ``repro`` command line: screen clips and streams, serve, run experiments.

Exposes the whole detection stack without writing Python::

    python -m repro screen clip.wav other.wav   # batch-screen WAV clips
    python -m repro stream recording.wav        # windowed streaming verdicts
    python -m repro serve tenants.json          # multi-process service demo
    python -m repro run nontargeted             # one registered experiment
    python -m repro sweep grid.json             # a parameter sweep
    python -m repro backends                    # ASR backend availability
    python -m repro config show                 # effective detector spec
    python -m repro config validate cfg.json    # schema-check config files

(Installed as the ``repro`` console script too; ``repro --help`` for the
full option list.)  Every detector-building command constructs through a
declarative :class:`~repro.specs.DetectorSpec` (see docs/CONFIG.md):
``--config PATH`` loads a JSON spec file (environment ``REPRO_*``
variables overlay the file, explicit flags overlay both), and with no
config the paper's default DS0+{DS1, GCS, AT} system is described by
flags alone — ``--target`` / ``--auxiliaries`` pick suite members from
the open ASR registry (plugins included), ``--defense
transform|combined`` swaps in transformed views of the target (see
docs/DEFENSES.md), ``--scorer`` / ``--score-cache`` shape the scoring
engine (see docs/SCORING.md), and
``--scale`` picks the training preset (default ``tiny``; the first run
at a scale generates and disk-caches that dataset).  ``config show``
prints the effective spec as JSON — a ready-to-save config file —
and ``config validate`` schema-checks files, naming each bad field and
its allowed values.  ``--feature-backend`` (``fast`` or ``off``) /
``--feature-cache`` shape the front-end feature engine (see
docs/FEATURES.md).  ``serve`` starts
the multi-process :class:`~repro.serving.service.DetectionService` from
a tenant manifest (see docs/SERVING.md) and drives a synthetic request
burst through its asyncio front door.  Performance is measured by the
repo benchmark under ``perfbench/``, not by this command line.

Exit status: ``screen``, ``stream`` and ``serve`` exit 1 when anything
was flagged adversarial (so shell scripts can gate on the verdict), 0
otherwise; bad inputs (including invalid configs) exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

PROG = "repro"


class CliError(Exception):
    """A user-input problem (bad path, bad WAV, unknown name, bad geometry)."""


def _read_clips(paths: list[str]):
    from repro.audio.wavio import read_wav

    clips = []
    for path in paths:
        try:
            clips.append(read_wav(path))
        except (FileNotFoundError, IsADirectoryError, PermissionError,
                ValueError) as exc:
            raise CliError(f"cannot read {path!r}: {exc}") from exc
    return clips


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="MVP-EARS audio adversarial example detection "
                    "(DSN 2019 reproduction).")
    commands = parser.add_subparsers(dest="command", metavar="command")

    def add_detector_options(sub: argparse.ArgumentParser) -> None:
        # Detector flags default to None so only the ones the user
        # actually passed overlay the spec (config file / env / built-in
        # defaults fill the rest); suite choices come from the open ASR
        # registry, so registered plugins are selectable by name.
        from repro.asr.registry import available_asr_names
        from repro.specs import DEFENSE_MODES, SCALE_NAMES

        sub.add_argument("--config", default=None, metavar="PATH",
                         help="JSON DetectorSpec file (see docs/CONFIG.md); "
                              "REPRO_* env vars overlay the file, explicit "
                              "flags overlay both")
        sub.add_argument("--scale", default=None, choices=SCALE_NAMES,
                         help="scored-dataset scale used to fit the "
                              "classifier (default: tiny; with --config, "
                              "the file's training.scale — null there "
                              "means REPRO_SCALE or 'small')")
        sub.add_argument("--workers", type=int, default=None,
                         help="transcription worker-pool size "
                              "(default: CPU count; 0 = sequential)")
        sub.add_argument("--classifier", default=None, metavar="NAME",
                         help="classifier registry name (default: SVM)")
        # No argparse choices= here: the registry also resolves the
        # parameterised KAL-fs<N> family, so validation happens through
        # the spec (which names the available systems on a miss).
        sub.add_argument("--target", default=None, metavar="NAME",
                         help="target ASR short name (default: DS0; "
                              f"registered: {', '.join(available_asr_names())})")
        sub.add_argument("--auxiliaries", default=None, metavar="NAMES",
                         help="comma-separated auxiliary ASR names from the "
                              "registry (default: the paper's DS1,GCS,AT)")
        sub.add_argument("--defense", default=None, choices=DEFENSE_MODES,
                         help="auxiliary-version kind: diverse ASR models "
                              "(multi-asr, the paper's system), input "
                              "transformations of the target model "
                              "(transform), or both (combined)")
        sub.add_argument("--transforms", default=None, metavar="SPECS",
                         help="comma-separated transform specs for the "
                              "transform/combined defenses, e.g. "
                              "'quantize:8,lowpass:3000' (default: the "
                              "standard five-transform suite)")
        sub.add_argument("--scorer", default=None, metavar="METHOD",
                         help="similarity method name, e.g. PE_JaroWinkler "
                              "(default), Cosine, PE_Jaccard")
        sub.add_argument("--score-cache", default=None, metavar="POLICY",
                         help="pair-score cache: 'shared' (default, "
                              "process-wide), 'private', 'off', or a JSON "
                              "file path for an on-disk store")
        sub.add_argument("--feature-backend", default=None,
                         choices=("fast", "off"),
                         help="front-end feature engine: the shared batch-"
                              "vectorized engine (fast, default) or 'off' "
                              "so every ASR runs its own front end")
        sub.add_argument("--feature-cache", default=None, metavar="POLICY",
                         help="feature cache: 'shared' (default, "
                              "process-wide), 'private', 'off', or an .npz "
                              "file path for an on-disk store")
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")

    screen = commands.add_parser(
        "screen", help="screen one or more WAV clips (one verdict per file)")
    screen.add_argument("wav", nargs="+", help="16-bit mono PCM WAV files")
    add_detector_options(screen)

    stream = commands.add_parser(
        "stream", help="screen one WAV as a continuous stream of windows")
    stream.add_argument("wav", help="16-bit mono PCM WAV file")
    stream.add_argument("--window", type=float, default=None,
                        help="detection window length in seconds (default: 2.0)")
    stream.add_argument("--hop", type=float, default=None,
                        help="hop between window starts in seconds "
                             "(default: window / 2)")
    stream.add_argument("--trigger", type=int, default=None,
                        help="consecutive adversarial windows that flip the "
                             "stream verdict (default: 2)")
    stream.add_argument("--release", type=int, default=None,
                        help="consecutive benign windows that release it "
                             "(default: 2)")
    add_detector_options(stream)

    serve = commands.add_parser(
        "serve", help="run the multi-process detection service on a "
                      "synthetic request burst")
    serve.add_argument("manifest", nargs="?", default=None,
                       help="tenant manifest JSON (default: one 'default' "
                            "tenant running the paper's system)")
    serve.add_argument("--requests", type=int, default=16,
                       help="concurrent requests to drive (default: 16)")
    serve.add_argument("--clips", type=int, default=6,
                       help="distinct synthesised utterances cycled across "
                            "the requests (default: 6)")
    serve.add_argument("--tenant", default=None,
                       help="tenant to address (default: every tenant, "
                            "round-robin)")
    serve.add_argument("--workers", type=int, default=None,
                       help="override the manifest's worker count")
    serve.add_argument("--timeout", type=float, default=None,
                       help="override the per-request deadline in seconds")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload sampling seed (default: 0)")
    serve.add_argument("--json", action="store_true",
                       help="emit one JSON object per request plus a "
                            "summary instead of text")

    def add_experiment_options(sub: argparse.ArgumentParser) -> None:
        from repro.specs import SCALE_NAMES

        sub.add_argument("--scale", default=None, choices=SCALE_NAMES,
                         help="dataset scale preset (default: tiny; "
                              "REPRO_SCALE overlays)")
        sub.add_argument("--seed", type=int, default=None,
                         help="dataset seed (default: the library default)")
        sub.add_argument("--workers", type=int, default=None,
                         help="shard worker processes (default: 0 = run "
                              "shards inline in this process)")
        sub.add_argument("--run-dir", default=None, metavar="DIR",
                         help="run directory for spec/journal/report "
                              "(default: an auto-named directory under "
                              ".repro_runs, stable per spec — rerunning "
                              "resumes it)")
        sub.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="experiment parameter override (repeatable); "
                              "values parse as JSON when possible, e.g. "
                              "--param n_splits=3")
        sub.add_argument("--classifier", default=None, metavar="NAME",
                         help="classifier registry name (default: SVM)")
        sub.add_argument("--scorer", default=None, metavar="METHOD",
                         help="similarity method for detector-building "
                              "experiments (default: PE_JaroWinkler)")
        sub.add_argument("--max-shards", type=int, default=None,
                         metavar="N",
                         help="execute at most N fresh shards then stop "
                              "(exit 3 while incomplete; rerun to resume)")
        sub.add_argument("--json", action="store_true",
                         help="print the final report as JSON instead of "
                              "markdown")

    run = commands.add_parser(
        "run", help="run one experiment sharded + resumable "
                    "(no name: list experiments)")
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment registry name (omit to list them)")
    add_experiment_options(run)

    sweep = commands.add_parser(
        "sweep", help="expand a grid of spec overlays and run every point "
                      "into one merged report")
    sweep.add_argument("grid", help="sweep JSON file: an experiment spec "
                                    "plus a \"grid\" of dotted-path value "
                                    "lists (see docs/EXPERIMENTS.md)")
    add_experiment_options(sweep)

    backends = commands.add_parser(
        "backends", help="list optional ASR backends: name, availability, "
                         "model fingerprint, install hint")
    backends.add_argument("--json", action="store_true",
                          help="print the listing as JSON")

    config = commands.add_parser(
        "config", help="show the effective detector spec / validate config files")
    config_actions = config.add_subparsers(dest="config_command",
                                           metavar="action")
    show = config_actions.add_parser(
        "show", help="print the effective DetectorSpec as JSON (config file "
                     "+ env + flags; ready to save as a config)")
    add_detector_options(show)
    validate = config_actions.add_parser(
        "validate", help="validate JSON config files against the spec schema "
                         "and the component registries")
    validate.add_argument("path", nargs="+",
                          help="JSON config files to check: DetectorSpec, "
                               "serve manifest, experiment spec, or sweep "
                               "spec (dispatched on top-level keys)")
    return parser


def _save_score_cache(detector) -> None:
    """Persist an on-disk pair-score cache (``--score-cache PATH``).

    Mirrors the transcription cache's explicit-save contract; the CLI
    saves on behalf of the user so a second invocation with the same
    path starts warm.
    """
    cache = detector.scoring.cache
    if cache is not None and cache.path is not None:
        cache.save()


def _split_names(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise CliError("expected a comma-separated list of names")
    return names


def _reshape_suite(suite, target: str | None, aux_names, defense: str,
                   transforms: str | None):
    """Merge suite-shaping flags onto a config file's suite.

    Works on spec values directly (no string round trip): each piece a
    flag names is replaced, everything else is inherited — the config's
    target, its plain auxiliary names, its transformed-target specs,
    and (outside multi-asr mode) its transformed views of non-target
    members, which have no flag syntax at all.
    """
    from repro.defenses.transforms import default_transform_suite
    from repro.specs import ASRSpec, SuiteSpec, TransformSpec

    target_spec = ASRSpec(target) if target is not None else suite.target
    if aux_names is not None:
        plains = tuple(ASRSpec(name) for name in aux_names)
    else:
        plains = tuple(m for m in suite.auxiliaries if m.transform is None)
    if transforms:
        views = tuple(ASRSpec(target_spec.name, TransformSpec(part.strip()))
                      for part in transforms.split(",") if part.strip())
    else:
        views = tuple(ASRSpec(target_spec.name, m.transform)
                      for m in suite.auxiliaries
                      if m.transform is not None
                      and m.name == suite.target.name)
    extras = tuple(m for m in suite.auxiliaries
                   if m.transform is not None and m.name != suite.target.name)

    members: tuple = ()
    if defense in ("multi-asr", "combined"):
        if not plains:
            from repro.asr.registry import default_suite_names
            plains = tuple(ASRSpec(name) for name in default_suite_names()[1:])
        members += plains
    if defense in ("transform", "combined"):
        if not views:
            views = tuple(ASRSpec(target_spec.name, TransformSpec(t.spec))
                          for t in default_transform_suite())
        members += views
    if defense != "multi-asr":
        members += extras
    return SuiteSpec(target=target_spec, auxiliaries=members)


def _implied_defense(suite) -> str:
    """The defense mode a suite's shape expresses (for flag overlays)."""
    transformed = any(m.transform is not None for m in suite.auxiliaries)
    plain = any(m.transform is None for m in suite.auxiliaries)
    if transformed and plain:
        return "combined"
    if transformed:
        return "transform"
    return "multi-asr"


#: Leaf overlays: (flag attribute, dotted DetectorSpec path).
_LEAF_FLAGS = (("scale", "training.scale"),
               ("classifier", "classifier.name"),
               ("workers", "pipeline.workers"),
               ("scorer", "scoring.scorer"),
               ("score_cache", "scoring.cache"),
               ("feature_backend", "pipeline.features.backend"),
               ("feature_cache", "pipeline.features.cache"))


def _detector_spec(args: argparse.Namespace):
    """The effective :class:`DetectorSpec` for one invocation.

    Precedence: explicit flags > ``REPRO_*`` environment > config file >
    built-in defaults.  Suite-shaping flags (``--target``/
    ``--auxiliaries``/``--defense``/``--transforms``) rebuild the suite
    section as a unit, with unspecified pieces inherited from the config
    file where expressible (its target, its plain auxiliary names, its
    transformed-target specs).
    """
    from repro.specs import DetectorSpec, InvalidSpecError

    defense = getattr(args, "defense", None)
    transforms = getattr(args, "transforms", None)
    auxiliaries = getattr(args, "auxiliaries", None)
    suite_flags = (getattr(args, "target", None), auxiliaries,
                   defense, transforms)
    config_path = getattr(args, "config", None)
    if transforms and not config_path \
            and (defense or "multi-asr") == "multi-asr":
        raise CliError("--transforms requires --defense transform "
                       "or --defense combined")
    if auxiliaries and defense == "transform":
        # Refuse rather than silently drop the requested auxiliaries:
        # transform mode has no plain members by definition.
        raise CliError("--auxiliaries conflicts with --defense transform "
                       "(its auxiliaries are transformed views of the "
                       "target); use --defense combined for both kinds")
    try:
        if config_path:
            spec = DetectorSpec.load(config_path)
            # Without --defense, the mode is implied by the config's
            # suite shape, so e.g. --transforms alone re-parameterises a
            # transform-ensemble config instead of erroring; adding
            # --auxiliaries to a pure transform config implies combined.
            effective_defense = defense or _implied_defense(spec.suite)
            if (auxiliaries and not defense
                    and effective_defense == "transform"):
                effective_defense = "combined"
            if transforms and effective_defense == "multi-asr":
                raise CliError("--transforms requires --defense transform "
                               "or --defense combined (the config's suite "
                               "has no transformed members)")
            if any(value is not None for value in suite_flags):
                spec = spec.with_value("suite", _reshape_suite(
                    spec.suite, target=getattr(args, "target", None),
                    aux_names=_split_names(auxiliaries),
                    defense=effective_defense, transforms=transforms))
                # An explicit 'scored' source may no longer cover the
                # reshaped suite; 'bundle' (and 'auto') are valid for
                # every suite and are kept as the config wrote them.
                if spec.training.source == "scored":
                    spec = spec.with_value("training.source", "auto")
        else:
            # The built-in "tiny" scale is a default, not an explicit
            # flag, so the REPRO_* environment overlays it (and explicit
            # flags below overlay the environment).
            spec = DetectorSpec.default(
                target=getattr(args, "target", None),
                auxiliaries=_split_names(auxiliaries),
                defense=defense or "multi-asr", transforms=transforms,
                scale="tiny").with_env_overlay()
        for flag, dotted in _LEAF_FLAGS:
            value = getattr(args, flag, None)
            if value is not None:
                spec = spec.with_value(dotted, value)
        return spec
    except (InvalidSpecError, OSError) as exc:
        raise CliError(str(exc)) from exc
    except (KeyError, ValueError) as exc:
        # Unknown registry name (e.g. a mistyped transform spec).
        raise CliError(str(exc)) from exc


def _build_detector(args: argparse.Namespace, spec=None):
    from repro.build import build
    from repro.specs import InvalidSpecError

    if spec is None:
        spec = _detector_spec(args)
    try:
        return build(spec)
    except (InvalidSpecError, KeyError, ValueError) as exc:
        # A bad field, registry name or unreadable cache/config file is
        # user input, not a defect (json.JSONDecodeError is a ValueError).
        raise CliError(str(exc)) from exc


# ------------------------------------------------------------------- screen
def cmd_screen(args: argparse.Namespace) -> int:
    from repro.pipeline.detection import DetectionPipeline

    clips = _read_clips(args.wav)
    detector = _build_detector(args)
    pipeline = DetectionPipeline(detector)
    batch = pipeline.detect_batch(clips)
    _save_score_cache(detector)
    if args.json:
        print(json.dumps({
            "results": [
                {"file": path,
                 "is_adversarial": result.is_adversarial,
                 "target_transcription": result.target_transcription,
                 "scores": [float(s) for s in result.scores]}
                for path, result in zip(args.wav, batch.results)
            ],
            "stage_seconds": batch.stage_seconds,
            "cache_hits": batch.cache_hits,
            "cache_misses": batch.cache_misses,
        }, indent=2))
    else:
        for path, result in zip(args.wav, batch.results):
            verdict = "ADVERSARIAL" if result.is_adversarial else "benign"
            print(f"{verdict:<12} {path}  heard: "
                  f"{result.target_transcription!r}  min score "
                  f"{result.scores.min():.2f}")
        print(f"screened {len(batch)} clips in "
              f"{batch.stage_seconds['total']:.3f} s")
    return 1 if batch.n_adversarial else 0


# ------------------------------------------------------------------- stream
def cmd_stream(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.serving.streaming import StreamingDetector

    spec = _detector_spec(args)
    serving = spec.serving
    for flag, field in (("window", "window_seconds"), ("hop", "hop_seconds"),
                        ("trigger", "trigger_windows"),
                        ("release", "release_windows")):
        value = getattr(args, flag)
        if value is not None:
            serving = replace(serving, **{field: value})
    try:
        config = serving.stream_config()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    clip, = _read_clips([args.wav])
    detector = _build_detector(args, spec=spec)
    streaming = StreamingDetector(detector, config=config)
    result = streaming.detect_stream(clip)
    _save_score_cache(detector)
    if args.json:
        print(json.dumps({
            "file": args.wav,
            "is_adversarial": result.is_adversarial,
            "windows": [
                {"index": w.index, "start": w.start_seconds,
                 "end": w.end_seconds, "is_adversarial": w.is_adversarial,
                 "state": w.state,
                 "target_transcription": w.target_transcription}
                for w in result.windows
            ],
            "spans": [
                {"start": span.start_seconds, "end": span.end_seconds,
                 "n_windows": span.n_windows}
                for span in result.spans
            ],
            "stage_seconds": result.stage_seconds,
        }, indent=2))
    else:
        for w in result.windows:
            mark = "!" if w.is_adversarial else " "
            print(f"[{w.start_seconds:7.2f}s – {w.end_seconds:7.2f}s] {mark} "
                  f"{w.state:<11} heard: {w.target_transcription!r}")
        if result.spans:
            for span in result.spans:
                print(f"FLAGGED {span.start_seconds:.2f}s – "
                      f"{span.end_seconds:.2f}s ({span.n_windows} windows)")
        else:
            print("stream clean: no adversarial spans")
        print(f"{len(result)} windows in "
              f"{result.stage_seconds['total']:.3f} s")
    return 1 if result.is_adversarial else 0


# -------------------------------------------------------------------- serve
def _serve_clips(n_clips: int, seed: int):
    """``n_clips`` synthetic utterances sampled from the
    LibriSpeech-like corpus: the request workload ``serve`` drives."""
    from repro.asr.registry import get_shared_lexicon
    from repro.audio.synthesis import SpeechSynthesizer
    from repro.config import SAMPLE_RATE
    from repro.text.corpus import librispeech_like_corpus

    rng = np.random.default_rng(seed)
    sentences = librispeech_like_corpus().sample(n_clips, rng)
    synthesizer = SpeechSynthesizer(sample_rate=SAMPLE_RATE,
                                    lexicon=get_shared_lexicon(),
                                    seed=seed + 7)
    return [synthesizer.synthesize(sentence) for sentence in sentences]


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.service import DetectionService, load_manifest

    if args.requests < 1:
        raise CliError("--requests must be >= 1")
    if args.clips < 1:
        raise CliError("--clips must be >= 1")
    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read manifest: {exc}") from exc
    serving = dict(manifest.get("serving") or {})
    if args.workers is not None:
        serving["workers"] = args.workers
    if args.timeout is not None:
        serving["request_timeout_seconds"] = args.timeout
    manifest["serving"] = serving
    try:
        service = DetectionService.from_manifest(manifest)
    except Exception as exc:
        raise CliError(f"cannot build service: {exc}") from exc
    tenants = sorted(service.pipelines)
    if args.tenant is not None:
        if args.tenant not in service.pipelines:
            raise CliError(f"unknown tenant {args.tenant!r} "
                           f"(manifest has: {', '.join(tenants)})")
        tenants = [args.tenant]
    clips = _serve_clips(args.clips, args.seed)

    async def drive():
        return await asyncio.gather(*[
            service.asubmit(tenants[i % len(tenants)],
                            clips[i % len(clips)], request_id=f"r{i}")
            for i in range(args.requests)])

    with service:
        start = time.perf_counter()
        results = asyncio.run(drive())
        wall = time.perf_counter() - start
    stats = service.stats
    flagged = sum(1 for r in results if r.ok and r.is_adversarial)
    if args.json:
        for r in results:
            print(json.dumps({
                "request_id": r.request_id, "tenant": r.tenant,
                "status": r.status, "code": r.code,
                "is_adversarial": r.is_adversarial,
                "total_ms": round(1000 * r.total_seconds, 3)}))
        print(json.dumps({
            "requests": len(results), "wall_seconds": wall,
            "completed": stats.completed, "rejected": stats.rejected,
            "timeouts": stats.timeouts, "errors": stats.errors,
            "respawns": stats.respawns, "flagged": flagged}))
    else:
        for r in results:
            verdict = ("ADVERSARIAL" if r.is_adversarial else "benign") \
                if r.ok else f"{r.status.upper()} ({r.code}) {r.detail}"
            print(f"{r.request_id:>6}  {r.tenant:<12} {verdict:<32} "
                  f"{1000 * r.total_seconds:8.1f} ms")
        print(f"{len(results)} requests over {len(tenants)} tenant"
              f"{'s' if len(tenants) != 1 else ''} in {wall:.2f} s "
              f"({len(results) / wall:,.1f} req/s): "
              f"{stats.completed} ok, {stats.rejected} shed, "
              f"{stats.timeouts} timed out, {stats.errors} errors"
              + (f", {stats.respawns} respawns" if stats.respawns else ""))
    return 1 if flagged else 0


# ---------------------------------------------------------------- run/sweep
#: Exit status of ``repro run``/``repro sweep`` when the run stopped
#: before completing (``--max-shards`` budget exhausted): distinct from
#: success (0) and bad input (2), so CI can kill-and-resume deterministically.
EXIT_INCOMPLETE = 3


def _parse_param_overrides(pairs: list[str]) -> dict:
    """``--param key=value`` overrides; values parse as JSON when possible."""
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise CliError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw  # bare strings need no quoting
    return params


def _apply_experiment_flags(spec, args):
    """Overlay explicit ``repro run``/``sweep`` flags onto a spec (flags win)."""
    overlays = [("scale", args.scale), ("seed", args.seed),
                ("workers", args.workers),
                ("detector.classifier.name", args.classifier),
                ("detector.scoring.scorer", args.scorer)]
    for dotted, value in overlays:
        if value is not None:
            spec = spec.with_value(dotted, value)
    for key, value in _parse_param_overrides(args.param).items():
        spec = spec.with_value(f"params.{key}", value)
    return spec


def _spec_digest(payload: dict) -> str:
    """Short stable digest of a spec payload (sans execution-only knobs)."""
    import hashlib

    payload = dict(payload)
    payload.pop("workers", None)  # worker count never changes the result
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:10]


def _default_run_dir(kind: str, name: str, payload: dict) -> str:
    from repro.config import runs_dir
    import os

    return os.path.join(runs_dir(), f"{kind}-{name}-{_spec_digest(payload)}")


def _print_run_result(result, args) -> int:
    if not result.complete:
        remaining = result.total_units - result.resumed_units \
            - result.executed_units
        print(f"incomplete: {result.executed_units} shard(s) executed, "
              f"{result.resumed_units} resumed, {remaining} remaining "
              f"(rerun to resume: {result.run_dir})")
        return EXIT_INCOMPLETE
    if args.json:
        print(json.dumps({"title": result.table.name,
                          "rows": result.table.rows,
                          "run_dir": result.run_dir,
                          "executed_units": result.executed_units,
                          "resumed_units": result.resumed_units}, indent=2))
        return 0
    print(result.table.to_markdown())
    print(f"({result.executed_units} shard(s) executed, "
          f"{result.resumed_units} resumed; run directory: {result.run_dir})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import (
        RunSpecMismatch,
        RunStore,
        build_experiment,
        execute_experiment,
        experiment_names,
    )
    from repro.specs import ExperimentSpec, InvalidSpecError

    if args.experiment is None:
        names = experiment_names()
        if args.json:
            print(json.dumps(names, indent=2))
        else:
            print("available experiments:")
            for name in names:
                print(f"  {name}")
        return 0
    spec = ExperimentSpec(experiment=args.experiment,
                          scale="tiny").with_env_overlay()
    spec = _apply_experiment_flags(spec, args)
    try:
        spec.validate()
    except InvalidSpecError as exc:
        raise CliError(str(exc)) from exc
    run_dir = args.run_dir or _default_run_dir("run", spec.experiment,
                                               spec.to_dict())
    try:
        result = execute_experiment(build_experiment(spec),
                                    store=RunStore(run_dir),
                                    max_shards=args.max_shards)
    except RunSpecMismatch as exc:
        raise CliError(str(exc)) from exc
    return _print_run_result(result, args)


def cmd_sweep(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments import RunSpecMismatch
    from repro.experiments.sweep import run_sweep
    from repro.specs import InvalidSpecError, SweepSpec

    try:
        sweep = SweepSpec.from_json(args.grid).with_env_overlay()
        sweep = replace(sweep, base=_apply_experiment_flags(sweep.base, args))
        sweep.validate()
    except InvalidSpecError as exc:
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot read {args.grid!r}: {exc}") from exc
    name = sweep.name or sweep.base.experiment
    run_dir = args.run_dir or _default_run_dir("sweep", name, sweep.to_dict())
    try:
        result = run_sweep(sweep, run_dir, workers=args.workers,
                           max_shards=args.max_shards)
    except RunSpecMismatch as exc:
        raise CliError(str(exc)) from exc
    if not result.complete:
        print(f"incomplete: {result.completed_points}/{result.total_points} "
              f"points done, {result.executed_units} shard(s) executed, "
              f"{result.resumed_units} resumed "
              f"(rerun to resume: {result.run_dir})")
        return EXIT_INCOMPLETE
    if args.json:
        print(json.dumps(result.report, indent=2))
        return 0
    import os
    with open(os.path.join(result.run_dir, "report.md"),
              encoding="utf-8") as handle:
        print(handle.read())
    print(f"({result.total_points} point(s), {result.executed_units} "
          f"shard(s) executed, {result.resumed_units} resumed; "
          f"run directory: {result.run_dir})")
    return 0


# ------------------------------------------------------------------- config
def _validate_config_file(path: str) -> list[str]:
    """Schema-check one config file by its top-level shape.

    A JSON object with a ``"tenants"`` key is a serve manifest (see
    ``repro serve``): every tenant spec — inline or referenced by a
    relative path — is validated, as is the serving overlay.  An object
    with an ``"experiment"`` key is an :class:`~repro.specs.ExperimentSpec`
    (plus a ``"grid"`` key: a :class:`~repro.specs.SweepSpec` for
    ``repro sweep``).  Anything else is a plain DetectorSpec.

    Returns non-failing warnings: suite members that name registered
    optional backends whose dependencies are missing here.  The config
    is valid (the names resolve) but *building* it in this environment
    would fail with the install hint, which the user should learn at
    validation time, not at run time.
    """
    import json

    from repro.backends.registry import suite_warnings
    from repro.serving.service import load_manifest
    from repro.specs import (
        DetectorSpec,
        ExperimentSpec,
        InvalidSpecError,
        ServingSpec,
        SweepSpec,
    )

    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if isinstance(raw, dict) and "experiment" in raw:
        if "grid" in raw or "name" in raw:
            spec = SweepSpec.from_json(path)
            spec.validate()
            return suite_warnings(spec.base.detector.suite)
        spec = ExperimentSpec.from_json(path)
        spec.validate()
        return suite_warnings(spec.detector.suite)
    if not (isinstance(raw, dict) and "tenants" in raw):
        spec = DetectorSpec.from_json(path)
        spec.validate()
        return suite_warnings(spec.suite)
    manifest = load_manifest(path)
    if not manifest["tenants"]:
        raise ValueError("serve manifest declares no tenants")
    warnings: list[str] = []
    for tenant, entry in manifest["tenants"].items():
        if entry is None:
            continue  # tenant uses the default spec
        if isinstance(entry, str):
            spec = DetectorSpec.from_json(entry)
        else:
            spec = DetectorSpec.from_dict(entry)
        try:
            spec.validate()
        except InvalidSpecError as exc:
            raise InvalidSpecError(
                [f"tenant {tenant!r}: {problem}"
                 for problem in exc.problems]) from exc
        warnings.extend(f"tenant {tenant!r}: {warning}"
                        for warning in suite_warnings(spec.suite))
    overlay = manifest.get("serving") or {}
    serving = ServingSpec.from_dict({**ServingSpec().to_dict(), **overlay})
    problems = serving.problems("serving")
    if problems:
        raise InvalidSpecError(problems)
    return warnings


def cmd_backends(args: argparse.Namespace) -> int:
    import json

    from repro.backends import backend_names, backend_status

    statuses = [backend_status(name) for name in backend_names()]
    if args.json:
        print(json.dumps({"backends": statuses}, indent=2))
        return 0
    for status in statuses:
        state = ("available" if status["available"]
                 else "missing: " + ", ".join(status["missing"]))
        print(f"{status['name']:<16} {state:<28} "
              f"{status['fingerprint']:<14} {status['description']}")
        if not status["available"]:
            print(f"{'':<16} install with: {status['install_hint']}")
    print()
    print("generated family: sim-00, sim-01, ... (always available; "
          "see docs/BACKENDS.md)")
    return 0


def cmd_config(args: argparse.Namespace) -> int:
    from repro.specs import DetectorSpec, InvalidSpecError

    if args.config_command == "show":
        from repro.backends.registry import suite_warnings

        spec = _detector_spec(args)
        try:
            # The output is advertised as ready to save; a flag typo must
            # fail here, not after the user reuses the printed config.
            spec.validate()
        except InvalidSpecError as exc:
            raise CliError(str(exc)) from exc
        print(spec.to_json(), end="")
        # Warnings go to stderr: stdout stays a clean, saveable config.
        for warning in suite_warnings(spec.suite):
            print(f"{PROG}: warning: {warning}", file=sys.stderr)
        return 0
    if args.config_command == "validate":
        failures = 0
        for path in args.path:
            try:
                warnings = _validate_config_file(path)
            except (InvalidSpecError, OSError, ValueError) as exc:
                failures += 1
                print(f"FAIL {path}: {exc}")
            else:
                print(f"ok   {path}")
                for warning in warnings:
                    print(f"warn {path}: {warning}")
        if failures:
            raise CliError(f"{failures} invalid config file"
                           f"{'s' if failures != 1 else ''}")
        return 0
    print("usage: repro config {show,validate} (see repro config --help)")
    return 0


# --------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    handlers = {"screen": cmd_screen, "stream": cmd_stream,
                "serve": cmd_serve, "run": cmd_run, "sweep": cmd_sweep,
                "backends": cmd_backends, "config": cmd_config}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        # Bad inputs are reported briefly; genuine defects still traceback.
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
