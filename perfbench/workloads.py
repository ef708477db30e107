"""The four workloads.

Each workload takes ``(system, seed, seconds, trace)`` and returns an
:class:`Outcome`.  With ``trace`` off it measures the end-to-end metrics
with nothing wrapped.  With ``trace`` on it measures the first half of
its budget untraced and the second half traced, reports every per-layer
metric from the traced half, and the tracing overhead as traced minus
untraced mean time per operation.

The gated end-to-end metrics are the ones that stay steady on a shared
2-vCPU virtual machine: CPU time per operation, peak RSS and set-up
time.  Wall-clock latencies and rates move with the CPU time the
hypervisor steals (1-25 % of it during development, most when a
workload keeps waking idle vCPUs), so they are reported alongside,
with the run's steal share, but not gated.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

import metrics as m
from gate import detection_digest, require_equal, served_digest
from inputs import (STREAM_CRAFT, STREAM_HOT, STREAM_SERVE,
                    STREAM_UNIQUE, STREAM_WARMUP, ClipStream,
                    clip_properties, content_digest, poisson_schedule)
from spans import AttackProbe, TimeUp, Tracer
from system import TENANT

#: Closed-loop runs time at least this many clips, so at least ten
#: samples lie beyond the reported p90.
MIN_CLOSED_LOOP_CLIPS = 100
#: detect-replay's hot set: small enough to stay resident in every cache.
HOT_SET = 16
#: Distinct clips detect-unique sends before timing.  The word decoder
#: memoises its lexicon searches, so a fresh process's first clips run
#: up to 40 % slower; these fill the memo without touching the
#: transcription-cache entries of the measured clips.
WARMUP_CLIPS = 40
#: Clips of detect-unique re-detected on the paper-faithful reference path.
REFERENCE_CHECKS = 8
#: Served clips re-detected in process for the serve-open gate.
SERVE_CHECKS = 16
#: serve-open's offered rates (req/s) and each one's share of the run, in
#: the order they run; together they are the serve_max_rps ladder.  The
#: gated CPU cost is taken at 4 req/s, below the knee: that phase gets the
#: largest share and runs last, once the other phases have warmed the
#: workers' decoder memos.
SERVE_PHASES = ((8.0, 0.2), (12.0, 0.2), (4.0, 0.6))
GATED_RATE = 4.0
#: Requests queued at once to measure the pool's capacity.
SERVE_BURST = 32
#: serve_max_rps's limit on p90 latency.
SERVE_P90_LIMIT_MS = 500.0
#: A phase's backlog "grows" when its least-squares slope exceeds this
#: share of the offered rate.
BACKLOG_GROWTH_SHARE = 0.1
#: A builder call takes 1 to 40 s (it retries until an attack succeeds);
#: a traced craft phase waiting for its first AE is cut here, which keeps
#: a traced run well inside three minutes.
TRACED_PHASE_CAP_S = 60.0
#: However short a craft phase, it makes this many queries, so the median
#: cost per query is never taken over fewer.
MIN_PHASE_QUERIES = 10


@dataclass
class Outcome:
    """What a workload measured.

    ``end_to_end`` (gated), ``reported`` (printed, not gated) and
    ``per_layer`` map a metric name to ``(value, unit)``; ``details``
    holds the run's input properties.
    """

    attempted: int
    failed: int
    end_to_end: dict = field(default_factory=dict)
    reported: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _traced(detector, body):
    """Run ``body()`` with every layer wrapped.

    Returns ``(value, span summary, feature-cache (hits, lookups) during
    the call)``.
    """
    before = detector.engine.feature_stats
    with Tracer(type(detector.classifier)) as tracer:
        value = body()
    after = detector.engine.feature_stats
    return value, tracer.summary(), (after.hits - before.hits,
                                     after.lookups - before.lookups)


# ------------------------------------------------------ closed-loop detect
@dataclass
class Loop:
    """Per clip of a closed-loop window: wall and CPU seconds of its
    ``detect``, result digest, stream index, sentence, content digest."""

    latencies: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    contents: list = field(default_factory=list)

    def extend(self, other: "Loop") -> "Loop":
        for name in self.__dataclass_fields__:
            getattr(self, name).extend(getattr(other, name))
        return self


def _closed_loop(detector, clip_at, start: int, seconds: float,
                 min_clips: int) -> Loop:
    """Detect ``clip_at(i)`` for i = start, start+1, ... until both the
    busy time reaches ``seconds`` and ``min_clips`` clips are done.

    ``clip_at`` returns ``(waveform, content digest)``.  One clip is in
    flight at a time, so the engine's pool works for that clip only.
    Only ``detect`` is timed.
    """
    loop = Loop()
    index, busy = start, 0.0
    while busy < seconds or len(loop.latencies) < min_clips:
        clip, content = clip_at(index)
        cpu = time.process_time()
        began = time.perf_counter()
        result = detector.detect(clip)
        loop.latencies.append(time.perf_counter() - began)
        busy += loop.latencies[-1]
        loop.cpu.append(time.process_time() - cpu)
        loop.digests.append(detection_digest(result))
        loop.indices.append(index)
        loop.texts.append(clip.text)
        loop.contents.append(content)
        index += 1
    return loop


def _measure_detection(detector, clip_at, seconds: float,
                       trace: bool) -> tuple[Loop, Outcome]:
    """The closed-loop measurement both detection workloads share."""
    if trace:
        half = seconds / 2.0
        loop = _closed_loop(detector, clip_at, 0, half, 10)
        traced, summary, features = _traced(detector, lambda: _closed_loop(
            detector, clip_at, len(loop.latencies), half, 10))
        overhead = m.ms(np.mean(traced.latencies) - np.mean(loop.latencies))
        outcome = Outcome(0, 0, per_layer=m.all_layers(
            detection=m.detection_layers(summary, len(traced.latencies),
                                         features),
            overhead_ms=overhead), spans=summary.spans)
        loop.extend(traced)
    else:
        steal = m.cpu_jiffies()
        loop = _closed_loop(detector, clip_at, 0, seconds,
                            MIN_CLOSED_LOOP_CLIPS)
        outcome = Outcome(0, 0, details={
            "cpu_steal_share": m.steal_share(steal)}, end_to_end={
            "cpu_ms_per_op": (m.ms(np.mean(loop.cpu)), "ms"),
        }, reported={
            "latency_p50_ms": (m.ms(m.percentile(loop.latencies, 50)), "ms"),
            "latency_p90_ms": (m.ms(m.percentile(loop.latencies, 90)), "ms"),
            "clips_per_s": (len(loop.latencies) / sum(loop.latencies),
                            "clips/s"),
        })
    outcome.attempted = len(loop.latencies)
    outcome.details.update(clip_properties(loop.texts, loop.contents))
    return loop, outcome


def detect_unique(system, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop over clips that are all distinct: the cold path."""
    detector = system.detector
    warmup = ClipStream(seed, STREAM_WARMUP)
    for index in range(WARMUP_CLIPS):
        detector.detect(warmup.clip(index))
    stream = ClipStream(seed, STREAM_UNIQUE)

    def clip_at(index):
        clip = stream.clip(index)
        return clip, content_digest(clip)

    loop, outcome = _measure_detection(detector, clip_at, seconds, trace)
    # Gate: an evenly spread sample re-detected on the paper-faithful
    # reference path (sequential, no caches, per-member front ends).
    n = len(loop.indices)
    picks = np.linspace(0, n - 1, min(REFERENCE_CHECKS, n)).astype(int)
    reference = system.reference_detector()
    require_equal("detect-unique vs the reference path",
                  [detection_digest(reference.detect(
                      stream.clip(loop.indices[p]))) for p in picks],
                  [loop.digests[p] for p in picks])
    outcome.details.update(warmup_clips=WARMUP_CLIPS, cache="cold")
    return outcome


def detect_replay(system, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop over a small hot set, every clip seen before timing."""
    detector = system.detector
    hot = [(clip, content_digest(clip))
           for clip in ClipStream(seed, STREAM_HOT).clips(0, HOT_SET)]
    cold = [detection_digest(detector.detect(clip)) for clip, _ in hot]
    draws = np.random.default_rng((seed, STREAM_HOT)).integers(
        0, HOT_SET, size=1 << 20)
    before = detector.engine.stats.hits, detector.engine.stats.lookups
    loop, outcome = _measure_detection(
        detector, lambda i: hot[draws[i]], seconds, trace)
    hits = detector.engine.stats.hits - before[0]
    lookups = detector.engine.stats.lookups - before[1]
    require_equal("detect-replay vs its cold pass",
                  [cold[draws[i]] for i in loop.indices], loop.digests)
    outcome.details.update(hot_set=HOT_SET, cache="warm",
                           hit_ratio=m.ratio(hits, lookups))
    return outcome


# ---------------------------------------------------------------- serving
def _run_phase(service, clips, schedule: np.ndarray, rate: float,
               seconds: float) -> dict:
    """Submit ``clips`` open-loop at ``schedule`` offsets; wait for all.

    Latency runs from each request's due time, so a late generator or a
    stalled submit counts against the service, not in its favour.
    """
    n = len(schedule)
    done_at = [0.0] * n
    resolved = [0]
    lock = threading.Lock()
    finished = threading.Event()
    if not n:
        finished.set()

    def on_done(index):
        def callback(_future):
            stamp = time.monotonic()
            with lock:
                done_at[index] = stamp
                resolved[0] += 1
                if resolved[0] == n:
                    finished.set()
        return callback

    futures, due, late, backlog = [], [], [], []
    cpu = m.tree_cpu_seconds()
    start = time.monotonic() + 0.05
    for index, offset in enumerate(schedule):
        when = start + offset
        pause = when - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        sent = time.monotonic()
        future = service.submit(TENANT, clips[index])
        future.add_done_callback(on_done(index))
        futures.append(future)
        due.append(when)
        late.append(sent - when)
        with lock:
            backlog.append((sent - start, index + 1 - resolved[0]))
    pause = start + seconds - time.monotonic()
    if pause > 0:
        time.sleep(pause)
    with lock:
        backlog_end = n - resolved[0]
    results = [future.result(timeout=120.0) for future in futures]
    finished.wait(timeout=10.0)
    cpu = m.tree_cpu_seconds() - cpu
    ok = [result.ok for result in results]
    latency = [done_at[i] - due[i] for i in range(n) if ok[i]]
    slope = (float(np.polyfit([t for t, _ in backlog],
                              [d for _, d in backlog], 1)[0])
             if n >= 3 else 0.0)
    p90 = m.ms(m.percentile(latency, 90))
    failed = n - sum(ok)
    return {
        "rate": rate, "requests": n, "failed": failed,
        "offered_rps": n / seconds,
        "achieved_rps": m.ratio(sum(ok), max(done_at, default=start) - start),
        "p50_ms": m.ms(m.percentile(latency, 50)), "p90_ms": p90,
        "cpu_ms_per_req": m.ms(m.ratio(cpu, n)),
        "generator_late_ms_max": m.ms(max(late, default=0.0)),
        "backlog_end": backlog_end, "backlog_slope": slope,
        "meets_limit": (p90 <= SERVE_P90_LIMIT_MS and not failed
                        and slope <= BACKLOG_GROWTH_SHARE * rate),
        "queue_s": [r.queue_seconds for r in results if r.ok],
        "worker_s": [r.total_seconds - r.queue_seconds
                     for r in results if r.ok],
        "results": results,
    }


def _burst(service, clips) -> dict:
    """Queue every clip at once; completions per second is the capacity."""
    start = time.monotonic()
    futures = [service.submit(TENANT, clip) for clip in clips]
    results = [future.result(timeout=120.0) for future in futures]
    ok = sum(result.ok for result in results)
    return {"requests": len(clips), "failed": len(clips) - ok,
            "capacity_rps": ok / (time.monotonic() - start),
            "results": results}


def _max_rate(ladder) -> float:
    """Highest offered rate meeting the limit, interpolated on p90.

    Past the last rung that meets the limit, the rate is interpolated
    linearly to where p90 crosses the limit on the way to the next rung;
    a next rung that fails for failures or a growing backlog with p90
    still under the limit stops the search at the rung below.
    """
    best = 0.0
    for low, high in zip(ladder, [*ladder[1:], None]):
        if not low["meets_limit"]:
            break
        best = low["rate"]
        if high is None or high["meets_limit"]:
            continue
        if high["p90_ms"] > SERVE_P90_LIMIT_MS > low["p90_ms"]:
            share = ((SERVE_P90_LIMIT_MS - low["p90_ms"])
                     / (high["p90_ms"] - low["p90_ms"]))
            best = low["rate"] + share * (high["rate"] - low["rate"])
        break
    return best


def serve_open(system, seed: int, seconds: float, trace: bool) -> Outcome:
    """Open-loop Poisson arrivals at fixed rates into the worker pool,
    then one burst that measures the pool's capacity."""
    service = system.service
    stream = ClipStream(seed, STREAM_SERVE)
    schedules = [poisson_schedule(seed, phase, rate, seconds * share)
                 for phase, (rate, share) in enumerate(SERVE_PHASES)]
    clips, first = [], 0
    for count in [len(schedule) for schedule in schedules] + [SERVE_BURST]:
        clips.append(stream.clips(first, count))
        first += count
    steal = m.cpu_jiffies()
    phases = [_run_phase(service, phase_clips, schedule, rate,
                         seconds * share)
              for (rate, share), schedule, phase_clips
              in zip(SERVE_PHASES, schedules, clips)]
    burst = _burst(service, clips[-1])
    steal = m.steal_share(steal)
    rss = m.peak_rss_mb()
    stats = service.stats.snapshot()
    system.stop_service()

    # Gate: a seeded sample of ok results re-detected in process.
    served = [(clip, result)
              for phase_clips, phase in zip(clips, [*phases, burst])
              for clip, result in zip(phase_clips, phase["results"])
              if result.ok]
    rng = np.random.default_rng((seed, STREAM_SERVE))
    expected, actual = [], []
    for k in sorted(rng.permutation(len(served))[:SERVE_CHECKS]):
        clip, result = served[k]
        local = system.detector.detect(clip)
        expected.append(served_digest(local.is_adversarial, local.scores,
                                      local.target_transcription))
        actual.append(served_digest(result.is_adversarial, result.scores,
                                    result.target_transcription))
    require_equal("serve-open vs in-process detect()", expected, actual)

    by_rate = {phase["rate"]: phase for phase in phases}
    light = by_rate[GATED_RATE]
    outcome = Outcome(
        attempted=sum(phase["requests"] for phase in [*phases, burst]),
        failed=sum(phase["failed"] for phase in [*phases, burst]))
    outcome.details = {
        **clip_properties([c.text for cs in clips for c in cs],
                          [content_digest(c) for cs in clips for c in cs]),
        "arrivals": "poisson, open loop", "burst": SERVE_BURST,
        "cache": "cold", "transport": "shm", "cpu_steal_share": steal,
        "phases": [{key: value for key, value in phase.items()
                    if key not in ("queue_s", "worker_s", "results")}
                   for phase in phases],
    }
    if trace:
        outcome.per_layer = m.all_layers(serving=m.serving_layers(
            light, stats,
            max(phase["generator_late_ms_max"] for phase in phases)))
        return outcome
    outcome.end_to_end = {
        "cpu_ms_per_op": (light["cpu_ms_per_req"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome.reported = {
        "serve_p50_ms.4rps": (light["p50_ms"], "ms"),
        "serve_p90_ms.4rps": (light["p90_ms"], "ms"),
        "serve_p50_ms.8rps": (by_rate[8.0]["p50_ms"], "ms"),
        "serve_p90_ms.8rps": (by_rate[8.0]["p90_ms"], "ms"),
        "serve_max_rps": (_max_rate([by_rate[r] for r in sorted(by_rate)]),
                          "req/s"),
        "capacity_rps": (burst["capacity_rps"], "req/s"),
    }
    return outcome


# --------------------------------------------------------------- crafting
def _craft_phase(kind: str, seeds, seconds: float, whole_calls: bool,
                 aes: list, errors: list) -> dict:
    """Call one builder, one AE per call, for ``seconds``.

    Measured phases end at the first target-model query after the time
    is up, cutting the builder call in progress short.  Traced phases
    (``whole_calls``) instead finish that call and run on until they
    kept an AE, so their attack spans are complete; only past
    :data:`TRACED_PHASE_CAP_S` are they cut.  A call that raises is a
    failed operation, recorded in ``errors``.
    """
    from repro.datasets import builder as builders
    build = getattr(builders, f"build_{kind}_dataset")
    kept = calls = 0
    cpu, wall = time.process_time(), time.perf_counter()
    deadline = wall + seconds
    cut = wall + (TRACED_PHASE_CAP_S if whole_calls else seconds)
    over = lambda: time.perf_counter() >= deadline  # noqa: E731
    probe = AttackProbe(lambda: (probe.queries >= MIN_PHASE_QUERIES
                                 and time.perf_counter() >= cut))
    with probe:
        while not (over() and (kept or not whole_calls)):
            call_seed = int(seeds[calls])
            calls += 1
            try:
                crafted = build(1, seed=call_seed)
            except TimeUp:
                break
            except Exception as exc:  # an attack that raised is a failure
                errors.append(f"{kind} seed {call_seed}: "
                              f"{type(exc).__name__}: {exc}")
                continue
            kept += len(crafted)
            aes.extend(sample.waveform for sample in crafted)
    # The median CPU between consecutive queries: the attack's steady
    # per-query cost, unmoved by the occasional host synthesis, alignment
    # or segment rendering between attack runs.
    gaps = np.diff(probe.cpu_at)
    return {"kind": kind, "calls": calls, "aes": kept,
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu, "queries": probe.queries,
            "cpu_ms_per_query": m.ms(m.percentile(gaps, 50))}


def _craft(seeds, seconds: float, whole_calls: bool, aes: list,
           errors: list) -> list[dict]:
    """A white-box phase, then a black-box phase, of ``seconds / 2`` each;
    ``seeds`` holds one row of builder seeds per kind."""
    return [_craft_phase(kind, kind_seeds, seconds / 2, whole_calls, aes,
                         errors)
            for kind, kind_seeds in zip(("whitebox", "blackbox"), seeds)]


def _per_query_ms(phases) -> float:
    """Mean wall time per query over ``phases``."""
    return m.ms(m.ratio(sum(p["wall_s"] for p in phases),
                        sum(p["queries"] for p in phases)))


def craft_aes(system, seed: int, seconds: float, trace: bool) -> Outcome:
    """White-box then black-box AE crafting against DS0 via the builders.

    Each kind gets half the budget.  Work is counted in target-model
    queries, so runs whose seeds draw easy or hard commands compare: how
    many AEs a run keeps depends mostly on its seeds.  The gated cost is
    the black-box attack's, the query-based one; the white-box cost is
    reported beside it.  A traced run repeats
    both phases traced, each kind until it kept an AE, so the per-AE
    attack metrics always have a denominator.
    """
    # Builder seeds: [measured, traced] x [white-box, black-box] x calls.
    seeds = np.random.default_rng((seed, STREAM_CRAFT)).integers(
        0, 1 << 30, size=(2, 2, 1024))
    aes, errors = [], []
    outcome = Outcome(0, 0)
    steal = m.cpu_jiffies()
    phases = _craft(seeds[0], seconds, False, aes, errors)
    outcome.details["cpu_steal_share"] = m.steal_share(steal)
    if trace:
        traced_aes: list = []
        traced, summary, _ = _traced(system.detector, lambda: _craft(
            seeds[1], seconds, True, traced_aes, errors))
        aes.extend(traced_aes)
        kept = {p["kind"]: p["aes"] for p in traced}
        outcome.per_layer = m.all_layers(
            attacks=m.attack_layers(summary, kept),
            overhead_ms=_per_query_ms(traced) - _per_query_ms(phases))
        outcome.spans = summary.spans
        phases += traced
    else:
        whitebox, blackbox = phases
        outcome.end_to_end["cpu_ms_per_op"] = (
            blackbox["cpu_ms_per_query"], "ms")
        outcome.reported = {
            "whitebox_cpu_ms_per_query": (whitebox["cpu_ms_per_query"],
                                          "ms"),
            "whitebox_ms_per_query": (_per_query_ms([whitebox]), "ms"),
            "blackbox_ms_per_query": (_per_query_ms([blackbox]), "ms"),
        }

    # Gate: every AE must fool a freshly built DS0 into its command.
    from repro.asr.registry import build_fresh_asr
    fresh = build_fresh_asr("DS0")
    require_equal("craft-aes: a fresh DS0 hears each command",
                  [wave.metadata["target_text"] for wave in aes],
                  [fresh.transcribe(wave).text for wave in aes])
    outcome.attempted = sum(p["calls"] for p in phases)
    outcome.failed = len(errors)
    outcome.reported["aes_per_min"] = (
        len(aes) / sum(p["wall_s"] for p in phases) * 60.0, "AE/min")
    outcome.details.update({"phases": phases, "errors": errors})
    return outcome


WORKLOADS = {
    "detect-unique": detect_unique,
    "detect-replay": detect_replay,
    "serve-open": serve_open,
    "craft-aes": craft_aes,
}


def finish(outcome: Outcome, trace: bool) -> Outcome:
    """Add what every workload reports the same way."""
    if not trace:
        outcome.end_to_end.setdefault("peak_rss_mb",
                                      (m.peak_rss_mb(), "MB"))
    outcome.reported["failed_share"] = (
        m.ratio(outcome.failed, outcome.attempted), "ratio")
    return outcome
