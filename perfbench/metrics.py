"""Metric helpers: machine counters and the per-layer metric groups.

Every traced run reports every per-layer metric; a workload fills the
groups it exercises and the rest read zero (see ``layers.json`` for which
workload each metric belongs to).
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from spans import SpanSummary


def percentile(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def ms(seconds: float) -> float:
    return seconds * 1000.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------- machine counters
def _live_children() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def peak_rss_mb() -> float:
    """Peak RSS (VmHWM) of this process plus its live children, in MB."""
    total_kb = 0
    for pid in ["self", *map(str, _live_children())]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_seconds() -> float:
    """CPU seconds used so far by this process and its live children."""
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for pid in _live_children():
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / tick  # utime, stime
    return total


def cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs so far, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to other guests since
    ``before``; wall-clock numbers inflate with it."""
    after = cpu_jiffies()
    return ratio(after[0] - before[0], after[1] - before[1])


# ------------------------------------------------------- per-layer groups
def detection_layers(summary: SpanSummary, clips: int,
                     feature_delta=(0, 0)) -> dict:
    """Per-clip layer metrics of a traced detection window."""
    self_s, calls = summary.self_seconds, summary.calls
    per_clip = lambda value: ratio(value, clips)  # noqa: E731
    self_ms = lambda name: ms(per_clip(self_s[name]))  # noqa: E731
    return {
        "pipeline.engine.recognition_ms":
            (ms(per_clip(summary.total_seconds["pipeline.engine"])), "ms"),
        "pipeline.engine.self_ms": (self_ms("pipeline.engine"), "ms"),
        "pipeline.cache.key_calls_per_clip":
            (per_clip(calls["pipeline.cache.key"]), "count"),
        "pipeline.cache.key_ms_per_clip":
            (self_ms("pipeline.cache.key"), "ms"),
        "pipeline.cache.get_ms_per_clip":
            (self_ms("pipeline.cache.get"), "ms"),
        "pipeline.cache.put_ms_per_clip":
            (self_ms("pipeline.cache.put"), "ms"),
        "pipeline.cache.hit_ratio":
            (ratio(summary.attr_sum("pipeline.cache.get", "hit"),
                   calls["pipeline.cache.get"]), "ratio"),
        "dsp.front_end_ms_per_clip": (self_ms("dsp.front_end"), "ms"),
        "dsp.front_end_calls_per_clip":
            (per_clip(calls["dsp.front_end"]), "count"),
        "dsp.feature_cache.hit_ratio":
            (ratio(feature_delta[0], feature_delta[1]), "ratio"),
        "asr.acoustic.ms_per_clip": (self_ms("asr.acoustic"), "ms"),
        "asr.acoustic.calls_per_clip":
            (per_clip(calls["asr.acoustic"]), "count"),
        "asr.decoder.decode_ms_per_clip":
            (self_ms("asr.decoder.decode"), "ms"),
        "asr.decoder.frame_labels_ms_per_clip":
            (self_ms("asr.decoder.frame_labels"), "ms"),
        "similarity.ms_per_clip": (self_ms("similarity"), "ms"),
        "similarity.score_cache.hit_ratio":
            (ratio(summary.attr_sum("similarity", "hits"),
                   summary.attr_sum("similarity", "lookups")), "ratio"),
        "ml.classify_ms_per_clip": (self_ms("ml.classify"), "ms"),
        "core.detector.self_ms": (self_ms("core.detector"), "ms"),
    }


def serving_layers(phase=None, stats=None, late_ms_max: float = 0.0) -> dict:
    """serving.* metrics from one phase's ServeResults and the run's
    ServiceStats (zeros for workloads that do not serve)."""
    queue = phase["queue_s"] if phase else []
    worker = phase["worker_s"] if phase else []
    count = lambda name: getattr(stats, name) if stats else 0  # noqa: E731
    dispatched = count("submitted") - count("rejected")
    return {
        "serving.queue_ms_p50": (ms(percentile(queue, 50)), "ms"),
        "serving.queue_ms_p90": (ms(percentile(queue, 90)), "ms"),
        "serving.worker_ms_p50": (ms(percentile(worker, 50)), "ms"),
        "serving.worker_ms_p90": (ms(percentile(worker, 90)), "ms"),
        "serving.ipc_bytes_out_per_req":
            (ratio(count("ipc_bytes_out"), dispatched), "bytes"),
        "serving.ipc_bytes_in_per_req":
            (ratio(count("ipc_bytes_in"), dispatched), "bytes"),
        "serving.rejected": (count("rejected"), "count"),
        "serving.timeouts": (count("timeouts"), "count"),
        "serving.errors": (count("errors"), "count"),
        "serving.retries": (count("retries"), "count"),
        "serving.respawns": (count("respawns"), "count"),
        "serving.generator_late_ms_max": (late_ms_max, "ms"),
        "serving.backlog_end":
            (phase["backlog_end"] if phase else 0, "count"),
    }


def attack_layers(summary: SpanSummary | None = None,
                  kept: dict | None = None) -> dict:
    """attacks.* and datasets.* metrics of a traced craft window."""
    summary = summary or SpanSummary([])
    kept = kept or {"whitebox": 0, "blackbox": 0}
    wb_s = summary.total_seconds["attacks.whitebox"]
    bb_s = summary.total_seconds["attacks.blackbox"]
    iterations = summary.calls_under("asr.acoustic.margin",
                                     "attacks.whitebox")
    queries = summary.calls_under("asr.acoustic", "attacks.blackbox")
    runs = (summary.calls["attacks.whitebox"]
            + summary.calls["attacks.blackbox"])
    wb, bb = kept["whitebox"], kept["blackbox"]
    return {
        "attacks.whitebox.s_per_ae": (ratio(wb_s, wb), "s"),
        "attacks.whitebox.iterations_per_ae":
            (ratio(iterations, wb), "count"),
        "attacks.whitebox.ms_per_iteration":
            (ms(ratio(wb_s, iterations)), "ms"),
        "attacks.blackbox.s_per_ae": (ratio(bb_s, bb), "s"),
        "attacks.blackbox.generations_per_ae":
            (ratio(summary.attr_sum("attacks.blackbox", "iterations"), bb),
             "count"),
        "attacks.blackbox.queries_per_ae": (ratio(queries, bb), "count"),
        "attacks.blackbox.ms_per_query": (ms(ratio(bb_s, queries)), "ms"),
        "datasets.builder.success_ratio": (ratio(wb + bb, runs), "ratio"),
    }


def all_layers(detection=None, serving=None, attacks=None,
               overhead_ms: float = 0.0) -> dict:
    """Every per-layer metric, with zeros for the groups not given."""
    return {
        **(detection or detection_layers(SpanSummary([]), 0)),
        **(serving or serving_layers()),
        **(attacks or attack_layers()),
        "bench.trace_overhead_ms_per_op": (overhead_ms, "ms"),
    }
