"""The repo benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detect-unique --seed 1 \\
        --seconds 18 --trace 0

``--workload all`` runs the four workloads one after another, each in a
fresh process, and prints each one's report.

Workloads are listed, with why each exists, in ``BENCHMARK.json``;
``perfbench/layers.json`` maps every per-layer metric to the end-to-end
metric and workload it should move.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` is a separate run
that wraps the library's layer calls and reports the per-layer metrics.

Each run is hermetic: every ``REPRO_*`` variable is dropped, and the
library's dataset cache is a fresh directory under ``perfbench/.work``
holding only the tracked ``tiny`` scored dataset.  The set-up time is the
median of the run's own set-up and two fresh set-up probe processes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A mismatch in
the correctness gate, or a repository without ``src/repro``, exits
non-zero without printing it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: The tracked scored dataset the classifier is fitted from.
SCORED_GLOB = os.path.join(ROOT, ".repro_cache", "scored_tiny_200_*.json")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
#: Building the scored dataset from source takes about 90 s on 2 CPUs.
BUILD_TIMEOUT_S = 800
#: How long the final sweep waits for leftover processes to end.
REAP_TIMEOUT_S = 10.0
#: prctl option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36
WORKLOAD_NAMES = ("detect-unique", "detect-replay", "serve-open",
                  "craft-aes")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    """Every workload in turn, each in its own fresh process."""
    failed = []
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        if done.returncode:
            failed.append(name)
    if failed:
        print(f"perfbench: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _scored_dataset() -> list[str]:
    """The tracked ``tiny`` scored dataset.

    A checkout without it builds it from source once, into
    ``perfbench/.work/scored``, where later runs find it.
    """
    tracked = glob.glob(SCORED_GLOB)
    if tracked:
        return tracked
    built = os.path.join(BENCH_DIR, ".work", "scored")
    pattern = os.path.join(built, os.path.basename(SCORED_GLOB))
    if not glob.glob(pattern):
        env = dict(os.environ, REPRO_CACHE_DIR=built, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-c", "from repro.datasets.scores import "
             "load_scored_dataset; load_scored_dataset('tiny')"],
            env=env, cwd=ROOT, timeout=BUILD_TIMEOUT_S, check=False)
    found = glob.glob(pattern)
    if not found:
        raise SetupError(f"no scored dataset matches {SCORED_GLOB} and "
                         f"building one failed")
    return found


def _hermetic_env() -> str:
    """Drop every REPRO_* variable and point the caches at a fresh
    directory holding only the tracked scored dataset; returns it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no library sources under {SRC}")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    scored = _scored_dataset()
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BENCH_DIR,
                                                            ".work"))
    cache = os.path.join(work, "cache")
    os.makedirs(cache)
    for path in scored:
        shutil.copy2(path, cache)
    os.environ["REPRO_CACHE_DIR"] = cache
    os.environ["TMPDIR"] = work
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    return work


def _probe_setup(serve: bool) -> float:
    """One set-up in a fresh process (import, build, fit, fork)."""
    command = [sys.executable, os.path.join(BENCH_DIR, "system.py")]
    if serve:
        command.append("--serve")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _source_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _environment(detector) -> dict:
    import numpy

    from repro.backends.registry import describe_suite
    from repro.specs import DetectorSpec

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "source_sha1": _source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "system": detector.system_name,
        "suite": describe_suite(DetectorSpec.default(scale="tiny").suite),
    }


def _write_spans(outcome, args) -> str | None:
    if not outcome.spans:
        return None
    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in outcome.spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
    return os.path.relpath(path, ROOT)


def _report(args, outcome, metrics: dict, details: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print("  reported, not gated:")
    for name, (value, unit) in outcome.reported.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so the final sweep finds and
    reaps a grandchild whose parent ended first: a set-up probe's worker
    or resource tracker, say."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Process ids whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def _reap_descendants() -> None:
    """Kill every process still below this one and wait for each."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while time.monotonic() < deadline:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def main(argv=None) -> int:
    args = _parse(argv)
    _become_subreaper()
    try:
        return _run(args)
    finally:
        _reap_descendants()


def _run(args) -> int:
    if args.workload == "all":
        return _run_all(args)
    try:
        work = _hermetic_env()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    system = None
    try:
        serve = args.workload == "serve-open"
        probes = [] if args.trace else [_probe_setup(serve)
                                        for _ in range(SETUP_PROBES)]
        from system import build_system
        system, own_setup = build_system(serve=serve)

        import workloads
        from gate import GateError
        try:
            outcome = workloads.WORKLOADS[args.workload](
                system, args.seed, args.seconds, bool(args.trace))
        except GateError as exc:
            print(f"perfbench: correctness gate failed: {exc}",
                  file=sys.stderr)
            return 3
        outcome = workloads.finish(outcome, bool(args.trace))
        if args.trace:
            metrics = outcome.per_layer
        else:
            samples = probes + [own_setup]
            metrics = {"setup_s": (statistics.median(samples), "s"),
                       **outcome.end_to_end}
            outcome.details["setup_s_samples"] = samples
        details = {"inputs": outcome.details,
                   "environment": _environment(system.detector)}
        spans_path = _write_spans(outcome, args)
        if spans_path:
            details["spans"] = spans_path
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if system is not None:
            system.close()
        shutil.rmtree(work, ignore_errors=True)

    _report(args, outcome, metrics, details)
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
