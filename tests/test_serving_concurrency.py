"""Concurrency stress tests for the multi-process detection service.

Every test here attacks the same contract from a different angle: under
concurrent submitters, worker pools and shared queues, the service loses
no request, answers no request twice, isolates failures to the request
that caused them, and produces verdicts bit-identical to the sequential
single-process path.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.detector import MVPEarsDetector
from repro.pipeline.detection import DetectionPipeline
from repro.serving.service import DetectionService, ServeResult

from serving_fakes import FaultyPipeline, make_clip


def _train(detector, rng):
    n_aux = detector.n_features
    features = np.vstack([rng.uniform(0.85, 1.0, (40, n_aux)),
                          rng.uniform(0.0, 0.4, (40, n_aux))])
    labels = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
    return detector.fit_features(features, labels)


@pytest.fixture(scope="module")
def detector(ds0, asr_suite, rng):
    return _train(MVPEarsDetector(ds0, [asr_suite["DS1"], asr_suite["GCS"]],
                                  workers=0, cache=False), rng)


@pytest.fixture(scope="module")
def clips(synthesizer):
    sentences = (
        "the storm passed over the hills before sunset",
        "open the front door",
        "the captain studied the map for a long time",
    )
    return [synthesizer.synthesize(text) for text in sentences]


def _service(pipelines=None, **kwargs):
    pipelines = pipelines if pipelines is not None else {"t": FaultyPipeline()}
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_depth", 256)
    kwargs.setdefault("request_timeout_seconds", 60.0)
    kwargs.setdefault("max_batch_size", 4)
    return DetectionService(pipelines, **kwargs)


# ------------------------------------------------------ no lost, no duplicate


@pytest.mark.timeout(60)
def test_every_request_resolves_exactly_once():
    with _service() as service:
        futures = [service.submit("t", make_clip(), request_id=f"q{i}")
                   for i in range(40)]
        results = [f.result(timeout=30) for f in futures]
    assert all(isinstance(r, ServeResult) for r in results)
    ids = [r.request_id for r in results]
    assert sorted(ids) == sorted(f"q{i}" for i in range(40))
    assert len(set(ids)) == 40


@pytest.mark.timeout(60)
def test_barrier_synchronized_thread_submitters():
    n_threads, per_thread = 8, 10
    barrier = threading.Barrier(n_threads)
    buckets: dict[int, list] = {}

    with _service() as service:
        def submitter(tid):
            barrier.wait()  # all threads hit submit() at the same instant
            futs = [service.submit("t", make_clip(),
                                   request_id=f"t{tid}-{i}")
                    for i in range(per_thread)]
            buckets[tid] = [f.result(timeout=30) for f in futs]

        threads = [threading.Thread(target=submitter, args=(tid,))
                   for tid in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=45)
            assert not thread.is_alive()

    results = [r for bucket in buckets.values() for r in bucket]
    assert len(results) == n_threads * per_thread
    assert all(r.ok for r in results)
    assert len({r.request_id for r in results}) == n_threads * per_thread
    assert service.stats.completed == n_threads * per_thread


@pytest.mark.timeout(60)
def test_stats_account_for_every_submission():
    with _service(workers=1, queue_depth=4,
                  request_timeout_seconds=None) as service:
        blocker = service.submit("t", make_clip({"hang": 1.0}))
        futures = [service.submit("t", make_clip()) for _ in range(12)]
        results = [blocker.result(timeout=30)] \
            + [f.result(timeout=30) for f in futures]
    stats = service.stats
    assert stats.submitted == 13
    assert (stats.completed + stats.rejected + stats.timeouts
            + stats.errors) == 13
    by_status = {status: sum(1 for r in results if r.status == status)
                 for status in ("ok", "rejected", "timeout", "error")}
    assert by_status["ok"] == stats.completed
    assert by_status["rejected"] == stats.rejected


# -------------------------------------------------------- admission control


@pytest.mark.timeout(60)
def test_queue_full_sheds_with_429():
    with _service(workers=1, queue_depth=2, max_batch_size=1,
                  request_timeout_seconds=None) as service:
        blocker = service.submit("t", make_clip({"hang": 1.0}))
        futures = [service.submit("t", make_clip()) for _ in range(8)]
        results = [f.result(timeout=30) for f in futures]
        shed = [r for r in results if r.status == "rejected"]
        assert shed, "expected load shedding with a full queue"
        assert all(r.code == 429 and "queue full" in r.detail for r in shed)
        assert blocker.result(timeout=30).ok
    # Shed requests resolve immediately, not after the queue drains.
    assert service.stats.rejected == len(shed)


@pytest.mark.timeout(60)
def test_in_house_requests_never_exceed_queue_depth():
    depth = 3
    with _service(workers=1, queue_depth=depth, max_batch_size=1,
                  request_timeout_seconds=None) as service:
        blocker = service.submit("t", make_clip({"hang": 0.8}))
        futures = [service.submit("t", make_clip()) for _ in range(10)]
        accepted = 1 + sum(1 for f in futures
                           if f.result(timeout=30).status != "rejected")
        assert accepted <= depth
        assert blocker.result(timeout=30).ok


@pytest.mark.timeout(60)
def test_shedding_recovers_after_drain():
    with _service(workers=1, queue_depth=2, max_batch_size=1,
                  request_timeout_seconds=None) as service:
        blocker = service.submit("t", make_clip({"hang": 0.5}))
        burst = [service.submit("t", make_clip()) for _ in range(6)]
        [f.result(timeout=30) for f in burst]
        assert blocker.result(timeout=30).ok
        late = service.submit("t", make_clip()).result(timeout=30)
        assert late.ok, "service must accept again once the queue drains"


# ------------------------------------------------------- failure isolation


@pytest.mark.timeout(60)
def test_exception_is_isolated_to_the_offending_request():
    with _service(workers=1) as service:
        futures = [service.submit("t", make_clip({"raise": True})
                                  if i == 2 else make_clip())
                   for i in range(6)]
        results = [f.result(timeout=30) for f in futures]
    assert results[2].status == "error"
    assert "injected pipeline fault" in results[2].detail
    assert all(r.ok for i, r in enumerate(results) if i != 2)


@pytest.mark.timeout(60)
def test_unknown_tenant_resolves_typed_404():
    with _service() as service:
        result = service.submit("nope", make_clip()).result(timeout=10)
    assert result.status == "error"
    assert result.code == 404
    assert "unknown tenant" in result.detail


def test_inline_mode_has_the_same_typed_surface():
    service = DetectionService({"t": FaultyPipeline()}, workers=0)
    ok = service.submit("t", make_clip()).result(timeout=10)
    assert ok.ok and ok.code == 200
    bad = service.submit("nope", make_clip()).result(timeout=10)
    assert bad.status == "error" and bad.code == 404
    err = service.submit("t", make_clip({"raise": True})).result(timeout=10)
    assert err.status == "error" and err.code == 500


@pytest.mark.timeout(60)
def test_stop_resolves_outstanding_requests():
    service = _service(workers=1, request_timeout_seconds=None).start()
    blocker = service.submit("t", make_clip({"hang": 5.0}))
    queued = service.submit("t", make_clip())
    service.stop()
    for future in (blocker, queued):
        result = future.result(timeout=10)
        assert result.status == "error"
        assert "service stopped" in result.detail


# ------------------------------------------------------------- multi-tenant


@pytest.mark.timeout(60)
def test_multi_tenant_requests_route_to_their_own_pipeline():
    pipelines = {"benign": FaultyPipeline(verdict=False, text="benign-pipe"),
                 "strict": FaultyPipeline(verdict=True, text="strict-pipe")}
    with _service(pipelines) as service:
        futures = [(tenant, service.submit(tenant, make_clip()))
                   for tenant in ("benign", "strict") for _ in range(5)]
        for tenant, future in futures:
            result = future.result(timeout=30)
            assert result.ok
            assert result.tenant == tenant
            assert result.target_transcription == f"{tenant}-pipe"
            assert result.is_adversarial == (tenant == "strict")


# ----------------------------------------------------------- asyncio front


@pytest.mark.timeout(60)
def test_asyncio_front_door_gathers_concurrent_streams():
    async def drive(service):
        return await asyncio.gather(*[
            service.asubmit("t", make_clip(), request_id=f"a{i}")
            for i in range(30)])

    with _service() as service:
        results = asyncio.run(drive(service))
    assert len(results) == 30
    assert all(r.ok for r in results)
    assert len({r.request_id for r in results}) == 30


# ----------------------------------------------------------- verdict parity


@pytest.mark.timeout(120)
def test_pooled_verdicts_bitwise_match_sequential(detector, clips):
    pipeline = DetectionPipeline(detector)
    workload = [clips[i % len(clips)] for i in range(9)]
    with DetectionService({"d": pipeline}, workers=2, queue_depth=64,
                          request_timeout_seconds=90.0) as service:
        futures = [service.submit("d", clip) for clip in workload]
        served = [f.result(timeout=90) for f in futures]
    assert all(r.ok for r in served), [r.detail for r in served if not r.ok]
    baseline = [pipeline.detect(clip) for clip in workload]
    for got, expected in zip(served, baseline):
        assert got.is_adversarial == bool(expected.is_adversarial)
        assert got.scores == tuple(float(s) for s in expected.scores)
        assert got.target_transcription == expected.target_transcription


@pytest.mark.timeout(180)
def test_transports_bitwise_match_each_other_and_sequential(detector, clips):
    """100 concurrent asyncio streams per transport, every verdict and
    score vector bit-identical to the sequential path."""
    from repro.serving.arena import DESCRIPTOR_NBYTES

    pipeline = DetectionPipeline(detector)
    sequential = [pipeline.detect(clip) for clip in clips]
    n_streams = 100
    workload = [clips[i % len(clips)] for i in range(n_streams)]
    baseline = [sequential[i % len(clips)] for i in range(n_streams)]

    async def drive(service):
        return await asyncio.gather(*[
            service.asubmit("d", clip, request_id=f"s{i}")
            for i, clip in enumerate(workload)])

    served = {}
    for transport in ("shm", "pickle"):
        with DetectionService({"d": pipeline}, workers=2,
                              queue_depth=n_streams,
                              request_timeout_seconds=90.0,
                              transport=transport) as service:
            assert service.active_transport == transport
            served[transport] = asyncio.run(drive(service))
            stats = service.stats.snapshot()
        if transport == "shm":
            assert stats.ipc_bytes_out == DESCRIPTOR_NBYTES * len(workload)
        else:
            assert stats.ipc_bytes_out == sum(
                clip.samples.nbytes for clip in workload)
    for transport, results in served.items():
        assert len(results) == n_streams, transport
        assert all(r.ok for r in results), \
            [r.detail for r in results if not r.ok]
        assert [r.request_id for r in results] == \
            [f"s{i}" for i in range(n_streams)]
        for got, expected in zip(results, baseline):
            assert got.is_adversarial == bool(expected.is_adversarial), transport
            assert got.scores == tuple(float(s) for s in expected.scores)
            assert got.target_transcription == expected.target_transcription


@pytest.mark.timeout(60)
def test_transport_validation_and_inline_fallback():
    with pytest.raises(ValueError):
        DetectionService({"t": FaultyPipeline()}, transport="carrier-pigeon")
    inline = DetectionService({"t": FaultyPipeline()}, workers=0)
    assert inline.active_transport == "pickle", \
        "workers=0 runs in-process; there is nothing to ship over shm"


@pytest.mark.timeout(120)
def test_warmed_thread_pool_survives_the_fork(ds0, asr_suite, rng, clips):
    # A detector with live transcription threads: detecting in the
    # parent spins the pool up, so the forked workers inherit executor
    # state whose threads do not exist on their side.  The workers must
    # reset it (engine.reset_after_fork) instead of queueing work no
    # thread will ever run.
    detector = _train(MVPEarsDetector(ds0, [asr_suite["DS1"]],
                                      workers=2, cache=False), rng)
    pipeline = DetectionPipeline(detector)
    baseline = pipeline.detect(clips[0])  # warms the thread pool
    with DetectionService({"d": pipeline}, workers=1, queue_depth=8,
                          request_timeout_seconds=60.0) as service:
        result = service.submit("d", clips[0]).result(timeout=90)
    assert result.ok, result.detail
    assert result.is_adversarial == bool(baseline.is_adversarial)
    assert result.scores == tuple(float(s) for s in baseline.scores)


@pytest.mark.timeout(120)
def test_parity_holds_with_shared_cache_dir(detector, clips, tmp_path):
    pipeline = DetectionPipeline(detector)
    baseline = [pipeline.detect(clip) for clip in clips]
    with DetectionService({"d": pipeline}, workers=2, queue_depth=64,
                          request_timeout_seconds=90.0,
                          cache_dir=str(tmp_path / "shared")) as service:
        futures = [service.submit("d", clip)
                   for clip in clips for _ in range(3)]
        served = [f.result(timeout=90) for f in futures]
    assert all(r.ok for r in served), [r.detail for r in served if not r.ok]
    for i, got in enumerate(served):
        expected = baseline[i // 3]
        assert got.is_adversarial == bool(expected.is_adversarial)
        assert got.scores == tuple(float(s) for s in expected.scores)
    # The shared stores must actually have been written.
    assert (tmp_path / "shared" / "transcriptions.jsonl").exists()
    assert (tmp_path / "shared" / "scores.jsonl").exists()

