"""Tests of the shared-memory sample arena (the zero-copy data plane).

Covers the allocator round trip (hypothesis-driven alloc/free/wrap
sequences with invariant checks), generation-tag staleness detection,
fork children as read-only clients, the waveform glue, and the leak
harness: no ``/dev/shm`` segment may survive ``destroy()`` — or a
:class:`~repro.serving.service.DetectionService` ``stop()``, whatever
happened to the workers (see also ``test_fault_injection.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.waveform import Waveform
from repro.serving.arena import (
    ArenaError,
    ShmArena,
    StaleSlot,
    restore_waveform,
    share_waveform,
)

from serving_fakes import own_arena_segments


@pytest.fixture()
def arena():
    a = ShmArena(1 << 16, slots=16)
    yield a
    a.destroy()


def _array(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


# ----------------------------------------------------------------- allocator
class TestAllocator:
    def test_write_view_round_trip(self, arena):
        data = _array(512)
        ref = arena.write(data)
        assert ref is not None
        view = arena.view(ref)
        np.testing.assert_array_equal(view, data)
        assert not view.flags.writeable
        assert np.shares_memory(view, arena.view(ref))
        assert not np.shares_memory(data, arena.view(ref))

    def test_alloc_none_when_capacity_exhausted(self, arena):
        assert arena.write(np.zeros(arena.capacity_bytes // 8)) is not None
        assert arena.write(np.zeros(8)) is None

    def test_alloc_none_when_slots_exhausted(self):
        a = ShmArena(1 << 16, slots=2)
        try:
            refs = [a.write(np.zeros(4)) for _ in range(2)]
            assert all(ref is not None for ref in refs)
            assert a.write(np.zeros(4)) is None
            assert a.free(refs[0])
            assert a.write(np.zeros(4)) is not None
        finally:
            a.destroy()

    def test_free_restores_capacity_and_coalesces(self, arena):
        refs = [arena.write(_array(256, seed=i)) for i in range(3)]
        for ref in refs:
            assert arena.free(ref)
        assert arena.free_bytes == arena.capacity_bytes
        assert arena.live_slots == 0
        # One coalesced extent again: a full-capacity alloc must fit.
        big = arena.write(np.zeros(arena.capacity_bytes // 8))
        assert big is not None

    def test_double_free_is_ignored(self, arena):
        ref = arena.write(_array(64))
        assert arena.free(ref)
        assert not arena.free(ref)
        assert arena.free_bytes == arena.capacity_bytes

    def test_stale_view_raises_after_free(self, arena):
        ref = arena.write(_array(64))
        arena.free(ref)
        with pytest.raises(StaleSlot):
            arena.view(ref)

    def test_stale_view_raises_after_slot_reuse(self):
        a = ShmArena(1 << 16, slots=1)
        try:
            old = a.write(_array(64, seed=1))
            a.free(old)
            new = a.write(_array(64, seed=2))
            assert new is not None and new.slot == old.slot
            with pytest.raises(StaleSlot):
                a.view(old)
            np.testing.assert_array_equal(a.view(new), _array(64, seed=2))
        finally:
            a.destroy()

    def test_view_rejects_corrupt_refs(self, arena):
        from dataclasses import replace

        ref = arena.write(_array(16))
        with pytest.raises(ArenaError):
            arena.view(replace(ref, slot=arena.n_slots + 3))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 600), st.booleans()),
                    min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_alloc_free_sequences_keep_invariants(self, plan, rnd):
        """Random alloc/free interleavings: conservation, isolation, reuse."""
        a = ShmArena(8192, slots=8)
        live: dict[int, tuple] = {}
        try:
            for i, (n, do_free) in enumerate(plan):
                if do_free and live:
                    key = rnd.choice(sorted(live))
                    ref, expected = live.pop(key)
                    assert a.free(ref)
                    with pytest.raises(StaleSlot):
                        a.view(ref)
                else:
                    data = _array(n, seed=i)
                    ref = a.write(data)
                    if ref is None:  # full / out of slots: valid outcome
                        assert (a.free_bytes < data.nbytes
                                or a.live_slots == a.n_slots
                                or max((s for _, s in a._free_extents),
                                       default=0) < data.nbytes)
                        continue
                    live[i] = (ref, data)
                # Conservation + every live allocation still intact.
                assert a.allocated_bytes + a.free_bytes == a.capacity_bytes
                for ref, expected in live.values():
                    np.testing.assert_array_equal(a.view(ref), expected)
            for ref, _ in live.values():
                assert a.free(ref)
            assert a.free_bytes == a.capacity_bytes
            assert a.live_slots == 0
        finally:
            a.destroy()


# ---------------------------------------------------------------- fork child
class TestInterning:
    """A fork child reads the parent's slots and never allocates."""

    def test_fork_child_reads_parent_interned_entries(self, arena):
        data = _array(256, seed=3)
        ref = arena.write(data)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()

        def child(q):
            seen = arena.view(ref)
            fresh = arena.write(_array(8))
            q.put((bool(np.array_equal(seen, data)), fresh is None,
                   arena.is_owner))

        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        found_ok, fresh_is_none, child_owns = queue.get(timeout=10)
        proc.join(timeout=10)
        assert not proc.is_alive()
        assert found_ok, "child could not read the parent's pre-fork slot"
        assert fresh_is_none, "a fork child must never allocate"
        assert not child_owns


# ------------------------------------------------------------- waveform glue
class TestWaveformGlue:
    def test_share_restore_round_trip(self, arena):
        audio = Waveform(samples=_array(400) / 4.0, sample_rate=16_000,
                         text="hello", label="benign", metadata={"x": 1})
        clip = share_waveform(arena, audio)
        assert clip is not None
        restored = restore_waveform(arena, clip)
        np.testing.assert_array_equal(restored.samples, audio.samples)
        assert restored.sample_rate == audio.sample_rate
        assert restored.text == "hello"
        assert restored.label == "benign"
        assert restored.metadata == {"x": 1}
        # Zero-copy: the waveform wraps the slot itself, no ingest copy.
        assert np.shares_memory(restored.samples, arena.view(clip.ref))

    def test_restore_raises_on_reclaimed_slot(self, arena):
        clip = share_waveform(arena, Waveform(samples=_array(64)))
        arena.free(clip.ref)
        with pytest.raises(StaleSlot):
            restore_waveform(arena, clip)

    def test_share_none_when_clip_does_not_fit(self):
        a = ShmArena(1024, slots=4)
        try:
            assert share_waveform(a, Waveform(samples=_array(4096))) is None
        finally:
            a.destroy()


# -------------------------------------------------------------- leak harness
def _assert_no_segments():
    assert own_arena_segments() == [], (
        f"leaked /dev/shm segments: {own_arena_segments()}")


class TestLeakHarness:
    def test_destroy_unlinks_segment(self):
        a = ShmArena(4096)
        assert a.name in own_arena_segments()
        a.destroy()
        _assert_no_segments()
        a.destroy()  # idempotent

    def test_service_stop_unlinks(self):
        from serving_fakes import FaultyPipeline, make_clip

        from repro.serving.service import DetectionService

        service = DetectionService({"t": FaultyPipeline()}, workers=1,
                                   request_timeout_seconds=10.0)
        with service:
            assert service.active_transport == "shm"
            assert len(own_arena_segments()) == 1
            assert service.submit("t", make_clip()).result(timeout=30).ok
        _assert_no_segments()

    def test_service_stop_unlinks_after_sigkilled_worker_respawn(self):
        from serving_fakes import FaultyPipeline, make_clip

        from repro.serving.service import DetectionService

        service = DetectionService({"t": FaultyPipeline()}, workers=2,
                                   request_timeout_seconds=15.0)
        with service:
            assert service.submit("t", make_clip()).result(timeout=30).ok
            victim = next(iter(service._procs.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while service.stats.respawns == 0:
                assert time.monotonic() < deadline, "respawn never happened"
                time.sleep(0.02)
            assert service.submit("t", make_clip()).result(timeout=30).ok
        _assert_no_segments()

    def test_service_stop_with_requests_in_flight_unlinks_and_frees(self):
        from serving_fakes import FaultyPipeline, make_clip

        from repro.serving.service import DetectionService

        service = DetectionService({"t": FaultyPipeline()}, workers=1,
                                   request_timeout_seconds=30.0)
        service.start()
        futures = [service.submit("t", make_clip({"hang": 5.0}))
                   for _ in range(3)]
        time.sleep(0.2)  # let the dispatcher move them into the arena
        service.stop()
        for future in futures:
            assert future.result(timeout=5).status in ("error", "timeout")
        _assert_no_segments()
