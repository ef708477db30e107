"""A shared-memory sample arena: the zero-copy serving data plane.

The multi-process :class:`~repro.serving.service.DetectionService`
previously shipped every request's full float64 sample array through a
pickling ``mp.Queue`` — at 16 kHz a 5-second clip is ~640 KB serialized
per dispatch, per retry.  :class:`ShmArena` removes that copy chain: the
dispatcher writes each clip's samples **once** into a
``multiprocessing.shared_memory`` slab and passes only a tiny
:class:`SlotRef` descriptor ``(slot, offset, shape, dtype, generation)``
through the task queue; forked workers map the same physical pages and
read the samples as a read-only numpy view without any deserialization.

Design notes:

* **Fork-inherited, parent-owned.**  The arena is created in the parent
  *before* the worker pool forks, so every worker (including respawned
  ones, which are forked from the same parent) inherits the mapping for
  free — no ``SharedMemory(name=...)`` attach, no resource-tracker
  double-unlink hazards.  Only the owning process allocates and frees;
  workers are strictly readers.
* **Slot table + free-extent allocator.**  The slab starts with a
  header of per-slot generation counters (one ``uint64`` per slot,
  visible to every process through the shared mapping) followed by the
  data region, managed by a first-fit free-extent allocator with
  coalescing on free.  ``alloc`` is ``None`` when no extent fits — the
  caller falls back to the pickle payload for that dispatch instead of
  blocking.
* **Generation tags.**  Every allocation bumps the slot's generation in
  the shared header and stamps the same value into the descriptor;
  ``free`` bumps it again.  A reader validates the descriptor's
  generation against the live header before building a view, so a stale
  descriptor (its slot reclaimed and reused after a crash or timeout)
  raises :class:`StaleSlot` instead of silently reading foreign bytes.
* **Crash-safe reclamation.**  Descriptors of a dead worker's in-flight
  requests stay valid (the parent wrote the bytes; the worker never
  mutates them), so a crash retry re-dispatches the *same* descriptor
  with zero extra copies.  Slots are freed exactly when their request
  resolves, and :meth:`destroy` frees the whole segment — the service
  calls it unconditionally on ``stop()``, so no ``/dev/shm`` segment
  outlives the service even after SIGKILL'd workers.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from dataclasses import dataclass

import numpy as np

#: Prefix of every arena's ``/dev/shm`` segment name; the leak tests
#: (and operators) can find stray segments by it.
SEGMENT_PREFIX = "repro-arena-"

#: Rough size of one pickled SlotRef task payload, used for IPC-byte
#: accounting (the exact pickle is ~180 bytes; what matters is that it
#: is constant and tiny next to the samples it replaces).
DESCRIPTOR_NBYTES = 192


class ArenaError(RuntimeError):
    """The arena cannot satisfy a request (corrupt ref, closed arena)."""


class StaleSlot(ArenaError):
    """A descriptor's slot was reclaimed: its generation is no longer live."""


@dataclass(frozen=True)
class SlotRef:
    """A descriptor of one allocation inside a :class:`ShmArena`.

    This is everything that crosses the process boundary for a clip's
    samples: which slot, where its bytes live, how to view them, and the
    generation stamp that proves the slot still holds those bytes.
    """

    slot: int
    offset: int
    nbytes: int
    shape: tuple[int, ...]
    dtype: str
    generation: int


@dataclass(frozen=True)
class ShmClip:
    """A :class:`~repro.audio.waveform.Waveform` with arena-resident samples.

    The samples travel as a :class:`SlotRef`; the (small) text, label and
    metadata fields travel by value.  ``restore_waveform`` rebuilds the
    waveform around a zero-copy read-only view.
    """

    ref: SlotRef
    sample_rate: int
    text: str = ""
    label: str = "benign"
    metadata: dict | None = None


class ShmArena:
    """A slab/ring allocator over one shared-memory segment.

    Args:
        capacity_bytes: size of the data region.
        slots: size of the slot table (the maximum number of live
            allocations).  Defaults to one slot per 64 KB of capacity,
            at least 64.
        name: explicit segment name (a ``SEGMENT_PREFIX`` name is
            generated when omitted).
    """

    def __init__(self, capacity_bytes: int, slots: int | None = None,
                 name: str | None = None):
        from multiprocessing import shared_memory

        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1")
        if slots is None:
            slots = max(64, capacity_bytes // 65536)
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if name is None:
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        self.capacity_bytes = int(capacity_bytes)
        self.n_slots = int(slots)
        self._header_bytes = 8 * self.n_slots
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=self._header_bytes + capacity_bytes)
        self.name = self._shm.name
        self._owner_pid = os.getpid()
        self._lock = threading.Lock()
        #: Per-slot generation counters, shared with every forked reader.
        self._generations = np.ndarray(
            (self.n_slots,), dtype=np.uint64, buffer=self._shm.buf)
        self._generations[:] = 0
        #: Free extents of the data region as sorted (offset, size) pairs.
        self._free_extents: list[tuple[int, int]] = [(0, self.capacity_bytes)]
        self._free_slots: list[int] = list(range(self.n_slots - 1, -1, -1))
        #: Live allocations: slot -> (offset, size) (owner-side only).
        self._live: dict[int, tuple[int, int]] = {}
        self._destroyed = False
        # Belt and braces: if the owner forgets destroy(), unlink at GC
        # time rather than leaking the segment until reboot.
        self._finalizer = weakref.finalize(
            self, ShmArena._cleanup, self._shm, self._owner_pid)

    @staticmethod
    def _cleanup(shm, owner_pid: int) -> None:
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        if os.getpid() == owner_pid:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    # --------------------------------------------------------------- queries
    @property
    def is_owner(self) -> bool:
        """Whether this process may allocate/free (it created the arena)."""
        return os.getpid() == self._owner_pid

    @property
    def live_slots(self) -> int:
        """Number of live allocations (owner-side view)."""
        return len(self._live)

    @property
    def allocated_bytes(self) -> int:
        """Total bytes of live allocations (owner-side view)."""
        return sum(size for _, size in self._live.values())

    @property
    def free_bytes(self) -> int:
        """Total bytes of free extents (may be fragmented)."""
        return sum(size for _, size in self._free_extents)

    # ---------------------------------------------------------- alloc / free
    def alloc(self, nbytes: int, shape: tuple[int, ...],
              dtype: str) -> SlotRef | None:
        """Reserve ``nbytes``; ``None`` when no slot or extent fits."""
        if self._destroyed or not self.is_owner:
            return None
        nbytes = max(1, int(nbytes))
        with self._lock:
            if not self._free_slots:
                return None
            for index, (offset, size) in enumerate(self._free_extents):
                if size >= nbytes:
                    break
            else:
                return None
            if size == nbytes:
                del self._free_extents[index]
            else:
                self._free_extents[index] = (offset + nbytes, size - nbytes)
            slot = self._free_slots.pop()
            generation = int(self._generations[slot]) + 1
            self._generations[slot] = generation
            self._live[slot] = (offset, nbytes)
        return SlotRef(slot=slot, offset=offset, nbytes=nbytes,
                       shape=tuple(int(n) for n in shape), dtype=str(dtype),
                       generation=generation)

    def write(self, array: np.ndarray) -> SlotRef | None:
        """Copy ``array`` into the arena once; ``None`` when it does not fit."""
        array = np.ascontiguousarray(array)
        ref = self.alloc(array.nbytes, array.shape, array.dtype.str)
        if ref is None:
            return None
        if array.nbytes:
            start = self._header_bytes + ref.offset
            destination = np.ndarray(array.shape, dtype=array.dtype,
                                     buffer=self._shm.buf, offset=start)
            np.copyto(destination, array)
        return ref

    def free(self, ref: SlotRef) -> bool:
        """Release ``ref``'s slot; stale/double frees are ignored.

        Returns ``True`` when the slot was actually reclaimed.  Bumping
        the shared generation counter here is what invalidates any
        descriptor still floating through a queue.
        """
        if self._destroyed or not self.is_owner:
            return False
        with self._lock:
            if int(self._generations[ref.slot]) != ref.generation:
                return False  # already freed (or never this allocation)
            extent = self._live.pop(ref.slot, None)
            if extent is None:  # pragma: no cover - defensive
                return False
            self._generations[ref.slot] = ref.generation + 1
            self._free_slots.append(ref.slot)
            self._insert_extent(extent)
        return True

    def _insert_extent(self, extent: tuple[int, int]) -> None:
        """Insert a freed extent, coalescing with its neighbours."""
        offset, size = extent
        extents = self._free_extents
        lo, hi = 0, len(extents)
        while lo < hi:
            mid = (lo + hi) // 2
            if extents[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        extents.insert(lo, (offset, size))
        # Coalesce with the next extent, then the previous one.
        if lo + 1 < len(extents) and offset + size == extents[lo + 1][0]:
            extents[lo] = (offset, size + extents[lo + 1][1])
            del extents[lo + 1]
        if lo > 0 and extents[lo - 1][0] + extents[lo - 1][1] == offset:
            extents[lo - 1] = (extents[lo - 1][0],
                               extents[lo - 1][1] + extents[lo][1])
            del extents[lo]

    # ------------------------------------------------------------- reading
    def view(self, ref: SlotRef) -> np.ndarray:
        """A zero-copy read-only view of ``ref``'s bytes.

        Raises :class:`StaleSlot` when the slot's live generation no
        longer matches the descriptor — the allocation was reclaimed.
        """
        if self._destroyed:
            raise ArenaError("arena is destroyed")
        if not (0 <= ref.slot < self.n_slots):
            raise ArenaError(f"slot {ref.slot} out of range")
        if int(self._generations[ref.slot]) != ref.generation:
            raise StaleSlot(
                f"slot {ref.slot} generation {ref.generation} was reclaimed")
        if ref.offset < 0 or ref.offset + ref.nbytes > self.capacity_bytes:
            raise ArenaError(f"extent {ref.offset}+{ref.nbytes} out of range")
        start = self._header_bytes + ref.offset
        array = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                           buffer=self._shm.buf, offset=start)
        array.flags.writeable = False
        return array

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Detach this process's mapping (readers call this, never unlink)."""
        if not self._destroyed:
            self._destroyed = True
            self._generations = None
            self._finalizer.detach()
            try:
                self._shm.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass

    def destroy(self) -> None:
        """Unlink the segment (idempotent; owner only).

        After this no process can map the segment again; existing
        mappings die with their processes.  The service calls this
        unconditionally on ``stop()`` so ``/dev/shm`` never accumulates
        arena segments, whatever happened to the workers.
        """
        if self._destroyed:
            return
        is_owner = self.is_owner
        self.close()
        if is_owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


# ------------------------------------------------------------- waveform glue
def share_waveform(arena: ShmArena, audio) -> ShmClip | None:
    """Write ``audio``'s samples into ``arena``; ``None`` when it won't fit."""
    ref = arena.write(audio.samples)
    if ref is None:
        return None
    return ShmClip(ref=ref, sample_rate=audio.sample_rate, text=audio.text,
                   label=audio.label,
                   metadata=dict(audio.metadata) if audio.metadata else None)


def restore_waveform(arena: ShmArena, clip: ShmClip):
    """Rebuild the :class:`Waveform` around a zero-copy arena view.

    Raises :class:`StaleSlot` when the descriptor's slot was reclaimed
    (the caller converts that into a typed error instead of reading
    foreign bytes).
    """
    from repro.audio.waveform import Waveform

    samples = arena.view(clip.ref)
    return Waveform(samples=samples, sample_rate=clip.sample_rate,
                    text=clip.text, label=clip.label,
                    metadata=dict(clip.metadata) if clip.metadata else {})


def list_arena_segments() -> list[str]:
    """Names of live ``/dev/shm`` arena segments (the leak harness's probe)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(name for name in os.listdir(shm_dir)
                  if name.startswith(SEGMENT_PREFIX))
