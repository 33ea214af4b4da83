"""Same-host shard workers: processes over pipes and shared-memory rings.

:class:`ProcessShardPool` is the :class:`~repro.serving.fleet.ShardFleet`
with its workers as local processes.  The worker loop, dispatch, death
handling, zone swaps and stats are the fleet core's; this module only
decides how a worker comes to exist and how bytes reach it.

* **Spawn.**  Each worker slot is one process running
  :func:`~repro.serving.fleet.serve_shards` on one end of a
  ``multiprocessing`` pipe.  ``start()`` performs the init handshake
  (every shard payload, the current γ and the slot's ring spec down,
  ``("ready", n)`` back), so a pool that returns from ``start()`` is
  fully rehydrated.  Every worker holds every shard, so a block can go
  to whichever queue is shortest.  Payloads always travel through the
  init message, never through fork memory, so ``"fork"`` and
  ``"spawn"`` rehydrate identically.

* **Rings.**  On the default ``transport="shm"`` each slot owns a pair
  of preallocated :mod:`~repro.serving.shmring` segments.  A block's
  packed rows and int64 class ids are memcpy'd into a ring slot and
  only a ``("shm", slot)`` descriptor crosses the pipe; the worker
  answers into the paired response slot.  Blocks that exceed the slot
  width (or arrive while every slot is in flight) fall back, block by
  block, to the pickled tuple on the pipe — the rings are a fast path,
  never a correctness constraint.  ``transport="pipe"`` ships every
  block pickled (the transport microbench compares the two).

* **Slot reclaim and ring lifecycle.**  The parent owns each ring's free
  queue: the reader releases a slot after copying its response out, and
  the death handler releases the slots of a SIGKILL'd worker's drained
  blocks, so a dead worker can never strand one; the replacement
  re-attaches to the same segments by name.  A slot whose crash budget
  (``max_respawns``) is spent has its segments unlinked on the spot, and
  ``stop()`` unlinks the rest, so no ``/dev/shm`` entry outlives the
  pool.  A reader that misses its join window at ``stop()`` is reported
  by name, and its ring stays mapped (unlinked, not closed) so a late
  reply never touches a dead view.

The cross-process equivalence suites (``tests/test_serving_procpool.py``,
``tests/test_serving_shm.py``) prove the pool bit-identical to the
in-process :class:`~repro.serving.shard.ShardRouter` and the engines.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, List, Optional, Sequence

from repro.serving import shmring
from repro.serving.fleet import (
    CONN_ERRORS,
    ShardFleet,
    WorkerCrashError,
    WorkerHandle,
    serve_shards,
)
from repro.serving.shard import MonitorShard

__all__ = ["ProcessShardPool", "WorkerCrashError"]


class ProcessShardPool(ShardFleet):
    """N worker processes, each serving every monitor shard.

    Parameters
    ----------
    shards:
        The :class:`MonitorShard` slices to serve.  Only their portable
        payloads are retained — the pool never touches the live monitors
        again, so the caller may discard them.
    num_workers:
        Worker process count (capped at the shard count).
    context:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); default is ``"fork"`` where available, else
        ``"spawn"``.
    max_respawns:
        Crash budget per worker slot: the slot's crash count
        (``total_crashes``, not ``total_respawns``) may reach this value
        and still be respawned; one crash more retires the slot.  Blocks
        fail with :class:`WorkerCrashError` once every slot is retired.
    ready_timeout:
        Seconds to wait for a warm-up handshake, a drain or a live
        worker.
    transport:
        ``"shm"`` (the default, also for ``None``) ships row blocks
        through the shared-memory rings, ``"pipe"`` as pickled tuples.
    ring_slots / ring_slot_bytes:
        Per-worker ring geometry (default 32 slots × 64 KiB).  Oversized
        blocks fall back to the pipe, so the slot width bounds the fast
        path, never correctness.
    """

    def __init__(
        self,
        shards: Sequence[MonitorShard],
        num_workers: int = 2,
        context: Optional[str] = None,
        max_respawns: int = 5,
        ready_timeout: float = 120.0,
        transport: Optional[str] = None,
        ring_slots: int = 32,
        ring_slot_bytes: int = 65536,
    ):
        super().__init__(shards, context, max_respawns, ready_timeout)
        transport = transport or "shm"
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if transport not in ("shm", "pipe"):
            raise ValueError(f"unknown transport {transport!r}")
        self.num_workers = min(num_workers, len(self._payload_of))
        self._transport = transport
        self._ring_slots = int(ring_slots)
        self._ring_slot_bytes = int(ring_slot_bytes)
        self._rings: List[Optional[shmring.RingPair]] = [None] * self.num_workers
        self._ring_blocks = [0] * self.num_workers
        self._pipe_blocks = [0] * self.num_workers

    # ------------------------------------------------------------------
    # spawn
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        if self._transport == "shm":
            for index in range(self.num_workers):
                if self._rings[index] is None:
                    self._rings[index] = shmring.RingPair(
                        f"{os.getpid()}-{index}",
                        self._ring_slots, self._ring_slot_bytes,
                    )
        for index in range(self.num_workers):
            self._publish(self._spawn(index))

    def _spawn(self, index: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=serve_shards,
            args=(child_conn,),
            daemon=True,
            name=f"repro-shard-worker-{index}",
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(index, parent_conn, process.pid, process)
        # Payloads, γ and epoch are read together under the lock: a zone
        # swap replaces all three atomically, so the spawned worker is
        # either wholly pre-snapshot (the swap loop re-syncs it — its
        # stamped epoch lags) or wholly post-snapshot.  Never mixed.
        with self._lock:
            handle.shard_ids = set(self._payload_of)
            payloads = self._payloads_for(handle)
            gamma = self._gamma
            handle.epoch = self._epoch
        ring = self._rings[index]
        spec = ring.spec() if ring is not None else None
        try:
            parent_conn.send(("init", payloads, gamma, spec))
            if not parent_conn.poll(self.ready_timeout):
                raise RuntimeError("warm-up handshake timed out")
            msg = parent_conn.recv()
            if msg[0] != "ready":
                raise RuntimeError(f"unexpected handshake reply {msg[0]!r}")
        except (EOFError, OSError, RuntimeError) as exc:
            process.kill()
            process.join(timeout=5)
            raise WorkerCrashError(
                f"worker {index} failed its warm-up handshake: {exc}"
            ) from exc
        handle.pump = threading.Thread(
            target=self._pump,
            args=(handle,),
            daemon=True,
            name=f"repro-shard-pump-{index}",
        )
        handle.pump.start()
        self._pumps.append(handle.pump)
        return handle

    def _replace(self, index: int) -> None:
        try:
            handle = self._spawn(index)
        except WorkerCrashError:
            with self._lock:
                # The slot is known-unrecoverable: burn the remaining
                # budget so dispatch fails fast instead of spinning out
                # the full come-back deadline.
                self._crashes[index] = self.max_respawns + 1
            self._retire(index)
            return
        self._publish(handle)

    def _retire(self, index: int) -> None:
        """Unlink a retired slot's segments now — no replacement will
        ever attach to them.  The mapping stays until ``stop()`` (a late
        reply may still read it); unlinking just drops the name."""
        ring = self._rings[index]
        if ring is not None:
            ring.unlink()

    # ------------------------------------------------------------------
    # ring framing
    # ------------------------------------------------------------------
    def _send(self, worker: WorkerHandle, block) -> bool:
        ring = self._rings[worker.key]
        # The slot layout is one int64 class id per row: non-integer
        # class arrays ride the pipe.
        if (
            ring is not None
            and block.classes.dtype.kind in "iu"
            and ring.fits(block.rows, block.packed.nbytes)
        ):
            slot = ring.acquire()
            if slot >= 0:
                shmring.frame_request(ring, slot, block.packed, block.classes)
                block.slot = slot
        # Decided before the send: once it lands the reader may answer
        # the block and reset its slot to -1.
        via_ring = block.slot >= 0
        wire = block.wire()
        try:
            with worker.send_lock:
                worker.conn.send(wire)
                # Counted under the send lock: one increment per block,
                # no extra round trip on the fleet lock.
                if via_ring:
                    self._ring_blocks[worker.key] += 1
                else:
                    self._pipe_blocks[worker.key] += 1
        except CONN_ERRORS:
            self._on_death(worker)
            return False
        return True

    def _reclaim(self, index: int, block, reply=None):
        ring = self._rings[index]
        result = None if reply is None else reply[2]
        if reply is not None and reply[0] == "ok":
            _tag, slot, has_verdicts, has_distances = result
            result = shmring.read_response(
                ring, slot, block.rows, has_verdicts, has_distances
            )
        if ring is not None:
            ring.release(block.slot)
        block.slot = -1
        return result

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _teardown(self, wedged: List[threading.Thread]) -> None:
        # A reader that outlived its join window may still be holding (or
        # about to take) numpy views into its worker's ring slots.  Say
        # so out loud, and keep those ring mappings alive — unlink drops
        # the /dev/shm name, but the close is skipped so a late reply
        # resolves against live memory.  The OS reclaims the mapping at
        # process exit.
        keep_mapped = set()
        if wedged:
            names = ", ".join(sorted(pump.name for pump in wedged))
            warnings.warn(
                f"pump thread(s) failed to join within "
                f"{self.ready_timeout}s at pool shutdown: {names}; their "
                f"ring mappings are kept alive (unlinked, not closed)",
                RuntimeWarning,
                stacklevel=4,
            )
            # Pump names are "repro-shard-pump-<slot>" (see _spawn).
            keep_mapped = {
                int(pump.name.rsplit("-", 1)[1]) for pump in wedged
                if pump.name.startswith("repro-shard-pump-")
            }
        for index, ring in enumerate(self._rings):
            if ring is not None:
                ring.unlink()
                if index in keep_mapped:
                    continue
                ring.close()
                self._rings[index] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _transport_stats(self, index: int) -> Dict[str, int]:
        return {
            "ring_blocks": self._ring_blocks[index],
            "pipe_blocks": self._pipe_blocks[index],
        }

    @property
    def total_ring_blocks(self) -> int:
        """How many blocks travelled through the shared-memory rings."""
        return sum(self._ring_blocks)

    @property
    def total_pipe_blocks(self) -> int:
        """How many blocks travelled as pickled pipe tuples (the whole
        workload on ``transport="pipe"``; oversized/overflow fallbacks
        on ``"shm"``)."""
        return sum(self._pipe_blocks)

    def __len__(self) -> int:
        return self.num_workers
