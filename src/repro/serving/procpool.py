"""Shared-nothing multiprocess shard workers.

PR 3 moved shard kernels off the asyncio loop onto threads; this module
takes the next scale step from the ROADMAP: **processes**.  A
:class:`ProcessShardPool` spawns N worker processes, each hosting a
disjoint subset of :class:`~repro.serving.shard.MonitorShard`\\ s.  The
design is strictly shared-nothing:

* **Rehydration, not inheritance.**  Workers never receive live backend
  objects.  Each shard crosses the process boundary as the portable
  payload of :meth:`MonitorShard.to_payload` — metadata plus bit-packed
  deduplicated ``visited_patterns()`` matrices, the same exchange format
  used by save/load and ``NeuronActivationMonitor.merge`` — and the
  worker rebuilds its own local bitset/BDD/indexed backend from it.
  Nothing engine-internal (BDD node tables, sorted word arrays, band
  indices) is ever pickled, so a pool can rehydrate shards recorded by
  any backend into any process, even across hosts in principle.

* **Block wire format.**  Control tuples travel over ``multiprocessing``
  pipes as ``("req", req_id, shard_id, mode, payload, rows, width,
  classes, cap)``.  On the default zero-copy transport
  (``transport="shm"``, opt out with ``REPRO_SERVING_SHM=0``) the row
  data itself never crosses a pickle: ``payload`` is a ``("shm", slot)``
  descriptor naming a slot in the worker's preallocated
  :mod:`~repro.serving.shmring` request ring, where the parent memcpy'd
  the block's ``np.packbits`` rows and int64 class ids; the worker
  answers ``("ok", req_id, ("shm", slot, has_verdicts, has_distances))``
  after scattering its result into the paired response-ring slot.  The
  pipe is thus demoted to a control plane — slot handoff, warm-up,
  zone/γ resync, crash detection.  Blocks that exceed the slot width (or
  arrive while all slots are in flight) fall back block-by-block to the
  PR-4 pickled form, where ``payload`` is the packed matrix itself
  (``width`` is the true row width so wrong-width blocks fail their own
  future instead of silently gaining padding bits — one block, one
  future, mirroring PR 3's in-process block protocol).  ``mode`` selects
  the kernel: ``"check"`` (verdicts), ``"both"`` (one combined distance
  kernel for verdicts + exact distances, the detector-serving path) or
  ``"dist"`` (``min_distances``, optionally ``cap``-bounded).  Workers
  answer ``("ok", req_id, result)`` or ``("err", req_id, exception)``; a
  bad block fails its own future, never the worker.

* **Dispatch.**  ``dispatch="balance"`` (the default) rehydrates every
  shard into every worker and routes each block to the live worker with
  the shortest outstanding-block queue, which levels uneven
  classes-per-shard splits (the static partition served 1227/1183/788/
  802 blocks at 4 workers on a uniform workload; balance dispatch is
  asserted within 20% in the bench).  ``dispatch="owner"`` keeps the
  PR-4 disjoint round-robin partition — lowest memory, deterministic
  shard→worker placement (the fault suites use it to aim SIGKILLs).

* **Lifecycle.**  ``start()`` spawns workers and performs a warm-up
  handshake (init payload down, ``("ready", shard_count)`` back) so a
  pool that returns from ``start()`` is fully rehydrated.  ``stop()``
  drains gracefully: the ``("stop",)`` sentinel is FIFO-ordered behind
  every in-flight block, so workers answer everything queued before
  exiting.  A per-worker pump thread resolves futures and doubles as the
  crash detector: on pipe EOF / worker death, every unanswered block is
  requeued onto an automatically respawned replacement (rebuilt from the
  parent's retained payloads, current γ re-applied before replay), so
  callers see a latency blip instead of an error.  The two counters move
  at different instants: a slot's crash count (``total_crashes``) rises
  the moment the death is detected and the slot is emptied, its respawn
  count (``total_respawns``) only once the replacement has finished its
  warm-up handshake and is published back into the slot — in between,
  balance dispatch serves from the survivors.  Ring slots held by a
  SIGKILL'd worker are reclaimed by the same drain — the parent owns the
  free queue, so a dead worker can never strand a slot — and the
  replacement re-attaches to the same segments by name.  A slot that
  crashes more than ``max_respawns`` times fails its pending futures
  with :class:`WorkerCrashError` instead of looping forever; its
  segments are unlinked on the spot, and ``stop()`` unlinks the rest, so
  no ``/dev/shm`` entry outlives the pool.

The pool exposes both an executor-shaped API (``submit`` → one
``concurrent.futures.Future`` per block, used by
:class:`~repro.serving.server.StreamServer` with ``executor="process"``)
and synchronous routed ``check`` / ``min_distances`` mirroring
:class:`~repro.serving.shard.ShardRouter` — the cross-process
equivalence suite (``tests/test_serving_procpool.py``) proves both
bit-identical to the in-process router and the BDD engine.

Start method: ``"fork"`` where available (fast, Linux), else
``"spawn"``; pass ``context="spawn"`` explicitly for maximum isolation —
rehydration is exercised identically either way because the payloads
always travel through the init pipe message, never through fork memory.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
import warnings
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.devtools.lint.runtime import named_lock
from repro.monitor.patterns import pack_patterns, unpack_patterns
from repro.serving import shmring
from repro.serving.server import ShardServingStats
from repro.serving.shard import MonitorShard


class WorkerCrashError(RuntimeError):
    """A shard worker died more times than the respawn budget allows."""


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Entry point of one shard worker process.

    Owns a private ``shard_id -> MonitorShard`` map rehydrated from the
    init payloads and answers block requests until the ``("stop",)``
    sentinel (graceful: replies ``("bye",)`` so the parent can tell a
    drain from a crash) or pipe EOF (parent died: exit quietly).  When
    the init handshake carries a ring spec the worker attaches to the
    parent's shared-memory rings and serves ``("shm", slot)`` blocks
    zero-copy; it never owns a slot past its own reply, and never
    unlinks — segment lifetime is the parent's job.
    """
    shards: Dict[int, MonitorShard] = {}
    rings: Optional[shmring.AttachedRings] = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "req":
                _, req_id, shard_id, mode, packed, rows, width, classes, cap = msg
                try:
                    slot = -1
                    if type(packed) is tuple:
                        # ("shm", slot): gather the block from the request
                        # ring instead of the pickled control tuple.
                        slot = packed[1]
                        packed, classes = shmring.read_request(
                            rings, slot, rows, width
                        )
                    shard = shards[shard_id]
                    # Unpack at the *sender's* row width: a wrong-width
                    # block then fails the monitor's own validation (its
                    # future gets the ValueError) instead of silently
                    # gaining or losing padding bits.
                    patterns = unpack_patterns(packed, width)[:rows]
                    if mode == "check":
                        result = (shard.check(patterns, classes), None)
                    elif mode == "both":
                        result = shard.check_batch(
                            patterns, classes, with_distances=True,
                            distance_cap=cap,
                        )
                    elif mode == "dist":
                        result = (
                            None,
                            shard.min_distances(patterns, classes, cap=cap),
                        )
                    else:
                        raise ValueError(f"unknown request mode {mode!r}")
                    if slot >= 0:
                        verdicts, distances = result
                        shmring.frame_response(rings, slot, verdicts, distances)
                        conn.send((
                            "ok", req_id,
                            ("shm", slot, verdicts is not None,
                             distances is not None),
                        ))
                    else:
                        conn.send(("ok", req_id, result))
                except Exception as exc:  # noqa: BLE001 — shipped to caller
                    # The parent reclaims any ring slot when it pops the
                    # failed block's pending entry, so no release here.
                    try:
                        conn.send(("err", req_id, exc))
                    except Exception:  # unpicklable exception: degrade
                        conn.send(("err", req_id, RuntimeError(repr(exc))))
                # Drop the slot views before the next recv: once the
                # reply lands the parent is free to reuse the slot, and
                # a view lingering into shutdown blocks the segment
                # close.
                packed = classes = None  # noqa: F841
            elif kind == "init":
                for payload in msg[1]:
                    shard = MonitorShard.from_payload(payload)
                    shards[shard.shard_id] = shard
                # A respawned worker inherits the pool's *current* γ as
                # part of the handshake — atomically before any block can
                # reach it — not the payloads' construction-time γ.
                if msg[2] is not None:
                    for shard in shards.values():
                        shard.monitor.set_gamma(msg[2])
                if msg[3] is not None:
                    rings = shmring.AttachedRings(msg[3])
                conn.send(("ready", len(shards)))
            elif kind == "gamma":
                for shard in shards.values():
                    shard.monitor.set_gamma(msg[1])
                conn.send(("gamma_ok", msg[2]))
            elif kind == "zone":
                # Zone-epoch resync (the γ handshake generalised): replace
                # the worker's entire shard map with rehydrated copies of
                # the new snapshot payloads, then apply the snapshot's γ —
                # all between two block requests, so every block this
                # worker ever answers sees exactly one zone version.
                shards.clear()
                for payload in msg[1]:
                    shard = MonitorShard.from_payload(payload)
                    shards[shard.shard_id] = shard
                if msg[2] is not None:
                    for shard in shards.values():
                        shard.monitor.set_gamma(msg[2])
                conn.send(("zone_ok", msg[3]))
            elif kind == "stop":
                conn.send(("bye",))
                return
    finally:
        if rings is not None:
            rings.close()
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# parent-side bookkeeping
# ----------------------------------------------------------------------
class _Pending:
    """One in-flight block: the request (kept verbatim for crash requeue)
    plus the caller's future.  ``slot`` is the ring-slot index the block
    currently occupies (``-1`` = pickled pipe); exactly one owner ever
    releases it — the pump on reply, or whoever pops the entry from the
    in-flight map on the crash/requeue paths."""

    __slots__ = (
        "req_id", "shard_id", "mode", "packed", "rows", "width",
        "classes", "cap", "slot", "future", "enqueued_at",
    )

    def __init__(self, req_id, shard_id, mode, packed, rows, width, classes, cap):
        self.req_id = req_id
        self.shard_id = shard_id
        self.mode = mode
        self.packed = packed
        self.rows = rows
        self.width = width
        self.classes = classes
        self.cap = cap
        self.slot = -1
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()

    def wire(self):
        return (
            "req", self.req_id, self.shard_id, self.mode,
            self.packed, self.rows, self.width, self.classes, self.cap,
        )

    def wire_shm(self, slot):
        # Rows + classes live in the ring slot; only metadata crosses
        # the pipe.  ``width`` still travels so the worker reshapes (and
        # validates) the packed view at the sender's row width.
        return (
            "req", self.req_id, self.shard_id, self.mode,
            ("shm", slot), self.rows, self.width, None, self.cap,
        )


class _WorkerHandle:
    """Parent-side view of one live worker process."""

    __slots__ = (
        "index", "process", "conn", "send_lock",
        "pump", "inflight", "acks", "dead", "stopped", "epoch",
    )

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = named_lock("_WorkerHandle.send_lock")
        self.pump: Optional[threading.Thread] = None
        self.inflight: Dict[int, _Pending] = {}
        self.acks: Dict[int, threading.Event] = {}
        self.dead = False
        self.stopped = False
        # Zone epoch this worker's shards were rehydrated at (parent-side
        # bookkeeping; the swap loop re-syncs any worker whose epoch lags).
        self.epoch = 0


class ProcessShardPool:
    """N worker processes serving a disjoint partition of monitor shards.

    Parameters
    ----------
    shards:
        The :class:`MonitorShard` slices to distribute over the workers.
        Only their portable payloads are retained by the parent — the
        pool never touches the live monitors again, so the caller may
        discard them.
    num_workers:
        Worker process count (capped at the shard count).
    context:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); default is ``"fork"`` where available, else
        ``"spawn"``.
    max_respawns:
        Crash budget per worker slot: the slot's crash count
        (``total_crashes``, not ``total_respawns``) may reach this value
        and still be respawned; one crash more retires the slot.  A
        block that no live slot can serve then fails with
        :class:`WorkerCrashError`.
    ready_timeout:
        Seconds to wait for a worker's warm-up handshake.
    transport:
        ``"shm"`` (default; opt out globally with ``REPRO_SERVING_SHM=0``)
        ships row blocks through preallocated shared-memory rings,
        ``"pipe"`` keeps the PR-4 pickled-block protocol (the transport
        microbench compares the two).
    dispatch:
        ``"balance"`` (default; override with ``REPRO_SERVING_DISPATCH``)
        replicates every shard into every worker and sends each block to
        the shortest outstanding-block queue; ``"owner"`` keeps the
        disjoint round-robin shard→worker partition.
    ring_slots / ring_slot_bytes:
        Per-worker ring geometry (defaults 32 slots × 64 KiB, env
        ``REPRO_SERVING_SHM_SLOTS`` / ``REPRO_SERVING_SHM_SLOT_BYTES``).
        Oversized blocks fall back to the pipe, so the slot width bounds
        the fast path, never correctness.
    """

    def __init__(
        self,
        shards: Sequence[MonitorShard],
        num_workers: int = 2,
        context: Optional[str] = None,
        max_respawns: int = 5,
        ready_timeout: float = 120.0,
        transport: Optional[str] = None,
        dispatch: Optional[str] = None,
        ring_slots: Optional[int] = None,
        ring_slot_bytes: Optional[int] = None,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("pool needs at least one shard")
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = min(num_workers, len(shards))
        self.max_respawns = max_respawns
        self.ready_timeout = ready_timeout
        if context is None:
            context = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(context)
        if transport is None:
            transport = (
                "pipe" if os.environ.get("REPRO_SERVING_SHM", "1") == "0"
                else "shm"
            )
        if transport not in ("shm", "pipe"):
            raise ValueError(f"unknown transport {transport!r}")
        self._transport = transport
        if dispatch is None:
            dispatch = os.environ.get("REPRO_SERVING_DISPATCH", "balance")
        if dispatch not in ("balance", "owner"):
            raise ValueError(f"unknown dispatch {dispatch!r}")
        self._dispatch_mode = dispatch
        self._ring_slots = int(
            ring_slots or os.environ.get("REPRO_SERVING_SHM_SLOTS", 32)
        )
        self._ring_slot_bytes = int(
            ring_slot_bytes
            or os.environ.get("REPRO_SERVING_SHM_SLOT_BYTES", 65536)
        )

        self._payloads: List[List[dict]] = [[] for _ in range(self.num_workers)]
        self._worker_of: Dict[int, int] = {}
        self._classes_of: Dict[int, np.ndarray] = {}
        owner_of_class: Dict[int, int] = {}
        for position, shard in enumerate(shards):
            if shard.shard_id in self._worker_of:
                raise ValueError(f"duplicate shard id {shard.shard_id}")
            slot = position % self.num_workers
            payload = shard.to_payload()
            if self._dispatch_mode == "balance":
                # Every worker rehydrates every shard, so any block can
                # go to whichever queue is shortest.
                for dest in range(self.num_workers):
                    self._payloads[dest].append(payload)
            else:
                self._payloads[slot].append(payload)
            self._worker_of[shard.shard_id] = slot
            self._classes_of[shard.shard_id] = np.asarray(
                payload["classes"], dtype=np.int64
            )
            for c in payload["classes"]:
                if c in owner_of_class:
                    raise ValueError(f"class {c} is owned by two shards")
                owner_of_class[c] = shard.shard_id
        self._owner_of_class = owner_of_class

        self._lock = named_lock("ProcessShardPool._lock")
        self._req_ids = itertools.count()
        self._ack_ids = itertools.count()
        self._workers: List[Optional[_WorkerHandle]] = [None] * self.num_workers
        self._rings: List[Optional[shmring.RingPair]] = [None] * self.num_workers
        self._stats = [ShardServingStats(shard_id=i) for i in range(self.num_workers)]
        self._crashes = [0] * self.num_workers  # deaths detected
        self._respawns = [0] * self.num_workers  # replacements published
        self._requeued = [0] * self.num_workers
        self._ring_blocks = [0] * self.num_workers
        self._pipe_blocks = [0] * self.num_workers
        self._dispatch_clock = 0  # rotates balance-dispatch tie-breaking
        self._pumps: List[threading.Thread] = []
        self._gamma: Optional[int] = None
        self._epoch = 0
        self._swapping = False
        self._held: List[_Pending] = []
        self._swaps = 0
        self._running = False
        self._stopping = False

    @classmethod
    def from_store(
        cls,
        store,
        num_shards: Optional[int] = None,
        backend: Optional[str] = None,
        **kwargs,
    ) -> "ProcessShardPool":
        """Rehydrate a pool from a crash-consistent zone store.

        *store* is a :class:`~repro.store.ZoneStore` (or its directory
        path).  The recovered monitor — segment map plus WAL tail replay
        — is partitioned round-robin into ``num_shards`` slices (default:
        the worker count), and the pool's zone epoch and γ are stamped
        from the store **before** any worker spawns, so every warm-up
        handshake rehydrates at exactly the recorded epoch and later
        snapshots must be strictly newer.  Remaining keyword arguments go
        to the constructor verbatim.
        """
        from repro.monitor.monitor import NeuronActivationMonitor
        from repro.serving.shard import ShardRouter
        from repro.store import ZoneStore

        if not isinstance(store, ZoneStore):
            store = ZoneStore.open(store)
        monitor = NeuronActivationMonitor.from_store(
            store, backend=backend, attach=False
        )
        if num_shards is None:
            num_shards = int(kwargs.get("num_workers", 2))
        router = ShardRouter.partition(monitor, num_shards)
        pool = cls(router.shards, **kwargs)
        with pool._lock:
            pool._gamma = int(store.gamma)
            pool._epoch = int(store.epoch)
        return pool

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and complete its warm-up handshake
        (idempotent); returning means all shards are rehydrated."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._stopping = False
        try:
            if self._transport == "shm":
                for index in range(self.num_workers):
                    if self._rings[index] is None:
                        self._rings[index] = shmring.RingPair(
                            f"{os.getpid()}-{index}",
                            self._ring_slots, self._ring_slot_bytes,
                        )
            for index in range(self.num_workers):
                self._workers[index] = self._spawn(index)
        except BaseException:
            self._destroy_rings()
            with self._lock:
                self._running = False
            raise

    def stop(self) -> None:
        """Graceful drain: the stop sentinel queues FIFO behind every
        in-flight block, so workers answer everything before exiting."""
        with self._lock:
            if not self._running:
                return
            self._stopping = True
        for worker in self._workers:
            if worker is None or worker.dead:
                continue
            try:
                with worker.send_lock:
                    worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        # Re-read each slot at join time: a crash handler racing this
        # shutdown may have installed a replacement after the sentinel
        # sweep above (the handler sends that replacement its own stop
        # sentinel when it observes _stopping).
        wedged: List[threading.Thread] = []
        for index in range(self.num_workers):
            worker = self._workers[index]
            if worker is None:
                continue
            worker.process.join(timeout=self.ready_timeout)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            if worker.pump is not None:
                worker.pump.join(timeout=self.ready_timeout)
                if worker.pump.is_alive():
                    wedged.append(worker.pump)
            try:
                worker.conn.close()
            except OSError:
                pass
        # A crash handler racing this shutdown runs on a dead worker's
        # pump thread (its slot is None above, so the join loop skipped
        # it) and may be mid-_spawn: wait for every pump ever started
        # before unlinking, or the replacement attaches to a segment
        # that no longer exists.
        current = threading.current_thread()
        for pump in self._pumps:
            if pump is not current:
                pump.join(timeout=self.ready_timeout)
                if pump.is_alive() and pump not in wedged:
                    wedged.append(pump)
        self._pumps.clear()
        # A pump that outlived its join window may still be holding (or
        # about to take) numpy views into its worker's ring slots.  Say
        # so out loud instead of silently proceeding, and keep those
        # ring mappings alive — unlink drops the /dev/shm name, but the
        # close (and the mapping teardown it implies) is skipped so a
        # late reply resolves against live memory instead of a dead
        # view.  The OS reclaims the mapping at process exit.
        keep_mapped = set()
        if wedged:
            names = ", ".join(sorted(pump.name for pump in wedged))
            warnings.warn(
                f"pump thread(s) failed to join within "
                f"{self.ready_timeout}s at pool shutdown: {names}; their "
                f"ring mappings are kept alive (unlinked, not closed)",
                RuntimeWarning,
                stacklevel=2,
            )
            for pump in wedged:
                # Pump names are "repro-shard-pump-<slot>" (see _spawn).
                try:
                    keep_mapped.add(int(pump.name.rsplit("-", 1)[1]))
                except ValueError:
                    pass
        self._destroy_rings(keep_mapped=keep_mapped)
        with self._lock:
            self._running = False
            self._stopping = False

    def __enter__(self) -> "ProcessShardPool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _destroy_rings(self, keep_mapped=frozenset()) -> None:
        """Unlink + unmap every ring segment (graceful-stop path); the
        shm fault suite asserts nothing is left under ``/dev/shm``.

        Slots in ``keep_mapped`` (a wedged pump may still resolve a late
        reply through their views) are unlinked but stay mapped — the
        ring object is kept in ``self._rings`` so the memory lives for
        as long as anyone could touch it.
        """
        for index, ring in enumerate(self._rings):
            if ring is not None:
                ring.unlink()
                if index in keep_mapped:
                    continue
                ring.close()
                self._rings[index] = None

    def _retire_ring(self, slot: int) -> None:
        """Unlink a dead slot's segments the moment its respawn budget is
        exhausted — no replacement will ever attach to them.  The parent
        keeps its mapping until ``stop()`` (late pump replies may still
        read it); unlinking now just drops the ``/dev/shm`` name."""
        ring = self._rings[slot]
        if ring is not None:
            ring.unlink()

    def _spawn(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-shard-worker-{index}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(index, process, parent_conn)
        # Payloads, γ and epoch are read together under the lock: a zone
        # swap replaces all three atomically, so the spawned worker is
        # either wholly pre-snapshot (the swap loop re-syncs it — its
        # stamped epoch lags) or wholly post-snapshot.  Never mixed.
        with self._lock:
            gamma = self._gamma
            payloads = self._payloads[index]
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

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        shard_id: int,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        with_distances: bool = False,
        distance_cap: Optional[int] = None,
    ) -> Future:
        """Ship one row block to the worker owning ``shard_id``.

        Returns a :class:`concurrent.futures.Future` resolving to the
        ``(verdicts, distances | None)`` pair of
        :meth:`MonitorShard.check_batch` — the executor-shaped call the
        :class:`~repro.serving.server.StreamServer` awaits per coalesced
        batch (``asyncio.wrap_future``).  ``distance_cap`` is forwarded
        to the worker's combined kernel (bounded distances; verdicts
        stay exact for any cap).
        """
        return self._enqueue(
            shard_id, "both" if with_distances else "check",
            patterns, predicted_classes, distance_cap,
        )

    def submit_distances(
        self,
        shard_id: int,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> Future:
        """Block future resolving to ``(None, min_distances)`` —
        ``cap``-bounded when requested (see
        :meth:`ZoneBackend.min_distances`)."""
        return self._enqueue(shard_id, "dist", patterns, predicted_classes, cap)

    def _enqueue(self, shard_id, mode, patterns, classes, cap) -> Future:
        if shard_id not in self._worker_of:
            raise KeyError(f"no shard {shard_id} in this pool")
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
        pending = _Pending(
            req_id=next(self._req_ids),
            shard_id=shard_id,
            mode=mode,
            packed=pack_patterns(patterns),
            rows=len(patterns),
            width=patterns.shape[1],
            classes=np.atleast_1d(np.asarray(classes)),
            cap=cap,
        )
        self._dispatch(pending)
        return pending.future

    def _dispatch(self, pending: _Pending) -> None:
        """Register + send one block, surviving worker-death races.

        Under ``dispatch="balance"`` the block goes to the live worker
        with the fewest outstanding blocks (every worker hosts every
        shard); under ``"owner"`` it goes to the shard's static home
        slot.  Either way the pending entry is registered in the target
        worker's in-flight map under the pool lock *before* the send, so
        the crash handler's drain always sees it; if the send itself
        fails, either the handler already requeued the entry (it is gone
        from the map, and the handler reclaimed its ring slot) or this
        thread reclaims the slot and retries on a respawned worker.

        While a zone swap is in progress the block is *held* instead of
        sent (the swap replays it once every worker is at the new epoch),
        which also covers crash-handler requeues racing the swap: a
        requeued block can never land on a stale worker.
        """
        home = self._worker_of[pending.shard_id]
        deadline = time.monotonic() + self.ready_timeout
        while True:
            worker = None
            with self._lock:
                if not self._running or self._stopping:
                    raise RuntimeError("pool is not running")
                if self._swapping:
                    self._held.append(pending)
                    return
                if self._dispatch_mode == "owner":
                    candidate = self._workers[home]
                    if candidate is not None and not candidate.dead:
                        worker = candidate
                    elif (
                        candidate is None
                        and self._crashes[home] > self.max_respawns
                    ):
                        raise WorkerCrashError(
                            f"worker {home} exceeded its respawn budget "
                            f"({self.max_respawns})"
                        )
                else:
                    live = [
                        w for w in self._workers
                        if w is not None and not w.dead
                    ]
                    if live:
                        # Shortest queue first; ties rotate.  A plain
                        # min() always hands ties to the lowest index,
                        # which starves the tail of the fleet whenever
                        # blocks drain faster than they arrive (the
                        # transport-bound shm bench measured a 5609/
                        # 4509/3475/2407 split at 4 workers that way).
                        rr = self._dispatch_clock
                        self._dispatch_clock = rr + 1
                        worker = min(
                            live,
                            key=lambda w: (
                                len(w.inflight),
                                (w.index - rr) % self.num_workers,
                            ),
                        )
                    elif all(
                        crashes > self.max_respawns
                        for crashes in self._crashes
                    ):
                        raise WorkerCrashError(
                            f"every worker slot exceeded its respawn "
                            f"budget ({self.max_respawns})"
                        )
                if worker is not None:
                    worker.inflight[pending.req_id] = pending
                    stats = self._stats[worker.index]
                    depth = len(worker.inflight)
                    stats.queue_depth = depth
                    if depth > stats.max_queue_depth:
                        stats.max_queue_depth = depth
            if worker is not None:
                if self._send_block(worker, pending):
                    return
                with self._lock:
                    if worker.inflight.pop(pending.req_id, None) is None:
                        return  # crash handler requeued it already
                # The handler never saw the entry (its drain predates the
                # registration): reclaim the ring slot ourselves and
                # retry on a replacement.
                self._reclaim_slot(worker.index, pending)
            elif time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"no worker came back within {self.ready_timeout}s"
                )
            else:
                time.sleep(0.01)  # respawn in progress

    def _send_block(self, worker: _WorkerHandle, pending: _Pending) -> bool:
        """Frame + send one registered block; ``False`` means the worker
        died mid-send (the crash handler has run; caller sorts out who
        owns the requeue)."""
        ring = self._rings[worker.index]
        wire = None
        via_ring = False
        # The slot layout is one class id per row: anything else (odd
        # caller-shaped blocks; they fail validation worker-side) rides
        # the pipe, as do non-integer class arrays.
        framable = (
            ring is not None
            and len(pending.classes) == pending.rows
            and pending.classes.dtype.kind in "iu"
        )
        if framable and ring.fits(pending.rows, pending.packed.nbytes):
            slot = ring.acquire()
            if slot >= 0:
                shmring.frame_request(ring, slot, pending.packed, pending.classes)
                pending.slot = slot
                wire = pending.wire_shm(slot)
                via_ring = True
        if wire is None:
            wire = pending.wire()  # oversized block or rings exhausted
        try:
            with worker.send_lock:
                worker.conn.send(wire)
        except (OSError, ValueError):
            self._on_worker_death(worker)
            return False
        # Not ``pending.slot``: the pump may already have answered the
        # block and reset its slot to -1.
        with self._lock:
            if via_ring:
                self._ring_blocks[worker.index] += 1
            else:
                self._pipe_blocks[worker.index] += 1
        return True

    def _reclaim_slot(self, index: int, pending: _Pending) -> None:
        """Return a pending block's ring slot to slot ``index``'s free
        queue (crash/requeue paths; the dead worker can no longer touch
        the memory)."""
        if pending.slot >= 0:
            ring = self._rings[index]
            if ring is not None:
                ring.release(pending.slot)
            pending.slot = -1

    # ------------------------------------------------------------------
    # response pump + crash handling
    # ------------------------------------------------------------------
    def _pump(self, worker: _WorkerHandle) -> None:
        conn = worker.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind in ("ok", "err"):
                with self._lock:
                    pending = worker.inflight.pop(msg[1], None)
                    if pending is not None:
                        stats = self._stats[worker.index]
                        stats.requests += pending.rows
                        stats.batches += 1
                        if pending.rows > stats.max_batch:
                            stats.max_batch = pending.rows
                        stats.queue_depth = len(worker.inflight)
                        stats.latencies.append(
                            time.perf_counter() - pending.enqueued_at
                        )
                result = msg[2]
                if pending is not None and pending.slot >= 0:
                    # Popping the entry made this thread the slot's owner:
                    # copy the response out, then recycle the index.
                    ring = self._rings[worker.index]
                    if kind == "ok":
                        _tag, slot, has_verdicts, has_distances = result
                        result = shmring.read_response(
                            ring, slot, pending.rows,
                            has_verdicts, has_distances,
                        )
                    ring.release(pending.slot)
                    pending.slot = -1
                if pending is not None and not pending.future.done():
                    if kind == "ok":
                        pending.future.set_result(result)
                    else:
                        pending.future.set_exception(result)
            elif kind in ("gamma_ok", "zone_ok"):
                event = worker.acks.pop(msg[1], None)
                if event is not None:
                    event.set()
            elif kind == "bye":
                worker.stopped = True
                break
        if not worker.stopped:
            self._on_worker_death(worker)

    def _on_worker_death(self, worker: _WorkerHandle) -> None:
        """Crash path: drain the dead worker's in-flight blocks, reclaim
        their ring slots, respawn a replacement from the retained
        payloads, re-apply γ, requeue."""
        with self._lock:
            if worker.dead or worker.stopped:
                return
            worker.dead = True
            slot = worker.index
            pending = list(worker.inflight.values())
            worker.inflight.clear()
            acks = list(worker.acks.values())
            worker.acks.clear()
            self._crashes[slot] += 1
            exhausted = self._crashes[slot] > self.max_respawns
            stopping = self._stopping or not self._running
            self._workers[slot] = None
        # Draining made this thread the owner of every reclaimed entry:
        # the dead worker can never touch the ring again, so its slots
        # go straight back to the free queue before the requeue.
        for entry in pending:
            self._reclaim_slot(slot, entry)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5)
        for event in acks:  # unblock any set_gamma broadcaster
            event.set()
        replacement = None
        if stopping or (exhausted and self._dispatch_mode != "balance"):
            if exhausted:
                self._retire_ring(slot)
            error = WorkerCrashError(
                f"shard worker {worker.index} died"
                + ("" if not exhausted else
                   f" and exceeded its respawn budget ({self.max_respawns})")
            )
            for entry in pending:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        if exhausted:
            # Balance dispatch: this slot is gone for good, but other
            # slots may still be live — requeue the drained blocks there.
            # They only fail once every slot has burned its budget
            # (_dispatch raises WorkerCrashError then).
            self._retire_ring(slot)
        else:
            try:
                replacement = self._spawn(slot)
            except WorkerCrashError as exc:
                with self._lock:
                    # The slot is known-unrecoverable: burn the remaining
                    # respawn budget so later dispatches fail fast with
                    # WorkerCrashError instead of spinning out the full
                    # come-back deadline waiting for a replacement that
                    # will never be installed.
                    self._crashes[slot] = self.max_respawns + 1
                self._retire_ring(slot)
                if self._dispatch_mode != "balance":
                    for entry in pending:
                        if not entry.future.done():
                            entry.future.set_exception(exc)
                    return
        # The current γ travelled inside the replacement's init handshake
        # (see _spawn), so it is applied before the slot is even published
        # — no block, requeued or fresh, can race ahead of it.
        with self._lock:
            if replacement is not None:
                self._workers[slot] = replacement
                self._respawns[slot] += 1
            self._requeued[slot] += len(pending)
            stop_now = self._stopping
        if stop_now and replacement is not None:
            # stop() may have started while we were spawning and already
            # passed this slot (it was None then): deliver the sentinel
            # ourselves so the replacement drains instead of leaking.
            try:
                with replacement.send_lock:
                    replacement.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for entry in pending:
            try:
                self._dispatch(entry)
            except (RuntimeError, KeyError) as exc:
                if not entry.future.done():
                    entry.future.set_exception(exc)

    # ------------------------------------------------------------------
    # synchronous routed queries (ShardRouter mirror)
    # ------------------------------------------------------------------
    def _route(self, predicted_classes: np.ndarray) -> Dict[int, np.ndarray]:
        predicted_classes = np.asarray(predicted_classes)
        groups: Dict[int, np.ndarray] = {}
        for shard_id, classes in self._classes_of.items():
            mask = np.isin(predicted_classes, classes)
            if mask.any():
                groups[shard_id] = np.flatnonzero(mask)
        return groups

    def owns(self, predicted_class: int) -> bool:
        """Whether any shard of this pool monitors the class."""
        return predicted_class in self._owner_of_class

    def check(
        self, patterns: np.ndarray, predicted_classes: np.ndarray
    ) -> np.ndarray:
        """Synchronous routed check across the worker fleet — the
        process-level mirror of :meth:`ShardRouter.check` (unmonitored
        classes are trusted ``True``)."""
        patterns = np.atleast_2d(np.asarray(patterns))
        predicted_classes = np.asarray(predicted_classes)
        out = np.ones(len(patterns), dtype=bool)
        blocks = [
            (rows, self.submit(shard_id, patterns[rows], predicted_classes[rows]))
            for shard_id, rows in self._route(predicted_classes).items()
        ]
        for rows, future in blocks:
            verdicts, _ = future.result(timeout=self.ready_timeout)
            out[rows] = verdicts
        return out

    def min_distances(
        self,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Synchronous routed distances (0 for unmonitored classes),
        ``cap``-bounded when requested."""
        patterns = np.atleast_2d(np.asarray(patterns))
        predicted_classes = np.asarray(predicted_classes)
        out = np.zeros(len(patterns), dtype=np.int64)
        blocks = [
            (
                rows,
                self.submit_distances(
                    shard_id, patterns[rows], predicted_classes[rows], cap=cap
                ),
            )
            for shard_id, rows in self._route(predicted_classes).items()
        ]
        for rows, future in blocks:
            _, distances = future.result(timeout=self.ready_timeout)
            out[rows] = distances
        return out

    # ------------------------------------------------------------------
    # zone-epoch resync (fleet-atomic snapshot swap)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Zone epoch the fleet currently serves (0 = as constructed)."""
        with self._lock:
            return self._epoch

    def apply_snapshot(self, snapshot) -> None:
        """Install a :class:`~repro.monitor.drift.ZoneSnapshot` fleet-wide.

        The γ-resync handshake generalised to whole zones, in three
        phases, so no block is ever answered by a mixed-epoch fleet:

        1. **Drain.**  New dispatches (and crash-handler requeues) are
           *held*, then the swap waits until every worker's in-flight map
           is empty — all pre-swap blocks are answered entirely by
           pre-swap zones.
        2. **Install.**  The parent's retained payloads, routing tables,
           γ and epoch are replaced atomically under the pool lock: from
           this instant any respawn rehydrates at the new epoch
           (``_spawn`` reads all of them under the same lock).
        3. **Rehydrate + replay.**  Every live worker whose stamped epoch
           lags gets a ``("zone", payloads, γ, ack)`` message and is
           awaited; workers that crash mid-handshake are respawned (the
           replacement inits from the already-installed payloads) and the
           loop re-checks until the whole fleet is at the new epoch.
           Only then are the held blocks replayed — entirely by new-epoch
           zones.

        Raises ``ValueError`` for a non-monotonic epoch or a payload set
        that does not cover the pool's shards, ``RuntimeError`` when the
        pool is stopped or another swap is live.
        """
        payload_by_shard = {}
        for payload in snapshot.payloads:
            shard_id = int(payload["shard_id"])
            if shard_id in payload_by_shard:
                raise ValueError(f"snapshot has duplicate shard id {shard_id}")
            payload_by_shard[shard_id] = payload
        with self._lock:
            if not self._running or self._stopping:
                raise RuntimeError("pool is not running")
            if self._swapping:
                raise RuntimeError("another snapshot swap is in progress")
            if snapshot.epoch <= self._epoch:
                raise ValueError(
                    f"snapshot epoch {snapshot.epoch} is not newer than the "
                    f"fleet epoch {self._epoch}"
                )
            if set(payload_by_shard) != set(self._worker_of):
                raise ValueError(
                    f"snapshot shards {sorted(payload_by_shard)} do not match "
                    f"the pool's shards {sorted(self._worker_of)}"
                )
            self._swapping = True
        try:
            self._drain_inflight()
            with self._lock:
                payloads: List[List[dict]] = [[] for _ in range(self.num_workers)]
                classes_of: Dict[int, np.ndarray] = {}
                owner_of_class: Dict[int, int] = {}
                for shard_id, slot in self._worker_of.items():
                    payload = payload_by_shard[shard_id]
                    if self._dispatch_mode == "balance":
                        for dest in range(self.num_workers):
                            payloads[dest].append(payload)
                    else:
                        payloads[slot].append(payload)
                    classes_of[shard_id] = np.asarray(
                        payload["classes"], dtype=np.int64
                    )
                    for c in payload["classes"]:
                        if c in owner_of_class:
                            raise ValueError(f"class {c} is owned by two shards")
                        owner_of_class[c] = shard_id
                self._payloads = payloads
                self._classes_of = classes_of
                self._owner_of_class = owner_of_class
                self._gamma = int(snapshot.gamma)
                self._epoch = int(snapshot.epoch)
            self._rehydrate_fleet(int(snapshot.epoch))
            with self._lock:
                self._swaps += 1
        finally:
            with self._lock:
                self._swapping = False
                held, self._held = self._held, []
            for entry in held:
                try:
                    self._dispatch(entry)
                except (RuntimeError, KeyError) as exc:
                    if not entry.future.done():
                        entry.future.set_exception(exc)

    def _drain_inflight(self) -> None:
        """Wait until no worker holds an unanswered block (held blocks do
        not count: they have not been sent anywhere yet)."""
        deadline = time.monotonic() + self.ready_timeout
        while True:
            with self._lock:
                if self._stopping or not self._running:
                    raise RuntimeError("pool stopped during the zone swap")
                busy = any(
                    worker is not None and not worker.dead and worker.inflight
                    for worker in self._workers
                )
            if not busy:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"zone swap drain did not finish within "
                    f"{self.ready_timeout}s"
                )
            time.sleep(0.002)

    def _rehydrate_fleet(self, epoch: int) -> None:
        """Re-sync every worker whose stamped epoch lags ``epoch``.

        Loops until no live worker is stale *and* no slot is mid-respawn
        (a crash handler may publish a replacement spawned from pre-swap
        state after this loop last looked; its lagging stamp makes the
        next iteration fix it).
        """
        deadline = time.monotonic() + self.ready_timeout
        while True:
            with self._lock:
                if self._stopping or not self._running:
                    raise RuntimeError("pool stopped during the zone swap")
                stale = [
                    worker
                    for worker in self._workers
                    if worker is not None and not worker.dead
                    and worker.epoch != epoch
                ]
                respawning = any(
                    worker is None and self._crashes[slot] <= self.max_respawns
                    for slot, worker in enumerate(self._workers)
                )
                targets = []
                for worker in stale:
                    ack_id = next(self._ack_ids)
                    event = threading.Event()
                    worker.acks[ack_id] = event
                    targets.append(
                        (worker, self._payloads[worker.index], ack_id, event)
                    )
                gamma = self._gamma
            for worker, payloads, ack_id, _event in targets:
                try:
                    with worker.send_lock:
                        worker.conn.send(("zone", payloads, gamma, ack_id))
                except (OSError, ValueError):
                    self._on_worker_death(worker)
            for worker, _payloads, _ack_id, event in targets:
                if event.wait(timeout=self.ready_timeout) and not worker.dead:
                    # Genuine ack (crash handling marks dead *before*
                    # releasing ack events): this worker now serves the
                    # new zones.
                    worker.epoch = epoch
            if not stale and not respawning:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"zone swap rehydration did not finish within "
                    f"{self.ready_timeout}s"
                )
            if not targets:
                time.sleep(0.002)  # waiting out a respawn in progress

    def set_gamma(self, gamma: int) -> None:
        """Broadcast a γ change to every worker and wait for the acks
        (the process-level mirror of :meth:`ShardRouter.set_gamma`)."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        with self._lock:
            if not self._running:
                raise RuntimeError("pool is not running")
            self._gamma = int(gamma)
            targets = []
            for worker in self._workers:
                if worker is None or worker.dead:
                    continue
                ack_id = next(self._ack_ids)
                event = threading.Event()
                worker.acks[ack_id] = event
                targets.append((worker, ack_id, event))
        for worker, ack_id, _event in targets:
            try:
                with worker.send_lock:
                    worker.conn.send(("gamma", self._gamma, ack_id))
            except (OSError, ValueError):
                self._on_worker_death(worker)
        for _worker, _ack_id, event in targets:
            event.wait(timeout=self.ready_timeout)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> List[Dict[str, float]]:
        """Per-worker serving rows: the familiar
        :class:`ShardServingStats` counters keyed by worker slot, plus
        crash/respawn/requeue accounting: ``crashes`` counts detected
        deaths, ``respawns`` published replacements (see
        :attr:`total_crashes` / :attr:`total_respawns`)."""
        rows = []
        with self._lock:
            for index, stats in enumerate(self._stats):
                row = stats.as_dict()
                row["worker"] = row.pop("shard")
                worker = self._workers[index]
                row["pid"] = (
                    worker.process.pid if worker is not None else -1
                )
                row["crashes"] = self._crashes[index]
                row["respawns"] = self._respawns[index]
                row["requeued_blocks"] = self._requeued[index]
                row["epoch"] = worker.epoch if worker is not None else -1
                row["transport"] = self._transport
                row["ring_blocks"] = self._ring_blocks[index]
                row["pipe_blocks"] = self._pipe_blocks[index]
                rows.append(row)
        return rows

    @property
    def total_swaps(self) -> int:
        """How many zone snapshots have been installed fleet-wide."""
        with self._lock:
            return self._swaps

    @property
    def total_crashes(self) -> int:
        """How many worker deaths have been detected, over all slots.

        Rises as soon as a death is handled, before any replacement
        exists; this is the count ``max_respawns`` budgets."""
        return sum(self._crashes)

    @property
    def total_respawns(self) -> int:
        """How many replacement workers have been published into their
        slots after a crash.

        Counted in the same locked step that installs the replacement,
        so once this rises the new worker is in ``worker_pids()`` and
        takes dispatches.  Lags ``total_crashes`` while a respawn is in
        progress, and stays behind it for slots that were retired."""
        return sum(self._respawns)

    @property
    def total_requeued(self) -> int:
        """How many in-flight blocks were replayed after a crash."""
        return sum(self._requeued)

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

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (test/ops hook, e.g. for fault injection)."""
        with self._lock:
            return [
                worker.process.pid
                for worker in self._workers
                if worker is not None and worker.process.is_alive()
            ]

    def __len__(self) -> int:
        return self.num_workers

    def __repr__(self) -> str:
        return (
            f"ProcessShardPool(workers={self.num_workers}, "
            f"shards={len(self._worker_of)}, "
            f"method={self._ctx.get_start_method()!r}, "
            f"transport={self._transport!r}, "
            f"dispatch={self._dispatch_mode!r}, "
            f"running={self._running})"
        )
