"""One shard-fleet core: worker loop, dispatcher and failure model.

The monitor's serving fleet has two executors — the same-host
:class:`~repro.serving.procpool.ProcessShardPool` (worker processes over
pipes plus shared-memory rings) and the cross-host
:class:`~repro.serving.cluster.ClusterCoordinator` (workers over framed
TCP).  Everything they share lives here, so each of them keeps only how
a worker comes to exist and how bytes reach it.

* **The worker loop.**  :func:`serve_shards` is the only worker: it
  answers the control tuples below through a private
  :class:`~repro.serving.shard.ShardRouter` of the shards it holds,
  rehydrated from portable ``to_payload()`` dicts, until the
  ``("stop",)`` sentinel or EOF.  Nothing engine-internal ever crosses:
  shards travel as payloads, row blocks as ``pack_patterns`` matrices.

* **Wire tuples** (identical on pipes and TCP frames)::

      ("init", payloads, gamma, ring_spec)   -> ("ready", shard_count)
      ("req", req_id, mode, packed, rows, width, classes, cap)
                                             -> ("ok"|"err", req_id, result)
      ("gamma", gamma, ack_id)               -> ("gamma_ok", ack_id)
      ("zone", payloads, gamma, ack_id)      -> ("zone_ok", ack_id)
      ("ping", stamp)                        -> ("pong", stamp)
      ("stop",)                              -> ("bye",)

  A block's rows may span every shard the worker holds; the per-row
  ``classes`` route them.  ``mode`` is ``"check"``, ``"both"``
  (verdicts + exact distances from one kernel) or ``"dist"``
  (``cap``-bounded distances); ``packed`` is the packed matrix or a
  ``("shm", slot)`` ring descriptor (:mod:`~repro.serving.shmring`).  A
  bad block (a row of a class the worker does not hold, too) fails its
  own reply, never the worker.

* **The coordinator.**  :class:`ShardFleet` holds the shard table, the
  per-shard holder sets, one :class:`WorkerHandle` per live worker and
  one :class:`Block` per in-flight row block.  It runs on one lock, one
  reader thread per worker and ``concurrent.futures`` futures:

  - *dispatch* sends a caller block whole to the live worker holding
    all its shards with the shortest in-flight queue (ties rotate) — a
    pool worker holds every shard, so that is one request.  A block no
    one worker holds (a split placement, or a re-place since it was
    first sent) is split by holder set, its unmonitored rows answered on
    the spot, and the parts joined into one future.  Blocks are held
    while a zone swap runs; a shard with no live holder is waited for a
    bounded time;
  - *the reader* resolves futures and γ/zone acks, and turns EOF or a
    torn frame into a death;
  - *one failure model*: a death drains the worker's blocks, releases
    their ring slots, counts the crash (``total_crashes``), then either
    brings the worker back (respawn, or wait for it to reconnect) or —
    with the crash budget spent — gives its shards to the survivors, and
    requeues the drained blocks.  ``total_respawns`` rises in the step
    that publishes the replacement, never earlier;
  - *zone swaps* (:meth:`ShardFleet.apply_snapshot`) drain, install,
    rehydrate every stale worker, then replay the held blocks, so no
    block is ever answered by a mixed-epoch fleet.

Subclasses supply the transport hooks: ``_launch`` / ``_teardown``
(bring the fleet up and down), ``_replace`` / ``_retire`` (a dead key
comes back, or is given up), and optionally ``_send`` / ``_reclaim``
(ring framing) and ``_transport_stats``.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
from concurrent.futures import Future
from typing import Dict, Hashable, List, Optional, Sequence, Set

import numpy as np

from repro.devtools.lint.runtime import named_lock
from repro.monitor.patterns import pack_patterns, unpack_patterns
from repro.serving import netproto, shmring
from repro.serving.server import ShardServingStats
from repro.serving.shard import ClassIndex, MonitorShard, ShardRouter


class WorkerCrashError(RuntimeError):
    """A shard worker died more times than the respawn budget allows."""


#: What a dead, closed or torn worker connection raises on send/recv —
#: pipe ends raise EOF/OSError, frame connections ProtocolError.
CONN_ERRORS = (EOFError, OSError, ValueError, netproto.ProtocolError)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _load(payloads, gamma) -> ShardRouter:
    """Rehydrate the held shards; a non-``None`` γ is applied before any
    block can reach them (a respawned worker inherits the fleet's current
    γ, not the payloads' construction-time one)."""
    router = ShardRouter([MonitorShard.from_payload(p) for p in payloads])
    if gamma is not None:
        router.set_gamma(gamma)
    return router


def _answer(router: Optional[ShardRouter], rings, msg) -> tuple:
    """Run one ``("req", ...)`` block; the reply tuple."""
    _, req_id, mode, packed, rows, width, classes, cap = msg
    try:
        slot = -1
        if type(packed) is tuple:
            # ("shm", slot): gather the block from the request ring
            # instead of the control tuple.
            slot = packed[1]
            packed, classes = shmring.read_request(rings, slot, rows, width)
        # Only held classes are routed here: any other row means the
        # coordinator and this worker disagree on placement.
        unheld = np.asarray(classes)[router.locate(classes) < 0]
        if len(unheld):
            raise KeyError(f"classes {sorted(set(unheld.tolist()))} are not held here")
        # Unpack at the *sender's* row width: a wrong-width block then
        # fails the monitor's own validation instead of silently gaining
        # or losing padding bits.
        patterns = unpack_patterns(packed, width)[:rows]
        if mode == "check" or mode == "both":
            result = router.check_batch(patterns, classes, mode == "both", cap)
        elif mode == "dist":
            result = (None, router.min_distances(patterns, classes, cap=cap))
        else:
            raise ValueError(f"unknown request mode {mode!r}")
        if slot >= 0:
            verdicts, distances = result
            shmring.frame_response(rings, slot, verdicts, distances)
            result = ("shm", slot, verdicts is not None, distances is not None)
        return ("ok", req_id, result)
    except Exception as exc:  # noqa: BLE001 — shipped to the caller
        # The coordinator reclaims any ring slot when it pops the failed
        # block, so no release here.
        return ("err", req_id, exc)


def serve_shards(conn, rings=None) -> bool:
    """Serve shard blocks over ``conn`` until told to stop.

    ``conn`` is anything with a pipe end's ``send``/``recv`` (a
    ``multiprocessing`` connection or a
    :class:`~repro.serving.netproto.FrameConnection`).  ``rings`` are
    already-attached shared-memory rings for ``("shm", slot)`` blocks;
    an ``init`` carrying a ring spec attaches its own, closed on exit.
    The worker never owns a slot past its own reply and never unlinks:
    segment lifetime is the coordinator's job.

    Returns ``True`` on the ``("stop",)`` sentinel (after answering
    ``("bye",)``, so the coordinator can tell a drain from a crash) and
    ``False`` on EOF or a torn frame (the caller may reconnect).
    """
    router: Optional[ShardRouter] = None
    attached = None
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "req":
                reply = _answer(router, rings, msg)
                try:
                    conn.send(reply)
                except CONN_ERRORS:
                    raise
                except Exception:  # unpicklable exception: degrade
                    conn.send(("err", msg[1], RuntimeError(repr(reply[2]))))
                # Drop the reply before the next recv: an exception's
                # traceback pins the slot views, and once the reply lands
                # the coordinator is free to reuse the slot.
                reply = None
            elif kind == "init" or kind == "zone":
                # ``zone`` is the γ handshake generalised to whole zones
                # and doubles as re-placement: it replaces the entire
                # router between two blocks, so every block this worker
                # answers sees exactly one zone version.
                router = _load(msg[1], msg[2])
                if kind == "zone":
                    conn.send(("zone_ok", msg[3]))
                    continue
                if msg[3] is not None:
                    attached = rings = shmring.AttachedRings(msg[3])
                conn.send(("ready", len(router)))
            elif kind == "gamma":
                router.set_gamma(msg[1])
                conn.send(("gamma_ok", msg[2]))
            elif kind == "ping":
                conn.send(("pong", msg[1]))
            elif kind == "stop":
                conn.send(("bye",))
                return True
    except CONN_ERRORS:
        return False
    finally:
        if attached is not None:
            attached.close()


# ----------------------------------------------------------------------
# coordinator-side records
# ----------------------------------------------------------------------
class Block:
    """One row block, of any shards: the request (kept verbatim for
    requeue after a death) plus the caller's future.  ``slot`` is the
    ring slot the block occupies (``-1`` = not on a ring); exactly one
    owner ever releases it — the reader on reply, or whoever pops the
    block from an in-flight map on the death/requeue paths."""

    __slots__ = (
        "req_id", "mode", "packed", "rows", "width",
        "classes", "cap", "slot", "future", "enqueued_at",
    )

    def __init__(self, req_id, mode, packed, rows, width, classes, cap):
        self.req_id = req_id
        self.mode = mode
        self.packed = packed
        self.rows = rows
        self.width = width
        self.classes = classes
        self.cap = cap
        self.slot = -1
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()

    def wire(self) -> tuple:
        if self.slot >= 0:
            # Rows and classes live in the ring slot; ``width`` still
            # travels so the worker reshapes (and validates) the packed
            # view at the sender's row width.
            return (
                "req", self.req_id, self.mode, ("shm", self.slot),
                self.rows, self.width, None, self.cap,
            )
        return (
            "req", self.req_id, self.mode, self.packed,
            self.rows, self.width, self.classes, self.cap,
        )


class WorkerHandle:
    """Coordinator-side view of one live worker: its connection, the
    in-flight blocks the death path drains, pending γ/zone acks, its
    shard set, the zone epoch it was rehydrated at, and ``last_seen`` —
    the liveness clock (any inbound frame refreshes it)."""

    __slots__ = (
        "key", "conn", "send_lock", "process", "pid", "pump", "inflight",
        "acks", "shard_ids", "epoch", "dead", "stopped", "last_seen",
    )

    def __init__(self, key, conn, pid, process=None):
        self.key = key
        self.conn = conn
        self.send_lock = named_lock("WorkerHandle.send_lock")
        self.process = process
        self.pid = pid
        self.pump: Optional[threading.Thread] = None
        self.inflight: Dict[int, Block] = {}
        self.acks: Dict[int, threading.Event] = {}
        self.shard_ids: Set[int] = set()
        self.epoch = 0
        self.dead = False
        self.stopped = False
        self.last_seen = time.monotonic()


def _tables(payloads):
    """``(payload_of, owner_of_class)`` for a payload set, rejecting
    duplicate shard ids and classes owned twice."""
    payload_of: Dict[int, dict] = {}
    owner_of_class: Dict[int, int] = {}
    for payload in payloads:
        shard_id = int(payload["shard_id"])
        if shard_id in payload_of:
            raise ValueError(f"duplicate shard id {shard_id}")
        payload_of[shard_id] = payload
        for c in payload["classes"]:
            if c in owner_of_class:
                raise ValueError(f"class {c} is owned by two shards")
            owner_of_class[c] = shard_id
    return payload_of, owner_of_class


def _join(block: Block, parts: List[tuple]) -> None:
    """Resolve ``block.future`` from ``(rows, part)`` pairs — blocks over
    disjoint subsets of its rows — stitched back in row order; rows in
    no part are unmonitored (trusted, distance 0).  A failed part fails
    the whole block."""
    answer = (
        None if block.mode == "dist" else np.ones(block.rows, dtype=bool),
        None if block.mode == "check" else np.zeros(block.rows, dtype=np.int64),
    )
    arrived = itertools.count(1)  # next() is atomic: parts resolve on many readers

    def on_part(_future) -> None:
        if next(arrived) < len(parts) or block.future.done():
            return
        for rows, part in parts:
            error = part.future.exception()
            if error is not None:
                block.future.set_exception(error)
                return
            for out, got in zip(answer, part.future.result()):
                if out is not None:
                    out[rows] = got
        block.future.set_result(answer)

    if not parts:
        block.future.set_result(answer)
    for _rows, part in parts:
        part.future.add_done_callback(on_part)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class ShardFleet:
    """The coordinator both executors share (see the module docstring).

    Workers are keyed by a hashable ``key`` — the pool's slot index or
    the cluster's registered name — and every per-worker counter is kept
    by key, so it survives the worker's replacements.
    """

    #: Whether the fleet spawns its own workers: only then does
    #: ``max_respawns`` budget them, and only then is a dropped key
    #: certain to come back.
    _self_hosted = True
    #: ``stats()`` transport tag.
    _transport = ""

    def __init__(
        self,
        shards: Sequence[MonitorShard],
        context: Optional[str],
        max_respawns: int,
        ready_timeout: float,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError(f"{type(self).__name__} needs at least one shard")
        self.max_respawns = max_respawns
        self.ready_timeout = ready_timeout
        if context is None:
            context = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(context)
        self._payload_of, self._owner_of_class = _tables(
            shard.to_payload() for shard in shards
        )
        self._index = ClassIndex(self._owner_of_class)

        self._lock = named_lock("ShardFleet._lock")
        self._req_ids = itertools.count()
        self._ack_ids = itertools.count()
        self._workers: Dict[Hashable, WorkerHandle] = {}
        self._holders: Dict[int, Set[Hashable]] = {
            shard_id: set() for shard_id in self._payload_of
        }
        self._stats_of: Dict[Hashable, ShardServingStats] = {}
        self._crashes: Dict[Hashable, int] = {}  # deaths detected
        self._respawns: Dict[Hashable, int] = {}  # replacements published
        self._requeued: Dict[Hashable, int] = {}
        self._dropped: Set[Hashable] = set()  # dead keys not yet replaced
        self._pumps: List[threading.Thread] = []
        self._dispatch_clock = 0  # rotates shortest-queue tie-breaking
        self._gamma: Optional[int] = None
        self._epoch = 0
        self._swapping = False
        self._held: List[Block] = []
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
    ):
        """Rehydrate a fleet from a crash-consistent zone store.

        *store* is a :class:`~repro.store.ZoneStore` (or its directory
        path).  The recovered monitor — segment map plus WAL tail replay
        — is partitioned round-robin into ``num_shards`` slices (default:
        the fleet size), and the zone epoch and γ are stamped from the
        store **before** any worker exists, so every init handshake
        rehydrates at exactly the recorded epoch and later snapshots
        must be strictly newer.  Remaining keyword arguments go to the
        constructor verbatim.
        """
        from repro.monitor.monitor import NeuronActivationMonitor
        from repro.store import ZoneStore

        if not isinstance(store, ZoneStore):
            store = ZoneStore.open(store)
        monitor = NeuronActivationMonitor.from_store(
            store, backend=backend, attach=False
        )
        if num_shards is None:
            num_shards = int(kwargs.get("num_workers", kwargs.get("workers", 2)))
        router = ShardRouter.partition(monitor, num_shards)
        fleet = cls(router.shards, **kwargs)
        with fleet._lock:
            fleet._gamma = int(store.gamma)
            fleet._epoch = int(store.epoch)
        return fleet

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the whole fleet up (idempotent); returning means every
        worker has finished its init handshake."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._stopping = False
        try:
            self._launch()
        except BaseException:
            self._halt()
            raise

    def stop(self) -> None:
        """Graceful drain: the stop sentinel queues FIFO behind every
        in-flight block, so workers answer everything before exiting
        (idempotent; safe before ``start()``)."""
        with self._lock:
            if not self._running:
                return
        self._halt()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _halt(self) -> None:
        with self._lock:
            self._stopping = True
            live = list(self._workers.values())
        self._close_intake()
        for worker in live:
            if not worker.dead:
                self._send_ctl(worker, ("stop",))
        wedged: List[threading.Thread] = []
        for worker in live:
            if worker.process is not None:
                worker.process.join(timeout=self.ready_timeout)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=5)
            if worker.pump is not None:
                worker.pump.join(timeout=self.ready_timeout)
                if worker.pump.is_alive():
                    wedged.append(worker.pump)
            worker.conn.close()
        # A death handler racing this shutdown runs on a dead worker's
        # reader thread (no longer in the map) and may be mid-respawn:
        # wait for every reader ever started before the transport goes
        # away, or a replacement attaches to what no longer exists.
        current = threading.current_thread()
        for pump in self._pumps:
            if pump is not current:
                pump.join(timeout=self.ready_timeout)
                if pump.is_alive() and pump not in wedged:
                    wedged.append(pump)
        self._pumps.clear()
        with self._lock:
            held, self._held = self._held, []
        self._redispatch(held)  # fails each with "not running"
        self._teardown(wedged)
        with self._lock:
            self._workers.clear()
            for holders in self._holders.values():
                holders.clear()
            self._dropped.clear()
            self._running = False
            self._stopping = False

    def _publish(self, handle: WorkerHandle) -> None:
        """Make a handshaken worker dispatchable.  A key that died and
        comes back counts as a respawn in this same locked step, so a
        reader that sees the respawn sees the worker live."""
        with self._lock:
            if handle.dead:
                return
            key = handle.key
            self._workers[key] = handle
            for shard_id in handle.shard_ids:
                self._holders[shard_id].add(key)
            self._crashes.setdefault(key, 0)
            self._respawns.setdefault(key, 0)
            self._requeued.setdefault(key, 0)
            self._stats_of.setdefault(key, ShardServingStats(shard_id=-1))
            if key in self._dropped:
                self._dropped.discard(key)
                self._respawns[key] += 1
            handle.last_seen = time.monotonic()
            stopping = self._stopping
        if stopping:
            # stop() may have swept its sentinels before this worker was
            # published: deliver one so it drains instead of leaking.
            self._send_ctl(handle, ("stop",))

    def _payloads_for(self, worker: WorkerHandle) -> List[dict]:
        return [self._payload_of[sid] for sid in sorted(worker.shard_ids)]

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        raise NotImplementedError

    def _close_intake(self) -> None:
        """Stop admitting new workers (the first step of a shutdown)."""

    def _teardown(self, wedged: List[threading.Thread]) -> None:
        """Release transport resources once every reader has exited
        (``wedged`` lists the readers that missed their join window)."""

    def _replace(self, key) -> None:
        """Bring a dead key back — respawn it, or let it reconnect."""
        raise NotImplementedError

    def _retire(self, key) -> None:
        """A dead key will not come back: release what it held."""

    def _reclaim(self, key, block: Block, reply=None):
        """Take back the ring slot a block holds (``block.slot >= 0``);
        given its ``("ok"|"err", ...)`` reply, return the result read
        out of the slot.  Only a ring transport puts blocks in slots."""
        raise NotImplementedError

    def _transport_stats(self, key) -> Dict[str, int]:
        return {}

    def _send(self, worker: WorkerHandle, block: Block) -> bool:
        """Send one registered block; ``False`` means the worker died
        mid-send (the death handler has run)."""
        return self._send_ctl(worker, block.wire())

    def _send_ctl(self, worker: WorkerHandle, message) -> bool:
        try:
            with worker.send_lock:
                worker.conn.send(message)
        except CONN_ERRORS:
            self._on_death(worker)
            return False
        return True

    # ------------------------------------------------------------------
    # submission and dispatch
    # ------------------------------------------------------------------
    def submit(self, patterns: np.ndarray, predicted_classes: np.ndarray,
               with_distances: bool = False, distance_cap: Optional[int] = None) -> Future:
        """Ship one caller block, rows of any shards, to the fleet.

        Returns a :class:`concurrent.futures.Future` resolving to the
        ``(verdicts, distances | None)`` pair of
        :meth:`ShardRouter.check_batch` — what a
        :class:`~repro.serving.server.StreamServer` lane awaits per
        batch.  ``distance_cap`` is forwarded to the workers' combined
        kernel (bounded distances; verdicts stay exact for any cap).
        """
        mode = "both" if with_distances else "check"
        return self._enqueue(mode, patterns, predicted_classes, distance_cap)

    def submit_distances(self, patterns: np.ndarray, predicted_classes: np.ndarray,
                         cap: Optional[int] = None) -> Future:
        """Block future resolving to ``(None, min_distances)`` — 0 for
        unmonitored rows, ``cap``-bounded when requested (see
        :meth:`ZoneBackend.min_distances`)."""
        return self._enqueue("dist", patterns, predicted_classes, cap)

    def _enqueue(self, mode, patterns, classes, cap) -> Future:
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
        block = Block(
            next(self._req_ids), mode, pack_patterns(patterns), len(patterns),
            patterns.shape[1], np.atleast_1d(np.asarray(classes)), cap,
        )
        if len(block.classes) == block.rows:
            self._dispatch(block)
        else:  # fails the block, like any other malformed block
            block.future.set_exception(ValueError(
                f"{block.rows} rows but {len(block.classes)} predicted classes"
            ))
        return block.future

    def _dispatch(self, block: Block) -> None:
        """Register + send one block, surviving worker-death races (see
        the module docstring for where a block goes).

        The block is registered in the chosen worker's in-flight map
        under the lock *before* the send, so the death handler's drain
        always sees it; if the send fails, either the handler already
        requeued the block (it is gone from the map) or this thread
        reclaims its ring slot and retries.  Holding blocks during a
        swap also covers requeues racing it: a requeued block can never
        land on a stale worker, and its routing is recomputed against
        the installed tables.
        """
        deadline = None
        while True:
            worker = None
            parts = None
            with self._lock:
                if not self._running or self._stopping:
                    raise RuntimeError(f"{type(self).__name__} is not running")
                if self._swapping:
                    self._held.append(block)
                    return
                owners = self._index.owners(block.classes)
                shard_ids = np.unique(owners).tolist()
                unmonitored = bool(shard_ids) and shard_ids[0] < 0
                groups: Dict[frozenset, List[int]] = {}  # live holders -> shards
                for sid in shard_ids[int(unmonitored):]:
                    groups.setdefault(frozenset(
                        key for key in self._holders[sid]
                        if (w := self._workers.get(key)) is not None and not w.dead
                    ), []).append(sid)
                common = frozenset.intersection(*groups) if groups else ()
                if common and not unmonitored:
                    # Shortest queue first; ties rotate: a plain min() hands
                    # ties to the first holder and starves the tail of the
                    # fleet (5609/4509/3475/2407 blocks at 4 workers).
                    live = [self._workers[key] for key in common]
                    start = self._dispatch_clock % len(live)
                    self._dispatch_clock += 1
                    worker = min(
                        live[start:] + live[:start], key=lambda w: len(w.inflight)
                    )
                    worker.inflight[block.req_id] = block
                    self._stats_of[worker.key].note_depth(len(worker.inflight))
                elif unmonitored or len(groups) != 1:
                    parts = []
                    for sids in groups.values():
                        rows = np.flatnonzero(np.isin(owners, sids))
                        parts.append((rows, Block(
                            next(self._req_ids), block.mode, block.packed[rows],
                            len(rows), block.width, block.classes[rows], block.cap,
                        )))
                elif self._self_hosted and all(
                    crashes > self.max_respawns
                    for crashes in self._crashes.values()
                ):
                    raise WorkerCrashError(
                        f"every worker exceeded its respawn budget "
                        f"({self.max_respawns})"
                    )
            if parts is not None:
                _join(block, parts)
                self._redispatch([part for _rows, part in parts])
                return
            if worker is not None:
                if self._send(worker, block):
                    return
                with self._lock:
                    if worker.inflight.pop(block.req_id, None) is None:
                        return  # the death handler requeued it already
                # The handler never saw the block (its drain predates the
                # registration): reclaim the ring slot here and retry.
                if block.slot >= 0:
                    self._reclaim(worker.key, block)
                continue
            if deadline is None:
                deadline = time.monotonic() + self.ready_timeout
            elif time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"no worker holding shards {shard_ids} came back "
                    f"within {self.ready_timeout}s"
                )
            time.sleep(0.01)  # respawn, reconnect or re-place in progress

    def _redispatch(self, blocks: List[Block]) -> None:
        for block in blocks:
            try:
                self._dispatch(block)
            except Exception as exc:  # noqa: BLE001 — routed to the future
                if not block.future.done():
                    block.future.set_exception(exc)

    # ------------------------------------------------------------------
    # reader + failure model
    # ------------------------------------------------------------------
    def _pump(self, worker: WorkerHandle) -> None:
        """One worker's reader: resolve replies and acks until ``bye``;
        anything else that ends the stream is a death."""
        conn = worker.conn
        while True:
            try:
                msg = conn.recv()
            except CONN_ERRORS:
                break
            worker.last_seen = time.monotonic()
            kind = msg[0]
            if kind == "ok" or kind == "err":
                with self._lock:
                    block = worker.inflight.pop(msg[1], None)
                    if block is not None:
                        stats = self._stats_of[worker.key]
                        stats.requests += block.rows
                        stats.batches += 1
                        stats.max_batch = max(stats.max_batch, block.rows)
                        stats.queue_depth = len(worker.inflight)
                        stats.latencies.append(time.perf_counter() - block.enqueued_at)
                if block is None:
                    continue  # requeued after a presumed-dead verdict
                result = msg[2]
                if block.slot >= 0:
                    # Popping the block made this thread the slot's owner.
                    result = self._reclaim(worker.key, block, msg)
                if not block.future.done():
                    if kind == "ok":
                        block.future.set_result(result)
                    else:
                        block.future.set_exception(result)
            elif kind == "gamma_ok" or kind == "zone_ok":
                event = worker.acks.pop(msg[1], None)
                if event is not None:
                    event.set()
            elif kind == "bye":
                worker.stopped = True
                break
        if not worker.stopped:
            self._on_death(worker)

    def _on_death(self, worker: WorkerHandle) -> None:
        """The one death handler: drain the worker's blocks, release
        their ring slots, count the crash, then replace the worker (or,
        with its budget spent, retire it and lean on the survivors) and
        requeue the drained blocks."""
        with self._lock:
            if worker.dead or worker.stopped:
                return
            worker.dead = True
            key = worker.key
            if self._workers.get(key) is worker:
                del self._workers[key]
            for shard_id in worker.shard_ids:
                self._holders[shard_id].discard(key)
            drained = list(worker.inflight.values())
            worker.inflight.clear()
            acks = list(worker.acks.values())
            worker.acks.clear()
            self._crashes[key] = self._crashes.get(key, 0) + 1
            self._dropped.add(key)
            exhausted = (
                self._self_hosted and self._crashes[key] > self.max_respawns
            )
            stopping = self._stopping or not self._running
            if not stopping:
                self._requeued[key] = self._requeued.get(key, 0) + len(drained)
        # Draining made this thread the owner of every drained block: the
        # dead worker can never touch the ring again, so its slots go
        # straight back to the free queue before the requeue.
        for block in drained:
            if block.slot >= 0:
                self._reclaim(key, block)
        worker.conn.close()
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5)
        for event in acks:  # unblock any γ/zone broadcaster
            event.set()
        if stopping:
            error = WorkerCrashError(f"shard worker {key!r} died during shutdown")
            for block in drained:
                if not block.future.done():
                    block.future.set_exception(error)
            return
        if exhausted:
            self._retire(key)
        else:
            self._replace(key)
        self._redispatch(drained)

    # ------------------------------------------------------------------
    # synchronous routed queries (ShardRouter mirror)
    # ------------------------------------------------------------------
    def owns(self, predicted_class: int) -> bool:
        """Whether any shard of this fleet monitors the class."""
        return predicted_class in self._owner_of_class

    def check(self, patterns: np.ndarray, predicted_classes: np.ndarray) -> np.ndarray:
        """Synchronous routed check across the fleet — the fleet-level
        mirror of :meth:`ShardRouter.check` (unmonitored classes are
        trusted ``True``)."""
        future = self.submit(patterns, predicted_classes)
        return future.result(timeout=self.ready_timeout)[0]

    def min_distances(self, patterns: np.ndarray, predicted_classes: np.ndarray,
                      cap: Optional[int] = None) -> np.ndarray:
        """Synchronous routed distances (0 for unmonitored classes),
        ``cap``-bounded when requested."""
        future = self.submit_distances(patterns, predicted_classes, cap=cap)
        return future.result(timeout=self.ready_timeout)[1]

    # ------------------------------------------------------------------
    # γ + zone-epoch resync
    # ------------------------------------------------------------------
    def _ack_targets(self, workers) -> List[tuple]:
        """``(worker, ack_id, event)`` per worker, acks registered (call
        under the lock)."""
        targets = []
        for worker in workers:
            ack_id = next(self._ack_ids)
            event = threading.Event()
            worker.acks[ack_id] = event
            targets.append((worker, ack_id, event))
        return targets

    def _live(self) -> List[WorkerHandle]:
        return [
            w for w in self._workers.values() if not w.dead and not w.stopped
        ]

    def set_gamma(self, gamma: int) -> None:
        """Broadcast a γ change to every worker and wait for the acks
        (the fleet-level mirror of :meth:`ShardRouter.set_gamma`)."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        with self._lock:
            if not self._running:
                raise RuntimeError(f"{type(self).__name__} is not running")
            self._gamma = int(gamma)
            targets = self._ack_targets(self._live())
        for worker, ack_id, _event in targets:
            self._send_ctl(worker, ("gamma", int(gamma), ack_id))
        for _worker, _ack_id, event in targets:
            event.wait(timeout=self.ready_timeout)

    @property
    def epoch(self) -> int:
        """Zone epoch the fleet currently serves (0 = as constructed)."""
        with self._lock:
            return self._epoch

    def apply_snapshot(self, snapshot) -> None:
        """Install a :class:`~repro.monitor.drift.ZoneSnapshot` fleet-wide.

        The γ-resync handshake generalised to whole zones, in three
        phases, so no block is ever answered by a mixed-epoch fleet:

        1. **Drain.**  New dispatches (and requeues) are *held*, then the
           swap waits until every worker's in-flight map is empty — all
           pre-swap blocks are answered entirely by pre-swap zones.
        2. **Install.**  Payloads, routing tables, γ and epoch are
           replaced atomically under the lock: from this instant every
           init handshake (respawn or registration) rehydrates at the
           new epoch.
        3. **Rehydrate + replay.**  Every live worker whose stamped epoch
           lags gets a ``("zone", payloads, γ, ack)`` message and is
           awaited; workers that die mid-handshake come back from the
           installed payloads, and the loop re-checks until the whole
           fleet is at the new epoch.  Only then are the held blocks
           replayed — entirely by new-epoch zones.

        Raises ``ValueError`` for a non-monotonic epoch or a payload set
        that does not cover the fleet's shards, ``RuntimeError`` when the
        fleet is stopped or another swap is live.
        """
        payload_of, owner_of_class = _tables(snapshot.payloads)
        with self._lock:
            if not self._running or self._stopping:
                raise RuntimeError(f"{type(self).__name__} is not running")
            if self._swapping:
                raise RuntimeError("another snapshot swap is in progress")
            if snapshot.epoch <= self._epoch:
                raise ValueError(
                    f"snapshot epoch {snapshot.epoch} is not newer than the "
                    f"fleet epoch {self._epoch}"
                )
            if set(payload_of) != set(self._payload_of):
                raise ValueError(
                    f"snapshot shards {sorted(payload_of)} do not match "
                    f"the fleet's shards {sorted(self._payload_of)}"
                )
            self._swapping = True
        try:
            self._drain_inflight()
            with self._lock:
                self._payload_of = payload_of
                self._owner_of_class = owner_of_class
                self._index = ClassIndex(owner_of_class)
                self._gamma = int(snapshot.gamma)
                self._epoch = int(snapshot.epoch)
            self._rehydrate_fleet(int(snapshot.epoch))
            with self._lock:
                self._swaps += 1
        finally:
            with self._lock:
                self._swapping = False
                held, self._held = self._held, []
            self._redispatch(held)

    def _drain_inflight(self) -> None:
        """Wait until no worker holds an unanswered block (held blocks do
        not count: they have not been sent anywhere yet)."""
        deadline = time.monotonic() + self.ready_timeout
        while True:
            with self._lock:
                if self._stopping or not self._running:
                    raise RuntimeError("fleet stopped during the zone swap")
                busy = any(worker.inflight for worker in self._live())
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

        Loops until no live worker is stale *and* no self-hosted key is
        mid-respawn (a replacement handshaken from pre-swap state may be
        published after this loop last looked; its lagging stamp makes
        the next iteration fix it).
        """
        deadline = time.monotonic() + self.ready_timeout
        while True:
            with self._lock:
                if self._stopping or not self._running:
                    raise RuntimeError("fleet stopped during the zone swap")
                stale = [w for w in self._live() if w.epoch != epoch]
                respawning = self._self_hosted and any(
                    self._crashes[key] <= self.max_respawns
                    for key in self._dropped
                )
                targets = [
                    (worker, self._payloads_for(worker), ack_id, event)
                    for worker, ack_id, event in self._ack_targets(stale)
                ]
                gamma = self._gamma
            for worker, payloads, ack_id, _event in targets:
                self._send_ctl(worker, ("zone", payloads, gamma, ack_id))
            for worker, _payloads, _ack_id, event in targets:
                if event.wait(timeout=self.ready_timeout) and not worker.dead:
                    # Genuine ack (the death handler marks dead *before*
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

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> List[Dict[str, float]]:
        """Per-worker serving rows: the familiar
        :class:`ShardServingStats` counters keyed by worker, plus
        ``crashes`` (detected deaths), ``respawns`` (published
        replacements), ``requeued_blocks``, the worker's pid, epoch and
        shard count, and the transport tag."""
        rows = []
        with self._lock:
            for key in sorted(self._stats_of):
                row = self._stats_of[key].as_dict()
                row.pop("shard")
                row["worker"] = key
                worker = self._workers.get(key)
                row["pid"] = worker.pid if worker is not None else -1
                row["crashes"] = self._crashes.get(key, 0)
                row["respawns"] = self._respawns.get(key, 0)
                row["requeued_blocks"] = self._requeued.get(key, 0)
                row["epoch"] = worker.epoch if worker is not None else -1
                row["shards"] = len(worker.shard_ids) if worker is not None else 0
                row["transport"] = self._transport
                row.update(self._transport_stats(key))
                rows.append(row)
        return rows

    @property
    def total_swaps(self) -> int:
        """How many zone snapshots have been installed fleet-wide."""
        with self._lock:
            return self._swaps

    @property
    def total_crashes(self) -> int:
        """How many worker deaths have been detected (SIGKILL, EOF,
        heartbeat silence, a dropped connection).

        Rises as soon as a death is handled, before any replacement
        exists; for self-hosted workers this is the count
        ``max_respawns`` budgets."""
        return sum(self._crashes.values())

    @property
    def total_respawns(self) -> int:
        """How many dead workers have been replaced (respawned, or
        reconnected under the same name).

        Counted in the same locked step that publishes the replacement,
        so once this rises the new worker is in ``worker_pids()`` and
        takes dispatches.  Lags ``total_crashes`` while a replacement is
        on its way, and stays behind it for retired keys."""
        return sum(self._respawns.values())

    @property
    def total_requeued(self) -> int:
        """How many in-flight blocks were replayed after a death."""
        return sum(self._requeued.values())

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (test/ops hook, e.g. for fault injection)."""
        with self._lock:
            return [worker.pid for worker in self._live()]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={len(self)}, "
            f"shards={len(self._payload_of)}, transport={self._transport!r}, "
            f"epoch={self._epoch}, running={self._running})"
        )
