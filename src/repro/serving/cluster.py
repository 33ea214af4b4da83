"""Cross-host TCP shard cluster: coordinator, remote workers, failover.

The process pool (:mod:`repro.serving.procpool`) already speaks a
host-portable protocol — shards cross as ``to_payload()`` dicts, row
blocks as ``pack_patterns`` matrices, one future per block, warm-up
handshake, crash/respawn with requeue.  This module lifts exactly that
protocol onto asyncio TCP so the fleet can span hosts:

* :class:`ClusterCoordinator` — the parent side.  Listens on a socket;
  workers dial in and **register** (``("register", name, pid)``), get
  their shard placement as an ``("init", payloads, γ, None)`` handshake
  (the pipe protocol's init tuple with the ring spec pinned to ``None``
  — TCP has no shared memory), answer ``("ready", n)``, and then serve
  ``("req", ...)`` block frames.  The coordinator exposes the same
  executor-shaped surface as the process pool (``submit`` → one
  :class:`~concurrent.futures.Future` per block, synchronous routed
  ``check`` / ``min_distances``, ``set_gamma``, ``apply_snapshot``,
  ``stats``), so :class:`~repro.serving.server.StreamServer` plugs it in
  as ``executor="cluster"`` with the coalescing/backpressure stack
  untouched.

* :class:`RemoteWorkerClient` — the coordinator's per-connection handle
  (the socket analogue of the pool's ``_WorkerHandle``): in-flight block
  map, ack futures, shard set, zone-epoch stamp, liveness clock.

* :func:`run_worker` — the worker side: one blocking serve loop,
  line-for-line the pipe worker's (rehydrate on init, answer blocks,
  γ/zone resync, stop sentinel), over a :class:`netproto.FrameConnection`
  instead of a pipe end.  ``python -m repro serve-worker host:port`` is
  a thin wrapper.

**Placement and replicas.**  Each shard has a *replica set* of workers
holding it.  ``replicas=0`` (default) fully replicates every shard into
every worker — the cluster analogue of the pool's ``balance`` dispatch —
and blocks go to the holder with the shortest outstanding queue
(rotating tie-break).  ``replicas=r`` caps the set at ``r`` holders,
assigned least-loaded-first as workers register; dispatch then picks
among a shard's holders only.

**Failure model** — the pool's respawn/requeue generalised to
"reconnect, else re-place":

1. A worker vanishes (socket EOF/reset, or its liveness clock exceeds
   ``heartbeat_timeout`` — the coordinator pings idle connections every
   ``heartbeat_interval``; any inbound frame counts as liveness).
2. Its unanswered blocks are drained and immediately requeued through
   dispatch, which waits (bounded by ``ready_timeout``) for a live
   holder.
3. *Reconnect:* a self-spawned local worker is respawned (budgeted by
   ``max_respawns``, like the pool); an externally-launched worker gets
   ``reconnect_grace`` seconds to dial back in — a re-registration under
   the same name reclaims the previous shard set.  As in the pool, the
   drop is counted as a crash (``total_crashes``) when it is detected,
   and as a respawn (``total_respawns``) only when the dropped name has
   re-registered and is serving again.
4. *Re-place:* if the worker stays gone (or its respawn budget is
   exhausted), every shard it held is re-placed onto surviving workers
   via the ``("zone", payloads, γ, ack)`` message — frames are FIFO per
   connection, so a re-placed shard is rehydrated before any requeued
   block reaches it.  Blocks fail with :class:`WorkerCrashError` only
   when no holder comes back within ``ready_timeout``.

Everything stateful lives on one private event loop in a dedicated
thread (``repro-cluster-loop``); the public methods are thread-safe
wrappers that schedule coroutines onto it.  Callers interact only with
packed arrays and futures — the payload boundary of the pipe protocol
holds verbatim on the wire.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing as mp
import os
import socket
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.devtools.lint.runtime import named_lock
from repro.monitor.patterns import pack_patterns, unpack_patterns
from repro.serving import netproto
from repro.serving.procpool import WorkerCrashError
from repro.serving.server import ShardServingStats
from repro.serving.shard import MonitorShard


#: Environment overrides for the coordinator's liveness clock — the
#: constructor arguments still win when passed explicitly.
ENV_HEARTBEAT_INTERVAL = "REPRO_CLUSTER_HEARTBEAT_INTERVAL"
ENV_HEARTBEAT_TIMEOUT = "REPRO_CLUSTER_HEARTBEAT_TIMEOUT"

DEFAULT_HEARTBEAT_INTERVAL = 1.0
DEFAULT_HEARTBEAT_TIMEOUT = 15.0


def _env_seconds(name: str, default: float) -> float:
    """A positive float from the environment, or *default* when unset."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number of seconds, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cluster address must be 'host:port', got {address!r}"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _answer_block(shards: Dict[int, MonitorShard], msg) -> tuple:
    """Run one ``("req", ...)`` block against the local shard map.

    Identical kernel dispatch to the pipe worker: unpack at the sender's
    row width so wrong-width blocks fail their own future, modes
    ``"check"`` / ``"both"`` / ``"dist"``, a bad block fails itself and
    never the worker.
    """
    _, req_id, shard_id, mode, packed, rows, width, classes, cap = msg
    try:
        shard = shards[shard_id]
        patterns = unpack_patterns(packed, width)[:rows]
        if mode == "check":
            result = (shard.check(patterns, classes), None)
        elif mode == "both":
            result = shard.check_batch(
                patterns, classes, with_distances=True, distance_cap=cap
            )
        elif mode == "dist":
            result = (None, shard.min_distances(patterns, classes, cap=cap))
        else:
            raise ValueError(f"unknown request mode {mode!r}")
        return ("ok", req_id, result)
    except Exception as exc:  # noqa: BLE001 — shipped to the caller
        return ("err", req_id, exc)


def _serve_registration(conn: netproto.FrameConnection, name: str) -> bool:
    """One registration's serve loop; ``True`` means a graceful stop
    (the coordinator sent the sentinel), ``False`` a dropped connection
    (the caller may reconnect)."""
    conn.send(("register", name, os.getpid()))
    shards: Dict[int, MonitorShard] = {}
    while True:
        try:
            msg = conn.recv()
        except netproto.ConnectionClosed:
            return False
        except netproto.ProtocolError:
            return False
        kind = msg[0]
        if kind == "req":
            reply = _answer_block(shards, msg)
            try:
                conn.send(reply)
            except netproto.ProtocolError:
                return False
            except Exception:  # unpicklable exception payload: degrade
                conn.send(("err", msg[1], RuntimeError(repr(reply[2]))))
        elif kind == "init":
            shards = {}
            for payload in msg[1]:
                shard = MonitorShard.from_payload(payload)
                shards[shard.shard_id] = shard
            # A (re)registered worker inherits the cluster's *current* γ
            # inside the handshake — before any block can reach it.
            if msg[2] is not None:
                for shard in shards.values():
                    shard.monitor.set_gamma(msg[2])
            conn.send(("ready", len(shards)))
        elif kind == "gamma":
            for shard in shards.values():
                shard.monitor.set_gamma(msg[1])
            conn.send(("gamma_ok", msg[2]))
        elif kind == "zone":
            # Zone resync *and* the re-place path: the message replaces
            # the whole shard map, so extending a worker's placement is
            # just a zone frame with its new full set.
            shards = {}
            for payload in msg[1]:
                shard = MonitorShard.from_payload(payload)
                shards[shard.shard_id] = shard
            if msg[2] is not None:
                for shard in shards.values():
                    shard.monitor.set_gamma(msg[2])
            conn.send(("zone_ok", msg[3]))
        elif kind == "ping":
            conn.send(("pong", msg[1]))
        elif kind == "stop":
            conn.send(("bye",))
            return True


def run_worker(
    address: Union[str, Tuple[str, int]],
    name: Optional[str] = None,
    reconnect_attempts: int = 0,
    reconnect_backoff: float = 0.5,
) -> None:
    """Serve shards for the coordinator at ``address`` until it stops us.

    Connects, registers, rehydrates whatever shard payloads the
    coordinator assigns, and answers block frames until the ``("stop",)``
    sentinel.  A dropped connection is retried up to
    ``reconnect_attempts`` times (linear ``reconnect_backoff`` between
    dials) — re-registering under the same name lets the coordinator
    treat it as the same worker coming back.
    """
    host, port = parse_address(address)
    if name is None:
        name = f"{socket.gethostname()}-{os.getpid()}"
    attempts_left = int(reconnect_attempts)
    while True:
        try:
            sock = socket.create_connection((host, port))
        except OSError:
            if attempts_left <= 0:
                raise
            attempts_left -= 1
            time.sleep(reconnect_backoff)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = netproto.FrameConnection(sock)
        try:
            if _serve_registration(conn, name):
                return  # graceful stop
        finally:
            conn.close()
        if attempts_left <= 0:
            return
        attempts_left -= 1
        time.sleep(reconnect_backoff)


def _local_worker_main(host: str, port: int, name: str) -> None:
    """Entry point of a coordinator-spawned local worker process."""
    # Generous dial retries: a respawned worker may beat the listening
    # socket's accept loop by a few milliseconds under load.
    run_worker((host, port), name=name, reconnect_attempts=20,
               reconnect_backoff=0.1)


# ----------------------------------------------------------------------
# coordinator-side bookkeeping
# ----------------------------------------------------------------------
class _NetPending:
    """One in-flight block: the request (kept verbatim for requeue after
    a disconnect) plus the caller's future — the pool's ``_Pending``
    without the ring-slot field (TCP has no slots to reclaim)."""

    __slots__ = (
        "req_id", "shard_id", "mode", "packed", "rows", "width",
        "classes", "cap", "future", "enqueued_at",
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
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()

    def wire(self):
        return (
            "req", self.req_id, self.shard_id, self.mode,
            self.packed, self.rows, self.width, self.classes, self.cap,
        )


class RemoteWorkerClient:
    """Coordinator-side handle for one registered worker connection.

    The socket analogue of the pool's ``_WorkerHandle``: owns the
    connection's streams, the in-flight block map the requeue path
    drains, the ack futures of pending γ/zone handshakes, the worker's
    shard set (its side of every replica set), a zone-epoch stamp, and
    ``last_seen`` — the liveness clock the heartbeat sweep reads (any
    inbound frame refreshes it).
    """

    __slots__ = (
        "name", "pid", "reader", "writer", "order", "shard_ids",
        "inflight", "acks", "epoch", "dead", "stopped", "last_seen",
    )

    def __init__(self, name, pid, reader, writer, order):
        self.name = name
        self.pid = pid
        self.reader = reader
        self.writer = writer
        self.order = order  # registration sequence (dispatch tie-break)
        self.shard_ids: Set[int] = set()
        self.inflight: Dict[int, _NetPending] = {}
        self.acks: Dict[int, "asyncio.Future"] = {}
        self.epoch = 0
        self.dead = False
        self.stopped = False
        self.last_seen = 0.0


class ClusterCoordinator:
    """A TCP shard cluster behind the process pool's executor surface.

    Parameters
    ----------
    shards:
        The :class:`MonitorShard` slices to place over the fleet.  Only
        their portable payloads are retained, exactly like the pool.
    listen:
        ``None`` (default) binds a loopback socket on an ephemeral port
        and **self-hosts**: ``workers`` local worker processes are
        spawned and dial back in (the zero-config mode used by
        ``executor="cluster"`` tests/CI).  A ``"host:port"`` string (or
        pair) binds there and waits for ``workers`` externally-launched
        ``python -m repro serve-worker`` registrations instead.
    workers:
        Fleet size ``start()`` waits for before returning.
    replicas:
        Per-shard replica-set size; ``0`` = every worker holds every
        shard (balance-style dispatch over the whole fleet).
    context:
        ``multiprocessing`` start method for self-spawned workers.
    max_respawns:
        Crash budget per self-spawned worker name: a name whose crash
        count (``total_crashes``, not ``total_respawns``) is still at or
        under this value is respawned after a drop; past it, its shards
        are re-placed on the survivors instead.
    ready_timeout:
        Bound on ``start()``, block-dispatch wait, drains and handshakes.
    heartbeat_interval / heartbeat_timeout:
        Liveness ping cadence and the silence threshold after which a
        connection is declared dead.  ``None`` (default) reads
        ``REPRO_CLUSTER_HEARTBEAT_INTERVAL`` /
        ``REPRO_CLUSTER_HEARTBEAT_TIMEOUT`` from the environment,
        falling back to 1 s / 15 s.  The timeout must comfortably
        exceed the slowest expected kernel: a worker mid-batch answers
        pings only between blocks — a slow-but-alive worker whose
        silence stays *at or under* the threshold is never declared
        dead (the sweep fires strictly past it).
    reconnect_grace:
        How long a vanished *external* worker may re-register before its
        shards are re-placed on the survivors.
    """

    def __init__(
        self,
        shards: Sequence[MonitorShard],
        listen: Optional[Union[str, Tuple[str, int]]] = None,
        workers: int = 2,
        replicas: int = 0,
        context: Optional[str] = None,
        max_respawns: int = 5,
        ready_timeout: float = 60.0,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        reconnect_grace: float = 2.0,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("cluster needs at least one shard")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if replicas < 0:
            raise ValueError(f"replicas must be non-negative, got {replicas}")
        self.workers = workers
        self.replicas = replicas
        self.max_respawns = max_respawns
        self.ready_timeout = ready_timeout
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None
            else _env_seconds(ENV_HEARTBEAT_INTERVAL, DEFAULT_HEARTBEAT_INTERVAL)
        )
        self.heartbeat_timeout = (
            float(heartbeat_timeout) if heartbeat_timeout is not None
            else _env_seconds(ENV_HEARTBEAT_TIMEOUT, DEFAULT_HEARTBEAT_TIMEOUT)
        )
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        self.reconnect_grace = reconnect_grace
        self._spawn_local = listen is None
        self._bind = ("127.0.0.1", 0) if listen is None else parse_address(listen)
        if context is None:
            context = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(context)

        self._payload_of: Dict[int, dict] = {}
        self._classes_of: Dict[int, np.ndarray] = {}
        owner_of_class: Dict[int, int] = {}
        for shard in shards:
            if shard.shard_id in self._payload_of:
                raise ValueError(f"duplicate shard id {shard.shard_id}")
            payload = shard.to_payload()
            self._payload_of[shard.shard_id] = payload
            self._classes_of[shard.shard_id] = np.asarray(
                payload["classes"], dtype=np.int64
            )
            for c in payload["classes"]:
                if c in owner_of_class:
                    raise ValueError(f"class {c} is owned by two shards")
                owner_of_class[c] = shard.shard_id
        self._owner_of_class = owner_of_class

        # Caller-thread ↔ loop-thread shared reads (routing tables, run
        # state) go under this; all other state is loop-thread-only.
        self._lock = named_lock("ClusterCoordinator._lock")
        self._req_ids = itertools.count()
        self._ack_ids = itertools.count()
        self._orders = itertools.count()
        self._workers_by_name: Dict[str, RemoteWorkerClient] = {}
        self._holders: Dict[int, Set[str]] = {
            shard_id: set() for shard_id in self._payload_of
        }
        self._last_shards: Dict[str, Set[int]] = {}
        self._stats_of: Dict[str, ShardServingStats] = {}
        self._crashes: Dict[str, int] = {}  # drops detected
        self._respawns: Dict[str, int] = {}  # dropped names re-registered
        self._dropped: Set[str] = set()  # names awaiting re-registration
        self._requeued: Dict[str, int] = {}
        self._pids: Dict[str, int] = {}
        self._spawned_procs: Dict[str, "mp.process.BaseProcess"] = {}
        self._dispatch_clock = 0
        self._gamma: Optional[int] = None
        self._epoch = 0
        self._swapping = False
        self._held: List[_NetPending] = []
        self._swaps = 0
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional["asyncio.AbstractServer"] = None
        self._heartbeat_task: Optional["asyncio.Task"] = None
        self._address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._running = False
        self._stopping = False

    @classmethod
    def from_store(
        cls,
        store,
        num_shards: Optional[int] = None,
        backend: Optional[str] = None,
        **kwargs,
    ) -> "ClusterCoordinator":
        """Rehydrate a cluster from a crash-consistent zone store.

        *store* is a :class:`~repro.store.ZoneStore` (or its directory
        path).  The recovered monitor is partitioned into ``num_shards``
        slices (default: the fleet size) and the coordinator's γ and
        zone epoch are stamped from the store before the listener opens,
        so every registration handshake carries the recovered γ and each
        worker is stamped at the recorded epoch.  Remaining keyword
        arguments go to the constructor verbatim.
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
            num_shards = int(kwargs.get("workers", 2))
        router = ShardRouter.partition(monitor, num_shards)
        cluster = cls(router.shards, **kwargs)
        with cluster._lock:
            cluster._gamma = int(store.gamma)
            cluster._epoch = int(store.epoch)
        return cluster

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers dial (after ``start()``)."""
        if self._address is None:
            raise RuntimeError("cluster is not listening; call start()")
        return self._address

    def start(self) -> None:
        """Bind the listener, gather the fleet, return once ``workers``
        registrations have completed their init handshake (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._stopping = False
        self._ready.clear()
        loop_started = threading.Event()

        def _loop_main():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop_started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_loop_main, name="repro-cluster-loop", daemon=True
        )
        self._thread.start()
        loop_started.wait(timeout=self.ready_timeout)
        try:
            self._address = asyncio.run_coroutine_threadsafe(
                self._open_listener(), self._loop
            ).result(timeout=self.ready_timeout)
            if self._spawn_local:
                for index in range(self.workers):
                    self._spawn_process(f"local-{index}")
            if not self._ready.wait(timeout=self.ready_timeout):
                raise WorkerCrashError(
                    f"only {len(self._workers_by_name)} of {self.workers} "
                    f"workers registered within {self.ready_timeout}s"
                )
        except BaseException:
            self._teardown()
            raise

    async def _open_listener(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve_conn, self._bind[0], self._bind[1]
        )
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat())
        bound = self._server.sockets[0].getsockname()
        return (bound[0], bound[1])

    def _spawn_process(self, name: str) -> None:
        """Launch one local worker process that dials back in under
        ``name`` (initial fleet and the respawn/reconnect path)."""
        host, port = self._address
        process = self._ctx.Process(
            target=_local_worker_main,
            args=(host, port, name),
            daemon=True,
            name=f"repro-cluster-worker-{name}",
        )
        process.start()
        self._spawned_procs[name] = process

    def stop(self) -> None:
        """Graceful drain: stop sentinels queue FIFO behind in-flight
        blocks on every connection, then the listener closes (idempotent;
        safe before ``start()``)."""
        with self._lock:
            if not self._running:
                return
            self._stopping = True
        if self._loop is not None and self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result(timeout=self.ready_timeout + 5)
            except Exception:
                pass
        self._teardown()
        with self._lock:
            self._running = False
            self._stopping = False

    def _teardown(self) -> None:
        if self._loop is not None and self._loop.is_running():
            # A failed start() lands here without _shutdown, so the
            # heartbeat task must be reaped before the loop halts or
            # asyncio logs it as destroyed-while-pending.
            try:
                asyncio.run_coroutine_threadsafe(
                    self._cancel_heartbeat(), self._loop
                ).result(timeout=5)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=self.ready_timeout)
            self._thread = None
        for process in self._spawned_procs.values():
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self._spawned_procs.clear()
        self._address = None
        self._server = None

    async def _cancel_heartbeat(self) -> None:
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _shutdown(self) -> None:
        await self._cancel_heartbeat()
        if self._server is not None:
            self._server.close()
        for worker in list(self._workers_by_name.values()):
            if worker.dead:
                continue
            try:
                netproto.write_frame(worker.writer, ("stop",))
                await worker.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                continue
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while self._workers_by_name:
            live = [
                w for w in self._workers_by_name.values()
                if not w.dead and not w.stopped
            ]
            if not live:
                break
            if asyncio.get_running_loop().time() > deadline:
                for worker in live:
                    worker.writer.close()
                break
            await asyncio.sleep(0.01)
        error = RuntimeError("cluster stopped")
        for entry in self._held:
            if not entry.future.done():
                entry.future.set_exception(error)
        self._held.clear()
        if self._server is not None:
            await self._server.wait_closed()

    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # registration, placement, read loop
    # ------------------------------------------------------------------
    def _assign_shards(self, name: str) -> Set[int]:
        """Shard set for a (re)registering worker.

        A known name coming back reclaims its previous set (reconnect —
        the placement it had is the placement it gets).  A new name is
        placed by deficit: with ``replicas=0`` every worker holds every
        shard (full replication); with ``replicas=r`` it takes up to its
        fair share (``ceil(shards·r / workers)``) of the most
        under-replicated shards, so a sequentially-registering fleet
        converges on ~r holders per shard instead of the first arrival
        hoarding everything.
        """
        previous = self._last_shards.get(name)
        if previous:
            return set(previous)
        if self.replicas == 0:
            return set(self._holders)
        share = max(
            1, -(-len(self._holders) * self.replicas // self.workers)
        )
        deficits = sorted(
            (
                sid for sid, holders in self._holders.items()
                if len(holders - {name}) < self.replicas
            ),
            key=lambda sid: (len(self._holders[sid]), sid),
        )
        assigned = set(deficits[:share])
        if not assigned:  # replica targets all met: still host something
            assigned = {
                min(self._holders, key=lambda s: (len(self._holders[s]), s))
            }
        return assigned

    async def _serve_conn(self, reader, writer) -> None:
        """One connection's life: register → init handshake → read loop."""
        worker: Optional[RemoteWorkerClient] = None
        try:
            msg = await asyncio.wait_for(
                netproto.read_frame(reader), timeout=self.ready_timeout
            )
            if not isinstance(msg, tuple) or msg[0] != "register":
                writer.close()
                return
            name, pid = str(msg[1]), int(msg[2])
            stale = self._workers_by_name.get(name)
            if stale is not None and not stale.dead:
                writer.close()  # duplicate live name: reject the dial
                return
            worker = RemoteWorkerClient(
                name, pid, reader, writer, next(self._orders)
            )
            # Placement is reserved *before* the first await: concurrent
            # registrations must see each other's claims, or every
            # arrival computes against empty replica sets and the whole
            # fleet converges on identical (over-replicated) placements.
            # The drop path in the finally-arm releases the reservation
            # if the handshake below fails.
            shard_ids = self._assign_shards(name)
            worker.shard_ids = shard_ids
            for sid in shard_ids:
                self._holders[sid].add(name)
            self._last_shards[name] = set(shard_ids)
            payloads = [self._payload_of[sid] for sid in sorted(shard_ids)]
            gamma = self._gamma
            epoch = self._epoch
            netproto.write_frame(worker.writer, ("init", payloads, gamma, None))
            await worker.writer.drain()
            reply = await asyncio.wait_for(
                netproto.read_frame(reader), timeout=self.ready_timeout
            )
            if reply[0] != "ready":
                writer.close()
                return
            worker.epoch = epoch
            worker.last_seen = asyncio.get_running_loop().time()
            self._workers_by_name[name] = worker
            self._pids[name] = pid
            self._crashes.setdefault(name, 0)
            self._respawns.setdefault(name, 0)
            if name in self._dropped:
                # Counted in the same loop step that publishes the
                # worker: a reader that sees the respawn sees it live.
                self._dropped.discard(name)
                self._respawns[name] += 1
            self._requeued.setdefault(name, 0)
            self._stats_of.setdefault(
                name, ShardServingStats(shard_id=worker.order)
            )
            if len(self._workers_by_name) >= self.workers:
                self._ready.set()
            await self._read_loop(worker)
        except (netproto.ProtocolError, asyncio.TimeoutError,
                ConnectionError, OSError):
            pass
        finally:
            if worker is not None and not worker.stopped:
                await self._on_worker_drop(worker)
            elif worker is None:
                writer.close()

    async def _read_loop(self, worker: RemoteWorkerClient) -> None:
        """Resolve this connection's frames until EOF or ``bye``."""
        while True:
            msg = await netproto.read_frame(worker.reader)
            worker.last_seen = asyncio.get_running_loop().time()
            kind = msg[0]
            if kind in ("ok", "err"):
                pending = worker.inflight.pop(msg[1], None)
                if pending is None:
                    continue  # requeued after a presumed-dead verdict
                stats = self._stats_of[worker.name]
                stats.requests += pending.rows
                stats.batches += 1
                if pending.rows > stats.max_batch:
                    stats.max_batch = pending.rows
                stats.queue_depth = len(worker.inflight)
                stats.latencies.append(
                    time.perf_counter() - pending.enqueued_at
                )
                if not pending.future.done():
                    if kind == "ok":
                        pending.future.set_result(msg[2])
                    else:
                        pending.future.set_exception(msg[2])
            elif kind in ("gamma_ok", "zone_ok"):
                ack = worker.acks.pop(msg[1], None)
                if ack is not None and not ack.done():
                    ack.set_result(True)
            elif kind == "pong":
                pass  # last_seen already refreshed above
            elif kind == "bye":
                worker.stopped = True
                self._workers_by_name.pop(worker.name, None)
                for sid in worker.shard_ids:
                    self._holders[sid].discard(worker.name)
                worker.writer.close()
                return

    # ------------------------------------------------------------------
    # failure handling: heartbeat, drop, reconnect, re-place
    # ------------------------------------------------------------------
    async def _heartbeat(self) -> None:
        """Ping live connections; declare the silent ones dead."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = asyncio.get_running_loop().time()
            for worker in list(self._workers_by_name.values()):
                if worker.dead or worker.stopped:
                    continue
                if now - worker.last_seen > self.heartbeat_timeout:
                    await self._on_worker_drop(worker)
                    continue
                try:
                    netproto.write_frame(worker.writer, ("ping", now))
                    await worker.writer.drain()
                except (ConnectionError, OSError, RuntimeError):
                    await self._on_worker_drop(worker)

    async def _on_worker_drop(self, worker: RemoteWorkerClient) -> None:
        """A connection died: drain its blocks, requeue them, then
        reconnect (respawn / grace window) or re-place its shards."""
        if worker.dead or worker.stopped:
            return
        worker.dead = True
        if self._workers_by_name.get(worker.name) is worker:
            del self._workers_by_name[worker.name]
        self._crashes[worker.name] = self._crashes.get(worker.name, 0) + 1
        self._dropped.add(worker.name)
        pending = list(worker.inflight.values())
        worker.inflight.clear()
        for ack in worker.acks.values():
            if not ack.done():
                ack.set_result(False)  # unblock γ/zone broadcasters
        worker.acks.clear()
        for sid in worker.shard_ids:
            self._holders[sid].discard(worker.name)
        try:
            worker.writer.close()
        except Exception:
            pass
        self._requeued[worker.name] = (
            self._requeued.get(worker.name, 0) + len(pending)
        )
        stopping = self._stopping or not self._running
        if stopping:
            error = WorkerCrashError(
                f"cluster worker {worker.name!r} died during shutdown"
            )
            for entry in pending:
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        if self._spawn_local:
            stale_proc = self._spawned_procs.get(worker.name)
            if stale_proc is not None and stale_proc.is_alive():
                stale_proc.kill()
            if self._crashes[worker.name] <= self.max_respawns:
                self._spawn_process(worker.name)  # reconnect via respawn
            else:
                await self._replace_shards(worker.shard_ids)
        else:
            asyncio.ensure_future(self._grace_then_replace(worker))
        for entry in pending:
            asyncio.ensure_future(self._dispatch_guarded(entry))

    async def _grace_then_replace(self, worker: RemoteWorkerClient) -> None:
        """Give an external worker its reconnect window, then re-place."""
        await asyncio.sleep(self.reconnect_grace)
        if self._stopping or not self._running:
            return
        if worker.name in self._workers_by_name:
            return  # it dialled back in; registration reclaimed its set
        await self._replace_shards(worker.shard_ids)

    async def _replace_shards(self, shard_ids: Set[int]) -> None:
        """Re-place orphaned shards onto surviving workers.

        Every shard below its replica target (any shard with zero live
        holders, at minimum) is pushed to the least-loaded survivors via
        a zone frame carrying each target's new *full* payload set — FIFO
        framing guarantees the rehydration lands before any requeued
        block.
        """
        survivors = [
            w for w in self._workers_by_name.values()
            if not w.dead and not w.stopped
        ]
        if not survivors:
            return  # dispatch keeps waiting; reconnects may still arrive
        grown: Set[str] = set()
        for sid in sorted(shard_ids):
            holders = self._holders[sid]
            want = len(survivors) if self.replicas == 0 else self.replicas
            candidates = sorted(
                (w for w in survivors if w.name not in holders),
                key=lambda w: (len(w.shard_ids), w.order),
            )
            for target in candidates[: max(0, want - len(holders))]:
                target.shard_ids.add(sid)
                holders.add(target.name)
                self._last_shards[target.name] = set(target.shard_ids)
                grown.add(target.name)
        for name in grown:
            target = self._workers_by_name.get(name)
            if target is None or target.dead:
                continue
            ack_id = next(self._ack_ids)
            ack = asyncio.get_running_loop().create_future()
            target.acks[ack_id] = ack
            payloads = [
                self._payload_of[sid] for sid in sorted(target.shard_ids)
            ]
            try:
                netproto.write_frame(
                    target.writer, ("zone", payloads, self._gamma, ack_id)
                )
                await target.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                await self._on_worker_drop(target)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_guarded(self, pending: _NetPending) -> None:
        try:
            await self._dispatch(pending)
        except BaseException as exc:  # noqa: BLE001 — routed to the future
            if not pending.future.done():
                pending.future.set_exception(exc)

    async def _dispatch(self, pending: _NetPending) -> None:
        """Send one block to the shortest-queued live holder of its
        shard, waiting out reconnect/re-place when none is live."""
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while True:
            if self._stopping or not self._running:
                raise RuntimeError("cluster is not running")
            if self._swapping:
                self._held.append(pending)
                return
            holders = [
                w
                for name in self._holders.get(pending.shard_id, ())
                if (w := self._workers_by_name.get(name)) is not None
                and not w.dead and not w.stopped
            ]
            if holders:
                rr = self._dispatch_clock
                self._dispatch_clock = rr + 1
                worker = min(
                    holders,
                    key=lambda w: (len(w.inflight), (w.order - rr) % 997),
                )
                worker.inflight[pending.req_id] = pending
                stats = self._stats_of[worker.name]
                depth = len(worker.inflight)
                stats.queue_depth = depth
                if depth > stats.max_queue_depth:
                    stats.max_queue_depth = depth
                try:
                    netproto.write_frame(worker.writer, pending.wire())
                    await worker.writer.drain()
                except (ConnectionError, OSError, RuntimeError):
                    if worker.inflight.pop(pending.req_id, None) is None:
                        return  # the drop handler requeued it already
                    await self._on_worker_drop(worker)
                    continue
                return
            if (
                self._spawn_local
                and not self._workers_by_name
                and self._crashes
                and all(
                    count > self.max_respawns
                    for count in self._crashes.values()
                )
            ):
                raise WorkerCrashError(
                    f"every cluster worker exceeded its respawn budget "
                    f"({self.max_respawns})"
                )
            if asyncio.get_running_loop().time() > deadline:
                raise WorkerCrashError(
                    f"no worker holding shard {pending.shard_id} came "
                    f"back within {self.ready_timeout}s"
                )
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # submission (executor surface)
    # ------------------------------------------------------------------
    def submit(
        self,
        shard_id: int,
        patterns: np.ndarray,
        predicted_classes: np.ndarray,
        with_distances: bool = False,
        distance_cap: Optional[int] = None,
    ) -> Future:
        """Ship one row block to the fleet; one future per block —
        exactly the pool's ``submit`` the ``StreamServer`` awaits."""
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
        """Block future resolving to ``(None, min_distances)``."""
        return self._enqueue(shard_id, "dist", patterns, predicted_classes, cap)

    def _enqueue(self, shard_id, mode, patterns, classes, cap) -> Future:
        with self._lock:
            if not self._running or self._stopping:
                raise RuntimeError("cluster is not running")
            if shard_id not in self._classes_of:
                raise KeyError(f"no shard {shard_id} in this cluster")
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
        pending = _NetPending(
            req_id=next(self._req_ids),
            shard_id=shard_id,
            mode=mode,
            packed=pack_patterns(patterns),
            rows=len(patterns),
            width=patterns.shape[1],
            classes=np.atleast_1d(np.asarray(classes)),
            cap=cap,
        )
        asyncio.run_coroutine_threadsafe(
            self._dispatch_guarded(pending), self._loop
        )
        return pending.future

    # ------------------------------------------------------------------
    # synchronous routed queries (ShardRouter mirror)
    # ------------------------------------------------------------------
    def _route(self, predicted_classes: np.ndarray) -> Dict[int, np.ndarray]:
        predicted_classes = np.asarray(predicted_classes)
        with self._lock:
            classes_of = dict(self._classes_of)
        groups: Dict[int, np.ndarray] = {}
        for shard_id, classes in classes_of.items():
            mask = np.isin(predicted_classes, classes)
            if mask.any():
                groups[shard_id] = np.flatnonzero(mask)
        return groups

    def owns(self, predicted_class: int) -> bool:
        """Whether any shard of this cluster monitors the class."""
        with self._lock:
            return predicted_class in self._owner_of_class

    def check(
        self, patterns: np.ndarray, predicted_classes: np.ndarray
    ) -> np.ndarray:
        """Synchronous routed check across the fleet (unmonitored
        classes are trusted ``True``) — the cross-host mirror of
        :meth:`ShardRouter.check`."""
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
        """Synchronous routed distances (0 for unmonitored classes)."""
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
    # γ + zone-epoch resync
    # ------------------------------------------------------------------
    def set_gamma(self, gamma: int) -> None:
        """Broadcast a γ change fleet-wide and await the acks."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        with self._lock:
            if not self._running:
                raise RuntimeError("cluster is not running")
        asyncio.run_coroutine_threadsafe(
            self._broadcast_gamma(int(gamma)), self._loop
        ).result(timeout=self.ready_timeout)

    async def _broadcast_gamma(self, gamma: int) -> None:
        self._gamma = gamma
        acks = []
        for worker in list(self._workers_by_name.values()):
            if worker.dead or worker.stopped:
                continue
            ack_id = next(self._ack_ids)
            ack = asyncio.get_running_loop().create_future()
            worker.acks[ack_id] = ack
            acks.append(ack)
            try:
                netproto.write_frame(worker.writer, ("gamma", gamma, ack_id))
                await worker.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                await self._on_worker_drop(worker)
        if acks:
            await asyncio.wait(acks, timeout=self.ready_timeout)

    @property
    def epoch(self) -> int:
        """Zone epoch the fleet currently serves (0 = as constructed)."""
        with self._lock:
            return self._epoch

    def apply_snapshot(self, snapshot) -> None:
        """Install a zone snapshot fleet-wide: drain → install → rezone
        every stale worker → replay held blocks (the pool's three-phase
        ``apply_snapshot`` over TCP)."""
        payload_by_shard: Dict[int, dict] = {}
        for payload in snapshot.payloads:
            shard_id = int(payload["shard_id"])
            if shard_id in payload_by_shard:
                raise ValueError(f"snapshot has duplicate shard id {shard_id}")
            payload_by_shard[shard_id] = payload
        with self._lock:
            if not self._running or self._stopping:
                raise RuntimeError("cluster is not running")
            if set(payload_by_shard) != set(self._classes_of):
                raise ValueError(
                    f"snapshot shards {sorted(payload_by_shard)} do not "
                    f"match the cluster's shards {sorted(self._classes_of)}"
                )
        asyncio.run_coroutine_threadsafe(
            self._apply_snapshot(
                payload_by_shard, int(snapshot.gamma), int(snapshot.epoch)
            ),
            self._loop,
        ).result(timeout=self.ready_timeout * 2)

    async def _apply_snapshot(self, payload_by_shard, gamma, epoch) -> None:
        if epoch <= self._epoch:
            raise ValueError(
                f"snapshot epoch {epoch} is not newer than the fleet "
                f"epoch {self._epoch}"
            )
        if self._swapping:
            raise RuntimeError("another snapshot swap is in progress")
        self._swapping = True
        try:
            await self._drain_inflight()
            owner_of_class: Dict[int, int] = {}
            classes_of: Dict[int, np.ndarray] = {}
            for shard_id, payload in payload_by_shard.items():
                classes_of[shard_id] = np.asarray(
                    payload["classes"], dtype=np.int64
                )
                for c in payload["classes"]:
                    if c in owner_of_class:
                        raise ValueError(f"class {c} is owned by two shards")
                    owner_of_class[c] = shard_id
            with self._lock:  # no awaits under the lock (lock-discipline)
                self._payload_of = dict(payload_by_shard)
                self._classes_of = classes_of
                self._owner_of_class = owner_of_class
                self._gamma = gamma
                self._epoch = epoch
            await self._rezone_fleet(epoch)
            self._swaps += 1
        finally:
            self._swapping = False
            held, self._held = self._held, []
            for entry in held:
                asyncio.ensure_future(self._dispatch_guarded(entry))

    async def _drain_inflight(self) -> None:
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while True:
            if self._stopping or not self._running:
                raise RuntimeError("cluster stopped during the zone swap")
            busy = any(
                worker.inflight
                for worker in self._workers_by_name.values()
                if not worker.dead
            )
            if not busy:
                return
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError(
                    f"zone swap drain did not finish within "
                    f"{self.ready_timeout}s"
                )
            await asyncio.sleep(0.002)

    async def _rezone_fleet(self, epoch: int) -> None:
        """Re-sync every worker whose stamped epoch lags ``epoch`` —
        loops until the whole fleet (including workers that register or
        respawn mid-swap) is at the new epoch."""
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while True:
            if self._stopping or not self._running:
                raise RuntimeError("cluster stopped during the zone swap")
            stale = [
                worker
                for worker in self._workers_by_name.values()
                if not worker.dead and not worker.stopped
                and worker.epoch != epoch
            ]
            if not stale:
                return
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError(
                    f"zone swap rehydration did not finish within "
                    f"{self.ready_timeout}s"
                )
            targets = []
            for worker in stale:
                ack_id = next(self._ack_ids)
                ack = asyncio.get_running_loop().create_future()
                worker.acks[ack_id] = ack
                payloads = [
                    self._payload_of[sid] for sid in sorted(worker.shard_ids)
                ]
                targets.append((worker, payloads, ack_id, ack))
            for worker, payloads, ack_id, _ack in targets:
                try:
                    netproto.write_frame(
                        worker.writer, ("zone", payloads, self._gamma, ack_id)
                    )
                    await worker.writer.drain()
                except (ConnectionError, OSError, RuntimeError):
                    await self._on_worker_drop(worker)
            for worker, _payloads, _ack_id, ack in targets:
                try:
                    acked = await asyncio.wait_for(
                        asyncio.shield(ack), timeout=self.ready_timeout
                    )
                except asyncio.TimeoutError:
                    acked = False
                if acked and not worker.dead:
                    worker.epoch = epoch

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> List[Dict[str, float]]:
        """Per-worker serving rows mirroring the pool's ``stats()``:
        the :class:`ShardServingStats` counters keyed by worker name,
        plus reconnect/requeue accounting (``crashes`` counts detected
        drops, ``respawns`` re-registrations after one) and the TCP
        transport tag."""
        rows = []
        for name in sorted(self._stats_of):
            stats = self._stats_of[name]
            row = stats.as_dict()
            row.pop("shard")
            row["worker"] = name
            row["pid"] = self._pids.get(name, -1)
            row["crashes"] = self._crashes.get(name, 0)
            row["respawns"] = self._respawns.get(name, 0)
            row["requeued_blocks"] = self._requeued.get(name, 0)
            worker = self._workers_by_name.get(name)
            row["epoch"] = worker.epoch if worker is not None else -1
            row["shards"] = len(worker.shard_ids) if worker is not None else 0
            row["transport"] = "tcp"
            rows.append(row)
        return rows

    @property
    def total_swaps(self) -> int:
        """How many zone snapshots have been installed fleet-wide."""
        return self._swaps

    @property
    def total_crashes(self) -> int:
        """How many worker connection drops have been detected (SIGKILL,
        EOF, heartbeat silence, aborted connection).

        Rises as soon as a drop is handled, before any replacement has
        dialled in; for self-spawned workers this is the count
        ``max_respawns`` budgets."""
        return sum(self._crashes.values())

    @property
    def total_respawns(self) -> int:
        """How many dropped worker names have re-registered and are
        serving again (a respawned local process or a reconnected
        external worker).

        Counted in the loop step that publishes the returning worker,
        so once this rises it is in ``worker_pids()``.  Lags
        ``total_crashes`` while a replacement is on its way, and stays
        behind it for names whose shards were re-placed instead."""
        return sum(self._respawns.values())

    @property
    def total_requeued(self) -> int:
        """How many in-flight blocks were replayed after a disconnect."""
        return sum(self._requeued.values())

    def worker_pids(self) -> List[int]:
        """Registered PIDs of the live workers (fault-injection hook)."""
        return [
            worker.pid
            for worker in list(self._workers_by_name.values())
            if not worker.dead and not worker.stopped
        ]

    def worker_names(self) -> List[str]:
        """Names of the live registered workers."""
        return [
            worker.name
            for worker in list(self._workers_by_name.values())
            if not worker.dead and not worker.stopped
        ]

    def drop_connection(self, name: str) -> bool:
        """Abort one worker's connection (fault-injection hook for the
        dropped-connection suites); ``True`` if the worker was live."""
        async def _drop() -> bool:
            worker = self._workers_by_name.get(name)
            if worker is None or worker.dead or worker.stopped:
                return False
            transport = worker.writer.transport
            if transport is not None:
                transport.abort()
            await self._on_worker_drop(worker)
            return True

        return asyncio.run_coroutine_threadsafe(
            _drop(), self._loop
        ).result(timeout=self.ready_timeout)

    def __len__(self) -> int:
        return len(self._workers_by_name)

    def __repr__(self) -> str:
        with self._lock:
            running = self._running
        return (
            f"ClusterCoordinator(workers={self.workers}, "
            f"shards={len(self._payload_of)}, "
            f"replicas={self.replicas or 'all'}, "
            f"address={self._address}, running={running})"
        )
