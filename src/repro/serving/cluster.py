"""Cross-host shard workers: the fleet core over framed TCP.

:class:`ClusterCoordinator` is the :class:`~repro.serving.fleet.ShardFleet`
with its workers behind sockets, so the fleet can span hosts.  Dispatch,
the death handler, zone swaps, γ broadcast and stats are the core's;
this module only supplies how workers arrive and how bytes reach them.

* **Registration.**  The coordinator listens on a socket; an accept
  thread hands each connection to its own reader thread, which runs the
  registration handshake — ``("register", name, pid)`` up, the fleet's
  ``("init", payloads, γ, None)`` down (no ring spec: TCP has no shared
  memory), ``("ready", n)`` up — and then becomes that worker's reader.
  Frames are :mod:`~repro.serving.netproto` length-prefixed pickles read
  through the blocking :class:`~repro.serving.netproto.FrameConnection`.

* :func:`run_worker` — the worker side: connect, register, then the one
  worker loop (:func:`~repro.serving.fleet.serve_shards`); a dropped
  connection is redialled under the same name.  ``python -m repro
  serve-worker host:port`` is a thin wrapper.

**Placement and replicas.**  Each shard has a *replica set* of workers
holding it.  ``replicas=0`` (default) places every shard on every
worker; ``replicas=r`` caps the set at ``r`` holders, assigned
least-loaded-first as workers register.  A name that registers again
reclaims the shard set it had.

**Failure model** — the core's, with TCP's two ways of coming back:

1. A worker vanishes: socket EOF/reset, a torn frame, or silence
   strictly past ``heartbeat_timeout`` (one heartbeat thread pings every
   ``heartbeat_interval``; any inbound frame counts as alive).
2. Its unanswered blocks are drained and requeued through dispatch,
   which waits (bounded by ``ready_timeout``) for a live holder.
3. *Come back:* a self-spawned local worker is respawned under its name
   (budgeted by ``max_respawns``); an externally launched worker gets
   ``reconnect_grace`` seconds to dial back in.  The drop counts as a
   crash when detected, and as a respawn when the name re-registers.
4. *Re-place:* if the worker stays gone (or its budget is spent), every
   shard it held goes to the least-loaded survivors via a ``("zone",
   payloads, γ, ack)`` frame.  A survivor becomes a holder only after
   that frame is sent, and frames are FIFO per connection, so the
   rehydration lands before any block for the shard.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.serving import netproto
from repro.serving.fleet import (
    CONN_ERRORS,
    ShardFleet,
    WorkerCrashError,
    WorkerHandle,
    serve_shards,
)
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
def run_worker(
    address: Union[str, Tuple[str, int]],
    name: Optional[str] = None,
    reconnect_attempts: int = 0,
    reconnect_backoff: float = 0.5,
) -> None:
    """Serve shards for the coordinator at ``address`` until it stops us.

    Connects, registers, and runs the worker loop until the
    ``("stop",)`` sentinel.  A dropped connection is retried up to
    ``reconnect_attempts`` times (``reconnect_backoff`` seconds between
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
            conn.send(("register", name, os.getpid()))
            if serve_shards(conn):
                return  # graceful stop
        except CONN_ERRORS:
            pass
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
# coordinator
# ----------------------------------------------------------------------
class ClusterCoordinator(ShardFleet):
    """A TCP shard cluster behind the fleet's executor surface.

    Parameters
    ----------
    shards:
        The :class:`MonitorShard` slices to place over the fleet.  Only
        their portable payloads are retained.
    listen:
        ``None`` (default) binds a loopback socket on an ephemeral port
        and **self-hosts**: ``workers`` local worker processes are
        spawned and dial back in (the zero-config mode used by
        ``executor="cluster"``).  A ``"host:port"`` string (or pair)
        binds there and waits for ``workers`` externally launched
        ``python -m repro serve-worker`` registrations instead.
    workers:
        Fleet size ``start()`` waits for before returning.
    replicas:
        Per-shard replica-set size; ``0`` = every worker holds every
        shard.
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

    _transport = "tcp"

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
        super().__init__(shards, context, max_respawns, ready_timeout)
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if replicas < 0:
            raise ValueError(f"replicas must be non-negative, got {replicas}")
        self.workers = workers
        self.replicas = replicas
        self.heartbeat_interval = (
            float(heartbeat_interval) if heartbeat_interval is not None
            else _env_seconds(ENV_HEARTBEAT_INTERVAL, DEFAULT_HEARTBEAT_INTERVAL)
        )
        self.heartbeat_timeout = (
            float(heartbeat_timeout) if heartbeat_timeout is not None
            else _env_seconds(ENV_HEARTBEAT_TIMEOUT, DEFAULT_HEARTBEAT_TIMEOUT)
        )
        for knob in ("heartbeat_interval", "heartbeat_timeout"):
            if getattr(self, knob) <= 0:
                raise ValueError(f"{knob} must be positive, got {getattr(self, knob)}")
        self.reconnect_grace = reconnect_grace
        self._self_hosted = listen is None
        self._bind = ("127.0.0.1", 0) if listen is None else parse_address(listen)
        self._last_shards: Dict[str, Set[int]] = {}
        self._graces: Dict[str, float] = {}  # name -> re-place deadline
        self._spawned: Dict[str, object] = {}  # name -> local process
        self._listener: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._closing = threading.Event()
        self._service: List[threading.Thread] = []  # accept + heartbeat

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers dial (after ``start()``)."""
        if self._address is None:
            raise RuntimeError("cluster is not listening; call start()")
        return self._address

    def _launch(self) -> None:
        """Bind, gather the fleet, return once ``workers`` registrations
        have completed their init handshake."""
        self._closing.clear()
        listener = socket.create_server(self._bind)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._service = [
            threading.Thread(target=target, args=args, daemon=True, name=name)
            for target, args, name in (
                (self._accept, (listener,), "repro-cluster-accept"),
                (self._heartbeat, (), "repro-cluster-heartbeat"),
            )
        ]
        for thread in self._service:
            thread.start()
        if self._self_hosted:
            for index in range(self.workers):
                self._spawn_process(f"local-{index}")
        deadline = time.monotonic() + self.ready_timeout
        while True:
            with self._lock:
                registered = len(self._live())
            if registered >= self.workers:
                return
            if time.monotonic() > deadline:
                raise WorkerCrashError(
                    f"only {registered} of {self.workers} workers "
                    f"registered within {self.ready_timeout}s"
                )
            time.sleep(0.005)

    def _spawn_process(self, name: str) -> None:
        """Launch one local worker process that dials back in under
        ``name`` (initial fleet and the respawn path)."""
        host, port = self._address
        process = self._ctx.Process(
            target=_local_worker_main,
            args=(host, port, name),
            daemon=True,
            name=f"repro-cluster-worker-{name}",
        )
        # Recorded before it starts, so its registration always finds it.
        self._spawned[name] = process
        process.start()

    def _close_intake(self) -> None:
        self._closing.set()
        if self._listener is not None:
            try:
                # Wakes the accept thread: closing alone does not
                # interrupt a blocked accept() on Linux.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()

    def _teardown(self, wedged: List[threading.Thread]) -> None:
        for thread in self._service:
            thread.join(timeout=self.ready_timeout)
        self._service = []
        for process in self._spawned.values():
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self._spawned.clear()
        self._graces.clear()
        self._listener = None
        self._address = None

    # ------------------------------------------------------------------
    # registration and placement
    # ------------------------------------------------------------------
    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True,
                name="repro-cluster-reader",
            )
            self._pumps.append(reader)
            reader.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        """One connection's life: register → init handshake → reader."""
        conn = netproto.FrameConnection(sock)
        handle = None
        try:
            sock.settimeout(self.ready_timeout)
            msg = conn.recv()
            if not isinstance(msg, tuple) or msg[0] != "register":
                raise netproto.ProtocolError("expected a register frame")
            name = str(msg[1])
            with self._lock:
                stale = self._workers.get(name)
                if not self._running or self._stopping or (stale and not stale.dead):
                    raise netproto.ProtocolError(f"rejected worker {name!r}")
                handle = WorkerHandle(
                    name, conn, int(msg[2]), self._spawned.get(name)
                )
                # Placement is reserved before the handshake: concurrent
                # registrations must see each other's claims, or every
                # arrival computes against empty replica sets and the
                # fleet converges on identical placements.
                handle.shard_ids = self._assign_shards(name)
                for shard_id in handle.shard_ids:
                    self._holders[shard_id].add(name)
                self._last_shards[name] = set(handle.shard_ids)
                self._graces.pop(name, None)
                payloads = self._payloads_for(handle)
                gamma = self._gamma
                handle.epoch = self._epoch
            conn.send(("init", payloads, gamma, None))
            if conn.recv()[0] != "ready":
                raise netproto.ProtocolError("expected a ready frame")
            sock.settimeout(None)
        except CONN_ERRORS:
            conn.close()
            if handle is not None:
                with self._lock:
                    if self._workers.get(handle.key) is not handle:
                        for shard_id in handle.shard_ids:
                            self._holders[shard_id].discard(handle.key)
            return
        handle.pump = threading.current_thread()
        self._publish(handle)
        self._pump(handle)

    def _assign_shards(self, name: str) -> Set[int]:
        """Shard set for a (re)registering worker (call under the lock).

        A known name coming back reclaims its previous set.  A new name
        is placed by deficit: with ``replicas=0`` every worker holds
        every shard; with ``replicas=r`` it takes up to its fair share
        (``ceil(shards·r / workers)``) of the most under-replicated
        shards, so a sequentially-registering fleet converges on ~r
        holders per shard instead of the first arrival hoarding
        everything.
        """
        previous = self._last_shards.get(name)
        if previous:
            return set(previous)
        if self.replicas == 0:
            return set(self._holders)
        share = max(1, -(-len(self._holders) * self.replicas // self.workers))
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

    # ------------------------------------------------------------------
    # failure handling: come back, else re-place
    # ------------------------------------------------------------------
    def _replace(self, name: str) -> None:
        if self._self_hosted:
            self._spawn_process(name)
        else:
            with self._lock:
                self._graces[name] = time.monotonic() + self.reconnect_grace

    def _retire(self, name: str) -> None:
        self._replace_shards(self._last_shards.get(name, set()))

    def _replace_shards(self, shard_ids: Set[int]) -> None:
        """Re-place orphaned shards onto surviving workers.

        Every shard below its replica target is given to the
        least-loaded survivors; each grown survivor gets a zone frame
        carrying its new *full* payload set and only then becomes a
        holder, so FIFO framing lands the rehydration before any block
        for the shard.
        """
        with self._lock:
            survivors = self._live()
            grown: Dict[str, WorkerHandle] = {}
            placed: Dict[str, List[int]] = {}
            for sid in sorted(shard_ids):
                holders = self._holders[sid]
                want = len(survivors) if self.replicas == 0 else self.replicas
                candidates = sorted(
                    (w for w in survivors if w.key not in holders),
                    key=lambda w: (len(w.shard_ids), w.key),
                )
                for target in candidates[: max(0, want - len(holders))]:
                    target.shard_ids.add(sid)
                    self._last_shards[target.key] = set(target.shard_ids)
                    grown[target.key] = target
                    placed.setdefault(target.key, []).append(sid)
            frames = [
                (target, ("zone", self._payloads_for(target), self._gamma,
                          next(self._ack_ids)))
                for target in grown.values()
            ]
        for target, frame in frames:
            if self._send_ctl(target, frame):
                with self._lock:
                    if not target.dead:
                        for sid in placed[target.key]:
                            self._holders[sid].add(target.key)

    def _heartbeat(self) -> None:
        """Ping live connections, close the silent ones (their reader
        then runs the death handler), and re-place the shards of
        external workers whose reconnect grace ran out."""
        while not self._closing.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._lock:
                live = self._live()
                expired = [
                    name for name, deadline in self._graces.items()
                    if deadline <= now
                ]
                for name in expired:
                    del self._graces[name]
                expired = [name for name in expired if name not in self._workers]
            for worker in live:
                if now - worker.last_seen > self.heartbeat_timeout:
                    worker.conn.close()
                else:
                    self._send_ctl(worker, ("ping", now))
            for name in expired:
                self._retire(name)

    # ------------------------------------------------------------------
    # observability and fault injection
    # ------------------------------------------------------------------
    def worker_names(self) -> List[str]:
        """Names of the live registered workers."""
        with self._lock:
            return [worker.key for worker in self._live()]

    def drop_connection(self, name: str) -> bool:
        """Abort one worker's connection (fault-injection hook for the
        dropped-connection suites); ``True`` if the worker was live."""
        with self._lock:
            worker = self._workers.get(name)
        if worker is None or worker.dead or worker.stopped:
            return False
        self._on_death(worker)
        return True

    def __len__(self) -> int:
        return len(self._workers)
