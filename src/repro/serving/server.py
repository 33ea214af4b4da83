"""Asyncio micro-batching monitor server with off-loop kernel execution.

The deployment loop of the paper checks one decision at a time; the zone
backends answer *matrices* orders of magnitude faster per row.  The
:class:`StreamServer` closes that gap for a stream of concurrent callers:
requests go into one bounded check queue, and one coalescing consumer per
execution lane drains it — it merges whatever arrived within
``max_delay_ms`` (up to ``max_batch`` rows, whatever shards they belong
to) into one routed :meth:`~repro.serving.shard.ShardRouter.check_batch`
call, and resolves each caller's future individually.  The bounded queue
gives natural backpressure — producers block in ``await`` when the lanes
fall behind rather than growing the queue without limit.

Two design points keep the hot path cheap and the lanes busy:

* **Block requests.**  A queue entry carries a *block* of pre-stacked
  rows, not a single pattern.  :meth:`StreamServer.check` wraps one row
  per block (the open-stream shape); :meth:`StreamServer.check_many`
  drops unmonitored rows with one vectorised class lookup and enqueues
  the rest as ``max_batch``-row blocks directly — no per-row coroutine,
  no per-row array boxing, one future per block, and a block whose rows
  span several shards stays one block.
* **One lane per unit of execution.**  The ``executor`` knob sets where
  batches run and so the lane count: ``"inline"`` has one lane running
  kernels on the loop; ``"thread"`` one lane per thread of a shared
  :class:`~concurrent.futures.ThreadPoolExecutor` (the XOR/popcount and
  BDD kernels release the GIL inside numpy; batches under
  ``_EXECUTOR_MIN_ROWS`` skip the hop); ``"process"`` / ``"cluster"``
  one lane per fleet worker, each batch one request through
  :meth:`~repro.serving.fleet.ShardFleet.submit` (the worker routes the
  rows among its shards; crashes are survived by respawn + requeue).
  Queueing, coalescing, backpressure and stats are the same for all
  four.

Two request shapes are served:

* :meth:`StreamServer.check` / :meth:`StreamServer.check_many` — a
  pre-extracted activation pattern (or matrix) plus predicted class(es)
  (the hot path when the network runs elsewhere);
* :meth:`StreamServer.classify` — a raw input, micro-batched through the
  wrapped :class:`~repro.monitor.runtime.MonitoredClassifier`'s network
  first, then routed to the shards.

When detectors are attached, every served verdict feeds the binary
:class:`~repro.monitor.shift.DistributionShiftDetector` and every exact
distance the histogram
:class:`~repro.monitor.shift.DistanceShiftDetector`; verdicts and
distances then come from one combined distance kernel per batch
(:meth:`~repro.serving.shard.ShardRouter.check_batch`), so the §V shift
indicator runs inline with serving at no extra query cost.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.monitor.drift import DriftResponder
from repro.monitor.runtime import MonitoredClassifier, Verdict
from repro.monitor.shift import DistanceShiftDetector, DistributionShiftDetector
from repro.serving.shard import ShardRouter

#: Per-shard cap on retained latency samples (enough for stable p99).
_LATENCY_SAMPLES = 8192

#: Below this many coalesced rows the executor hand-off costs more than
#: the kernel; the worker runs the batch inline on the loop instead.
_EXECUTOR_MIN_ROWS = 16


@dataclass
class ShardServingStats:
    """Counters and latency samples for one shard (or one fleet worker).

    ``requests`` counts rows; ``batches`` counts vectorised backend
    calls, so ``mean_batch`` is the amortisation factor of the kernel.
    A :class:`StreamServer` batch may span shards: each shard's
    ``requests`` stays exact, and the batch (with its queue, latency and
    offload counters) is charged once, to the shard of its first row, so
    the shards' ``batches`` add up to the server's kernel calls.
    """

    shard_id: int
    requests: int = 0
    batches: int = 0
    max_batch: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
    offloaded_batches: int = 0
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=_LATENCY_SAMPLES)
    )

    def note_depth(self, depth: int) -> None:
        """Record the current queue depth (and its high-water mark)."""
        self.queue_depth = depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    @property
    def mean_batch(self) -> float:
        """Average rows coalesced per vectorised backend call."""
        return self.requests / self.batches if self.batches else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile (seconds) over the retained samples."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def as_dict(self) -> Dict[str, float]:
        return {
            "shard": self.shard_id,
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "offloaded_batches": self.offloaded_batches,
            "p50_ms": self.latency_percentile(50) * 1e3,
            "p99_ms": self.latency_percentile(99) * 1e3,
        }


class _CheckRequest:
    """A block of pre-stacked query rows (of any shards) awaiting its
    verdicts.  Plain ``__slots__``, not a dataclass: one is made per block
    on the producer hot path, where attribute dicts are measurable."""

    __slots__ = ("patterns", "classes", "rows", "future", "enqueued_at")

    def __init__(self, patterns, classes, rows, future, enqueued_at):
        self.patterns = patterns      # (rows, layer_width)
        self.classes = classes        # (rows,)
        self.rows = rows
        self.future = future          # resolves to the (rows,) verdict slice
        self.enqueued_at = enqueued_at


class _ClassifyRequest:
    __slots__ = ("single_input", "rows", "future", "enqueued_at")

    def __init__(self, single_input, future, enqueued_at):
        self.single_input = single_input
        self.rows = 1  # lets _collect_batch coalesce classify requests too
        self.future = future
        self.enqueued_at = enqueued_at


class StreamServer:
    """Sharded, micro-batched, backpressured monitor serving.

    Parameters
    ----------
    router:
        The sharded monitor (see :class:`~repro.serving.shard.ShardRouter`).
    max_batch:
        Largest number of rows coalesced into one backend call.
    max_delay_ms:
        Longest a worker waits for stragglers once it holds a request —
        the latency price paid for batching (0 disables coalescing delay).
    max_pending:
        Bound of the one check queue (and of the classify queue), in
        queued blocks; producers await when the lanes are this far
        behind (backpressure instead of unbounded memory).
    classifier:
        Optional :class:`MonitoredClassifier` enabling :meth:`classify`
        (raw inputs micro-batched through the network first).
    shift_detector / distance_detector:
        Optional shift detectors fed inline from the served stream.
    drift_responder:
        Optional :class:`~repro.monitor.drift.DriftResponder` closing the
        drift loop: flagged out-of-zone rows are streamed into its
        staging zone, and when an attached detector alarms (with enough
        evidence staged) the server absorbs staging into a candidate
        monitor, re-chooses γ, and hot-swaps the resulting
        :class:`~repro.monitor.drift.ZoneSnapshot` fleet-atomically (the
        detectors are re-baselined against the new zones).  Requires at
        least one detector — without an alarm source the staging zone
        would only ever fill.
    executor:
        Where coalesced batches execute (see the module docstring):
        ``"inline"``, ``"thread"`` (default), ``"process"`` — a
        :class:`~repro.serving.procpool.ProcessShardPool` of ``workers``
        processes, blocks through shared-memory rings or, on
        ``pool_transport="pipe"``, pickled — or ``"cluster"`` — a
        :class:`~repro.serving.cluster.ClusterCoordinator` over framed
        TCP (``cluster_address`` binds the socket external
        ``python -m repro serve-worker`` processes dial; ``None``
        self-hosts ``workers`` local processes on loopback).  ``None``
        derives the mode from ``executor_threads`` (``0`` → inline, else
        thread), honouring the ``REPRO_SERVING_EXECUTOR`` environment
        override when neither knob is set (this is how CI forces the
        whole serving suite through the process executor).
    executor_threads:
        Size of the shared kernel thread pool (``executor="thread"``).
        ``None`` (default) sizes it to ``min(num_shards + 1,
        cpu_count)``; ``0`` selects inline execution.
    workers:
        Worker process count for ``executor="process"``.
    pool_context:
        ``multiprocessing`` start method for the process pool (default:
        fork where available, else spawn).
    pool_transport:
        Forwarded to :class:`ProcessShardPool` — block transport
        (``"shm"``/``"pipe"``, default shm).
    cluster_heartbeat_interval / cluster_heartbeat_timeout:
        Forwarded to :class:`~repro.serving.cluster.ClusterCoordinator`
        (``executor="cluster"``): liveness ping cadence and the silence
        threshold after which a worker is declared dead.  ``None``
        (default) defers to the ``REPRO_CLUSTER_HEARTBEAT_INTERVAL`` /
        ``REPRO_CLUSTER_HEARTBEAT_TIMEOUT`` environment knobs, falling
        back to 1 s / 15 s.
    """

    def __init__(
        self,
        router: ShardRouter,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        max_pending: int = 1024,
        classifier: Optional[MonitoredClassifier] = None,
        shift_detector: Optional[DistributionShiftDetector] = None,
        distance_detector: Optional[DistanceShiftDetector] = None,
        drift_responder: Optional[DriftResponder] = None,
        executor_threads: Optional[int] = None,
        executor: Optional[str] = None,
        workers: int = 2,
        pool_context: Optional[str] = None,
        pool_transport: Optional[str] = None,
        cluster_address: Optional[str] = None,
        cluster_heartbeat_interval: Optional[float] = None,
        cluster_heartbeat_timeout: Optional[float] = None,
    ):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be non-negative, got {max_delay_ms}")
        if max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if executor_threads is not None and executor_threads < 0:
            raise ValueError(
                f"executor_threads must be non-negative, got {executor_threads}"
            )
        if executor is None:
            if executor_threads == 0:
                executor = "inline"
            elif executor_threads is not None:
                executor = "thread"
            else:
                executor = os.environ.get("REPRO_SERVING_EXECUTOR") or "thread"
        if executor not in ("inline", "thread", "process", "cluster"):
            raise ValueError(
                f"executor must be 'inline', 'thread', 'process' or "
                f"'cluster', got {executor!r}"
            )
        if executor in ("process", "cluster") and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if (
            drift_responder is not None
            and shift_detector is None
            and distance_detector is None
        ):
            raise ValueError(
                "drift_responder needs an attached shift or distance "
                "detector to supply the alarm"
            )
        self.router = router
        self.max_batch = max_batch
        self.max_delay = max_delay_ms / 1e3
        self.max_pending = max_pending
        self.classifier = classifier
        self.shift_detector = shift_detector
        self.distance_detector = distance_detector
        self.drift_responder = drift_responder
        self._swap_task: Optional["asyncio.Task"] = None
        self._swaps = 0
        self._swap_error: Optional[BaseException] = None
        self.executor_mode = executor
        self.executor_threads = executor_threads
        self.workers = workers
        self.pool_context = pool_context
        self.pool_transport = pool_transport
        self.cluster_address = cluster_address
        self.cluster_heartbeat_interval = cluster_heartbeat_interval
        self.cluster_heartbeat_timeout = cluster_heartbeat_timeout
        self._executor: Optional[ThreadPoolExecutor] = None
        # ProcessShardPool (executor="process") or ClusterCoordinator
        # (executor="cluster") — both answer the same submit/stop/stats/
        # apply_snapshot surface, so everything below is agnostic.
        self._pool = None
        # Bounded-distance cap for the combined detector kernel: one bin
        # past the histogram's overflow threshold.  min(true, cap+1) then
        # clips to the same overflow bin as the exact distance, so the
        # served histogram/divergence/alarm stream is bit-identical while
        # the indexed bitset backend answers from its pigeonhole
        # shortlist instead of scanning all M rows (window_mean saturates
        # at cap+1 for far-out rows — the one knowingly bounded stat).
        self._distance_cap = (
            None if distance_detector is None
            else distance_detector.max_distance + 1
        )
        self._queue: Optional["asyncio.Queue[Optional[_CheckRequest]]"] = None
        self._lanes = 0
        self._classify_queue: Optional["asyncio.Queue[Optional[_ClassifyRequest]]"] = None
        self._workers: List["asyncio.Task"] = []
        # One row per shard, indexed by the positions ``router.locate`` returns.
        self._stats = [ShardServingStats(shard.shard_id) for shard in router.shards]
        self._classify_stats = ShardServingStats(shard_id=-1)
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the check queue and one coalescing lane per kernel thread,
        per fleet worker (once the fleet is up) or, inline, just one; a
        classifier adds the classify queue and its lane (idempotent)."""
        if self._running:
            return
        self._running = True
        lanes = 1
        if self.executor_mode == "thread":
            threads = self.executor_threads
            if threads is None:
                threads = min(len(self.router.shards) + 1, os.cpu_count() or 1)
            if threads > 0:
                self._executor = ThreadPoolExecutor(
                    max_workers=threads, thread_name_prefix="repro-serving"
                )
                lanes = threads
        elif self.executor_mode in ("process", "cluster"):
            from repro.serving.cluster import ClusterCoordinator
            from repro.serving.procpool import ProcessShardPool

            def _build_and_start():
                if self.executor_mode == "process":
                    fleet = ProcessShardPool(
                        self.router.shards,
                        num_workers=self.workers,
                        context=self.pool_context,
                        transport=self.pool_transport,
                    )
                else:
                    fleet = ClusterCoordinator(
                        self.router.shards,
                        listen=self.cluster_address,
                        workers=self.workers,
                        context=self.pool_context,
                        heartbeat_interval=self.cluster_heartbeat_interval,
                        heartbeat_timeout=self.cluster_heartbeat_timeout,
                    )
                fleet.start()  # blocks until every worker is rehydrated
                return fleet

            # Payload packing, spawning (or waiting for remote
            # registrations) and the per-worker init handshakes can take
            # seconds for large zones; on an already-busy loop that must
            # not freeze every other coroutine.
            self._pool = await asyncio.get_running_loop().run_in_executor(
                None, _build_and_start
            )
            lanes = len(self._pool)
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._lanes = lanes
        self._workers = [
            asyncio.ensure_future(self._lane(self._queue, self._check_batch))
            for _ in range(lanes)
        ]
        if self.classifier is not None:
            self._classify_queue = asyncio.Queue(maxsize=self.max_pending)
            self._workers.append(asyncio.ensure_future(
                self._lane(self._classify_queue, self._classify_batch)
            ))

    async def stop(self) -> None:
        """Drain queued work, then stop every worker."""
        if not self._running:
            return
        self._running = False
        if self._classify_queue is not None:
            await self._classify_queue.put(None)
        for _ in range(self._lanes):  # one sentinel per lane, FIFO behind the work
            await self._queue.put(None)
        await asyncio.gather(*self._workers)
        self._workers.clear()
        self._queue = None
        self._classify_queue = None
        if self._swap_task is not None:
            # A drift swap scheduled by a draining worker must finish
            # before the pool below is torn down (the task swallows its
            # own errors into _swap_error).
            await self._swap_task
            self._swap_task = None
        if self._executor is not None:
            # Off-loop: shutdown(wait=True) joins the executor's worker
            # threads, which can be mid-kernel; parking the event loop on
            # that join would stall concurrent servers on the same loop.
            executor = self._executor
            self._executor = None
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.shutdown(wait=True)
            )
        if self._pool is not None:
            # Off-loop: the pool's graceful drain joins worker processes.
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.stop
            )
            self._pool = None

    async def __aenter__(self) -> "StreamServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------
    async def check(self, pattern: np.ndarray, predicted_class: int) -> bool:
        """Zone verdict for one pre-extracted full-layer pattern.

        Unmonitored classes resolve immediately (``True``, no queue hop),
        exactly like the synchronous monitor.
        """
        if not self._running:
            raise RuntimeError("server is not running; use 'async with' or start()")
        predicted_class = int(predicted_class)
        if not self.router.owns(predicted_class):
            if self.shift_detector is not None:
                self.shift_detector.update(False)
            # The distance detector deliberately sees nothing here: no
            # shard served this row, so there is no distance.  Feeding a
            # synthetic 0 would pile unmonitored traffic into the
            # distance-0 bin and pollute the TV-divergence baseline
            # (masking real drift, or alarming on a traffic-mix change).
            return True
        # Pre-packed single-row fast path: a caller streaming 1-D rows
        # (the deployment shape) skips the asarray/copy entirely.
        if type(pattern) is not np.ndarray or pattern.ndim != 1:
            pattern = np.asarray(pattern).reshape(-1)
        request = _CheckRequest(
            patterns=pattern[None, :],
            classes=np.array([predicted_class]),
            rows=1,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=time.perf_counter(),
        )
        await self._queue.put(request)  # blocks under backpressure
        self._stats[self.router.locate(request.classes)[0]].note_depth(self._queue.qsize())
        verdicts = await request.future
        return bool(verdicts[0])

    async def check_many(self, patterns: np.ndarray, predicted_classes: Sequence[int]) -> np.ndarray:
        """Vectorised bulk submit: drop unmonitored rows, enqueue the rest
        as ``max_batch``-row blocks of any shards, gather verdicts in order.

        Semantically identical to firing one :meth:`check` per row
        concurrently, but the per-row fixed overhead (coroutine, array
        boxing, future, queue hop) is paid once per *block*: the Python
        cost of a 10k-row stream is a few dozen queue operations.
        """
        if not self._running:
            raise RuntimeError("server is not running; use 'async with' or start()")
        patterns = np.atleast_2d(np.asarray(patterns))
        predicted_classes = np.asarray(predicted_classes)
        n = len(patterns)
        verdicts = np.ones(n, dtype=bool)
        if n == 0:
            return verdicts
        loop = asyncio.get_running_loop()
        owners = self.router.locate(predicted_classes)
        routed = np.flatnonzero(owners >= 0)
        queue = self._queue
        pending: List[Tuple[np.ndarray, "asyncio.Future"]] = []
        for start in range(0, len(routed), self.max_batch):
            block = routed[start : start + self.max_batch]
            request = _CheckRequest(
                patterns=patterns[block],
                classes=predicted_classes[block],
                rows=len(block),
                future=loop.create_future(),
                enqueued_at=time.perf_counter(),
            )
            if queue.full():
                await queue.put(request)  # backpressure
            else:
                queue.put_nowait(request)
            self._stats[owners[block[0]]].note_depth(queue.qsize())
            pending.append((block, request.future))
        # Rows predicted as unmonitored classes: trusted verdicts feed
        # the binary shift detector exactly like the per-request path,
        # but the distance detector sees only *served* distances — no
        # shard computed anything for these rows, and synthetic zeros
        # would pollute the TV-divergence baseline histogram.
        unrouted = n - len(routed)
        if unrouted and self.shift_detector is not None:
            self.shift_detector.update_many(np.zeros(unrouted, dtype=bool))
        # return_exceptions so every block future is retrieved even when
        # several fail (no "exception was never retrieved" loop warnings);
        # the first failure is then re-raised like a plain gather.
        results = await asyncio.gather(
            *(future for _, future in pending), return_exceptions=True
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        for (block, _), block_verdicts in zip(pending, results):
            verdicts[block] = block_verdicts
        return verdicts

    async def classify(self, single_input: np.ndarray) -> Verdict:
        """Full monitored classification of one raw input.

        Inputs are micro-batched through the wrapped classifier's network
        (one forward pass per coalesced batch), then each decision is
        routed to its shard like :meth:`check`.
        """
        if self.classifier is None:
            raise RuntimeError("server was built without a classifier")
        if not self._running or self._classify_queue is None:
            raise RuntimeError("server is not running; use 'async with' or start()")
        request = _ClassifyRequest(
            single_input=np.asarray(single_input),
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=time.perf_counter(),
        )
        await self._classify_queue.put(request)
        self._classify_stats.note_depth(self._classify_queue.qsize())
        return await request.future

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    async def _collect_batch(self, queue: "asyncio.Queue", first):
        """Coalesce blocks up to ``max_batch`` total rows within
        ``max_delay``.  Returns ``(batch, total_rows, carry, stopping)``:
        ``carry`` is a block that would overflow the row budget, held for
        the next batch so one kernel call never exceeds ``max_batch``."""
        batch = [first]
        total = first.rows
        deadline = asyncio.get_running_loop().time() + self.max_delay
        while total < self.max_batch:
            if not queue.empty():
                item = queue.get_nowait()
            else:
                timeout = deadline - asyncio.get_running_loop().time()
                if timeout <= 0:
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
            if item is None:
                return batch, total, None, True
            if total + item.rows > self.max_batch:
                return batch, total, item, False
            batch.append(item)
            total += item.rows
        return batch, total, None, False

    async def _run_kernel(self, patterns, classes, rows, stats):
        """Execute one coalesced batch — off-loop when it pays.  A fleet
        gets *every* batch (no inline shortcut): its workers own the only
        live backends, so crash/requeue semantics cover the whole stream."""
        want_distances = self.distance_detector is not None
        if self._pool is not None:
            stats.offloaded_batches += 1
            pool = self._pool
            # Submit from the loop's default thread pool, not the loop
            # itself: if the target worker just crashed, submit() blocks
            # on the respawn handshake, and only this lane should feel
            # that — the loop must stay free to coalesce for the others.
            block_future = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: pool.submit(
                    patterns, classes,
                    with_distances=want_distances,
                    distance_cap=self._distance_cap,
                ),
            )
            return await asyncio.wrap_future(block_future)
        if self._executor is not None and rows >= _EXECUTOR_MIN_ROWS:
            stats.offloaded_batches += 1
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, self.router.check_batch, patterns, classes,
                want_distances, self._distance_cap,
            )
        # lint: disable=async-blocking-call -- deliberate inline fast path: batches under _EXECUTOR_MIN_ROWS finish faster than an executor hop
        return self.router.check_batch(
            patterns, classes, want_distances, self._distance_cap
        )

    async def _lane(self, queue: "asyncio.Queue", serve) -> None:
        """Drain ``queue`` until its sentinel, one coalesced batch at a
        time; ``await serve(batch, rows)`` answers the callers.  A bad
        request (e.g. a wrong pattern width) fails its own batch, never
        the lane — a dead lane would wedge every later caller."""
        carry = None
        stopping = False
        while carry is not None or not stopping:
            if carry is not None:
                first, carry = carry, None
            else:
                first = await queue.get()
                if first is None:
                    return
            batch, total, carry, got_stop = await self._collect_batch(queue, first)
            stopping = stopping or got_stop
            try:
                await serve(batch, total)
            except Exception as exc:  # noqa: BLE001 — surfaced to callers
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)

    async def _check_batch(self, batch: List[_CheckRequest], total: int) -> None:
        """One check batch: one routed query, then stats, drift staging,
        detectors and the callers' verdicts."""
        if len(batch) == 1:
            patterns, classes = batch[0].patterns, batch[0].classes
        else:
            patterns = np.concatenate([r.patterns for r in batch])
            classes = np.concatenate([r.classes for r in batch])
        # Shard positions + 1: a row whose class left the router (a swap
        # that moved classes) lands in bin 0, uncounted.
        owners = self.router.locate(classes) + 1
        lead = self._stats[max(owners[0] - 1, 0)]
        supported, distances = await self._run_kernel(patterns, classes, total, lead)
        now = time.perf_counter()
        counts = np.bincount(owners, minlength=len(self._stats) + 1)
        for position in np.flatnonzero(counts[1:]).tolist():
            self._stats[position].requests += int(counts[position + 1])
        lead.batches += 1
        lead.max_batch = max(lead.max_batch, total)
        lead.note_depth(self._queue.qsize())
        shift = self.shift_detector
        distance_detector = self.distance_detector
        responder = self.drift_responder
        if responder is not None:
            # Stage the flagged rows *before* the detector updates: the
            # alarm that those updates may raise finds its evidence
            # already in the staging zone.
            flagged = ~supported
            if flagged.any():
                responder.staging.add(patterns[flagged], classes[flagged])
        alarm = False
        offset = 0
        for request in batch:
            end = offset + request.rows
            lead.latencies.append(now - request.enqueued_at)
            block = supported[offset:end]
            if shift is not None:
                states = shift.update_many(~block)
                alarm = alarm or any(state.alarm for state in states)
            if distance_detector is not None:
                states = distance_detector.update_many(distances[offset:end])
                alarm = alarm or any(state.alarm for state in states)
            if not request.future.done():
                request.future.set_result(block)
            offset = end
        if alarm and responder is not None:
            self._maybe_respond()

    async def _classify_batch(self, batch: List[_ClassifyRequest], total: int) -> None:
        """One classify batch: one forward pass + monitor check."""
        stats = self._classify_stats
        inputs = np.stack([r.single_input for r in batch])
        if self._executor is not None and total >= _EXECUTOR_MIN_ROWS:
            stats.offloaded_batches += 1
            verdicts = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.classifier.classify, inputs
            )
        else:
            # lint: disable=async-blocking-call -- same inline small-batch fast path as _run_kernel
            verdicts = self.classifier.classify(inputs)
        now = time.perf_counter()
        stats.requests += total
        stats.batches += 1
        stats.max_batch = max(stats.max_batch, total)
        stats.queue_depth = self._classify_queue.qsize()
        if self.shift_detector is not None:
            self.shift_detector.update_many([v.warning for v in verdicts])
        for request, verdict in zip(batch, verdicts):
            stats.latencies.append(now - request.enqueued_at)
            if not request.future.done():
                request.future.set_result(verdict)

    # ------------------------------------------------------------------
    # drift response (alarm → absorb → recalibrate → hot-swap)
    # ------------------------------------------------------------------
    def _maybe_respond(self) -> None:
        """Schedule one drift response if warranted (at most one live)."""
        responder = self.drift_responder
        if responder is None or not responder.ready():
            return
        if self._swap_task is not None and not self._swap_task.done():
            return  # a swap is already in flight; alarms coalesce into it
        self._swap_task = asyncio.ensure_future(self._drift_swap())

    async def _drift_swap(self) -> None:
        """One full drift response off the loop, then the fleet swap.

        Absorption + γ re-calibration (``DriftResponder.respond``) and
        the process-fleet resync both run on the default thread pool —
        they take kernel-sweep time, and serving must keep coalescing
        batches throughout (the whole point of a *hot* swap).  Order:
        worker fleet first (drain → rehydrate → replay), then the
        loop-side router (the live kernels for inline/thread mode; batch
        atomicity comes from ``check_batch``'s single monitor read),
        then detector re-baselining against the new zones.  Failures are
        recorded in ``drift_stats()`` rather than raised — a failed swap
        must not take down serving.
        """
        responder = self.drift_responder
        loop = asyncio.get_running_loop()
        layout = [(s.shard_id, list(s.classes)) for s in self.router.shards]
        try:
            snapshot = await loop.run_in_executor(
                None, responder.respond, layout
            )
            if snapshot is None:
                return  # thin evidence: staging keeps filling
            if self._pool is not None:
                await loop.run_in_executor(
                    None, self._pool.apply_snapshot, snapshot
                )
            await loop.run_in_executor(
                None, self.router.apply_snapshot, snapshot
            )
            if self.shift_detector is not None:
                self.shift_detector.rebaseline(snapshot.baseline_oop_rate)
            if (
                self.distance_detector is not None
                and snapshot.baseline_distances is not None
            ):
                self.distance_detector.rebaseline(snapshot.baseline_distances)
            self._swaps += 1
        except Exception as exc:  # noqa: BLE001 — reported, not fatal
            self._swap_error = exc

    @property
    def zone_epoch(self) -> int:
        """The zone epoch currently served (0 until the first swap)."""
        return self.router.epoch

    def drift_stats(self) -> Dict[str, object]:
        """One observability row for the drift loop (CLI stats line)."""
        row: Dict[str, object] = {}
        if self.drift_responder is not None:
            row.update(self.drift_responder.stats())
        row["epoch"] = self.zone_epoch
        row["swaps"] = self._swaps
        if self._swap_error is not None:
            row["swap_error"] = repr(self._swap_error)
        return row

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> List[Dict[str, float]]:
        """Per-shard serving statistics (requests, batching, latency)."""
        rows = [stats.as_dict() for stats in self._stats]
        if self.classifier is not None:
            rows.append(self._classify_stats.as_dict())
        return rows

    def worker_stats(self) -> List[Dict[str, float]]:
        """Per-worker rows (``executor="process"`` / ``"cluster"``): the
        :class:`ShardServingStats` counters aggregated per worker, plus
        pid / crash / respawn / requeued-block accounting.  Empty for
        in-process executors."""
        if self._pool is None:
            return []
        return self._pool.stats()


@dataclass
class StreamResult:
    """Outcome of replaying a finite stream through a :class:`StreamServer`."""

    verdicts: np.ndarray
    elapsed: float
    stats: List[Dict[str, float]]
    worker_stats: List[Dict[str, float]] = field(default_factory=list)
    drift: Optional[Dict[str, object]] = None

    @property
    def throughput(self) -> float:
        """Requests served per second of wall-clock."""
        return len(self.verdicts) / self.elapsed if self.elapsed else 0.0


def run_stream(
    router: ShardRouter,
    patterns: np.ndarray,
    predicted_classes: Sequence[int],
    max_batch: int = 64,
    max_delay_ms: float = 2.0,
    max_pending: int = 1024,
    shift_detector: Optional[DistributionShiftDetector] = None,
    distance_detector: Optional[DistanceShiftDetector] = None,
    drift_responder: Optional[DriftResponder] = None,
    executor_threads: Optional[int] = None,
    executor: Optional[str] = None,
    workers: int = 2,
    pool_context: Optional[str] = None,
    pool_transport: Optional[str] = None,
    cluster_address: Optional[str] = None,
    submit: str = "bulk",
) -> StreamResult:
    """Replay a pattern stream through a server; return verdicts + stats.

    Convenience synchronous entry point for the CLI and benchmarks.
    ``executor`` / ``workers`` select the execution model (see
    :class:`StreamServer`); timing starts after the server (and, in
    process mode, the worker fleet's warm-up handshake) is up, so the
    elapsed figure is steady-state serving rate, not spawn cost.
    ``submit`` selects the producer shape:

    * ``"bulk"`` (default) — one :meth:`StreamServer.check_many` call:
      the whole stream is routed vectorised and enqueued as
      ``max_batch``-row blocks, the batched-producer serving rate.
    * ``"per_request"`` — every row becomes its own concurrent
      :meth:`StreamServer.check` call (as if each decision arrived from
      its own caller), the open-stream rate including all per-request
      queueing overhead.
    """
    if submit not in ("bulk", "per_request"):
        raise ValueError(f"submit must be 'bulk' or 'per_request', got {submit!r}")

    async def _run() -> StreamResult:
        server = StreamServer(
            router,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_pending=max_pending,
            shift_detector=shift_detector,
            distance_detector=distance_detector,
            drift_responder=drift_responder,
            executor_threads=executor_threads,
            executor=executor,
            workers=workers,
            pool_context=pool_context,
            pool_transport=pool_transport,
            cluster_address=cluster_address,
        )
        async with server:
            t0 = time.perf_counter()
            if submit == "bulk":
                verdicts = await server.check_many(patterns, predicted_classes)
            else:
                verdicts = np.asarray(
                    await asyncio.gather(
                        *(
                            server.check(patterns[i], predicted_classes[i])
                            for i in range(len(patterns))
                        )
                    ),
                    dtype=bool,
                )
            elapsed = time.perf_counter() - t0
            stats = server.stats()
            worker_stats = server.worker_stats()
        # Drift stats are read *after* the server exits: stop() awaits any
        # in-flight swap, so the row reflects the final epoch.
        return StreamResult(
            verdicts=verdicts,
            elapsed=elapsed,
            stats=stats,
            worker_stats=worker_stats,
            drift=(
                server.drift_stats() if drift_responder is not None else None
            ),
        )

    return asyncio.run(_run())
