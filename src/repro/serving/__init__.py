"""Sharded streaming serving layer over the ``ZoneBackend`` protocol.

The paper positions the monitor as a deployment-time supervisor (§I, §V);
this package turns one monitor into a serving fleet:

* :mod:`repro.serving.shard` — :class:`MonitorShard` slices +
  :class:`ShardRouter` (per-class partitioning, routing, reassembly via
  ``NeuronActivationMonitor.merge``; per-cell sharding for detection
  monitors);
* :mod:`repro.serving.server` — :class:`StreamServer`, an asyncio
  micro-batching queue coalescing concurrent ``check``/``classify``
  requests into vectorised backend calls, with backpressure, per-shard
  stats, and inline distribution-shift detection from exact Hamming
  distances.  Batches execute on a pluggable executor: inline on the
  loop, a shared thread pool, the multiprocess shard pool, or the TCP
  shard cluster;
* :mod:`repro.serving.fleet` — the one shard-fleet core both
  multi-process executors run on: the worker loop
  (:func:`~repro.serving.fleet.serve_shards`) that rehydrates shards
  from portable visited-pattern payloads, and the coordinator with
  shortest-queue block dispatch, one death handler (drain, requeue,
  respawn or re-place) and fleet-atomic zone swaps;
* :mod:`repro.serving.procpool` — :class:`ProcessShardPool`, the fleet
  as local worker *processes* over pipes, with row blocks carried
  zero-copy by :mod:`repro.serving.shmring` (preallocated
  shared-memory request/response rings; pickled-pipe fallback per
  oversized block);
* :mod:`repro.serving.cluster` — :class:`ClusterCoordinator` +
  :func:`run_worker`, the fleet over TCP so it can span hosts: workers
  register over a listen socket, shards are placed with per-shard
  replica sets, heartbeats detect dead connections, and a dropped
  worker either reconnects or has its shards re-placed on the
  survivors; :mod:`repro.serving.netproto` frames the control tuples.

See the serving sections of ``monitor/backends/README.md`` for the
sharding, process execution and TCP cluster models and tuning knobs,
and ``python -m repro serve`` (``--workers N`` for the process pool,
``--cluster host:port`` + ``python -m repro serve-worker`` for the
cluster) for the CLI entry points.
"""

from repro.serving.shard import MonitorShard, ShardRouter, shard_detection_monitor
from repro.serving.server import (
    ShardServingStats,
    StreamResult,
    StreamServer,
    run_stream,
)
from repro.serving.procpool import ProcessShardPool, WorkerCrashError
from repro.serving.cluster import ClusterCoordinator, run_worker
from repro.serving.netproto import ConnectionClosed, ProtocolError

__all__ = [
    "MonitorShard",
    "ShardRouter",
    "shard_detection_monitor",
    "ShardServingStats",
    "StreamResult",
    "StreamServer",
    "run_stream",
    "ProcessShardPool",
    "WorkerCrashError",
    "ClusterCoordinator",
    "run_worker",
    "ConnectionClosed",
    "ProtocolError",
]
