"""Serving-layer race: sharded async micro-batching vs the synchronous loop.

The deployment story of the paper is a loop: one decision, one monitor
query.  The serving layer replaces it with a fleet of per-class shards
behind an asyncio micro-batching queue with off-loop kernel execution
(``repro.serving``).  This bench replays the same query stream several
ways:

* ``sync / per-request (bdd)``    — the deployment loop on the paper's
  default engine, one call per decision;
* ``sync / per-request (bitset)`` — the same loop on the vectorized
  engine (per-call numpy overhead dominates);
* ``sync / full batch (bitset)``  — the all-at-once oracle: the whole
  stream as one matrix, an upper bound no online server can reach;
* ``async / N shards (bulk)``     — the stream submitted through
  ``StreamServer.check_many``: vectorised routing, ``max_batch``-row
  blocks, one future per block, kernels on the shared thread pool;
* ``async / 4 shards (per-req)``  — every row as its own concurrent
  ``StreamServer.check`` call (queueing, coalescing, backpressure and
  per-shard latency accounting all on the per-row path);
* ``proc pool / W workers (bulk)`` — the same bulk stream with
  ``executor="process"``: every coalesced block crosses a pipe as a
  pickled packed-bit array to a shared-nothing worker process that
  rehydrated its shard subset from the portable payloads
  (``REPRO_BENCH_WORKERS`` overrides the worker count; the CI smoke job
  pins it to 2).  Pool spawn + warm-up handshake happen before timing,
  so the figure is steady-state serving rate.

The asserted invariants: bit-identical verdicts on every path, genuine
coalescing (mean batch far above 1), the per-request open-stream path
within a small constant of the synchronous loop, and — the PR-3/PR-4
acceptance criteria — bulk thread-pool serving at 4 shards **and** bulk
proc-pool serving both **faster than 1.5x the synchronous per-request
loop**.  All timings also land in ``BENCH_perf.json`` (the proc-pool
rows under ``serving.proc_pool``).
"""

import multiprocessing as mp
import os
import time

import numpy as np

from benchutil import is_smoke, record, record_appendix, record_perf, scaled
from repro.analysis import format_table
from repro.monitor import NeuronActivationMonitor
from repro.serving import ProcessShardPool, ShardRouter, run_stream, shmring

WIDTH = 64
NUM_CLASSES = 10
PATTERNS_PER_CLASS = 200
NUM_REQUESTS = 4_000
GAMMA = 1
MAX_BATCH = 256
MAX_DELAY_MS = 1.0
MAX_PENDING = 8_192


def _workload(seed=0, num_requests=NUM_REQUESTS):
    rng = np.random.default_rng(seed)
    prototypes = rng.random((NUM_CLASSES, WIDTH)) < 0.5
    labels = np.repeat(np.arange(NUM_CLASSES), PATTERNS_PER_CLASS)
    flips = rng.random((len(labels), WIDTH)) < 0.06
    patterns = (prototypes[labels] ^ flips).astype(np.uint8)
    picks = rng.integers(0, len(patterns), num_requests)
    queries = patterns[picks] ^ (rng.random((num_requests, WIDTH)) < 0.02)
    return patterns, labels, queries.astype(np.uint8), labels[picks]


def _best_stream(router, queries, query_classes, submit, runs=3, **server_kw):
    """Best-of-N replay (one run warms the asyncio machinery; the best
    filters out GC pauses, the PR-1 best-of convention)."""
    result = None
    for _ in range(runs):
        attempt = run_stream(
            router, queries, query_classes,
            max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
            max_pending=MAX_PENDING, submit=submit, **server_kw,
        )
        if result is None or attempt.elapsed < result.elapsed:
            result = attempt
    return result


def test_sharded_async_vs_synchronous_loop():
    num_requests = scaled(NUM_REQUESTS, 1_500)
    patterns, labels, queries, query_classes = _workload(num_requests=num_requests)

    monitors = {}
    for backend in ("bdd", "bitset"):
        monitor = NeuronActivationMonitor(
            WIDTH, range(NUM_CLASSES), gamma=GAMMA, backend=backend
        )
        monitor.record(patterns, labels, labels)
        # Materialise every gamma zone before timing queries.
        monitor.check(queries[:NUM_CLASSES], np.arange(NUM_CLASSES))
        monitors[backend] = monitor

    def sync_loop(monitor):
        return np.array(
            [
                monitor.is_known(queries[i : i + 1], int(query_classes[i]))
                for i in range(num_requests)
            ]
        )

    t0 = time.perf_counter()
    sync_bdd = sync_loop(monitors["bdd"])
    t_sync_bdd = time.perf_counter() - t0

    t0 = time.perf_counter()
    sync_bitset = sync_loop(monitors["bitset"])
    t_sync_bitset = time.perf_counter() - t0

    t0 = time.perf_counter()
    full_batch = monitors["bitset"].check(queries, query_classes)
    t_full_batch = time.perf_counter() - t0

    bulk_rows = []
    bulk_by_shards = {}
    for num_shards in (1, 2, 4):
        router = ShardRouter.partition(monitors["bitset"], num_shards)
        result = _best_stream(router, queries, query_classes, submit="bulk")
        np.testing.assert_array_equal(result.verdicts, full_batch)
        mean_batch = np.mean([row["mean_batch"] for row in result.stats])
        p99 = max(row["p99_ms"] for row in result.stats)
        offloaded = sum(row["offloaded_batches"] for row in result.stats)
        bulk_rows.append((num_shards, result, mean_batch, p99, offloaded))
        bulk_by_shards[num_shards] = result

    per_request = _best_stream(
        ShardRouter.partition(monitors["bitset"], 4),
        queries, query_classes, submit="per_request",
    )
    np.testing.assert_array_equal(per_request.verdicts, full_batch)
    per_request_mean_batch = np.mean(
        [row["mean_batch"] for row in per_request.stats]
    )

    # Shared-nothing process pool: every block crosses a pipe to a worker
    # that rehydrated its shards from the portable payloads.
    num_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or scaled(4, 2)
    proc_pool = _best_stream(
        ShardRouter.partition(monitors["bitset"], max(num_workers, 4)),
        queries, query_classes, submit="bulk",
        executor="process", workers=num_workers,
    )
    np.testing.assert_array_equal(proc_pool.verdicts, full_batch)
    proc_requeued = sum(r["requeued_blocks"] for r in proc_pool.worker_stats)
    assert proc_requeued == 0  # a healthy run never exercises requeue
    assert sum(r["requests"] for r in proc_pool.worker_stats) == num_requests
    # Shortest-queue dispatch keeps the fleet level.  This stream ships
    # only ~18 coalesced blocks, so one 256-row block is +-25% of the
    # per-worker mean — assert within that quantization (one block past
    # 20%); the transport-bound shm bench below has ~200 blocks per run
    # and holds the tight 20% bound there.
    per_worker = [r["requests"] for r in proc_pool.worker_stats]
    mean_load = num_requests / len(per_worker)
    slack = 0.2 * mean_load + MAX_BATCH
    assert max(per_worker) <= mean_load + slack and min(per_worker) >= mean_load - slack, (
        f"block dispatch imbalance: {per_worker} (mean {mean_load:.0f})"
    )

    np.testing.assert_array_equal(sync_bdd, sync_bitset)
    np.testing.assert_array_equal(sync_bitset, full_batch)

    def row(name, seconds, extra=""):
        return [
            name,
            f"{seconds*1e3:.1f}ms",
            f"{seconds/num_requests*1e6:.2f}us",
            f"{num_requests/seconds/1e3:.1f}k/s",
            f"{t_sync_bitset/seconds:.2f}x",
            extra,
        ]

    table_rows = [
        row("sync / per-request (bdd)", t_sync_bdd, "deployment loop, default engine"),
        row("sync / per-request (bitset)", t_sync_bitset, "per-call numpy overhead"),
        row("sync / full batch (bitset)", t_full_batch, "offline oracle ceiling"),
    ]
    for num_shards, result, mean_batch, p99, offloaded in bulk_rows:
        table_rows.append(
            row(
                f"async / {num_shards} shard{'s' if num_shards > 1 else ''} (bulk)",
                result.elapsed,
                f"mean batch {mean_batch:.0f}, p99 {p99:.1f}ms, "
                f"{offloaded} off-loop batches",
            )
        )
    table_rows.append(
        row(
            "async / 4 shards (per-req)",
            per_request.elapsed,
            f"mean batch {per_request_mean_batch:.0f}, per-row queue hop",
        )
    )
    table_rows.append(
        row(
            f"proc pool / {num_workers} workers (bulk)",
            proc_pool.elapsed,
            "shared-nothing processes, pickled packed-bit blocks over pipes",
        )
    )
    table = format_table(
        ["path", "stream", "per request", "throughput", "vs sync loop", "notes"],
        table_rows,
    )
    record(
        "serving",
        table
        + f"\n\nworkload: {WIDTH} neurons, {NUM_CLASSES} classes, "
        f"{PATTERNS_PER_CLASS} visited patterns/class, gamma={GAMMA}, "
        f"{num_requests} requests\n"
        f"server knobs: max_batch={MAX_BATCH}, max_delay_ms={MAX_DELAY_MS}, "
        f"max_pending={MAX_PENDING}\n"
        "bulk = one check_many call (vectorised routing, block enqueue); "
        "per-req = one concurrent check call per row;\n"
        "async kernels run off-loop on the shared thread pool; the proc "
        "pool ships blocks to shared-nothing worker processes;\n"
        "verdicts are bit-identical across all paths",
    )
    record_perf(
        "serving",
        {
            "requests": num_requests,
            "sync_bdd_s": t_sync_bdd,
            "sync_bitset_s": t_sync_bitset,
            "full_batch_s": t_full_batch,
            "bulk": [
                {
                    "shards": num_shards,
                    "elapsed_s": result.elapsed,
                    "throughput": result.throughput,
                    "vs_sync_loop": t_sync_bitset / result.elapsed,
                    "mean_batch": float(mean_batch),
                    "offloaded_batches": int(offloaded),
                }
                for num_shards, result, mean_batch, _p99, offloaded in bulk_rows
            ],
            "per_request_4_shards": {
                "elapsed_s": per_request.elapsed,
                "throughput": per_request.throughput,
                "vs_sync_loop": t_sync_bitset / per_request.elapsed,
            },
            "proc_pool": {
                "workers": num_workers,
                "elapsed_s": proc_pool.elapsed,
                "throughput": proc_pool.throughput,
                "vs_sync_loop": t_sync_bitset / proc_pool.elapsed,
                "requeued_blocks": int(proc_requeued),
                "per_worker_requests": [
                    int(r["requests"]) for r in proc_pool.worker_stats
                ],
            },
        },
    )

    # Invariants (kept deliberately robust for shared CI runners):
    # 1. micro-batching genuinely coalesces concurrent requests on both
    #    submission paths;
    best_bulk = min(bulk_rows, key=lambda r: r[1].elapsed)
    assert best_bulk[2] >= 16, f"bulk mean batch collapsed to {best_bulk[2]:.1f}"
    assert per_request_mean_batch >= 16, (
        f"per-request mean micro-batch collapsed to {per_request_mean_batch:.1f}"
    )
    # 2. the per-row open-stream path costs a small constant, not a
    #    collapse: within 10x of the tight synchronous loop.
    assert per_request.elapsed <= 10 * t_sync_bitset, (
        f"per-request serving ({per_request.elapsed:.3f}s) fell more than "
        f"10x behind the synchronous loop ({t_sync_bitset:.3f}s)"
    )
    # 3. PR-3 acceptance: batched-producer serving at 4 shards beats the
    #    synchronous per-request loop by >1.5x (was 0.98x before blocks
    #    + off-loop kernels).
    four_shard = bulk_by_shards[4]
    assert four_shard.elapsed * 1.5 <= t_sync_bitset, (
        f"4-shard bulk serving ({four_shard.elapsed:.3f}s) is only "
        f"{t_sync_bitset/four_shard.elapsed:.2f}x the synchronous loop "
        f"({t_sync_bitset:.3f}s); acceptance floor is 1.5x"
    )
    # 4. PR-4 acceptance: bulk serving through the shared-nothing process
    #    pool also beats the synchronous per-request loop by >1.5x — the
    #    per-block pipe/pickle cost must amortise, not dominate.
    assert proc_pool.elapsed * 1.5 <= t_sync_bitset, (
        f"{num_workers}-worker proc-pool serving ({proc_pool.elapsed:.3f}s) "
        f"is only {t_sync_bitset/proc_pool.elapsed:.2f}x the synchronous "
        f"loop ({t_sync_bitset:.3f}s); acceptance floor is 1.5x"
    )


def test_streaming_shift_detection_smoke():
    """Inline detectors on the served stream: an induced shift must raise
    the distance-histogram alarm without disturbing verdicts."""
    from repro.monitor import DistanceShiftDetector

    patterns, labels, queries, query_classes = _workload(seed=3)
    monitor = NeuronActivationMonitor(
        WIDTH, range(NUM_CLASSES), gamma=GAMMA, backend="bitset"
    )
    monitor.record(patterns, labels, labels)

    baseline = monitor.min_distances(queries[:1000], query_classes[:1000])
    detector = DistanceShiftDetector(baseline, window=200)

    rng = np.random.default_rng(4)
    shifted = queries[1000:2000] ^ (rng.random((1000, WIDTH)) < 0.25)
    router = ShardRouter.partition(monitor, 4)
    result = run_stream(
        router, shifted.astype(np.uint8), query_classes[1000:2000],
        max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS, max_pending=MAX_PENDING,
        distance_detector=detector,
    )
    state = detector.peek()
    assert state.samples_seen == 1000
    assert state.alarm, (
        f"distance histogram divergence {state.divergence:.3f} raised no alarm"
    )
    np.testing.assert_array_equal(
        result.verdicts,
        monitor.check(shifted.astype(np.uint8), query_classes[1000:2000]),
    )


SHM_WIDTH = 4_096
SHM_PATTERNS_PER_CLASS = 4
SHM_BLOCK_ROWS = 256
SHM_SLOT_BYTES = 1 << 18


def _shm_workload(num_requests, seed=11):
    """A transport-bound block stream: wide rows (4096 neurons -> 512-byte
    packed rows) over tiny zones (4 visited patterns/class at gamma=0),
    so block shipping, not kernels, is the marginal cost."""
    rng = np.random.default_rng(seed)
    prototypes = rng.random((NUM_CLASSES, SHM_WIDTH)) < 0.5
    labels = np.repeat(np.arange(NUM_CLASSES), SHM_PATTERNS_PER_CLASS)
    flips = rng.random((len(labels), SHM_WIDTH)) < 0.06
    patterns = (prototypes[labels] ^ flips).astype(np.uint8)
    picks = rng.integers(0, len(patterns), num_requests)
    queries = patterns[picks] ^ (rng.random((num_requests, SHM_WIDTH)) < 0.02)
    return patterns, labels, queries.astype(np.uint8), labels[picks]


def test_shm_ring_transport_vs_pickled_pipes():
    """The tentpole race: the same bulk block workload through the proc
    pool with blocks crossing preallocated shared-memory rings vs pickled
    over pipes — identical fleet, identical shortest-queue dispatch, only
    the transport differs.

    Floors: verdicts bit-identical to the monolith on both paths; every
    worker within 20% of the mean load; and rings >=1.5x the pipe pool —
    asserted when the host can actually run the fleet in parallel
    (>=4 CPUs).  On a single-core runner wall time is the *sum* of all
    processes' CPU, so the pipe's extra copies are hidden under kernel
    compute and scheduling (profiled: the pipe path spends most of its
    submit loop blocked in ``posix.write`` on the 64 KiB pipe buffer —
    real backpressure the rings remove, but invisible in 1-core wall
    time); there the floor degrades to a >=0.75x sanity bound and the
    wire-level 1.5x is enforced by the transport microbench below."""
    num_requests = scaled(16_000, 1_500)
    patterns, labels, queries, query_classes = _shm_workload(num_requests)
    monitor = NeuronActivationMonitor(
        SHM_WIDTH, range(NUM_CLASSES), gamma=0, backend="bitset"
    )
    monitor.record(patterns, labels, labels)
    full_batch = monitor.check(queries, query_classes)
    num_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or scaled(4, 2)
    router = ShardRouter.partition(monitor, max(num_workers, 4))

    elapsed = {}
    counters = {}
    for transport in ("pipe", "shm"):
        with ProcessShardPool(
            router.shards, num_workers=num_workers, transport=transport,
            ring_slot_bytes=SHM_SLOT_BYTES,
        ) as pool:
            pool.check(queries[:64], query_classes[:64])  # spawn + warm-up
            best = None
            for _ in range(3):
                out = np.ones(num_requests, dtype=bool)
                t0 = time.perf_counter()
                futures = []
                for start in range(0, num_requests, SHM_BLOCK_ROWS):
                    piece = slice(start, start + SHM_BLOCK_ROWS)
                    futures.append(
                        (piece, pool.submit(queries[piece], query_classes[piece]))
                    )
                for piece, future in futures:
                    verdicts, _ = future.result(timeout=120)
                    out[piece] = verdicts
                run = time.perf_counter() - t0
                best = run if best is None or run < best else best
                np.testing.assert_array_equal(out, full_batch)
            elapsed[transport] = best
            counters[transport] = {
                "blocks": len(futures),
                "ring_blocks": pool.total_ring_blocks,
                "pipe_blocks": pool.total_pipe_blocks,
                "per_worker": [r["requests"] for r in pool.stats()],
            }

    shm, pipe = counters["shm"], counters["pipe"]
    assert shm["ring_blocks"] > 0, "no block ever rode the rings"
    per_worker = shm["per_worker"]
    mean_load = sum(per_worker) / len(per_worker)
    if not is_smoke():  # smoke ships too few blocks for a statistical bound
        assert max(per_worker) <= 1.2 * mean_load and min(per_worker) >= 0.8 * mean_load, (
            f"block dispatch imbalance on the shm path: {per_worker}"
        )

    speedup = elapsed["pipe"] / elapsed["shm"]
    cpus = mp.cpu_count() or 1
    packed_block_kb = SHM_BLOCK_ROWS * (SHM_WIDTH // 8) / 1024
    rows = [
        [
            name,
            f"{elapsed[key]*1e3:.1f}ms",
            f"{num_requests/elapsed[key]/1e3:.1f}k rows/s",
            f"{elapsed['pipe']/elapsed[key]:.2f}x",
            notes,
        ]
        for name, key, notes in (
            ("proc pool / pipes (pickled blocks)", "pipe", "PR-4 wire protocol"),
            (
                "proc pool / shm rings", "shm",
                f"{shm['ring_blocks']} ring blocks, "
                f"{shm['pipe_blocks']} pipe fallbacks",
            ),
        )
    ]
    record_appendix(
        "serving",
        "shared-memory ring transport vs pickled pipes",
        format_table(
            ["path", "bulk run", "throughput", "vs pipes", "notes"], rows
        )
        + f"\n\nworkload: {SHM_WIDTH} neurons ({packed_block_kb:.0f} KiB "
        f"packed per {SHM_BLOCK_ROWS}-row block), {NUM_CLASSES} classes, "
        f"{SHM_PATTERNS_PER_CLASS} visited patterns/class, gamma=0, "
        f"{num_requests} requests, {num_workers} workers, {cpus} CPUs\n"
        "same fleet, same shortest-queue dispatch — only the block "
        "transport differs; verdicts bit-identical on both paths\n"
        "(the 1.5x floor is asserted on hosts with >=4 CPUs; 1-core wall "
        "time is the sum of every process's CPU,\nwhich buries the "
        "transport term — the microbench below isolates it)",
    )
    record_perf(
        "serving.shm",
        {
            "requests": num_requests,
            "workers": num_workers,
            "cpus": cpus,
            "width": SHM_WIDTH,
            "block_rows": SHM_BLOCK_ROWS,
            "blocks": int(shm["blocks"]),
            "pipe_elapsed_s": elapsed["pipe"],
            "shm_elapsed_s": elapsed["shm"],
            "speedup_vs_pipe": speedup,
            "ring_blocks": int(shm["ring_blocks"]),
            "pipe_fallback_blocks": int(shm["pipe_blocks"]),
            "per_worker_requests": [int(x) for x in per_worker],
        },
    )
    if not is_smoke():
        floor = 1.5 if cpus >= 4 else 0.75
        assert speedup >= floor, (
            f"shm rings only {speedup:.2f}x the pickled-pipe pool "
            f"({cpus} CPUs); acceptance floor is {floor}x"
        )


def _pipe_echo(conn):
    while True:
        msg = conn.recv()
        if msg is None:
            return
        packed, classes = msg
        conn.send(np.ascontiguousarray(packed[:, 0]))


def _ring_echo(conn, spec, rows, width):
    rings = shmring.AttachedRings(spec)
    try:
        while True:
            slot = conn.recv()
            if slot is None:
                return
            packed, _classes = shmring.read_request(rings, slot, rows, width)
            shmring.frame_response(
                rings, slot, np.ascontiguousarray(packed[:, 0]), None
            )
            packed = _classes = None  # drop slot views before handing back
            conn.send(slot)
    finally:
        rings.close()


def test_transport_microbench_bytes_and_latency():
    """Raw transport round-trip (no kernels, no asyncio): one packed
    block out, one verdict column back, per-block latency and payload
    bandwidth for pickle+pipe vs shm ring."""
    rows, width = SHM_BLOCK_ROWS, SHM_WIDTH
    cols = (width + 7) // 8
    blocks = scaled(1_000, 100)
    rng = np.random.default_rng(13)
    packed = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
    classes = rng.integers(0, NUM_CLASSES, rows).astype(np.int64)
    payload_bytes = packed.nbytes + classes.nbytes + rows  # request + reply
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)

    # pickled pipe round-trips
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_pipe_echo, args=(child,), daemon=True)
    proc.start()
    parent.send((packed, classes))  # warm-up
    parent.recv()
    t0 = time.perf_counter()
    for _ in range(blocks):
        parent.send((packed, classes))
        parent.recv()
    t_pipe = time.perf_counter() - t0
    parent.send(None)
    proc.join(timeout=30)

    # shm ring round-trips (pipe carries only the slot index)
    ring = shmring.RingPair("bench", slots=2, slot_bytes=SHM_SLOT_BYTES)
    try:
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_ring_echo, args=(child, ring.spec(), rows, width),
            daemon=True,
        )
        proc.start()
        for _ in range(2):  # warm-up: touch both slots
            slot = ring.acquire()
            shmring.frame_request(ring, slot, packed, classes)
            parent.send(slot)
            shmring.read_response(ring, parent.recv(), rows, True, False)
            ring.release(slot)
        t0 = time.perf_counter()
        for _ in range(blocks):
            slot = ring.acquire()
            shmring.frame_request(ring, slot, packed, classes)
            parent.send(slot)
            shmring.read_response(ring, parent.recv(), rows, True, False)
            ring.release(slot)
        t_ring = time.perf_counter() - t0
        parent.send(None)
        proc.join(timeout=30)
    finally:
        ring.unlink()
        ring.close()

    def row(name, seconds):
        return [
            name,
            f"{seconds/blocks*1e6:.1f}us",
            f"{blocks*payload_bytes/seconds/1e6:.0f} MB/s",
            f"{t_pipe/seconds:.2f}x",
        ]

    record_appendix(
        "serving",
        "transport microbench (raw round-trip, no kernels)",
        format_table(
            ["transport", "per block", "payload bandwidth", "vs pipe"],
            [
                row("pipe (pickled arrays)", t_pipe),
                row("shm ring (slot handoff)", t_ring),
            ],
        )
        + f"\n\nblock: {rows} rows x {width} neurons "
        f"({packed.nbytes} B packed + {classes.nbytes} B classes out, "
        f"{rows} B verdicts back), {blocks} round-trips, start "
        f"method {method}",
    )
    record_perf(
        "serving.transport_microbench",
        {
            "rows": rows,
            "width": width,
            "blocks": blocks,
            "payload_bytes_per_block": int(payload_bytes),
            "pipe_block_us": t_pipe / blocks * 1e6,
            "ring_block_us": t_ring / blocks * 1e6,
            "pipe_mb_s": blocks * payload_bytes / t_pipe / 1e6,
            "ring_mb_s": blocks * payload_bytes / t_ring / 1e6,
            "ring_speedup": t_pipe / t_ring,
        },
    )
    if not is_smoke():
        # The wire-level acceptance floor: with nothing but transport on
        # the clock, the rings must beat pickle+pipe by >=1.5x per block
        # (measured ~2.8x at 8 KiB payloads and above on one core).
        assert t_pipe >= 1.5 * t_ring, (
            f"ring round-trip ({t_ring/blocks*1e6:.1f}us/block) only "
            f"{t_pipe/t_ring:.2f}x the pickled pipe "
            f"({t_pipe/blocks*1e6:.1f}us/block); acceptance floor is 1.5x"
        )


def test_cluster_tcp_bulk_throughput():
    """Localhost-TCP cluster row: the same bulk stream with
    ``executor="cluster"`` — every coalesced block is pickled into a
    length-prefixed frame and crosses a loopback TCP socket to a
    shared-nothing worker process that rehydrated its shard subset from
    the portable payloads (the cross-host wire path of ``repro.serving.
    cluster``, exercised on one machine).

    Floors: verdicts bit-identical to the monolith, zero requeued blocks
    on a healthy run, and — on hosts that can actually run the fleet in
    parallel (>=4 CPUs, the same gating as ``serving.shm``) — bulk TCP
    serving faster than 1.5x the synchronous per-request loop.  On a
    single-core runner wall time is the sum of every process's CPU plus
    the loopback stack, so the floor degrades to a >=0.5x sanity bound
    (the transport must not collapse, but cannot win)."""
    num_requests = scaled(NUM_REQUESTS, 1_500)
    patterns, labels, queries, query_classes = _workload(
        seed=7, num_requests=num_requests
    )
    monitor = NeuronActivationMonitor(
        WIDTH, range(NUM_CLASSES), gamma=GAMMA, backend="bitset"
    )
    monitor.record(patterns, labels, labels)
    # Materialise every gamma zone before timing queries.
    monitor.check(queries[:NUM_CLASSES], np.arange(NUM_CLASSES))
    full_batch = monitor.check(queries, query_classes)

    t0 = time.perf_counter()
    sync = np.array(
        [
            monitor.is_known(queries[i : i + 1], int(query_classes[i]))
            for i in range(num_requests)
        ]
    )
    t_sync = time.perf_counter() - t0
    np.testing.assert_array_equal(sync, full_batch)

    num_workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or scaled(4, 2)
    cluster = _best_stream(
        ShardRouter.partition(monitor, max(num_workers, 4)),
        queries, query_classes, submit="bulk",
        executor="cluster", workers=num_workers,
    )
    np.testing.assert_array_equal(cluster.verdicts, full_batch)
    assert all(row["transport"] == "tcp" for row in cluster.worker_stats)
    requeued = sum(row["requeued_blocks"] for row in cluster.worker_stats)
    assert requeued == 0  # a healthy run never exercises requeue
    per_worker = [row["requests"] for row in cluster.worker_stats]
    assert sum(per_worker) == num_requests

    cpus = mp.cpu_count() or 1
    record_appendix(
        "serving",
        "localhost-TCP shard cluster (bulk stream)",
        format_table(
            ["path", "bulk run", "throughput", "vs sync loop", "notes"],
            [
                [
                    "sync / per-request (bitset)",
                    f"{t_sync*1e3:.1f}ms",
                    f"{num_requests/t_sync/1e3:.1f}k rows/s",
                    "1.00x",
                    "deployment loop baseline",
                ],
                [
                    f"cluster / {num_workers} workers (bulk, tcp)",
                    f"{cluster.elapsed*1e3:.1f}ms",
                    f"{num_requests/cluster.elapsed/1e3:.1f}k rows/s",
                    f"{t_sync/cluster.elapsed:.2f}x",
                    "length-prefixed pickled frames over loopback TCP",
                ],
            ],
        )
        + f"\n\nworkload: {WIDTH} neurons, {NUM_CLASSES} classes, "
        f"gamma={GAMMA}, {num_requests} requests, {num_workers} workers, "
        f"{cpus} CPUs\nsame coalesced blocks and shortest-queue dispatch "
        "as the proc pool — only the transport differs (framed TCP "
        "socket\ninstead of a pipe); verdicts bit-identical, zero "
        "requeued blocks\n(the 1.5x-vs-sync-loop floor is asserted on "
        "hosts with >=4 CPUs, same gating as the shm bench)",
    )
    record_perf(
        "serving.cluster_tcp",
        {
            "requests": num_requests,
            "workers": num_workers,
            "cpus": cpus,
            "sync_loop_s": t_sync,
            "elapsed_s": cluster.elapsed,
            "throughput": cluster.throughput,
            "vs_sync_loop": t_sync / cluster.elapsed,
            "requeued_blocks": int(requeued),
            "per_worker_requests": [int(x) for x in per_worker],
        },
    )
    if not is_smoke():
        floor = 1.5 if cpus >= 4 else 0.5
        assert cluster.elapsed * floor <= t_sync, (
            f"{num_workers}-worker TCP cluster serving ({cluster.elapsed:.3f}s) "
            f"is only {t_sync/cluster.elapsed:.2f}x the synchronous loop "
            f"({t_sync:.3f}s) on {cpus} CPUs; acceptance floor is {floor}x"
        )


def test_indexed_shards_serve_identical_verdicts():
    """An indexed-bitset monitor partitions into indexed shards and the
    served verdicts stay bit-identical to the brute monolith."""
    patterns, labels, queries, query_classes = _workload(seed=5, num_requests=1_000)
    brute = NeuronActivationMonitor(
        WIDTH, range(NUM_CLASSES), gamma=GAMMA, backend="bitset"
    )
    brute.record(patterns, labels, labels)
    indexed = NeuronActivationMonitor(
        WIDTH, range(NUM_CLASSES), gamma=GAMMA, backend="bitset", indexed=True
    )
    indexed.record(patterns, labels, labels)
    router = ShardRouter.partition(indexed, 4)
    for shard in router.shards:
        assert shard.monitor.indexed
    result = run_stream(
        router, queries, query_classes,
        max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS, max_pending=MAX_PENDING,
    )
    np.testing.assert_array_equal(
        result.verdicts, brute.check(queries, query_classes)
    )
