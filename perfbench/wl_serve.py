"""``serve``: a stream of pre-extracted patterns through the process pool.

Frontcar validation patterns, in fixed :data:`BLOCK_ROWS`-row blocks, go
through ``StreamServer.check_many`` from :data:`CALLERS` coroutine
callers, each a closed loop over its own fixed blocks.  The server runs
the process executor with one worker over the shared-memory ring, 4
shards of the bitset backend at γ=2, and the binary shift detector
attached, as the CLI ``serve`` does.  Queueing, transport, the worker
kernel and the detector do all the work; the network does none.
``max_delay_ms=0``: batches coalesce only from what is already queued,
never on a timer.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

import oracle
from common import (
    Outcome, RoundResult, RunRecord, describe_tail, peak_rss_mib, require, run_rounds,
)
from tracing import REQUEST, mean_span_ms

GAMMA = 2
#: Program answers ``--inject-fault`` can corrupt in this workload.
FAULTS = ("verdict",)
SHARDS = 4
CALLERS = 1
BLOCK_ROWS = 64
BLOCKS_PER_CALLER = 64
ROUND_ROWS = CALLERS * BLOCKS_PER_CALLER * BLOCK_ROWS


def _worker_pids(server):
    return [int(row.get("pid", -1)) for row in server.worker_stats()]


def _sum(rows, key):
    return sum(int(row.get(key, 0)) for row in rows)


def run(args, t0: float, tracer) -> Outcome:
    # ---- set-up: the program's own start-up --------------------------
    from repro.analysis.experiments import STANDARD_CONFIGS, build_monitor, train_system
    from repro.monitor.shift import DistributionShiftDetector
    from repro.serving import ShardRouter, StreamServer

    system = train_system(STANDARD_CONFIGS["frontcar"])
    monitor = build_monitor(system, gamma=GAMMA, backend="bitset")
    router = ShardRouter.partition(monitor, SHARDS)
    val_patterns, _val_labels, val_preds = system.patterns_of("val")
    baseline_oop = 1.0 - float(monitor.check(val_patterns, val_preds).mean())
    shift = DistributionShiftDetector(min(baseline_oop, 0.99))
    server = StreamServer(router, max_batch=64, max_delay_ms=0.0, shift_detector=shift,
                          executor="process", workers=1, pool_transport="shm")
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    record = RunRecord(setup_s=time.perf_counter() - t0)

    # ---- inputs, made from the seed ------------------------------------
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(len(val_patterns), size=ROUND_ROWS, replace=True)
    patterns = np.ascontiguousarray(val_patterns[picks])
    classes = np.ascontiguousarray(val_preds[picks])
    blocks = [
        (patterns[s : s + BLOCK_ROWS], classes[s : s + BLOCK_ROWS])
        for s in range(0, ROUND_ROWS, BLOCK_ROWS)
    ]

    # ---- the oracle's answers -----------------------------------------
    train_patterns, train_labels, train_preds = system.patterns_of("train")
    zones = oracle.ClassZones(train_patterns, train_labels, train_preds, monitor.classes)
    expected = zones.verdicts(patterns, classes, GAMMA)

    def shard_stats():
        return [row for row in server.stats() if row.get("shard", -1) >= 0]

    per_round = []  # (batches, ring blocks, pipe blocks) per round

    async def one_round_async(traced: bool):
        answers = [None] * len(blocks)
        latencies = []
        failed = 0

        async def caller(k: int):
            nonlocal failed
            for b in range(k * BLOCKS_PER_CALLER, (k + 1) * BLOCKS_PER_CALLER):
                if traced:
                    REQUEST.set(b)
                block, block_classes = blocks[b]
                start = time.perf_counter_ns()
                try:
                    answers[b] = await server.check_many(block, block_classes)
                except Exception:  # noqa: BLE001 — counted as a failed operation
                    failed += 1
                    continue
                end = time.perf_counter_ns()
                latencies.append((end - start) / 1e9)
                if traced:
                    tracer.record("request", start, end, BLOCK_ROWS)

        started = time.perf_counter()
        await asyncio.gather(*(caller(k) for k in range(CALLERS)))
        return answers, latencies, time.perf_counter() - started, failed

    def one_round(index: int, traced: bool) -> RoundResult:
        before = shard_stats()
        workers_before = server.worker_stats()
        if traced:
            tracer.install()
        try:
            answers, latencies, seconds, failed = loop.run_until_complete(
                one_round_async(traced)
            )
        finally:
            if traced:
                tracer.remove()
        after = shard_stats()
        workers_after = server.worker_stats()
        if index == 1 and args.inject_fault == "verdict":
            answers[0] = answers[0].copy()
            answers[0][0] = not answers[0][0]
        if failed == 0:
            require(all(len(a) == BLOCK_ROWS for a in answers),
                    "a block came back with the wrong number of verdicts")
            got = np.concatenate(answers)
            bad = oracle.first_mismatch(expected, got)
            require(bad is None, f"row {bad}: verdict differs from the γ={GAMMA} Hamming-ball test")
            served = _sum(after, "requests") - _sum(before, "requests")
            require(served == ROUND_ROWS, f"shards served {served} rows for {ROUND_ROWS} sent")
        per_round.append((
            _sum(after, "batches") - _sum(before, "batches"),
            _sum(workers_after, "ring_blocks") - _sum(workers_before, "ring_blocks"),
            _sum(workers_after, "pipe_blocks") - _sum(workers_before, "pipe_blocks"),
        ))
        return RoundResult(rows=(len(blocks) - failed) * BLOCK_ROWS, seconds=seconds,
                           latencies=latencies, attempted=len(blocks), failed=failed)

    try:
        run_rounds(args.seconds, one_round, record, alternate_trace=tracer is not None)
        rss = peak_rss_mib(_worker_pids(server))
        layer = {}
        if tracer is not None:
            traced = [per_round[i] for i, r in enumerate(record.rounds, start=1) if r.traced]
            batches = float(np.mean([t[0] for t in traced]))
            layer["server.batches"] = batches
            layer["server.mean_batch_rows"] = ROUND_ROWS / batches
            layer["server.max_queue_depth"] = float(
                max(int(row.get("max_queue_depth", 0)) for row in shard_stats())
            )
            requests = [lat for r in record.timed(traced=True) for lat in r.latencies]
            layer["server.queue_wait_ms"] = (
                float(np.mean(requests)) * 1e3 - mean_span_ms(tracer, "procpool.submit")
            )
            layer["procpool.ring_blocks"] = float(np.mean([t[1] for t in traced]))
            layer["procpool.pipe_blocks"] = float(np.mean([t[2] for t in traced]))
    finally:
        loop.run_until_complete(server.stop())
        loop.close()

    attempted = sum(r.attempted for r in record.rounds)
    failed = sum(r.failed for r in record.rounds)
    notes = [
        describe_tail(record),
        f"counts: server batches per round {sorted(set(t[0] for t in per_round))}, "
        f"ring/pipe blocks per round {sorted(set(t[1:] for t in per_round))} "
        f"({ROUND_ROWS} rows in {len(blocks)} blocks; callers: {CALLERS})",
    ]
    return Outcome(record=record, rss_mib=rss, attempted=attempted, failed=failed,
                   layer=layer, notes=notes)
