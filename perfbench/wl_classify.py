"""``classify``: the paper's deployment loop (Fig. 1-b) through the server.

MNIST validation images, one per request, go through
``StreamServer.classify`` from :data:`CALLERS` coroutine callers, each a
closed loop over its own fixed slice of the round.  The server wraps a
``MonitoredClassifier`` whose monitor is the BDD backend at γ=2.  The
forward pass does most of the work, the BDD check comes second;
transport, shard workers and drift are idle.

With ``max_delay_ms=0`` and no executor hop (batches stay under the
server's 16-row executor threshold), every coalesced batch holds exactly
one request per caller, so a round is always the same
``ROUND_IMAGES / CALLERS`` forward passes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time

import numpy as np

import oracle
from common import (
    Outcome, RoundResult, RunRecord, describe_tail, peak_rss_mib, require, run_rounds,
)
from tracing import REQUEST, mean_span_ms

GAMMA = 2
#: Program answers ``--inject-fault`` can corrupt in this workload.
FAULTS = ("verdict", "class")
CALLERS = 8
IMAGES_PER_CALLER = 32
ROUND_IMAGES = CALLERS * IMAGES_PER_CALLER
#: Seeded training images whose recorded patterns are re-derived by the
#: plain-numpy forward pass.
TRAIN_SAMPLE = 256


def run(args, t0: float, tracer) -> Outcome:
    # ---- set-up: the program's own start-up --------------------------
    from repro.analysis.experiments import (
        DEFAULT_CACHE_DIR, STANDARD_CONFIGS, build_monitor, train_system,
    )
    from repro.monitor.patterns import extract_patterns
    from repro.monitor.runtime import MonitoredClassifier
    from repro.nn.data import stack_dataset
    from repro.serving import MonitorShard, ShardRouter, StreamServer

    config = STANDARD_CONFIGS["mnist"]
    system = train_system(config)
    monitor = build_monitor(system, gamma=GAMMA, backend="bdd")
    train_patterns, train_labels, train_preds = system.patterns_of("train")
    # Warm the zones: one query per class materialises every γ-ball.
    firsts = [int(np.flatnonzero(train_preds == c)[0])
              for c in monitor.classes if (train_preds == c).any()]
    monitor.check(train_patterns[firsts], train_preds[firsts])
    model, tap = system.spec.model, system.spec.monitored_module
    classifier = MonitoredClassifier(model, tap, monitor)
    # The check path is idle here; the server still needs a router.
    router = ShardRouter([MonitorShard(0, monitor)])
    server = StreamServer(router, max_batch=64, max_delay_ms=0.0,
                          classifier=classifier, executor="inline")
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    record = RunRecord(setup_s=time.perf_counter() - t0)

    # ---- inputs, made from the seed ------------------------------------
    val_images, _val_labels = stack_dataset(system.val_dataset)
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(len(val_images), size=ROUND_IMAGES, replace=False)
    images = np.ascontiguousarray(val_images[picks])

    # ---- the oracle's answers -----------------------------------------
    weights = oracle.load_checkpoint(
        os.path.join(DEFAULT_CACHE_DIR, f"mnist-{config.cache_key()}.npz")
    )
    pre, logits = oracle.mnist_reference_forward(weights, images)
    clear = oracle.unambiguous_rows(pre, logits)
    ref_class = logits.argmax(axis=1)
    # The program's pattern extraction agrees with the plain forward pass,
    # on the round's images and on a seeded sample of the training set
    # (whose recorded patterns are the oracle's zones).
    program_patterns, _ = extract_patterns(model, tap, images)
    skipped = oracle.check_patterns_match(program_patterns, pre, "classify images")
    train_images, _ = stack_dataset(system.train_dataset)
    sample = rng.choice(len(train_images), size=TRAIN_SAMPLE, replace=False)
    train_pre, _ = oracle.mnist_reference_forward(weights, train_images[sample])
    skipped += oracle.check_patterns_match(train_patterns[sample], train_pre, "training sample")
    zones = oracle.ClassZones(train_patterns, train_labels, train_preds, monitor.classes)
    expected = zones.verdicts(pre > 0, ref_class, GAMMA)

    stats_before = {"requests": 0, "batches": 0}

    def classify_stats():
        rows = [row for row in server.stats() if row.get("shard") == -1]
        return rows[0] if rows else {}

    def check_round(verdicts) -> None:
        require(all(v is not None for v in verdicts), "a request was never answered")
        got_class = np.array([v.predicted_class for v in verdicts])
        got_supported = np.array([v.supported for v in verdicts])
        require(all(v.monitored for v in verdicts), "a decision was left unmonitored")
        bad = oracle.first_mismatch(ref_class[clear], got_class[clear])
        require(bad is None, f"image {bad}: predicted class differs from the numpy forward pass")
        bad = oracle.first_mismatch(expected[clear], got_supported[clear])
        require(bad is None, f"image {bad}: verdict differs from the γ={GAMMA} Hamming-ball test")
        row = classify_stats()
        answered = row.get("requests", 0) - stats_before["requests"]
        require(answered == ROUND_IMAGES,
                f"server answered {answered} requests for {ROUND_IMAGES} sent")

    batches_per_round = []

    async def one_round_async(traced: bool):
        verdicts = [None] * ROUND_IMAGES
        latencies = []
        failed = 0

        async def caller(k: int):
            nonlocal failed
            for j in range(k * IMAGES_PER_CALLER, (k + 1) * IMAGES_PER_CALLER):
                if traced:
                    REQUEST.set(j)
                start = time.perf_counter_ns()
                try:
                    verdicts[j] = await server.classify(images[j])
                except Exception:  # noqa: BLE001 — counted as a failed operation
                    failed += 1
                    continue
                end = time.perf_counter_ns()
                latencies.append((end - start) / 1e9)
                if traced:
                    tracer.record("request", start, end)

        started = time.perf_counter()
        await asyncio.gather(*(caller(k) for k in range(CALLERS)))
        return verdicts, latencies, time.perf_counter() - started, failed

    def one_round(index: int, traced: bool) -> RoundResult:
        row = classify_stats()
        stats_before["requests"] = row.get("requests", 0)
        stats_before["batches"] = row.get("batches", 0)
        if traced:
            tracer.install(model)
        try:
            verdicts, latencies, seconds, failed = loop.run_until_complete(
                one_round_async(traced)
            )
        finally:
            if traced:
                tracer.remove()
        if index == 1 and args.inject_fault == "verdict":
            verdicts[0] = dataclasses.replace(verdicts[0], supported=not verdicts[0].supported)
        if index == 1 and args.inject_fault == "class":
            verdicts[0] = dataclasses.replace(
                verdicts[0], predicted_class=(verdicts[0].predicted_class + 1) % 10
            )
        if failed == 0:
            check_round(verdicts)
        batches_per_round.append(classify_stats().get("batches", 0) - stats_before["batches"])
        return RoundResult(rows=ROUND_IMAGES - failed, seconds=seconds, latencies=latencies,
                           attempted=ROUND_IMAGES, failed=failed)

    try:
        run_rounds(args.seconds, one_round, record, alternate_trace=tracer is not None)
        rss = peak_rss_mib()
        layer = {}
        if tracer is not None:
            row = classify_stats()
            traced_rounds = [i for i, r in enumerate(record.rounds, start=1) if r.traced]
            layer["server.batches"] = float(np.mean([batches_per_round[i] for i in traced_rounds]))
            layer["server.mean_batch_rows"] = ROUND_IMAGES / layer["server.batches"]
            layer["server.max_queue_depth"] = float(row.get("max_queue_depth", 0))
            requests = [lat for r in record.timed(traced=True) for lat in r.latencies]
            layer["server.queue_wait_ms"] = (
                float(np.mean(requests)) * 1e3 - mean_span_ms(tracer, "runtime.classify")
            )
            engine = monitor.engine_stats() or {}
            layer["bdd.cache_hit_ratio"] = float(engine.get("ite_hit_rate", 0.0))
    finally:
        loop.run_until_complete(server.stop())
        loop.close()

    attempted = sum(r.attempted for r in record.rounds)
    failed = sum(r.failed for r in record.rounds)
    notes = [
        describe_tail(record),
        f"counts: server batches per round {sorted(set(batches_per_round))} "
        f"({ROUND_IMAGES} images, {CALLERS} callers); ambiguous pattern bits skipped: {skipped}; "
        f"rows compared: {int(clear.sum())}/{ROUND_IMAGES}",
    ]
    return Outcome(record=record, rss_mib=rss, attempted=attempted, failed=failed,
                   layer=layer, notes=notes)
