"""``drift``: reads beside writes — absorbing a shifted stream over the cluster.

A shifted frontcar stream (``datasets.frontcar.shifted_config``) is
served in fixed cycles over the loopback TCP cluster
(``ClusterCoordinator``, one worker).  Every cycle does, in order:

1. read one block through the cluster's ``check`` and ``min_distances``;
2. feed both shift detectors;
3. stage the flagged rows;
4. run ``DriftResponder.respond`` (a ``ZoneStore`` attached), which
   absorbs what is staged once ``min_staged`` rows wait;
5. publish the snapshot to the cluster and to the in-process router;
6. rebaseline both detectors from the snapshot.

A round is :data:`CYCLES` cycles over the same seeded stream, starting
from the zones as built: before each round the fleet is reset by
publishing the built zones again, with a fresh store.  Zone growth, γ
re-calibration, WAL appends and fleet swaps all happen inside the
timed cycles; the reset and the output checks are outside them.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time

import numpy as np

import oracle
from common import (
    Outcome, RoundResult, RunRecord, describe_tail, peak_rss_mib, require, run_rounds,
)
from tracing import REQUEST

GAMMA = 2
#: Program answers ``--inject-fault`` can corrupt in this workload.
FAULTS = ("verdict", "gamma")
SHARDS = 4
CYCLE_ROWS = 512
CYCLES = 8
SEVERITY = 3.0
MIN_STAGED = 1


def run(args, t0: float, tracer) -> Outcome:
    # ---- set-up: the program's own start-up --------------------------
    from repro.analysis.experiments import STANDARD_CONFIGS, build_monitor, train_system
    from repro.datasets import generate_frontcar
    from repro.datasets.frontcar import shifted_config
    from repro.monitor.drift import DriftResponder, ZoneSnapshot, partition_payloads
    from repro.monitor.monitor import NeuronActivationMonitor
    from repro.monitor.patterns import extract_patterns
    from repro.monitor.shift import DistanceShiftDetector, DistributionShiftDetector
    from repro.serving import ClusterCoordinator, ShardRouter
    from repro.store import ZoneStore

    out_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".bench_out", f"drift-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)

    system = train_system(STANDARD_CONFIGS["frontcar"])
    val_patterns, val_labels, val_preds = system.patterns_of("val")
    train_patterns, train_labels, train_preds = system.patterns_of("train")
    built = build_monitor(system, gamma=GAMMA, backend="bitset")
    router = ShardRouter.partition(built, SHARDS)
    layout = [(s.shard_id, list(s.classes)) for s in router.shards]
    cluster = ClusterCoordinator(router.shards, workers=1, ready_timeout=60.0)
    cluster.start()

    state = {}

    def fresh_fleet(round_index: int) -> None:
        """Built zones, a fresh store and fresh detectors; the round's
        first publish is then epoch ``cluster.epoch + 1``."""
        old = state.get("store")
        if old is not None:
            old.close()
        monitor = build_monitor(system, gamma=GAMMA, backend="bitset")
        if round_index > 0:
            snapshot = ZoneSnapshot(
                epoch=cluster.epoch + 1, gamma=monitor.gamma,
                payloads=tuple(partition_payloads(monitor, layout)),
            )
            cluster.apply_snapshot(snapshot)
            router.apply_snapshot(snapshot)
        directory = os.path.join(out_dir, f"round-{round_index}")
        os.makedirs(directory)
        store = ZoneStore.open(directory)
        monitor.attach_store(store)
        # The responder resumes its epoch from the store's last marker.
        store.append_snapshot(cluster.epoch, monitor.gamma,
                              {c: monitor.zones[c].num_visited_patterns for c in monitor.classes})
        responder = DriftResponder(monitor, val_patterns, val_preds, val_labels,
                                   min_staged=MIN_STAGED, store=store)
        state.update(
            store=store, directory=directory, responder=responder,
            shift=DistributionShiftDetector(min(responder.baseline_oop_rate(), 0.99)),
            distance=DistanceShiftDetector(responder.baseline_distances()),
        )

    fresh_fleet(0)
    record = RunRecord(setup_s=time.perf_counter() - t0)

    # ---- inputs, made from the seed ------------------------------------
    stream = generate_frontcar(CYCLE_ROWS * CYCLES, seed=args.seed, config=shifted_config(SEVERITY))
    features, _ = stream.arrays()
    stream_patterns, logits = extract_patterns(system.spec.model, system.spec.monitored_module,
                                               features)
    stream_classes = logits.argmax(axis=1)

    # ---- the oracle ----------------------------------------------------
    base_zones = oracle.ClassZones(train_patterns, train_labels, train_preds, built.classes)
    base_val_d = base_zones.distances(val_patterns, val_preds)
    per_round = []  # (responses, absorbed rows, WAL bytes) per round

    def one_round(index: int, traced: bool) -> RoundResult:
        if index > 0:
            fresh_fleet(index)
        responder, store = state["responder"], state["store"]
        shift, distance = state["shift"], state["distance"]
        zones = base_zones.copy()
        val_d = base_val_d.copy()
        gamma = GAMMA
        epoch = cluster.epoch
        staged_rows, staged_classes = [], []
        responses = absorbed = 0
        wal_start = store.wal_offset
        latencies = []
        seconds = 0.0
        if traced:
            tracer.install()
        try:
            for cycle in range(CYCLES):
                rows = slice(cycle * CYCLE_ROWS, (cycle + 1) * CYCLE_ROWS)
                block, classes = stream_patterns[rows], stream_classes[rows]
                if traced:
                    REQUEST.set(cycle)
                start = time.perf_counter_ns()
                verdicts = cluster.check(block, classes)                       # 1
                distances = cluster.min_distances(block, classes)
                shift.update_many(~verdicts)                                   # 2
                distance.update_many(distances)
                flagged = ~verdicts
                responder.staging.add(block[flagged], classes[flagged])        # 3
                snapshot = responder.respond(layout)                           # 4
                if snapshot is not None:
                    cluster.apply_snapshot(snapshot)                           # 5
                    router.apply_snapshot(snapshot)
                    shift.rebaseline(min(snapshot.baseline_oop_rate, 0.99))   # 6
                    distance.rebaseline(snapshot.baseline_distances)
                end = time.perf_counter_ns()
                seconds += (end - start) / 1e9
                latencies.append((end - start) / 1e9)
                if traced:
                    tracer.record("request", start, end, CYCLE_ROWS)

                # -- checks, outside the timed cycle ------------------------
                pause = tracer.paused() if traced else contextlib.nullcontext()
                with pause:
                    if index == 1 and cycle == 0 and args.inject_fault == "verdict":
                        verdicts = verdicts.copy()
                        verdicts[0] = not verdicts[0]
                    want_d = zones.distances(block, classes)
                    bad = oracle.first_mismatch(want_d, distances)
                    require(bad is None, f"cycle {cycle} row {bad}: min distance differs")
                    bad = oracle.first_mismatch(want_d <= gamma, verdicts)
                    require(bad is None, f"cycle {cycle} row {bad}: verdict differs from "
                                         f"the γ={gamma} Hamming-ball test")
                    staged_rows.append(block[flagged])
                    staged_classes.append(classes[flagged])
                    if snapshot is None:
                        continue
                    rows_in = np.concatenate(staged_rows)
                    classes_in = np.concatenate(staged_classes)
                    staged_rows, staged_classes = [], []
                    responses += 1
                    absorbed += len(rows_in)
                    require(snapshot.absorbed_patterns == len(rows_in),
                            f"snapshot absorbed {snapshot.absorbed_patterns} rows, "
                            f"{len(rows_in)} were staged")
                    require(snapshot.epoch == epoch + 1,
                            f"epoch went {epoch} → {snapshot.epoch}, not up by 1")
                    require(cluster.epoch == snapshot.epoch and router.epoch == snapshot.epoch,
                            f"fleet serves epoch {cluster.epoch}/{router.epoch}, "
                            f"published {snapshot.epoch}")
                    epoch = snapshot.epoch
                    zones.absorb(rows_in, classes_in)
                    live = cluster.min_distances(rows_in, classes_in)
                    require(not live.any(), "an absorbed row is not at distance 0 on the fleet")
                    for c in built.classes:
                        have = responder.monitor.zones[c].num_visited_patterns
                        require(have == zones.count(c),
                                f"class {c}: {have} visited patterns, the unique union of "
                                f"training and absorbed rows has {zones.count(c)}")
                    for c in np.unique(classes_in):
                        mask = val_preds == c
                        fresh = oracle.min_hamming(
                            oracle.pack_words(val_patterns[mask]),
                            oracle.pack_words(rows_in[classes_in == c]), zones.width)
                        val_d[mask] = np.minimum(val_d[mask], fresh)
                    published = snapshot.gamma
                    if index == 1 and responses == 1 and args.inject_fault == "gamma":
                        published += 1
                    expected_gamma = oracle.calibrated_gamma(val_d)
                    require(published == expected_gamma,
                            f"published γ={published}, the calibration rule gives {expected_gamma}")
                    gamma = snapshot.gamma
        finally:
            if traced:
                tracer.remove()
        per_round.append((responses, absorbed, store.wal_offset - wal_start))
        return RoundResult(rows=CYCLES * CYCLE_ROWS, seconds=seconds, latencies=latencies,
                           attempted=CYCLES)

    try:
        run_rounds(args.seconds, one_round, record, alternate_trace=tracer is not None)
        rss = peak_rss_mib(cluster.worker_pids())
        # A store reopened from disk answers as the live fleet does.
        store = state["store"]
        store.flush(sync=True)
        store.close()
        state["store"] = None
        reopened = ZoneStore.open(state["directory"])
        try:
            cold = NeuronActivationMonitor.from_store(reopened, backend="bitset", attach=False)
            for name, pats, cls in (("validation set", val_patterns, val_preds),
                                    ("shifted stream", stream_patterns, stream_classes)):
                require(np.array_equal(cold.check(pats, cls), cluster.check(pats, cls)),
                        f"reopened store and live fleet disagree on the {name} verdicts")
                require(np.array_equal(cold.min_distances(pats, cls),
                                       cluster.min_distances(pats, cls)),
                        f"reopened store and live fleet disagree on the {name} distances")
        finally:
            reopened.close()
        layer = {}
        if tracer is not None:
            traced = [per_round[i] for i, r in enumerate(record.rounds, start=1) if r.traced]
            layer["drift.responses"] = float(np.mean([t[0] for t in traced]))
            layer["drift.absorbed_rows"] = float(np.mean([t[1] for t in traced]))
            layer["store.wal_bytes"] = float(np.mean([t[2] for t in traced]))
            layer["cluster.requeued_blocks"] = float(cluster.total_requeued)
    finally:
        if state.get("store") is not None:
            state["store"].close()
        cluster.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    notes = [
        describe_tail(record),
        f"counts: responses / absorbed rows / WAL bytes per round "
        f"{sorted(set(per_round))} ({CYCLES} cycles of {CYCLE_ROWS} rows, "
        f"severity {SEVERITY}, min_staged {MIN_STAGED})",
    ]
    attempted = sum(r.attempted for r in record.rounds)
    return Outcome(record=record, rss_mib=rss, attempted=attempted, failed=0,
                   layer=layer, notes=notes)

