"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Version, registered models, cached artifacts.
``train``
    Train (or load) one of the standard systems; prints Table I-style
    accuracies.
``evaluate``
    Build a monitor at a fixed γ and print the Table II row for the
    validation set.
``sweep``
    Run the γ calibration sweep and report the chosen coarseness (the
    choice is made by :class:`~repro.monitor.calibration.GammaCalibrator`,
    so CLI and library always agree).
``serve`` (alias ``stream``)
    Shard the monitor per class and replay the validation stream through
    the asyncio micro-batching :class:`~repro.serving.server.StreamServer`;
    prints sustained throughput, per-shard queue/batch/latency statistics
    and the inline distribution-shift verdict.  ``--workers N`` moves
    execution to N shared-nothing worker *processes*
    (:class:`~repro.serving.procpool.ProcessShardPool`) and adds a
    per-worker statistics table, e.g.::

        python -m repro serve --system mnist --workers 4
        python -m repro stream --system gtsrb --workers 2 --distances

    ``--cluster HOST:PORT`` serves from a cross-host TCP shard cluster
    instead (:class:`~repro.serving.cluster.ClusterCoordinator`): the
    coordinator listens there and waits for ``--workers`` external
    ``serve-worker`` registrations.
``serve-worker``
    One TCP cluster worker: dials a coordinator's listen address,
    registers, rehydrates its assigned shards from the portable payloads
    and answers packed-bit block requests until told to stop, e.g.::

        python -m repro serve-worker 10.0.0.5:7410 --name replica-a

``store``
    Inspect or maintain a crash-consistent on-disk zone store
    (:mod:`repro.store`): ``info`` prints the recovered cursor state,
    ``verify`` re-validates every checksum from disk (exit 1 on any
    corruption), ``compact`` folds the WAL tail into a fresh
    checksummed segment, e.g.::

        python -m repro store info runs/mnist-zones
        python -m repro store verify runs/mnist-zones
        python -m repro store compact runs/mnist-zones

    ``serve --store DIR`` plugs the same directory into the serving
    path: an empty directory is initialized from the built monitor, a
    populated one rehydrates the monitor by mapping its newest segment
    and replaying the WAL tail — including everything a ``--drift-respond``
    run absorbed before it stopped (or crashed).

All heavy lifting is delegated to :mod:`repro.analysis`; the CLI is a thin,
scriptable veneer used by the examples and CI.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro import __version__
from repro.analysis import (
    DEFAULT_CACHE_DIR,
    STANDARD_CONFIGS,
    build_monitor,
    format_table,
    gamma_sweep,
    percent,
    render_table2,
    train_system,
)
from repro.models import available_models
from repro.monitor import (
    DistanceShiftDetector,
    DistributionShiftDetector,
    GammaCalibrator,
    available_backends,
)
from repro.monitor.backends import DEFAULT_BACKEND


def _add_system_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system",
        choices=sorted(STANDARD_CONFIGS),
        required=True,
        help="which standard experiment system to use",
    )


def _add_monitor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--classes",
        type=int,
        nargs="*",
        default=None,
        help="restrict the monitor to these class indices (default: all)",
    )
    parser.add_argument(
        "--neuron-fraction",
        type=float,
        default=None,
        help="monitor only this fraction of neurons (gradient-selected)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default=DEFAULT_BACKEND,
        help="comfort-zone engine: canonical BDD or vectorized bitset",
    )
    parser.add_argument(
        "--indexed",
        action="store_true",
        help="arm the bitset engine's multi-index Hamming pruner "
        "(sub-linear queries over large zones; bitset backend only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Runtime monitoring of neuron activation patterns (DATE 2019)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version, models and cached artifacts")

    train_p = sub.add_parser("train", help="train or load a standard system")
    _add_system_argument(train_p)
    train_p.add_argument("--force", action="store_true", help="retrain even if cached")
    train_p.add_argument("--verbose", action="store_true", help="per-epoch progress")

    eval_p = sub.add_parser("evaluate", help="evaluate a monitor at one gamma")
    _add_system_argument(eval_p)
    _add_monitor_arguments(eval_p)
    eval_p.add_argument("--gamma", type=int, default=0, help="Hamming radius")

    sweep_p = sub.add_parser("sweep", help="gamma calibration sweep")
    _add_system_argument(sweep_p)
    _add_monitor_arguments(sweep_p)
    sweep_p.add_argument("--max-gamma", type=int, default=3)
    sweep_p.add_argument(
        "--max-warning-rate",
        type=float,
        default=0.05,
        help="silence target used to choose gamma",
    )
    sweep_p.add_argument(
        "--min-precision",
        type=float,
        default=0.0,
        help="floor on misclassified-within-oop; noisier gammas are skipped",
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the invariant-enforcing static-analysis pass",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src"], help="files/dirs to lint"
    )
    lint_p.add_argument("--format", choices=("human", "json"), default="human")
    lint_p.add_argument("--rules", default=None, help="comma-separated subset")
    lint_p.add_argument("--list-rules", action="store_true")
    lint_p.add_argument("--show-suppressed", action="store_true")

    serve_p = sub.add_parser(
        "serve",
        aliases=["stream"],
        help="replay the validation stream through the sharded async server",
    )
    _add_system_argument(serve_p)
    _add_monitor_arguments(serve_p)
    # Serving is the bitset engine's home turf (vectorized batch queries
    # and cheap exact distances); BDD remains selectable via --backend.
    serve_p.set_defaults(backend="bitset")
    serve_p.add_argument("--gamma", type=int, default=2, help="Hamming radius")
    serve_p.add_argument(
        "--shards", type=int, default=4, help="number of per-class monitor shards"
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=64,
        help="largest micro-batch coalesced into one backend call",
    )
    serve_p.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="longest wait for stragglers before a batch is flushed",
    )
    serve_p.add_argument(
        "--max-pending", type=int, default=1024,
        help="bound of the one check queue, in blocks (producers block beyond it)",
    )
    serve_p.add_argument(
        "--requests", type=int, default=None,
        help="stream length (validation rows are recycled; default: one epoch)",
    )
    serve_p.add_argument(
        "--distances", action="store_true",
        help="also stream exact Hamming distances into the histogram "
        "shift detector (sharper signal than binary verdicts)",
    )
    serve_p.add_argument(
        "--submit", choices=["bulk", "per_request"], default="bulk",
        help="producer shape: one vectorised check_many call (bulk) or "
        "one concurrent check call per row (per_request) — throughputs "
        "are not comparable across modes",
    )
    serve_p.add_argument(
        "--workers", type=int, default=0,
        help="serve from N shared-nothing worker processes (each "
        "rehydrates its shard subset from the portable visited-pattern "
        "payloads; crashed workers respawn with in-flight blocks "
        "requeued); 0 = in-process thread-pool execution",
    )
    serve_p.add_argument(
        "--cluster", metavar="HOST:PORT", default=None,
        help="serve from a TCP shard cluster instead of local processes: "
        "bind the coordinator's listen socket there and wait for "
        "--workers external 'repro serve-worker HOST:PORT' processes to "
        "register (use 0 as the port for an ephemeral bind); dropped "
        "workers reconnect or have their shards re-placed on survivors",
    )
    serve_p.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable zone store directory: an empty DIR is initialized "
        "from the built monitor and every fresh pattern/gamma/snapshot "
        "is write-through logged; a populated DIR rehydrates the "
        "monitor from its newest segment + WAL tail (crash-consistent "
        "cold start), overriding the cached zone contents",
    )
    serve_p.add_argument(
        "--drift-respond", action="store_true",
        help="close the drift loop: stage flagged out-of-zone patterns, "
        "absorb them on alarm, re-choose gamma on the retained "
        "validation sweep and hot-swap the new zone snapshot "
        "fleet-atomically (bumps the zone epoch)",
    )
    serve_p.add_argument(
        "--drift-min-staged", type=int, default=64,
        help="minimum staged patterns before an alarm triggers a "
        "zone absorption (thin evidence keeps accumulating)",
    )
    serve_p.add_argument(
        "--alarm-z", type=float, default=3.0,
        help="z-score threshold of the windowed out-of-pattern rate "
        "alarm (lower it to force the drift loop on quiet streams)",
    )

    worker_p = sub.add_parser(
        "serve-worker",
        help="run one TCP cluster worker: dial a coordinator, register, "
        "rehydrate the assigned shards and answer block requests",
    )
    worker_p.add_argument(
        "address", metavar="HOST:PORT",
        help="coordinator listen address (the serve side's --cluster)",
    )
    worker_p.add_argument(
        "--name", default=None,
        help="stable worker name (default: hostname-pid); re-registering "
        "under the same name after a disconnect reclaims the previous "
        "shard placement",
    )
    worker_p.add_argument(
        "--reconnect-attempts", type=int, default=10,
        help="redials after a lost (or not-yet-listening) coordinator "
        "before giving up",
    )
    worker_p.add_argument(
        "--reconnect-backoff", type=float, default=0.5,
        help="seconds between redials",
    )

    store_p = sub.add_parser(
        "store",
        help="inspect or maintain a crash-consistent on-disk zone store",
    )
    store_p.add_argument(
        "action", choices=("info", "verify", "compact"),
        help="info: recovered cursor summary; verify: re-validate every "
        "checksum from disk (exit 1 on corruption); compact: fold the "
        "WAL tail into a fresh checksummed segment",
    )
    store_p.add_argument(
        "directory", metavar="DIR", help="zone store directory",
    )
    store_p.add_argument(
        "--keep-segments", type=int, default=1,
        help="previous segment generations kept as fallbacks by compact",
    )
    store_p.add_argument(
        "--json", action="store_true",
        help="emit the raw report as JSON instead of the human summary",
    )
    return parser


def _print_engine_stats(monitor) -> None:
    """One line of BDD engine observability for evaluate/sweep/serve.

    Surfaces the complement-edge engine's health counters (extended
    ``BDDManager.cache_stats()``): live vs physical nodes, unique-table
    load, GC collections and reclaimed nodes, sifting reorders, and the
    ite/exists cache hit rates.  Prints nothing for non-BDD backends.
    """
    stats = monitor.engine_stats()
    if not stats:
        return
    print(
        f"bdd engine: {stats['live_nodes']} live nodes "
        f"({stats['nodes']} allocated, {stats['unique_entries']} unique-table "
        f"entries), gc: {stats['gc_runs']} collections / "
        f"{stats['gc_reclaimed_nodes']} nodes reclaimed "
        f"(threshold {stats['gc_threshold'] or 'off'}), "
        f"reorders: {stats['reorder_count']} ({stats['reorder_swaps']} swaps), "
        f"cache hits: ite {percent(stats['ite_hit_rate'])} / "
        f"exists {percent(stats['exists_hit_rate'])}"
    )


def _cmd_info() -> int:
    print(f"repro {__version__}")
    print(f"registered models: {', '.join(available_models())}")
    print(f"standard systems:  {', '.join(sorted(STANDARD_CONFIGS))}")
    print(f"zone backends:     {', '.join(available_backends())}")
    cache = os.path.abspath(DEFAULT_CACHE_DIR)
    if os.path.isdir(cache):
        artifacts = sorted(f for f in os.listdir(cache) if f.endswith(".npz"))
        print(f"cached artifacts ({cache}):")
        for name in artifacts or ["  (none)"]:
            print(f"  {name}")
    else:
        print("no artifact cache yet")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    system = train_system(
        STANDARD_CONFIGS[args.system], force=args.force, verbose=args.verbose
    )
    print(f"system:         {args.system}")
    print(f"train accuracy: {percent(system.train_accuracy)}")
    print(f"val accuracy:   {percent(system.val_accuracy)}")
    print(f"monitored layer width: {system.spec.monitored_width}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    system = train_system(STANDARD_CONFIGS[args.system])
    monitor = build_monitor(
        system,
        gamma=args.gamma,
        classes=args.classes,
        neuron_fraction=args.neuron_fraction,
        backend=args.backend,
        indexed=args.indexed,
    )
    rows = gamma_sweep(system, monitor, [args.gamma])
    print(render_table2(1, system.misclassification_rate, rows))
    _print_engine_stats(monitor)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    system = train_system(STANDARD_CONFIGS[args.system])
    monitor = build_monitor(
        system, gamma=0, classes=args.classes,
        neuron_fraction=args.neuron_fraction, backend=args.backend,
        indexed=args.indexed,
    )
    rows = gamma_sweep(system, monitor, list(range(args.max_gamma + 1)))
    print(render_table2(1, system.misclassification_rate, rows))
    # One selection rule for library and CLI: GammaCalibrator applies the
    # min_precision floor and the documented quietest-gamma fallback.
    calibrator = GammaCalibrator(
        max_gamma=args.max_gamma,
        max_out_of_pattern_rate=args.max_warning_rate,
        min_precision=args.min_precision,
    )
    chosen = calibrator.choose(rows)
    print(f"\nchosen gamma: {chosen} "
          f"(silence target {percent(args.max_warning_rate)}, "
          f"precision floor {percent(args.min_precision)})")
    _print_engine_stats(monitor)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import ShardRouter, run_stream

    system = train_system(STANDARD_CONFIGS[args.system])
    monitor = build_monitor(
        system,
        gamma=args.gamma,
        classes=args.classes,
        neuron_fraction=args.neuron_fraction,
        backend=args.backend,
        indexed=args.indexed,
    )
    store = None
    if args.store is not None:
        from repro.monitor.monitor import NeuronActivationMonitor
        from repro.store import ZoneStore

        os.makedirs(args.store, exist_ok=True)
        store = ZoneStore.open(args.store)
        if store.initialized:
            # The store is the ground truth: map the newest segment and
            # replay the WAL tail — the zones of the previous run (drift
            # absorptions included) replace the freshly built ones.
            monitor = NeuronActivationMonitor.from_store(
                store, backend=args.backend
            )
            print(f"store: rehydrated {args.store} "
                  f"(epoch {store.epoch}, gamma {monitor.gamma}, "
                  f"{sum(z.num_visited_patterns for z in monitor.zones.values())} "
                  f"visited patterns)")
        else:
            monitor.attach_store(store)
            print(f"store: initialized {args.store} from the built monitor")
    router = ShardRouter.partition(monitor, args.shards)
    patterns, labels, predictions = system.patterns_of("val")
    total = args.requests if args.requests is not None else len(patterns)
    if total <= 0 or len(patterns) == 0:
        raise SystemExit("nothing to serve: empty validation stream")
    picks = np.arange(total) % len(patterns)
    stream_patterns = patterns[picks]
    stream_classes = predictions[picks]

    # Calibration-time baselines for the inline shift detectors.
    baseline_oop = 1.0 - monitor.check(patterns, predictions).mean()
    shift_detector = DistributionShiftDetector(
        min(baseline_oop, 0.99), z_threshold=args.alarm_z
    )
    distance_detector = None
    if args.distances:
        distance_detector = DistanceShiftDetector(
            monitor.min_distances(patterns, predictions)
        )
    drift_responder = None
    if args.drift_respond:
        from repro.monitor.drift import DriftResponder

        # The responder keeps the validation sweep set: γ is re-chosen on
        # it after every absorption, detector baselines re-measured on it.
        drift_responder = DriftResponder(
            monitor,
            patterns,
            predictions,
            labels,
            min_staged=args.drift_min_staged,
            store=store,
        )

    if args.workers < 0:
        raise SystemExit(f"--workers must be non-negative, got {args.workers}")
    # --workers 0 leaves the executor choice to the server defaults (and
    # the REPRO_SERVING_EXECUTOR override) rather than forcing a mode or
    # pinning the pool to one worker.  --cluster overrides both: the
    # coordinator binds there and waits for --workers (default 2)
    # external serve-worker registrations.
    if args.cluster is not None:
        fleet = args.workers or 2
        executor_kwargs = {
            "executor": "cluster",
            "workers": fleet,
            "cluster_address": args.cluster,
        }
        print(
            f"cluster: listening on {args.cluster}, waiting for {fleet} "
            f"worker registration{'s' if fleet > 1 else ''} — run "
            f"`python -m repro serve-worker {args.cluster}` on each host",
            flush=True,
        )
    else:
        executor_kwargs = (
            {"executor": "process", "workers": args.workers}
            if args.workers else {}
        )
    result = run_stream(
        router,
        stream_patterns,
        stream_classes,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_pending=args.max_pending,
        shift_detector=shift_detector,
        distance_detector=distance_detector,
        drift_responder=drift_responder,
        submit=args.submit,
        **executor_kwargs,
    )
    # Label what actually served the stream: a non-empty worker table
    # means a worker fleet ran, whatever selected it (flag or env); the
    # transport tag tells a TCP cluster from a local process pool.
    if result.worker_stats:
        fleet = len(result.worker_stats)
        if any(row.get("transport") == "tcp" for row in result.worker_stats):
            executor_label = f"cluster({fleet})"
        else:
            executor_label = f"process({fleet})"
    else:
        executor_label = "in-process"
    print(f"system:   {args.system}  backend={args.backend}  gamma={args.gamma}  "
          f"submit={args.submit}  executor={executor_label}")
    print(f"shards:   {len(router)}  "
          f"(classes per shard: {[len(s.classes) for s in router.shards]})  "
          f"zone epoch={router.epoch}")
    print(f"requests: {len(result.verdicts)}  elapsed {result.elapsed*1e3:.1f}ms  "
          f"throughput {result.throughput/1e3:.1f}k req/s")
    print(f"warnings: {int((~result.verdicts).sum())} "
          f"(baseline oop rate {percent(baseline_oop)})")
    keys = ["shard", "requests", "batches", "mean_batch", "max_batch",
            "max_queue_depth", "p50_ms", "p99_ms"]
    table_rows = [
        [f"{row[k]:.2f}" if isinstance(row[k], float) else str(row[k]) for k in keys]
        for row in result.stats
    ]
    print(format_table(keys, table_rows))
    if result.worker_stats:
        worker_keys = ["worker", "pid", "requests", "batches", "mean_batch",
                       "respawns", "requeued_blocks", "p50_ms", "p99_ms"]
        worker_rows = [
            [f"{row[k]:.2f}" if isinstance(row[k], float) else str(row[k])
             for k in worker_keys]
            for row in result.worker_stats
        ]
        print("worker processes:")
        print(format_table(worker_keys, worker_rows))
    shift_state = shift_detector.peek()
    print(f"shift detector: window rate {percent(shift_state.window_rate)}, "
          f"z={shift_state.z_score:.2f}, cusum={shift_state.cusum:.2f}, "
          f"alarm={shift_state.alarm}")
    if distance_detector is not None:
        state = distance_detector.peek()
        print(f"distance histogram: mean {state.window_mean:.2f}, "
              f"divergence {state.divergence:.3f}, alarm={state.alarm}")
    if result.drift is not None:
        drift = result.drift
        line = (f"drift loop: epoch {drift['epoch']}, swaps {drift['swaps']}, "
                f"gamma {drift.get('gamma', args.gamma)}, "
                f"absorbed {drift.get('absorbed_patterns', 0)} "
                f"(staged {drift.get('staged', 0)} pending)")
        if "swap_error" in drift:
            line += f"  [swap error: {drift['swap_error']}]"
        print(line)
    # The shards serve from their own rehydrated engines; this reports
    # the build-time monitor the stream was partitioned from.
    _print_engine_stats(monitor)
    if store is not None:
        print(f"store: epoch {store.epoch}, wal offset {store.wal_offset}, "
              f"segment seq {store.segment_seq}")
        store.flush(sync=True)
        store.close()
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    from repro.serving.cluster import run_worker

    # Blocks until the coordinator sends the stop sentinel (exit 0) or
    # the connection is lost with the redial budget exhausted.
    run_worker(
        args.address,
        name=args.name,
        reconnect_attempts=args.reconnect_attempts,
        reconnect_backoff=args.reconnect_backoff,
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.store import StoreError, ZoneStore

    if not os.path.isdir(args.directory):
        raise SystemExit(f"store directory does not exist: {args.directory}")
    store = ZoneStore.open(args.directory)
    try:
        if args.action == "info":
            info = store.info()
            if args.json:
                print(json.dumps(info, indent=2, sort_keys=True))
                return 0
            print(f"store:      {info['directory']}")
            print(f"initialized: {info['initialized']}  "
                  f"epoch={info['epoch']}  gamma={info['gamma']}  "
                  f"fsync={info['fsync']}")
            print(f"segment:    seq={info['segment_seq']}  "
                  f"rows={info.get('segment_rows', {})}")
            print(f"wal:        offset={info['wal_offset']}  "
                  f"tail_bytes={info['wal_tail_bytes']}  "
                  f"tail_rows={info.get('wal_tail_rows', {})}")
            if info["recovery_events"]:
                print("recovery events:")
                for event in info["recovery_events"]:
                    print(f"  - {event}")
            return 0
        if args.action == "verify":
            report = store.verify()
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                for entry in report["segments"]:
                    status = "ok" if entry.get("valid") else (
                        f"CORRUPT ({entry.get('error') or entry.get('corrupt_classes')})"
                    )
                    print(f"segment {entry['path']}: {status}")
                wal = report["wal"]
                tail = (
                    "clean" if not wal["torn_bytes"]
                    else f"{wal['torn_bytes']} torn byte(s): {wal['reason']}"
                )
                print(f"wal {wal['path']}: {wal['records']} records, {tail}")
                if report.get("quarantined"):
                    print(f"quarantined: {', '.join(report['quarantined'])}")
                if "snapshot_counts_match" in report:
                    print("snapshot marker counts: "
                          + ("match" if report["snapshot_counts_match"]
                             else f"MISMATCH {report['snapshot_count_mismatches']}"))
                print(f"verify: {'OK' if report['ok'] else 'FAILED'}")
            return 0 if report["ok"] else 1
        # compact
        try:
            path = store.compact(keep_segments=args.keep_segments)
        except StoreError as exc:
            raise SystemExit(str(exc))
        print(f"compacted into {os.path.basename(path)}  "
              f"(epoch={store.epoch}, gamma={store.gamma}, "
              f"wal_offset={store.wal_offset})")
        return 0
    finally:
        store.close()


def _cmd_lint(args) -> int:
    # Delegate to the devtools front end (same flags), so `repro lint`
    # and `python -m repro.devtools.lint` stay one implementation.
    from repro.devtools.lint.cli import main as lint_main

    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.list_rules:
        argv.append("--list-rules")
    if args.show_suppressed:
        argv.append("--show-suppressed")
    return lint_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Reject the combination up front: discovering it after minutes of
    # system training would surface as a raw backend ValueError.
    if getattr(args, "indexed", False) and getattr(args, "backend", None) != "bitset":
        parser.error("--indexed requires --backend bitset")
    if args.command == "info":
        return _cmd_info()
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command in ("serve", "stream"):
        return _cmd_serve(args)
    if args.command == "serve-worker":
        return _cmd_serve_worker(args)
    if args.command == "store":
        return _cmd_store(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
