#!/usr/bin/env python3
"""Benchmark of the monitored decision path: one command, three workloads.

    python3 perfbench/run.py --workload classify|serve|drift \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload sets the system up from
the tracked ``.artifacts/`` checkpoints, makes its inputs from ``--seed``,
runs closed-loop rounds of fixed work for ``--seconds`` of timed work,
checks every answer against an independent oracle and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Spans of a
traced run are written to ``.bench_out/``.  See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import os  # noqa: E402

# One BLAS thread in this process and in every worker it starts (they
# inherit the environment): on a 2-CPU box, BLAS threads fought the
# server's own threads and processes for cores and tripled the spread of
# round times inside a classify run.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("classify", "serve", "drift")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", choices=("verdict", "class", "gamma"), default=None,
        help="corrupt one program answer before it is checked, to show "
        "that the check catches it (the run must then fail)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from common import CheckFailed, describe_host, emit, end_to_end_metrics, overall_rate
    from tracing import Tracer, per_layer_result, span_metrics

    workload = importlib.import_module(f"wl_{args.workload}")
    if args.inject_fault is not None and args.inject_fault not in workload.FAULTS:
        print(f"perfbench: {args.workload} can inject only {workload.FAULTS}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    try:
        outcome = workload.run(args, _T0, tracer)
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED ({args.workload}): {exc}", file=sys.stderr)
        emit(False, 1, 0, {})
        return 1
    for line in outcome.notes:
        print(line)
    print(describe_host(outcome.record))
    if tracer is None:
        metrics = end_to_end_metrics(outcome.record, outcome.rss_mib)
    else:
        traced = outcome.record.timed(traced=True)
        untraced = outcome.record.timed(traced=False)
        values = span_metrics(tracer, len(traced))
        values.update(outcome.layer)
        traced_rate = overall_rate(traced)
        values["trace.rows_per_s"] = traced_rate
        values["trace.overhead_pct"] = (
            overall_rate(untraced) / traced_rate - 1.0
        ) * 100.0
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans ({tracer.dropped} not stored) "
              f"written to {os.path.relpath(path, ROOT)}")
        if tracer.missing:
            print(f"trace: hook targets not found (metrics read 0): {tracer.missing}")
        metrics = per_layer_result(values)
    emit(True, outcome.attempted, outcome.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
