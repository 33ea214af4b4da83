"""Shared pieces of the benchmark: round loop, memory probe, percentiles,
result line.

Every workload is a closed loop of *rounds*.  A round is a fixed amount of
seeded work (the same requests in the same order every time), so the
counts a round produces (server batches, drift responses, absorbed rows)
repeat exactly between runs; only the time a round takes varies.  A run
does one untimed warm-up round, then timed rounds until ``--seconds`` of
timed work have passed.

The host's CPU speed drifts by a third and more over tens of seconds to
minutes (user CPU time grows with wall time, nothing is stolen), and it
moves the program's set-up and rounds alike.  Two remedies follow.  A
run's figures average over all of its timed rounds rather than take the
median round, which jumps between the slow and fast periods a run
straddles.  And after every timed round the run times a fixed reference
kernel (:func:`reference_seconds`); the end-to-end rate and latency are
reported at the reference speed, :data:`REFERENCE_S` per kernel pass,
by scaling them with the kernel's mean time in the run.  The raw figures
and the scale are printed above the result line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

#: A run never reports figures over fewer timed rounds than this, whatever
#: ``--seconds`` says.
MIN_ROUNDS = 3


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent oracle."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class RoundResult:
    """What one timed round did: rows answered, seconds of timed work,
    request latencies (seconds) and the operations it attempted/failed."""

    rows: int
    seconds: float
    latencies: List[float]
    attempted: int
    failed: int = 0
    traced: bool = False


@dataclass
class RunRecord:
    """All timed rounds of one run, the set-up time and the reference
    kernel's time after each timed round."""

    setup_s: float
    rounds: List[RoundResult] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)

    def timed(self, traced: bool) -> List[RoundResult]:
        return [r for r in self.rounds if r.traced == traced]


def run_rounds(
    seconds: float,
    one_round: Callable[[int, bool], RoundResult],
    record: RunRecord,
    alternate_trace: bool = False,
) -> None:
    """Warm up once, then run timed rounds until ``seconds`` of timed work.

    ``one_round(index, traced)`` does the work of one round and returns
    its :class:`RoundResult`; index 0 is the untimed warm-up.  With
    ``alternate_trace`` the timed rounds alternate untraced / traced, so
    one process yields both the per-layer figures and the cost of
    recording them.
    """
    one_round(0, False)
    reference_seconds()  # warm-up pass, not recorded
    spent = 0.0
    index = 1
    while spent < seconds or len(record.rounds) < MIN_ROUNDS or (
        alternate_trace and len(record.rounds) % 2
    ):
        traced = alternate_trace and index % 2 == 0
        result = one_round(index, traced)
        result.traced = traced
        record.rounds.append(result)
        record.reference.append(reference_seconds())
        spent += result.seconds
        index += 1


#: Seconds one pass of the reference kernel takes on the development VM
#: (2 vCPUs of an Intel Xeon at 2.0 GHz, one BLAS thread) in its fast
#: periods; the end-to-end rate and latency are reported at this speed.
REFERENCE_S = 0.006

_REF = np.random.default_rng(0)
_REF_MAPS = _REF.standard_normal((4, 40, 12, 12))
_REF_FILTERS = _REF.standard_normal((20, 1000))
_REF_POOL = _REF.standard_normal((4, 40, 24, 24))
_REF_GRAPH = {i: ((i * 7919) % 4096, (i * 104729) % 4096) for i in range(4096)}


def reference_seconds(passes: int = 3) -> float:
    """Mean seconds of one pass of a fixed kernel, timed now.

    A pass mixes what the workloads spend their time on: an im2col
    gather and ``einsum`` shaped like the MNIST net's second convolution,
    a strided 2x2 max-pool ``argmax`` and 20k pure-Python dict steps like
    a BDD walk.  It touches nothing of the program, so a change to the
    program cannot move it; only the host's speed does."""
    start = time.perf_counter()
    for _ in range(passes):
        n, c, _h, _w = _REF_MAPS.shape
        sn, sc, sh, sw = _REF_MAPS.strides
        windows = np.lib.stride_tricks.as_strided(
            _REF_MAPS, shape=(n, c, 5, 5, 8, 8), strides=(sn, sc, sh, sw, sh, sw),
            writeable=False,
        )
        np.einsum("of,nfl->nol", _REF_FILTERS, windows.reshape(n, c * 25, 64))
        sn, sc, sh, sw = _REF_POOL.strides
        pool = np.lib.stride_tricks.as_strided(
            _REF_POOL, shape=(4, 40, 12, 12, 2, 2),
            strides=(sn, sc, 2 * sh, 2 * sw, sh, sw), writeable=False,
        )
        pool.reshape(4, 40, 12, 12, 4).argmax(axis=4)
        node = 0
        for step in range(20_000):
            node = _REF_GRAPH[node][step & 1]
    return (time.perf_counter() - start) / passes


def host_scale(record: RunRecord) -> float:
    """How much slower than :data:`REFERENCE_S` the host ran during the
    timed rounds (above 1 when slower)."""
    return float(np.mean(record.reference)) / REFERENCE_S


def percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    values = list(samples)
    return float(np.percentile(values, q)) if values else 0.0


def tail_percentile(samples: List[float]) -> Optional[tuple]:
    """The highest of p99.9 / p99 / p90 / p75 with at least ten samples beyond it,
    as ``(label, value, sample_count)``; ``None`` under 40 samples."""
    n = len(samples)
    if n < 40:
        return None
    for label, q in (("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p75", 75.0)):
        if n * (1.0 - q / 100.0) >= 10:
            return label, percentile(samples, q), n
    return None


def _vm_hwm_kib(pid: int) -> Optional[int]:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def peak_rss_mib(worker_pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus the given workers, MiB.

    Read while the workers are still alive (their ``/proc`` entries
    vanish with them)."""
    total = _vm_hwm_kib(os.getpid()) or 0
    for pid in worker_pids:
        if pid and pid > 0 and pid != os.getpid():
            total += _vm_hwm_kib(pid) or 0
    return total / 1024.0


def overall_rate(rounds: List[RoundResult]) -> float:
    """Rows answered per second over the whole timed phase of ``rounds``."""
    return sum(r.rows for r in rounds) / sum(r.seconds for r in rounds)


def mean_round_p50(rounds: List[RoundResult]) -> float:
    """Mean over ``rounds`` of each round's median request latency, seconds."""
    return float(np.mean([percentile(r.latencies, 50) for r in rounds]))


def end_to_end_metrics(record: RunRecord, rss_mib: float) -> Dict[str, dict]:
    """The four end-to-end metrics over the untraced timed rounds; rate and
    latency at the reference speed (see the module docstring)."""
    rounds = record.timed(traced=False)
    scale = host_scale(record)
    return {
        "setup_s": {"value": record.setup_s, "unit": "s"},
        "rows_per_s": {
            "value": overall_rate(rounds) * scale, "unit": "rows/s",
        },
        "request_p50_ms": {
            "value": mean_round_p50(rounds) / scale * 1e3, "unit": "ms",
        },
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


def describe_host(record: RunRecord) -> str:
    """One human line with the raw figures and the host scale behind them."""
    rounds = record.timed(traced=False)
    return (
        f"host: reference kernel {np.mean(record.reference) * 1e3:.3f} ms per pass "
        f"(scale {host_scale(record):.3f} of {REFERENCE_S * 1e3:.1f} ms); raw untraced "
        f"rows_per_s {overall_rate(rounds):.2f}, request_p50_ms "
        f"{mean_round_p50(rounds) * 1e3:.4f}"
    )


def describe_tail(record: RunRecord) -> str:
    """One human line with the tail latency and its sample count."""
    latencies = [lat for r in record.timed(traced=False) for lat in r.latencies]
    tail = tail_percentile(latencies)
    if tail is None:
        return f"tail: fewer than 40 requests ({len(latencies)}), median only"
    label, value, n = tail
    return f"tail: {label} {value * 1e3:.3f} ms over {n} requests"


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


@dataclass
class Outcome:
    """What a workload hands back to the runner.

    ``layer`` holds the per-layer metrics the workload reads from counters
    the program exposes (server batches, pool blocks, drift responses...);
    the span-derived ones are added by the runner.  ``notes`` are human
    lines printed above the result (the counts that repeat, the tail)."""

    record: RunRecord
    rss_mib: float
    attempted: int
    failed: int
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
