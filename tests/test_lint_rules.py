"""Fixture tests for every lint rule: known-bad fires, known-good is
clean, and a justified suppression silences without hiding.

Each rule gets at least one (bad, good, suppressed) triple of inline
source snippets run through :func:`repro.devtools.lint.core.lint_file`,
so a rule that silently stops firing breaks the suite, not just the
gate.  A final tree-gate test asserts the merged ``src/`` tree lints
clean — the acceptance criterion of the PR that introduced the pass.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import rules as lint_rules
from repro.devtools.lint.core import RULES, lint_file, run_lint

REPO = Path(__file__).resolve().parent.parent


def findings_for(source: str, rule: str):
    findings, suppressed = lint_file("<fixture>", source, None)
    return [f for f in findings if f.rule == rule], [
        (f, why) for f, why in suppressed if f.rule == rule
    ]


def assert_triple(rule: str, bad: str, good: str, suppressed_src: str):
    """The canonical bad/good/suppressed contract for one rule."""
    bad_findings, _ = findings_for(bad, rule)
    assert bad_findings, f"{rule}: known-bad fixture did not fire"
    good_findings, _ = findings_for(good, rule)
    assert not good_findings, f"{rule}: known-good fixture fired: {good_findings}"
    silenced, suppressed = findings_for(suppressed_src, rule)
    assert not silenced, f"{rule}: suppression did not silence: {silenced}"
    assert suppressed, f"{rule}: suppressed finding was not recorded"


def test_registry_has_at_least_five_project_rules():
    project = {
        "bdd-ref-safety",
        "lock-discipline",
        "async-blocking-call",
        "payload-boundary",
        "epoch-monotonicity",
        "hot-path-purity",
    }
    assert project <= set(RULES)
    assert len(RULES) >= 5


def test_safe_point_fallback_matches_engine_registry():
    from repro.bdd.manager import GC_SAFE_POINTS

    assert lint_rules.GC_SAFE_POINTS_FALLBACK == GC_SAFE_POINTS
    assert lint_rules.gc_safe_points() == GC_SAFE_POINTS


# ----------------------------------------------------------------------
# bdd-ref-safety
# ----------------------------------------------------------------------
_REF_BAD = """
import repro.bdd

def build(mgr, a, b):
    zone = mgr.apply_or(a, b)
    other = mgr.from_patterns(rows)   # safe point: may GC/renumber
    return mgr.apply_and(zone, other)  # stale read of `zone`
"""

_REF_GOOD_PINNED = """
import repro.bdd

def build(mgr, a, b):
    zone = mgr.apply_or(a, b)
    mgr.incref(zone)
    other = mgr.from_patterns(rows)
    return mgr.apply_and(zone, other)
"""

_REF_GOOD_REREAD = """
import repro.bdd

def build(mgr, holder, rows):
    zone = mgr.apply_or(holder.ref, holder.ref)
    mgr.from_patterns(rows)
    zone = holder.ref              # re-read after the safe point
    return mgr.apply_and(zone, zone)
"""

_REF_GOOD_HANDLE = """
import repro.bdd

def build(mgr, rows):
    zone = mgr.function(mgr.from_patterns(rows))  # tracked handle
    mgr.reorder(method="sift")
    return zone.ref                                # remapped in place
"""

_REF_SUPPRESSED = """
import repro.bdd

def build(mgr, a, b):
    zone = mgr.apply_or(a, b)
    other = mgr.from_patterns(rows)
    return mgr.apply_and(zone, other)  # lint: disable=bdd-ref-safety -- auto-GC disabled on this manager
"""

_REF_LOOP_BAD = """
import repro.bdd

def saturate(mgr, start, rows):
    acc = mgr.apply_or(start, start)
    for chunk in rows:
        grown = mgr.from_patterns(chunk)   # safe point each iteration
        if grown == acc:                   # stale on iteration 2
            break
"""


def test_bdd_ref_safety_triple():
    assert_triple("bdd-ref-safety", _REF_BAD, _REF_GOOD_PINNED, _REF_SUPPRESSED)


def test_bdd_ref_safety_reread_and_handle_are_clean():
    for source in (_REF_GOOD_REREAD, _REF_GOOD_HANDLE):
        findings, _ = findings_for(source, "bdd-ref-safety")
        assert not findings, findings


def test_bdd_ref_safety_catches_cross_iteration_staleness():
    findings, _ = findings_for(_REF_LOOP_BAD, "bdd-ref-safety")
    assert findings, "loop fixture (the hamming_ball regression class) must fire"


def test_bdd_ref_safety_skips_files_without_bdd_imports():
    source = _REF_BAD.replace("import repro.bdd\n", "")
    findings, _ = findings_for(source, "bdd-ref-safety")
    assert not findings


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
_LOCK_CYCLE_BAD = """
import threading

class A:
    def __init__(self):
        self._lock = threading.Lock()
        self.peer = B()

    def forward(self):
        with self._lock:
            with self.peer._lock:
                pass

class B:
    def __init__(self):
        self._lock = threading.Lock()
        self.peer = A()

    def backward(self):
        with self._lock:
            with self.peer._lock:
                pass
"""

_LOCK_GOOD = """
import threading

class A:
    def __init__(self):
        self._lock = threading.Lock()
        self.inner = B()

    def forward(self):
        with self._lock:
            self.inner.touch()

class B:
    def __init__(self):
        self._lock = threading.Lock()

    def touch(self):
        with self._lock:
            pass
"""

_AWAIT_UNDER_LOCK_BAD = """
class S:
    async def swap(self):
        with self._lock:
            await self.publish()
"""

_AWAIT_UNDER_LOCK_SUPPRESSED = """
class S:
    async def swap(self):
        with self._lock:
            # lint: disable=lock-discipline -- single-owner lock, never contended from threads
            await self.publish()
"""


def test_lock_discipline_cycle_fires_and_clean_graph_passes():
    bad, _ = findings_for(_LOCK_CYCLE_BAD, "lock-discipline")
    assert bad and "cycle" in bad[0].message
    good, _ = findings_for(_LOCK_GOOD, "lock-discipline")
    assert not good, good


def test_lock_discipline_await_under_lock():
    assert_triple(
        "lock-discipline",
        _AWAIT_UNDER_LOCK_BAD,
        _LOCK_GOOD,
        _AWAIT_UNDER_LOCK_SUPPRESSED,
    )


# ----------------------------------------------------------------------
# async-blocking-call
# ----------------------------------------------------------------------
_BLOCKING_BAD = """
class S:
    async def pump(self, conn):
        return conn.recv()
"""

_BLOCKING_GOOD = """
import asyncio

class S:
    async def pump(self, conn):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, lambda: conn.recv())
"""

_BLOCKING_SUPPRESSED = """
class S:
    async def pump(self, conn):
        return conn.recv()  # lint: disable=async-blocking-call -- startup-only handshake before the loop serves traffic
"""

_BLOCKING_KERNEL_BAD = """
class S:
    async def run(self, shard, patterns):
        return shard.check_batch(patterns)
"""


def test_async_blocking_call_triple():
    assert_triple(
        "async-blocking-call", _BLOCKING_BAD, _BLOCKING_GOOD, _BLOCKING_SUPPRESSED
    )


def test_async_blocking_call_flags_kernel_calls():
    findings, _ = findings_for(_BLOCKING_KERNEL_BAD, "async-blocking-call")
    assert findings


_GATHERED_GOOD = """
import asyncio

class S:
    async def fan_out(self, server, probes):
        verdicts = await asyncio.gather(
            *(server.classify(probes[i]) for i in range(len(probes)))
        )
        first = await asyncio.wait_for(server.classify(probes[0]), timeout=1.0)
        task = asyncio.create_task(server.classify(probes[1]))
        return verdicts, first, await task
"""

_GATHERED_BAD = {
    "bare call": """
import asyncio

class S:
    async def one(self, server, x):
        return server.classify(x)
""",
    "blocking argument of a gathered call": """
import asyncio

class S:
    async def fan_out(self, server, conn):
        return await asyncio.gather(server.classify(conn.recv()))
""",
    "not an asyncio taker": """
class S:
    async def fan_out(self, server, pool, x):
        return await pool.gather(server.classify(x))
""",
    "blocking call in the comprehension's iterable": """
import asyncio

class S:
    async def fan_out(self, server, conn):
        return await asyncio.gather(*(server.classify(x) for x in conn.recv()))
""",
}


def test_async_blocking_call_allows_calls_handed_to_asyncio_takers():
    findings, _ = findings_for(_GATHERED_GOOD, "async-blocking-call")
    assert not findings, findings


@pytest.mark.parametrize("case", sorted(_GATHERED_BAD))
def test_async_blocking_call_still_flags_inline_calls(case):
    findings, _ = findings_for(_GATHERED_BAD[case], "async-blocking-call")
    assert len(findings) == 1, findings


def test_serving_tests_lint_clean_of_gathered_classify():
    """``asyncio.gather(*(server.classify(...) ...))`` in the serving
    tests used to be reported as a blocking ``classify`` call."""
    assert run_lint([str(REPO / "tests" / "test_serving.py")]).findings == []


def test_async_blocking_call_allows_asyncio_sleep():
    source = """
import asyncio

async def tick():
    await asyncio.sleep(0.1)
"""
    findings, _ = findings_for(source, "async-blocking-call")
    assert not findings, findings


# ----------------------------------------------------------------------
# payload-boundary
# ----------------------------------------------------------------------
_PAYLOAD_BAD = """
def push(conn, shard):
    conn.send(("zone", shard.engine))
"""

_PAYLOAD_BAD_LOCAL = """
def push(conn, shard):
    engine = shard._engine
    conn.send(("zone", engine))
"""

_PAYLOAD_GOOD = """
def push(conn, shard, req_id):
    payload = shard.to_payload()
    conn.send(("zone", req_id, payload))
"""

_PAYLOAD_SUPPRESSED = """
def push(conn, shard):
    conn.send(("zone", shard.engine))  # lint: disable=payload-boundary -- test-only harness pipe, both ends in this process
"""


_PAYLOAD_RING_BAD = """
def dispatch(ring, slot, shard):
    frame_request(ring, slot, shard._zone, shard.classes)
"""

_PAYLOAD_RING_BAD_LOCAL = """
def dispatch(ring, slot, shard):
    zone = shard._zone
    frame_request(ring, slot, zone, shard.classes)
"""

_PAYLOAD_RING_GOOD = """
def dispatch(ring, slot, rows, classes):
    packed = pack_patterns(rows)
    frame_request(ring, slot, packed, classes)
"""

_PAYLOAD_RING_READER_GOOD = """
def pump(rings, slot, rows, width, conn, req_id):
    packed, classes = read_request(rings, slot, rows, width)
    conn.send(("ok", req_id, packed.sum()))
"""


def test_payload_boundary_triple():
    assert_triple(
        "payload-boundary", _PAYLOAD_BAD, _PAYLOAD_GOOD, _PAYLOAD_SUPPRESSED
    )


def test_payload_boundary_tracks_tainted_locals():
    findings, _ = findings_for(_PAYLOAD_BAD_LOCAL, "payload-boundary")
    assert findings


def test_payload_boundary_ring_frames_are_sinks():
    findings, _ = findings_for(_PAYLOAD_RING_BAD, "payload-boundary")
    assert findings
    findings, _ = findings_for(_PAYLOAD_RING_BAD_LOCAL, "payload-boundary")
    assert findings


def test_payload_boundary_blesses_ring_producers():
    findings, _ = findings_for(_PAYLOAD_RING_GOOD, "payload-boundary")
    assert not findings, findings
    findings, _ = findings_for(_PAYLOAD_RING_READER_GOOD, "payload-boundary")
    assert not findings, findings


_PAYLOAD_STORE_GOOD = """
def rehydrate(conn, record, segment, row_bytes, class_id):
    tail = record.as_array(row_bytes)
    body = unpack_patterns(segment.rows(class_id), row_bytes * 8)
    conn.send(("rows", tail, body))
"""

_PAYLOAD_STORE_STILL_BAD = """
def rehydrate(conn, store):
    conn.send(("zone", store.zone))
"""


def test_payload_boundary_blesses_store_framing_helpers():
    """Store WAL/segment decoders hand back packed-bit matrices — a
    portable wire form — while engine internals stay banned."""
    findings, _ = findings_for(_PAYLOAD_STORE_GOOD, "payload-boundary")
    assert not findings, findings
    findings, _ = findings_for(_PAYLOAD_STORE_STILL_BAD, "payload-boundary")
    assert findings


# ----------------------------------------------------------------------
# epoch-monotonicity
# ----------------------------------------------------------------------
_EPOCH_BAD = """
class Router:
    def apply_snapshot(self, snapshot):
        self.epoch = int(snapshot.version)
"""

_EPOCH_GOOD = """
class Router:
    def __init__(self):
        self.epoch = 0

    def apply_snapshot(self, snapshot):
        if snapshot.epoch <= self.epoch:
            raise ValueError("stale snapshot")
        self.epoch = int(snapshot.epoch)

    def bump(self):
        self.epoch += 1

    def rehydrate(self, worker, epoch):
        worker.epoch = epoch
"""

_EPOCH_SUPPRESSED = """
class Router:
    def apply_snapshot(self, snapshot):
        self.epoch = int(snapshot.version)  # lint: disable=epoch-monotonicity -- version validated by the caller holding the fleet lock
"""


def test_epoch_monotonicity_triple():
    assert_triple(
        "epoch-monotonicity", _EPOCH_BAD, _EPOCH_GOOD, _EPOCH_SUPPRESSED
    )


def test_epoch_monotonicity_requires_guard_for_self_copy():
    source = """
class Responder:
    def publish(self, snapshot):
        self.epoch = snapshot.epoch
"""
    findings, _ = findings_for(source, "epoch-monotonicity")
    assert findings, "unguarded self-epoch copy must fire"


# ----------------------------------------------------------------------
# hot-path-purity
# ----------------------------------------------------------------------
_HOT_BAD = """
# lint: hot-path

def scan(rows):
    total = 0
    for row in rows:
        total += row.sum()
    return total
"""

_HOT_GOOD = """
# lint: hot-path

def scan(words, chunk):
    total = 0
    for start in range(0, len(words), chunk):
        total += words[start : start + chunk].sum()
    return total
"""

_HOT_SUPPRESSED = """
# lint: hot-path

def debug_dump(rows):  # lint: disable=hot-path-purity -- diagnostic helper, never called while serving
    for row in rows:
        print(row)
"""

_HOT_UNMARKED = """
def scan(rows):
    for row in rows:
        pass
"""


def test_hot_path_purity_triple():
    assert_triple("hot-path-purity", _HOT_BAD, _HOT_GOOD, _HOT_SUPPRESSED)


def test_hot_path_purity_ignores_unmarked_files():
    findings, _ = findings_for(_HOT_UNMARKED, "hot-path-purity")
    assert not findings


def test_hot_path_marker_must_be_a_comment_line():
    source = 'MARKER = "# lint: hot-path"\nfor x in [1]:\n    pass\n'
    findings, _ = findings_for(source, "hot-path-purity")
    assert not findings, "prose mentioning the marker must not arm the rule"


# ----------------------------------------------------------------------
# generic tier
# ----------------------------------------------------------------------
def test_unused_import_triple():
    assert_triple(
        "unused-import",
        "import os\n",
        "import os\nprint(os.sep)\n",
        "import os  # lint: disable=unused-import -- imported for its side effects\n",
    )


def test_unused_import_allows_underscore_alias():
    findings, _ = findings_for(
        "from pkg import mod as _mod\n", "unused-import"
    )
    assert not findings


def test_mutable_default_arg_triple():
    assert_triple(
        "mutable-default-arg",
        "def f(x=[]):\n    pass\n",
        "def f(x=None):\n    pass\n",
        "def f(x={}):  # lint: disable=mutable-default-arg -- module-lifetime memo cache, shared on purpose\n    pass\n",
    )


# ----------------------------------------------------------------------
# suppression machinery
# ----------------------------------------------------------------------
def test_suppression_without_justification_is_flagged_and_does_not_silence():
    source = "import os  # lint: disable=unused-import\n"
    findings, suppressed = lint_file("<fixture>", source, None)
    rules_fired = {f.rule for f in findings}
    assert "unused-import" in rules_fired, "bare disable must not silence"
    assert "bad-suppression" in rules_fired
    assert not suppressed


def test_suppression_naming_unknown_rule_is_flagged():
    source = "x = 1  # lint: disable=no-such-rule -- because\n"
    findings, _ = lint_file("<fixture>", source, None)
    assert any(f.rule == "bad-suppression" for f in findings)


def test_block_suppression_covers_function_body():
    source = """
# lint: hot-path

def walk(rows):  # lint: disable=hot-path-purity -- setup-only helper
    for row in rows:
        for bit in row:
            pass
"""
    findings, suppressed = lint_file("<fixture>", source, None)
    assert not [f for f in findings if f.rule == "hot-path-purity"]
    assert len([s for s, _ in suppressed if s.rule == "hot-path-purity"]) == 2


# ----------------------------------------------------------------------
# tree gate + CLI
# ----------------------------------------------------------------------
def test_merged_tree_lints_clean():
    report = run_lint([str(REPO / "src")])
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert report.parse_errors == []
    assert report.files > 50
    assert report.exit_code == 0


def test_every_suppression_in_tree_is_justified():
    report = run_lint([str(REPO / "src")])
    for finding, justification in report.suppressed:
        assert justification.strip(), f"unjustified suppression: {finding.render()}"


def test_cli_json_output_and_exit_codes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--format", "json", str(bad)],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stderr
    import json

    payload = json.loads(proc.stdout)
    assert payload["findings"] and payload["findings"][0]["rule"] == "unused-import"

    good = tmp_path / "good.py"
    good.write_text("import os\nprint(os.sep)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", str(good)],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_parse_error_reported_not_raised(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    report = run_lint([str(broken)])
    assert report.parse_errors and report.exit_code == 1
