"""Vectorized bitset zone backend.

Stores each class's visited patterns as deduplicated rows of packed bits
(8 neurons per byte, padded to whole 64-bit words) and answers whole query
matrices at once: a batched γ-membership check is one broadcast XOR
between the ``(N, W)`` query words and the ``(M, W)`` visited words, a
hardware popcount (``np.bitwise_count``, with a byte-LUT fallback for
older numpy), a row-wise minimum and a comparison against γ — all inside
numpy, no per-sample Python.

This is the NAP-monitor style representation (od-test lineage): exact, not
an abstraction, and the natural engine to race against the BDD backend.
γ = 0 takes a fully vectorized sorted-lookup fast path, and ``indexed=True``
enables the multi-index Hamming pruner (``index.py``) that makes γ > 0
queries sub-linear in the number of stored patterns.
"""
# lint: hot-path

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.monitor.backends.base import ZoneBackend

#: popcount of every byte value — fallback when numpy lacks the hardware
#: ``bitwise_count`` ufunc (added in numpy 2.0).
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)

#: ``REPRO_FORCE_POPCOUNT_LUT=1`` forces the byte-LUT kernel even when the
#: hardware ufunc exists, so CI on numpy>=2 can still exercise the numpy<2
#: fallback path.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count") and os.environ.get(
    "REPRO_FORCE_POPCOUNT_LUT", ""
).lower() not in ("1", "true", "yes")

#: Cap on the temporary ``(chunk, M, W)`` XOR cube, in bytes.
_CHUNK_BYTES = 1 << 26  # 64 MiB


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    bytes_view = words.view(np.uint8)
    return _POPCOUNT[bytes_view].reshape(words.shape + (8,)).sum(
        axis=-1, dtype=np.uint64
    )


def pad_to_words(packed: np.ndarray, row_words: int) -> np.ndarray:
    """``(N, B)`` packed bytes -> ``(N, row_words)`` uint64 words.

    The one place rows are zero-padded to whole words: the bytes are
    written into a zeroed ``(N, row_words * 8)`` buffer, so the tail
    bytes past ``B`` read 0 (``np.pad`` did the same at ten times the
    cost on small blocks).
    """
    rows, width = packed.shape
    if width == row_words * 8:
        return np.ascontiguousarray(packed).view(np.uint64)
    out = np.zeros((rows, row_words * 8), dtype=np.uint8)
    out[:, :width] = packed
    return out.view(np.uint64)


def merge_sorted_pair(
    old_values: np.ndarray,
    new_values: np.ndarray,
    old_payload: Optional[np.ndarray] = None,
    new_payload: Optional[np.ndarray] = None,
):
    """Merge two sorted value columns (and aligned payload) in O(M + K).

    One ``searchsorted`` of the K new values plus two linear scatters —
    the kernel behind the backend's incremental dedup-array merge and
    the band-index / prototype-ring merges in ``index.py``.  Returns
    ``(merged_values, merged_payload)`` (payload ``None`` when omitted).
    """
    pos = np.searchsorted(old_values, new_values)
    slots = pos + np.arange(len(new_values))
    merged = np.empty(len(old_values) + len(new_values), dtype=old_values.dtype)
    merged[slots] = new_values
    keep = np.ones(len(merged), dtype=bool)
    keep[slots] = False
    merged[keep] = old_values
    if old_payload is None:
        return merged, None
    payload = np.empty(len(merged), dtype=old_payload.dtype)
    payload[slots] = new_payload
    payload[keep] = old_payload
    return merged, payload


class BitsetZoneBackend(ZoneBackend):
    """Deduplicated packed-pattern words + vectorized XOR/popcount queries.

    ``indexed=True`` arms the multi-index Hamming pruner
    (:class:`~repro.monitor.backends.index.MultiIndexHammingIndex`): γ > 0
    queries first shortlist candidates through γ+1 exact band lookups and
    a class-prototype distance ring, and only the shortlist reaches the
    XOR/popcount kernel.  Indices are built lazily per γ on first query;
    :meth:`add_patterns` merges appended rows into each built index's
    per-band sorted orders in place (dropping an index only when the
    merge fraction is large enough that a rebuild recovers pruning
    power); when pruning would not pay (few stored patterns, bands too
    narrow) the query silently falls back to the brute kernel, so
    verdicts are always bit-identical.
    """

    name = "bitset"

    #: Exact |Z^γ| counting enumerates the enlarged zone; stop past this.
    _SIZE_BUDGET = 2_000_000

    #: Below this much stored work (pattern rows × words per row) the
    #: brute kernel beats the index's per-query bookkeeping.
    _INDEX_MIN_WORK = 2048
    #: Bands narrower than this collide so often the shortlist is ~everything.
    _INDEX_MIN_BAND_BITS = 8

    def __init__(self, num_vars: int, indexed: bool = False):
        super().__init__(num_vars)
        self._row_bytes = (num_vars + 7) // 8
        self._row_words = (self._row_bytes + 7) // 8
        self._void = np.dtype((np.void, self._row_words * 8))
        self._words = np.zeros((0, self._row_words), dtype=np.uint64)
        #: Sorted void view of ``_words`` rows — the vectorized membership
        #: structure behind dedup on insert and the γ=0 fast path.
        self._sorted_void = self._words.view(self._void).ravel()
        self.indexed = bool(indexed)
        self._indices: Dict[int, "object"] = {}

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    def _pack_words(self, patterns: np.ndarray) -> np.ndarray:
        """``(N, num_vars)`` 0/1 rows -> ``(N, row_words)`` uint64 words."""
        return pad_to_words(np.packbits(patterns, axis=1), self._row_words)

    def _member_mask(self, words: np.ndarray) -> np.ndarray:
        """Vectorized exact membership of packed rows in the stored set."""
        if not len(self._sorted_void):
            return np.zeros(len(words), dtype=bool)
        queries = np.ascontiguousarray(words).view(self._void).ravel()
        pos = np.searchsorted(self._sorted_void, queries)
        pos = np.minimum(pos, len(self._sorted_void) - 1)
        return self._sorted_void[pos] == queries

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_patterns(self, patterns: np.ndarray) -> None:
        patterns = self._validate(patterns)
        if len(patterns) == 0:
            return
        if patterns.max(initial=0) > 1:
            raise ValueError("pattern bits must be 0 or 1")
        # Intra-batch dedup and the cross-batch filter both run at C speed:
        # unique void rows, then a sorted-lookup membership test against the
        # stored set (no per-row Python, however large the zone).
        self._add_words(np.unique(self._pack_words(patterns), axis=0))

    def add_packed(
        self, packed: np.ndarray, assume_sorted_unique: bool = False
    ) -> np.ndarray:
        """Bulk-insert ``(N, row_bytes)`` bit-packed rows (store cold start).

        The zone store and the portable payloads both carry patterns in
        ``pack_patterns`` form; this entry point skips the unpackbits →
        packbits round trip of :meth:`add_patterns` and goes straight to
        the word representation.  Bits past ``num_vars`` are masked off,
        so foreign padding can never make two equal patterns distinct.
        Returns the packed rows that were actually new (the write-through
        sink logs exactly these).

        ``assume_sorted_unique`` marks rows that arrive deduplicated in
        lexicographic byte order — exactly what ``np.unique(rows,
        axis=0)`` produces and what compacted store segments hold.  The
        claim is *verified* with one O(N) strictly-increasing pass (so a
        foreign segment can never corrupt the sorted structure); when it
        holds, the two O(N log N) sorts of the general path are skipped,
        which is what makes the mmap cold start beat an archive parse.
        """
        packed = np.ascontiguousarray(np.atleast_2d(packed), dtype=np.uint8)
        if packed.shape[1] != self._row_bytes:
            raise ValueError(
                f"packed rows have {packed.shape[1]} bytes, "
                f"expected {self._row_bytes}"
            )
        if len(packed) == 0:
            return packed.reshape(0, self._row_bytes)
        tail_bits = self._row_bytes * 8 - self.num_vars
        if tail_bits:
            packed = packed.copy()
            packed[:, -1] &= 0xFF << tail_bits & 0xFF
        row_view = pad_to_words(packed, self._row_words)
        packed = row_view.view(np.uint8)
        presorted = False
        if assume_sorted_unique and len(packed) > 1:
            # Verify strict lexicographic byte order (== void/memcmp
            # order) in one vectorized pass: big-endian word values sort
            # exactly like their bytes, so a row pair is ordered at its
            # first differing word.
            be = packed.view(">u8")
            a, b = be[:-1], be[1:]
            neq = a != b
            distinct = neq.any(axis=1)
            first = neq.argmax(axis=1)
            idx = np.arange(len(a))
            presorted = bool(
                np.all(distinct & (a[idx, first] < b[idx, first]))
            )
        elif assume_sorted_unique:
            presorted = True
        if presorted:
            words = row_view
        else:
            # np.unique sorts by uint64 *columns*; _merge_sorted re-sorts
            # the fresh rows into void byte order afterwards.
            words = np.unique(row_view, axis=0)
        fresh_words = self._add_words(words, void_sorted=presorted)
        return fresh_words.view(np.uint8)[:, : self._row_bytes]

    def _add_words(
        self, words: np.ndarray, void_sorted: bool = False
    ) -> np.ndarray:
        """Merge already-deduplicated packed word rows; returns the fresh ones."""
        fresh = ~self._member_mask(words)
        if not fresh.any():
            return words[:0]
        old_rows = len(self._words)
        self._words = np.concatenate([self._words, words[fresh]], axis=0)
        # A boolean take from void-sorted rows stays void-sorted.
        self._sorted_void = self._merge_sorted(
            words[fresh], presorted=void_sorted
        )
        # Built per-γ band indices absorb the appended rows in place
        # (searchsorted + scatter per band); an index that declines —
        # the merged rows would outnumber its build-time rows, so the
        # frozen triage prototype has gone stale — is dropped and
        # lazily rebuilt on the next query.
        if self._indices:
            self._indices = {
                gamma: index
                for gamma, index in self._indices.items()
                if index.merge(self._words, old_rows)
            }
        return words[fresh]

    def _merge_sorted(
        self, fresh_words: np.ndarray, presorted: bool = False
    ) -> np.ndarray:
        """Merge new (already-deduplicated) rows into the sorted void array.

        An incremental add used to re-sort the full dedup array —
        O(M log M) per call however small the batch.  The stored array is
        already sorted, so merging is one ``searchsorted`` of the K new
        rows plus one linear scatter: O(M + K log K), which is what makes
        high-frequency fleet merges cheap (ROADMAP "Indexed merge/rebuild
        cost").  Note ``np.unique(..., axis=0)`` sorts by uint64 *column*
        order, which differs from void byte order on little-endian hosts,
        so the small batch is re-sorted as void rows first —
        ``presorted`` rows (verified void order, the store cold-start
        path) skip that sort.
        """
        new_sorted = fresh_words.view(self._void).ravel()
        if not presorted:
            new_sorted = np.sort(new_sorted)
        old = self._sorted_void
        if not len(old):
            return new_sorted
        merged, _ = merge_sorted_pair(old, new_sorted)
        return merged

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _index_pays(self, gamma: int) -> bool:
        """Whether the pruned index beats the brute kernel for this γ."""
        return (
            self.indexed
            and gamma + 1 <= self.num_vars  # pigeonhole needs γ+1 bands
            and len(self._words) * self._row_words >= self._INDEX_MIN_WORK
            and self.num_vars // (gamma + 1) >= self._INDEX_MIN_BAND_BITS
        )

    def _index_for(self, gamma: int):
        index = self._indices.get(gamma)
        if index is None:
            from repro.monitor.backends.index import MultiIndexHammingIndex

            index = MultiIndexHammingIndex(self._words, self.num_vars, gamma)
            self._indices[gamma] = index
        return index

    def contains_batch(self, patterns: np.ndarray, gamma: int) -> np.ndarray:
        patterns = self._validate(patterns)
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        n = len(patterns)
        if n == 0 or not len(self._words):
            return np.zeros(n, dtype=bool)
        words = self._pack_words(patterns)
        if gamma == 0:
            return self._member_mask(words)
        if self._index_pays(gamma):
            return self._index_for(gamma).contains(words)
        return self._min_distances_packed(words) <= gamma

    def min_distances(
        self, patterns: np.ndarray, cap: Optional[int] = None
    ) -> np.ndarray:
        """Per-row minimum Hamming distance to the visited set
        (``num_vars + 1`` when nothing was recorded).

        ``cap=None`` (exact distances everywhere) always runs the brute
        kernel: the band index can only bound distances by its γ (beyond
        the shortlist the true minimum is unknowable), so the unbounded
        workload stays on the exhaustive scan.

        ``cap=k`` answers the bounded question "exact distance, or > k":
        rows within distance k get their exact distance, rows farther get
        ``k + 1``, i.e. the result is exactly ``min(true_distance, k+1)``.
        The bounded query *can* use the multi-index shortlist for γ = k —
        the pigeonhole candidate set provably contains every stored
        pattern within k, so the shortlist minimum equals the true
        minimum whenever it is ≤ k — which is what lets the serving
        layer's distance histograms ride the sub-linear index
        (ROADMAP "Index-accelerated distances").
        """
        words = self._pack_words(self._validate(patterns))
        if cap is None:
            return self._min_distances_packed(words)
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        n = len(words)
        if not len(self._words):
            return np.full(n, min(self.num_vars + 1, cap + 1), dtype=np.int64)
        if cap == 0:
            out = np.ones(n, dtype=np.int64)
            out[self._member_mask(words)] = 0
            return out
        if self._index_pays(cap):
            return self._index_for(cap).bounded_min_distances(words)
        return np.minimum(self._min_distances_packed(words), cap + 1)

    def _min_distances_packed(self, words: np.ndarray) -> np.ndarray:
        """The workhorse: XOR every query row against every stored row,
        popcount the word lanes, reduce.  Queries are chunked so the
        ``(chunk, M, W)`` temporary stays under a fixed memory budget."""
        m = len(self._words)
        if m == 0:
            return np.full(len(words), self.num_vars + 1, dtype=np.int64)
        chunk = max(1, _CHUNK_BYTES // (m * self._row_words * 8))
        out = np.empty(len(words), dtype=np.int64)
        if self._row_words == 1:
            # Common monitor widths (<= 64 neurons) fit one word per row:
            # drop the word axis entirely for a pure 2-D kernel.
            zone = self._words[:, 0]
            queries = words[:, 0]
            for start in range(0, len(words), chunk):
                block = queries[start : start + chunk, None]
                distances = _popcount_words(block ^ zone[None, :])
                out[start : start + chunk] = distances.min(axis=1)
            return out
        zone = self._words[None, :, :]
        for start in range(0, len(words), chunk):
            block = words[start : start + chunk, None, :]
            distances = _popcount_words(block ^ zone).sum(axis=2, dtype=np.int64)
            out[start : start + chunk] = distances.min(axis=1)
        return out

    def is_empty(self) -> bool:
        return not len(self._words)

    def num_visited(self) -> int:
        return len(self._words)

    def visited_patterns(self) -> np.ndarray:
        if not len(self._words):
            return np.zeros((0, self.num_vars), dtype=np.uint8)
        bytes_view = self._words.view(np.uint8)[:, : self._row_bytes]
        return np.unpackbits(bytes_view, axis=1)[:, : self.num_vars]

    def size(self, gamma: int) -> int:  # lint: disable=hot-path-purity -- bounded diagnostic enumeration (budget-capped BFS), never on the serving path
        """Exact ``|Z^γ|`` by breadth-first Hamming expansion.

        Exact counting of a union of Hamming balls needs enumeration; the
        expansion is bounded by ``_SIZE_BUDGET`` grown patterns, beyond
        which a ``ValueError`` explains the situation (the BDD backend
        counts symbolically and has no such limit).
        """
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if self.is_empty():
            return 0
        if gamma == 0:
            return len(self._words)
        budget = self._SIZE_BUDGET
        # Bail out instantly when even the union upper bound (every ball
        # disjoint) exceeds the budget — otherwise the BFS below could
        # grind for minutes before giving the same answer.
        from math import comb

        ball = sum(comb(self.num_vars, k) for k in range(gamma + 1))
        if len(self._words) * ball > budget:
            raise ValueError(
                f"zone enumeration upper bound {len(self._words) * ball} "
                f"exceeds {budget} patterns; use the bdd backend for exact "
                "counting of large zones"
            )
        # Work on integers: bit j of the value is neuron j's pattern bit.
        current = set()
        for row in self.visited_patterns():
            value = 0
            for j in np.flatnonzero(row):
                value |= 1 << int(j)
            current.add(value)
        frontier = set(current)
        for _ in range(gamma):
            next_frontier = set()
            for value in frontier:
                for j in range(self.num_vars):
                    flipped = value ^ (1 << j)
                    if flipped not in current:
                        current.add(flipped)
                        next_frontier.add(flipped)
                        if len(current) > budget:
                            raise ValueError(
                                f"zone enumeration exceeds {budget} patterns; "
                                "use the bdd backend for exact counting of "
                                "large zones"
                            )
            if not next_frontier:
                break
            frontier = next_frontier
        return len(current)

    def statistics(self, gamma: int) -> Dict[str, float]:
        visited = len(self._words)
        total = float(2 ** self.num_vars)
        try:
            patterns = float(self.size(gamma))
        except ValueError:
            # Zone too large to enumerate exactly: NaN propagates loudly
            # through downstream aggregation instead of skewing means.
            patterns = float("nan")
        stats = {
            "patterns": patterns,
            "density": patterns / total,
            "visited_patterns": visited,
            "storage_bytes": int(self._words.nbytes),
            "popcount_kernel": "bitwise_count" if _HAS_BITWISE_COUNT else "lut",
            "indexed": self.indexed,
        }
        index = self._indices.get(gamma)
        if index is not None:
            stats.update(index.statistics())
        return stats
