"""Multi-index Hamming pruning for the bitset zone backend.

The brute bitset kernel answers ``contains(q, γ)`` by scanning all M
stored patterns — O(M·W) words per query.  This module makes the verdict
sub-linear in M for the common case (clustered visited sets, small γ)
with two exact pruning stages in front of the XOR/popcount kernel:

**Stage 1 — γ+1 band lookups (pigeonhole).**  The ``num_vars`` bit
positions are partitioned into γ+1 contiguous bands.  If a stored pattern
``p`` is within Hamming distance γ of a query ``q``, the ≤ γ differing
bits touch at most γ bands, so ``p`` and ``q`` agree *exactly* on at
least one band.  Stored patterns are sorted per band by band value, so
every query's candidate bucket per band is one ``searchsorted`` range;
the candidate set is the union over bands.  Patterns outside the union
are *provably* farther than γ — dropping them cannot change the verdict.

**Stage 2 — class-prototype triangle-inequality triage.**  With
``proto`` the majority-vote pattern of the zone and precomputed
``d(p, proto)`` for every stored ``p``, the triangle inequality gives
``d(q, p) >= |d(q, proto) - d(p, proto)|``: candidates outside the ring
``[d(q, proto) - γ, d(q, proto) + γ]`` are discarded, and queries whose
ring is empty over the *whole* zone are rejected before any band lookup
(one vectorized ``searchsorted`` pair for the entire batch).

Only the surviving shortlist reaches the exact kernel, so verdicts are
bit-identical to the brute scan by construction — the property suite
(``tests/test_index_pruning.py``) drives this against the brute bitset
and BDD engines, including adversarial band-collision families.

Indices are snapshots of the stored-word matrix, built lazily per γ on
first query.  Incremental inserts no longer drop them: :meth:`merge`
absorbs freshly appended rows into each band's pre-sorted order (one
``searchsorted`` + linear scatter per band, mirroring the backend's
sorted-dedup merge) and extends the prototype-distance ring the same
way, so high-frequency fleet merges keep a hot index.  The prototype
itself is *frozen* at build time — any fixed reference pattern keeps the
triangle-inequality triage exact, staleness only costs pruning power —
and once the merged rows outnumber the rows the index was built over,
:meth:`merge` declines and the backend rebuilds (refreshing the
prototype).  See
:class:`~repro.monitor.backends.bitset.BitsetZoneBackend.add_patterns`.
"""
# lint: hot-path

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.monitor.backends.bitset import (
    _popcount_words,
    merge_sorted_pair,
    pad_to_words,
)


def _pack_band(bits: np.ndarray) -> np.ndarray:
    """``(N, k)`` 0/1 band slices -> ``(N,)`` hash/sort-able void values."""
    packed = np.packbits(bits, axis=1)
    return np.ascontiguousarray(packed).view(
        np.dtype((np.void, packed.shape[1]))
    ).ravel()


class MultiIndexHammingIndex:
    """Immutable γ-specific pruning index over packed pattern words.

    Parameters
    ----------
    words:
        The backend's ``(M, W)`` uint64 stored-pattern matrix.  The index
        keeps a reference (not a copy); the owning backend must discard
        the index whenever the matrix changes.
    num_vars:
        Number of pattern bits (trailing word bits are zero padding).
    gamma:
        The query radius the index serves.  Band count is ``gamma + 1``,
        so ``gamma + 1 <= num_vars`` is required for the pigeonhole
        argument to hold (each band must contain at least one bit).
    """

    def __init__(self, words: np.ndarray, num_vars: int, gamma: int):
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if gamma + 1 > num_vars:
            raise ValueError(
                f"cannot split {num_vars} bits into {gamma + 1} non-empty "
                "bands; the pigeonhole guarantee needs gamma + 1 <= num_vars"
            )
        if not len(words):
            raise ValueError("cannot index an empty zone")
        self.gamma = gamma
        self.num_vars = num_vars
        self.num_bands = gamma + 1
        self._words = words
        m, row_words = words.shape

        bits = np.unpackbits(words.view(np.uint8), axis=1)[:, :num_vars]
        # linspace with num_bands <= num_vars steps by >= 1 bit, so the
        # integer boundaries are strictly increasing: every band non-empty.
        self._bounds = np.linspace(0, num_vars, self.num_bands + 1).astype(np.int64)
        self._band_sorted: List[np.ndarray] = []
        self._band_order: List[np.ndarray] = []
        for b in range(self.num_bands):
            values = _pack_band(bits[:, self._bounds[b] : self._bounds[b + 1]])
            order = np.argsort(values, kind="stable")
            self._band_order.append(order)
            self._band_sorted.append(values[order])

        # Prototype triage: majority-vote pattern + per-row distances.
        proto_bits = (bits.mean(axis=0) >= 0.5).astype(np.uint8)
        self._proto = pad_to_words(np.packbits(proto_bits[None, :], axis=1), row_words)
        self._proto_dists = _popcount_words(words ^ self._proto).sum(
            axis=1, dtype=np.int64
        )
        self._proto_sorted = np.sort(self._proto_dists)

        # Cumulative query counters (feed backend statistics / benches).
        self.queries = 0
        self.ring_rejected = 0
        self.candidates_scanned = 0
        # Incremental-merge bookkeeping: rows present at build time bound
        # how much prototype staleness merge() tolerates.
        self._built_rows = m
        self.merged_batches = 0
        self.merged_rows = 0

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def merge(self, words: np.ndarray, start: int) -> bool:
        """Absorb rows ``words[start:]`` appended to the stored matrix.

        ``words`` is the backend's *new* ``(M, W)`` matrix whose first
        ``start`` rows are exactly the rows this index was built over
        (appends never reorder existing rows).  Each band's sorted order
        gains the new rows via one ``searchsorted`` + linear scatter, and
        the new rows' distances to the frozen prototype extend the ring
        arrays the same way — all exact, so verdicts stay bit-identical
        to a fresh build over the full matrix.

        Returns ``False`` (leaving the index untouched, for the caller
        to drop) when the cumulative merged rows would exceed the rows
        present at build time: past that point the frozen prototype is
        majority-voted by a minority and a rebuild recovers pruning
        power.
        """
        added = len(words) - start
        if added < 0:
            raise ValueError("merge expects the stored matrix to only grow")
        if added == 0:
            self._words = words
            return True
        if self.merged_rows + added > self._built_rows:
            return False
        bits = np.unpackbits(words[start:].view(np.uint8), axis=1)[:, : self.num_vars]
        new_ids = np.arange(start, len(words), dtype=np.int64)
        for b in range(self.num_bands):
            values = _pack_band(bits[:, self._bounds[b] : self._bounds[b + 1]])
            order = np.argsort(values, kind="stable")
            self._band_sorted[b], self._band_order[b] = merge_sorted_pair(
                self._band_sorted[b], values[order],
                self._band_order[b], new_ids[order],
            )
        new_dists = _popcount_words(words[start:] ^ self._proto).sum(
            axis=1, dtype=np.int64
        )
        self._proto_dists = np.concatenate([self._proto_dists, new_dists])
        self._proto_sorted, _ = merge_sorted_pair(
            self._proto_sorted, np.sort(new_dists)
        )
        self._words = words
        self.merged_batches += 1
        self.merged_rows += added
        return True

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def contains(self, qwords: np.ndarray) -> np.ndarray:
        """γ-membership verdict per packed query row — bit-identical to
        ``min_distances(q) <= gamma`` on the brute kernel."""
        return self.bounded_min_distances(qwords) <= self.gamma

    def bounded_min_distances(self, qwords: np.ndarray) -> np.ndarray:
        """``min(true_distance, γ+1)`` per packed query row.

        Sound by the same pigeonhole argument as :meth:`contains`: the
        band shortlist contains *every* stored pattern within distance γ
        of the query, so whenever the shortlist minimum is ≤ γ it equals
        the true minimum; when the shortlist is empty or its minimum
        exceeds γ, the true distance provably exceeds γ and the ``γ+1``
        sentinel is exact-bounded.  This is the engine behind the
        bitset backend's ``min_distances(patterns, cap=γ)``.
        """
        n = len(qwords)
        self.queries += n
        gamma = self.gamma
        out = np.full(n, gamma + 1, dtype=np.int64)
        if n == 0:
            return out
        words = self._words

        # Vectorized ring pre-filter: a query whose distance ring
        # [d(q,proto)-γ, d(q,proto)+γ] holds no stored pattern at all is
        # farther than γ from everything (triangle inequality).
        qd = _popcount_words(qwords ^ self._proto).sum(axis=1, dtype=np.int64)
        lo = np.searchsorted(self._proto_sorted, qd - gamma, side="left")
        hi = np.searchsorted(self._proto_sorted, qd + gamma, side="right")
        alive = np.flatnonzero(hi > lo)
        self.ring_rejected += n - len(alive)
        if not len(alive):
            return out

        # Band buckets for the surviving queries: one searchsorted pair
        # per band over the pre-sorted stored band values.
        qbits = np.unpackbits(qwords[alive].view(np.uint8), axis=1)[:, : self.num_vars]
        ranges = []
        for b in range(self.num_bands):
            qvals = _pack_band(qbits[:, self._bounds[b] : self._bounds[b + 1]])
            left = np.searchsorted(self._band_sorted[b], qvals, side="left")
            right = np.searchsorted(self._band_sorted[b], qvals, side="right")
            ranges.append((left, right))

        proto_dists = self._proto_dists
        single_word = words.shape[1] == 1
        zone_flat = words[:, 0] if single_word else None
        # lint: disable=hot-path-purity -- per-surviving-query bucket gather; inner work is searchsorted slices, loop bounded by ring survivors
        for k, i in enumerate(alive):
            buckets = [
                self._band_order[b][ranges[b][0][k] : ranges[b][1][k]]
                for b in range(self.num_bands)
                if ranges[b][1][k] > ranges[b][0][k]
            ]
            if not buckets:
                continue
            # Per-band buckets are disjoint-sorted but can overlap across
            # bands (a pattern agreeing on several bands); dedup so the
            # kernel scans each candidate once.
            cands = (
                buckets[0]
                if len(buckets) == 1
                else np.unique(np.concatenate(buckets))
            )
            # Stage-2 triage on the shortlist itself.
            cands = cands[np.abs(proto_dists[cands] - qd[i]) <= gamma]
            m = len(cands)
            if not m:
                continue
            self.candidates_scanned += m
            if single_word:
                dist = _popcount_words(qwords[i, 0] ^ zone_flat[cands]).min()
            else:
                dist = (
                    _popcount_words(qwords[i] ^ words[cands])
                    .sum(axis=1, dtype=np.int64)
                    .min()
                )
            if dist <= gamma:
                out[i] = dist
        return out

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, float]:
        """Index shape + cumulative pruning effectiveness counters."""
        m = len(self._words)
        band_bits = np.diff(self._bounds)
        scanned_fraction = (
            self.candidates_scanned / (self.queries * m) if self.queries else 0.0
        )
        return {
            "index_bands": self.num_bands,
            "index_min_band_bits": int(band_bits.min()),
            "index_queries": self.queries,
            "index_ring_rejected": self.ring_rejected,
            "index_scanned_fraction": scanned_fraction,
            "index_merged_batches": self.merged_batches,
            "index_merged_rows": self.merged_rows,
        }

    def __repr__(self) -> str:
        return (
            f"MultiIndexHammingIndex(patterns={len(self._words)}, "
            f"gamma={self.gamma}, bands={self.num_bands})"
        )
