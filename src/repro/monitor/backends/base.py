"""The ``ZoneBackend`` protocol — pluggable comfort-zone engines.

A comfort zone is semantically a set of visited activation patterns plus a
γ-Hamming enlargement (Definition 2 of the paper).  Everything the monitor
stack needs from a zone is captured by this small interface, so the storage
and query strategy can be swapped:

* :class:`~repro.monitor.backends.bdd.BDDZoneBackend` — canonical ROBDD
  representation; per-query cost is linear in the number of monitored
  neurons, independent of how many patterns were recorded.
* :class:`~repro.monitor.backends.bitset.BitsetZoneBackend` — deduplicated
  packed bit rows; batched queries are answered with vectorized XOR +
  popcount over the whole query matrix at once.

Both backends must produce bit-identical verdicts for the same visited set
and γ (enforced by ``tests/test_backend_equivalence.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from repro.monitor.zone import ComfortZone


class ZoneBackend(ABC):
    """Abstract store of one class's visited patterns, queried under γ.

    Backends are γ-agnostic at rest: γ is a *query* parameter, so a single
    store serves calibration sweeps over many γ values without rebuilding
    state (backends may cache per-γ derived structures internally).
    """

    #: Registry key, e.g. ``"bdd"`` or ``"bitset"``.
    name: str = ""

    def __init__(self, num_vars: int):
        if num_vars <= 0:
            raise ValueError(f"num_vars must be positive, got {num_vars}")
        self.num_vars = num_vars

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @abstractmethod
    def add_patterns(self, patterns: np.ndarray) -> None:
        """Record visited patterns from a ``(N, num_vars)`` 0/1 array."""

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abstractmethod
    def contains_batch(self, patterns: np.ndarray, gamma: int) -> np.ndarray:
        """Bool per row: is the pattern within Hamming distance γ of the
        visited set?  ``patterns`` is ``(N, num_vars)``."""

    def contains(self, pattern: Union[Sequence[int], np.ndarray], gamma: int) -> bool:
        """Single-pattern convenience wrapper around :meth:`contains_batch`."""
        row = np.asarray(pattern, dtype=np.uint8).reshape(1, -1)
        return bool(self.contains_batch(row, gamma)[0])

    @abstractmethod
    def min_distances(
        self, patterns: np.ndarray, cap: Optional[int] = None
    ) -> np.ndarray:
        """Per-row minimum Hamming distance from ``(N, num_vars)`` queries
        to the visited set ``Z^0``.

        The sentinel for an empty store is ``num_vars + 1`` (beyond any
        achievable distance), so ``min_distances(Q) <= gamma`` is
        equivalent to ``contains_batch(Q, gamma)`` for γ ≤ ``num_vars``;
        past that, an empty store's sentinel would pass the bare test
        (:meth:`NeuronActivationMonitor.supported` clamps γ to the
        width).  Exact distances feed the serving layer's distance
        histograms — a sharper shift signal than the binary verdict
        stream (paper §V).

        ``cap=k`` asks the bounded question "exact distance, or > k": the
        result must equal ``min(true_distance, k+1)`` elementwise.
        Backends may answer the bounded form much more cheaply (the
        indexed bitset engine serves it from the γ = k pigeonhole
        shortlist instead of scanning all M rows; the BDD engine stops
        its γ-sweep at k), and ``min_distances(Q, cap=k) <= gamma`` stays
        equivalent to ``contains_batch(Q, gamma)`` for every
        γ ≤ min(k, ``num_vars``)."""

    # ------------------------------------------------------------------
    # grouped queries (one call per monitor query)
    # ------------------------------------------------------------------
    @classmethod
    def contains_grouped(
        cls,
        zones: Mapping[int, "ComfortZone"],
        patterns: np.ndarray,
        classes: np.ndarray,
    ) -> np.ndarray:
        """Membership of every row in its own class's zone.

        ``zones`` maps class -> :class:`~repro.monitor.zone.ComfortZone`
        (each queried at its own γ), ``patterns`` is the ``(N, num_vars)``
        projected batch and ``classes`` the per-row class vector.  Rows of
        a class without a zone are ``True`` (the monitor has no opinion).
        This default asks each zone once for its rows; a backend whose
        zones share an engine may answer the whole batch in one pass.
        """
        classes = np.asarray(classes)
        supported = np.ones(len(patterns), dtype=bool)
        for c, zone in zones.items():
            mask = classes == c
            if mask.any():
                supported[mask] = zone.contains_batch(patterns[mask])
        return supported

    @classmethod
    def min_distances_grouped(
        cls,
        zones: Mapping[int, "ComfortZone"],
        patterns: np.ndarray,
        classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """Per-row :meth:`min_distances` to the row's own class's ``Z^0``.

        Arguments as in :meth:`contains_grouped`; rows of a class without
        a zone get distance 0.
        """
        classes = np.asarray(classes)
        distances = np.zeros(len(patterns), dtype=np.int64)
        for c, zone in zones.items():
            mask = classes == c
            if mask.any():
                distances[mask] = zone.min_distances(patterns[mask], cap=cap)
        return distances

    @abstractmethod
    def is_empty(self) -> bool:
        """True when no pattern was ever recorded."""

    @abstractmethod
    def num_visited(self) -> int:
        """Number of *distinct* patterns recorded (``|Z^0|``).

        Backends deduplicate on insert, so this is the dedup count — the
        one true cardinality behind ``ComfortZone.num_visited_patterns``
        and the serialisation round-trip."""

    @abstractmethod
    def visited_patterns(self) -> np.ndarray:
        """The deduplicated visited set ``Z^0`` as a ``(M, num_vars)``
        uint8 array — the portable serialisation format shared by all
        backends (save/load round-trips re-add these rows)."""

    @abstractmethod
    def size(self, gamma: int) -> int:
        """Exact number of patterns in ``Z^γ``."""

    @abstractmethod
    def statistics(self, gamma: int) -> Dict[str, float]:
        """Zone statistics; must include ``patterns``, ``density`` and
        ``visited_patterns`` keys (backends may add engine-specific ones,
        e.g. BDD node counts or bitset storage bytes)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _validate(self, patterns: np.ndarray) -> np.ndarray:
        patterns = np.atleast_2d(np.asarray(patterns, dtype=np.uint8))
        if patterns.shape[1] != self.num_vars:
            raise ValueError(
                f"patterns have width {patterns.shape[1]}, expected {self.num_vars}"
            )
        return patterns

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_vars={self.num_vars})"
