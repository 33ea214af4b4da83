"""ROBDD zone backend — the paper's original engine, upgraded.

Visited patterns are held as a canonical BDD (one shared
:class:`~repro.bdd.manager.BDDManager` across the zones of one monitor).
Upgrades over the seed implementation:

* complement edges in the manager: negation is an O(1) edge flip and
  ``Z`` / its complement share storage;
* bulk construction: ``add_patterns`` funnels whole pattern matrices
  through ``BDDManager.from_patterns`` (sorted prefix splitting) instead
  of N sequential cube inserts;
* γ as a query parameter with a per-γ cache of enlarged zones, built
  incrementally from the largest cached γ below the request;
* batched membership via the vectorized ``BDDManager.contains_batch``,
  and grouped monitor queries (:meth:`BDDZoneBackend.contains_grouped`)
  that answer a batch spanning many classes in one walk, each row seeded
  at its own class's zone root;
* unique-table garbage collection: the backend *pins* its visited set
  and every cached zone as GC roots (``incref``/``decref``) and
  registers a remap listener, so automatic collections (armed via
  ``gc_threshold`` / ``REPRO_BDD_GC_THRESHOLD``) and sifting reorders
  (``auto_reorder`` / ``REPRO_BDD_AUTO_REORDER``) can compact the node
  table mid-lifetime without invalidating the backend's refs;
* engine statistics (GC, reorder, cache hit rates) surfaced through
  :meth:`statistics`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bdd import BDDManager
from repro.bdd.analysis import enumerate_models, sat_count, zone_statistics
from repro.bdd.manager import _env_flag, _env_int
from repro.monitor.backends.base import ZoneBackend

if TYPE_CHECKING:
    from repro.monitor.zone import ComfortZone

#: Default auto-GC trigger for backend-owned managers (physical nodes).
#: Bare ``BDDManager()`` instances default to *disabled* because raw refs
#: held by arbitrary callers are not GC roots; the backend pins every ref
#: it keeps, so auto-GC is safe here.  ``REPRO_BDD_GC_THRESHOLD``
#: overrides (0 disables), and tiny values are how the forced-GC
#: equivalence suites shake the engine.
DEFAULT_GC_THRESHOLD = 100_000


def make_zone_manager(num_vars: int,
                      gc_threshold: Optional[int] = None,
                      auto_reorder: Optional[bool] = None) -> BDDManager:
    """A :class:`BDDManager` configured for zone duty (env-overridable)."""
    if gc_threshold is None:
        gc_threshold = _env_int("REPRO_BDD_GC_THRESHOLD", DEFAULT_GC_THRESHOLD)
    if auto_reorder is None:
        auto_reorder = _env_flag("REPRO_BDD_AUTO_REORDER", False)
    return BDDManager(
        num_vars, gc_threshold=gc_threshold, auto_reorder=auto_reorder
    )


class BDDZoneBackend(ZoneBackend):
    """Canonical BDD pattern store with γ-indexed enlargement cache.

    Parameters
    ----------
    num_vars:
        Pattern width.
    manager:
        Optionally share one :class:`BDDManager` across zones.  A fresh
        manager (the default) is created through
        :func:`make_zone_manager`, i.e. with auto-GC armed.
    gc_threshold / auto_reorder:
        Forwarded to :func:`make_zone_manager` when no shared manager is
        given (``None`` = environment default).
    order:
        Optional initial variable order (level -> pattern column),
        installed before any node exists — the static-heuristic seed for
        sifting.  Only valid on an empty manager.
    """

    name = "bdd"

    def __init__(
        self,
        num_vars: int,
        manager: Optional[BDDManager] = None,
        gc_threshold: Optional[int] = None,
        auto_reorder: Optional[bool] = None,
        order: Optional[Sequence[int]] = None,
    ):
        super().__init__(num_vars)
        if manager is not None and manager.num_vars != num_vars:
            raise ValueError(
                f"shared manager has {manager.num_vars} variables, need {num_vars}"
            )
        if manager is None:
            manager = make_zone_manager(
                num_vars, gc_threshold=gc_threshold, auto_reorder=auto_reorder
            )
        self.manager = manager
        if order is not None:
            self.manager.set_order(order)
        self._visited = self.manager.incref(self.manager.empty_set())
        # gamma -> ref of Z^gamma; gamma 0 is always the visited set itself.
        # Every cached ref is pinned so GC/reorder can never reclaim or
        # silently move a zone out from under the backend.
        self._zone_cache: Dict[int, int] = {}
        # Lazily enumerated Z^0 matrix (min_distances far-row fallback);
        # enumeration is a pure-Python diagram walk, so it is cached until
        # the visited set changes.  Rows are in variable order, so the
        # cache is stable across reorders.
        self._visited_matrix: Optional[np.ndarray] = None
        self.manager.register_remap_listener(self._on_remap)

    # ------------------------------------------------------------------
    # GC plumbing
    # ------------------------------------------------------------------
    def _on_remap(self, remap) -> None:
        """Table compacted (GC or reorder): rewrite every held ref.

        The manager remaps its own pin table; this listener keeps the
        backend's copies in sync, which is what lets the zone cache
        survive collections and mid-lifetime reorders.
        """
        self._visited = remap(self._visited)
        self._zone_cache = {g: remap(r) for g, r in self._zone_cache.items()}

    def _set_visited(self, ref: int) -> None:
        self.manager.incref(ref)
        self.manager.decref(self._visited)
        self._visited = ref

    def _drop_zone_cache(self) -> None:
        for ref in self._zone_cache.values():
            self.manager.decref(ref)
        self._zone_cache.clear()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_patterns(self, patterns: np.ndarray) -> None:
        patterns = self._validate(patterns)
        if len(patterns) == 0:
            return
        # Both calls below are GC safe points: an automatic collection
        # (or sift) inside them remaps `self._visited` through the
        # listener and returns the (possibly remapped) result ref.
        block = self.manager.from_patterns(patterns)
        merged = self.manager.apply_or(self._visited, block)
        self._set_visited(merged)
        self._drop_zone_cache()
        self._visited_matrix = None

    def reorder(self, method: str = "sift", **kwargs) -> Dict[str, int]:
        """Sift the shared manager; all pinned zone refs survive in place."""
        return self.manager.reorder(method=method, **kwargs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def zone_ref(self, gamma: int) -> int:
        """BDD ref of ``Z^γ``, enlarging incrementally from cached zones."""
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if gamma == 0:
            return self._visited
        cached = self._zone_cache.get(gamma)
        if cached is not None:
            return cached
        # Start from the largest cached gamma below the request: the γ
        # sweep of the calibrator then costs one expansion step per γ.
        base_gamma = max(
            (g for g in self._zone_cache if g < gamma), default=0
        )
        for g in range(base_gamma, gamma):
            base = self._zone_cache.get(g, self._visited) if g else self._visited
            expanded = self.manager.hamming_expand(base)
            # A GC inside the expansion may have remapped our pinned
            # refs; re-read the base for the saturation test.
            base_now = self._zone_cache.get(g, self._visited) if g else self._visited
            self.manager.incref(expanded)
            self._zone_cache[g + 1] = expanded
            if expanded == base_now:
                # Saturated: every larger gamma is the same zone.
                for extra in range(g + 2, gamma + 1):
                    self.manager.incref(expanded)
                    self._zone_cache[extra] = expanded
                break
        return self._zone_cache[gamma]

    @property
    def visited_ref(self) -> int:
        """BDD ref of ``Z^0`` (the raw visited set)."""
        return self._visited

    def contains_batch(self, patterns: np.ndarray, gamma: int) -> np.ndarray:
        patterns = self._validate(patterns)
        return self.manager.contains_batch(self.zone_ref(gamma), patterns)

    #: Largest γ recovered through zone expansion before min_distances
    #: falls back to the explicit visited set.  γ-ball materialisation is
    #: the BDD's one expensive operation (node counts peak near the
    #: half-full cube), while serving traffic is concentrated at small
    #: distances — so the cache answers the common case and far-away rows
    #: are finished exactly with one vectorised sweep over ``Z^0``.
    max_expand_gamma = 4

    def min_distances(
        self, patterns: np.ndarray, cap: Optional[int] = None
    ) -> np.ndarray:
        """Per-row minimum Hamming distance to the visited set.

        The diagram answers membership, not distance, so distances are
        recovered through the per-γ zone cache: every query starts at
        ``Z^0`` and the radius grows until the pattern is contained — the
        distance of a row is the first γ whose zone accepts it.  The γ
        sweep stops as soon as every row is resolved; each expansion step
        is cached, so a stream of queries against a warm cache costs one
        walk per distinct distance value observed.  Rows further than
        :attr:`max_expand_gamma` (beyond any γ a calibrated monitor
        serves) are resolved exactly against the enumerated visited set
        instead of materialising enormous γ-balls.  Empty store:
        ``num_vars + 1`` for every row.

        ``cap=k`` (the bounded form, "exact distance, or > k") truncates
        the γ-sweep at k and stamps unresolved rows ``k + 1`` — for
        k within the expansion budget no explicit enumeration of ``Z^0``
        is ever needed, the natural bounded query for a diagram.
        """
        patterns = self._validate(patterns)
        return self._distance_sweep(
            self.manager, [(self, np.arange(len(patterns)))], patterns, cap
        )

    def _explicit_distances(
        self, patterns: np.ndarray, cap: Optional[int]
    ) -> np.ndarray:
        """Exact tail: one vectorised Hamming sweep against ``Z^0`` (the
        explicit pattern matrix every backend can emit)."""
        if self._visited_matrix is None:
            self._visited_matrix = self.visited_patterns()
        visited = self._visited_matrix
        tail = (patterns[:, None, :] != visited[None, :, :]).sum(axis=2).min(axis=1)
        return tail if cap is None else np.minimum(tail, cap + 1)

    @staticmethod
    def _distance_sweep(
        manager: BDDManager,
        groups: Sequence[Tuple["BDDZoneBackend", np.ndarray]],
        patterns: np.ndarray,
        cap: Optional[int],
    ) -> np.ndarray:
        """:meth:`min_distances` for the rows of several zones at once.

        ``groups`` pairs each zone backend (all on ``manager``) with the
        indices of its rows in ``patterns``; rows in no group get 0.  Each
        γ of the sweep is one walk over every still-unresolved row, rooted
        at its own zone's ``Z^γ``; only zones that still have unresolved
        rows are expanded, and each zone keeps its own stopping radius
        and explicit tail.
        """
        if cap is not None and cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        out = np.zeros(len(patterns), dtype=np.int64)
        # [backend, last γ of its sweep, its unresolved row indices]
        pending: List[list] = []
        for backend, rows in groups:
            sentinel = backend.num_vars + 1
            if cap is not None:
                sentinel = min(sentinel, cap + 1)
            out[rows] = sentinel
            if len(rows) == 0 or backend.is_empty():
                continue
            cached_max = max(backend._zone_cache, default=0)
            stop = min(max(backend.max_expand_gamma, cached_max), backend.num_vars)
            if cap is not None:
                stop = min(stop, cap)
            pending.append([backend, stop, rows])
        gamma = 0
        while True:
            live = [group for group in pending if group[1] >= gamma and len(group[2])]
            if not live:
                break
            # Expand first: every zone_ref call is a GC safe point that
            # may renumber a root read before it.  The second pass only
            # reads cached roots, and nothing runs between it and the walk.
            for backend, _, _ in live:
                backend.zone_ref(gamma)
            roots = np.concatenate([
                np.full(len(rows), backend.zone_ref(gamma), dtype=np.int64)
                for backend, _, rows in live
            ])
            index = np.concatenate([rows for _, _, rows in live])
            hit = manager.contains_batch(roots, patterns[index])
            out[index[hit]] = gamma
            start = 0
            for group in live:
                rows = group[2]
                group[2] = rows[~hit[start : start + len(rows)]]
                start += len(rows)
            gamma += 1
        for backend, stop, rows in pending:
            if not len(rows) or (cap is not None and stop == cap):
                # Resolved, or the bounded sweep is exhausted: the rows
                # left are provably > cap and hold the cap + 1 sentinel.
                continue
            out[rows] = backend._explicit_distances(patterns[rows], cap)
        return out

    # ------------------------------------------------------------------
    # grouped queries: one walk for a batch spanning many classes
    # ------------------------------------------------------------------
    @classmethod
    def contains_grouped(
        cls,
        zones: Mapping[int, "ComfortZone"],
        patterns: np.ndarray,
        classes: np.ndarray,
    ) -> np.ndarray:
        """One walk for the whole batch, each row rooted at its class's
        ``Z^γ`` (``TRUE`` for a class without a zone)."""
        # A BDD monitor builds every zone on its one manager.
        manager = next(iter(zones.values())).backend.manager
        labels = np.asarray(classes).tolist()
        members = {c: zones.get(c) for c in set(labels)}
        # Expand first: each zone_ref call is a GC safe point that may
        # renumber a root read before it.  The second pass only reads
        # cached roots, and nothing runs between it and the walk.
        for zone in members.values():
            if zone is not None:
                zone.backend.zone_ref(zone.gamma)
        root_of = {
            c: manager.TRUE if zone is None else zone.backend.zone_ref(zone.gamma)
            for c, zone in members.items()
        }
        roots = np.array([root_of[c] for c in labels], dtype=np.int64)
        return manager.contains_batch(roots, patterns)

    @classmethod
    def min_distances_grouped(
        cls,
        zones: Mapping[int, "ComfortZone"],
        patterns: np.ndarray,
        classes: np.ndarray,
        cap: Optional[int] = None,
    ) -> np.ndarray:
        """The γ-sweep of :meth:`min_distances` run once over the rows of
        every class: one walk per γ with one root per row."""
        manager = next(iter(zones.values())).backend.manager
        present, inverse = np.unique(np.asarray(classes), return_inverse=True)
        inverse = inverse.reshape(-1)
        groups = [
            (zones[int(c)].backend, np.flatnonzero(inverse == k))
            for k, c in enumerate(present)
            if int(c) in zones
        ]
        return cls._distance_sweep(manager, groups, patterns, cap)

    def is_empty(self) -> bool:
        return self._visited == self.manager.empty_set()

    def num_visited(self) -> int:
        return sat_count(self.manager, self._visited)

    def visited_patterns(self) -> np.ndarray:
        rows = list(enumerate_models(self.manager, self._visited))
        if not rows:
            return np.zeros((0, self.num_vars), dtype=np.uint8)
        return np.asarray(rows, dtype=np.uint8)

    def size(self, gamma: int) -> int:
        return sat_count(self.manager, self.zone_ref(gamma))

    def statistics(self, gamma: int) -> Dict[str, float]:
        stats = zone_statistics(self.manager, self.zone_ref(gamma))
        stats["visited_patterns"] = sat_count(self.manager, self._visited)
        stats["cache"] = self.manager.cache_stats()
        return stats
