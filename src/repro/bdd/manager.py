"""Hash-consed ROBDD manager with complement edges, GC and reordering.

The manager owns every node.  A *node* is a physical entry in three
parallel lists (``_var``, ``_low``, ``_high``); a *ref* is what clients
hold: ``ref = node_index * 2 + 1`` for the regular sense of a node and
``ref = node_index * 2`` for its complement (negation is the O(1) bit
flip ``ref ^ 1``).  There is one terminal node (index 0, the constant
``true``); ``TRUE == 1`` is its regular ref and ``FALSE == 0`` its
complement, so the two constants keep their historical values.

Canonical form (Brace–Rudell–Bryant): the stored *high* edge of every
node is regular.  ``_mk`` hoists a complemented high edge onto the
result ref, which — together with the usual ``low == high`` collapse and
hash-consing — keeps functions canonical: two functions are equal iff
their refs are equal, and ``f`` / ``NOT f`` share every node.

Variables are addressed by *index* ``0 .. num_vars-1``; the *level* a
variable occupies in the diagram is a permutation maintained by the
manager (``set_order`` seeds it on an empty table, ``reorder`` sifts a
live one).  The public API works on refs or on :class:`BDDFunction`
wrappers, which add operator overloading and — unlike raw refs — are
tracked as GC roots and remapped in place when the node table compacts.

Garbage collection is mark-and-sweep over the pinned roots
(:meth:`incref`/:meth:`decref`), the live :class:`BDDFunction` handles
and any explicit extra roots: dead nodes are dropped, the node arrays
compact, and the unique table and operation caches are rewritten to the
new indices.  An automatic collection triggers inside ``_mk`` once the
table passes ``gc_threshold`` — it runs only at the *end* of a public
operation (with the operation's result as an extra root), so raw refs
held across operation boundaries must be pinned or wrapped.
"""

from __future__ import annotations

import os
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _env_flag(name: str, default: bool) -> bool:
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    return value in ("1", "true", "yes", "on")


#: Batches smaller than this take the scalar :meth:`BDDManager.contains`
#: walk per row in :meth:`BDDManager.contains_batch`; larger ones the
#: vectorized walk, whose fixed cost is a few numpy gathers per variable
#: level.  Measured by ``benchmarks/test_bench_grouped_check.py``.
SCALAR_WALK_ROWS = 24

#: Public operations that end in a ``_checkpoint`` — the only places an
#: automatic GC or reordering pass can run.  Raw refs are stable *within*
#: one of these operations (the result is an extra root) but may be
#: renumbered across any call to one of them: a raw ref held in a local
#: across a safe point must be pinned (:meth:`BDDManager.incref`) or
#: re-read afterwards.  The ``bdd-ref-safety`` lint rule enforces exactly
#: this set; keep it in sync when adding checkpointed operations (the
#: lint fixture tests assert the rule's fallback copy matches).
GC_SAFE_POINTS = frozenset(
    {
        "ite",
        "apply_and",
        "apply_or",
        "apply_xor",
        "apply_implies",
        "apply_iff",
        "exists",
        "exists_many",
        "forall",
        "restrict",
        "from_pattern",
        "from_patterns",
        "hamming_expand",
        "hamming_ball",
        "reorder",
        "collect_garbage",
    }
)


class BDDManager:
    """Owns and deduplicates complement-edge ROBDD nodes.

    Parameters
    ----------
    num_vars:
        Number of boolean variables.  The paper's practical guidance is
        that a few hundred variables is the comfortable limit for
        monitors; the manager itself enforces no hard cap.
    var_names:
        Optional human-readable names, used by the DOT exporter.
    gc_threshold:
        Physical node count past which ``_mk`` requests an automatic
        mark-and-sweep collection (run at the end of the current public
        operation).  ``0`` / ``None`` disables auto-GC — the safe
        default for bare managers whose clients hold raw refs; the zone
        backend enables it because it pins every ref it keeps.
    auto_reorder:
        Run a sifting pass automatically whenever the live table doubles
        past ``auto_reorder_threshold`` (same safe-point rules as
        auto-GC).
    """

    FALSE = 0
    TRUE = 1

    def __init__(
        self,
        num_vars: int,
        var_names: Optional[Sequence[str]] = None,
        gc_threshold: Optional[int] = None,
        auto_reorder: bool = False,
    ):
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        if var_names is not None and len(var_names) != num_vars:
            raise ValueError(
                f"var_names has {len(var_names)} entries for {num_vars} variables"
            )
        self.num_vars = num_vars
        self.var_names = list(var_names) if var_names is not None else [
            f"x{i}" for i in range(num_vars)
        ]
        # Physical node 0 is the single terminal (constant true).  Its
        # var is the `num_vars` sentinel — one past every real variable —
        # and its children are self-loops that are never traversed.
        self._var: List[int] = [num_vars]
        self._low: List[int] = [1]
        self._high: List[int] = [1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # level <-> variable permutation (identity until reordered); the
        # trailing sentinel entry keeps terminal level arithmetic branchless.
        self._level_to_var: List[int] = list(range(num_vars)) + [num_vars]
        self._var_to_level: List[int] = list(range(num_vars)) + [num_vars]
        # Operation caches (semantically order-independent: entries map
        # function identities, which reordering preserves).
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._exists_cache: Dict[Tuple[int, int], int] = {}
        self._expand_cache: Dict[int, int] = {}
        self._ite_calls = 0
        self._ite_cache_hits = 0
        self._exists_calls = 0
        self._exists_cache_hits = 0
        self._expand_calls = 0
        self._expand_cache_hits = 0
        # GC state: external pins (ref -> count), tracked function
        # handles, compaction listeners, counters.
        self.gc_threshold = int(gc_threshold) if gc_threshold else 0
        self._gc_pending = False
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._pins: Dict[int, int] = {}
        self._functions: "weakref.WeakSet[BDDFunction]" = weakref.WeakSet()
        self._remap_listeners: List[object] = []
        # Reordering state.
        self.auto_reorder = bool(auto_reorder)
        self.auto_reorder_threshold = 2048
        self._in_reorder = False
        self._reorder_count = 0
        self._reorder_swaps = 0
        # Per-ref walk tables for the vectorized batch walk;
        # invalidated (by version bump) on any structural change.
        self._np_version = 0
        self._np_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        # Root-set generation (pins/handles) + memoised live-node count so
        # cache_stats() stays O(1) on repeated calls (per-class statistics
        # sweeps share one manager and would otherwise re-mark the whole
        # table per class per gamma).
        self._roots_version = 0
        self._live_count_cache: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    # node primitives
    # ------------------------------------------------------------------
    def node_index(self, ref: int) -> int:
        """Physical node index behind ``ref`` (0 for both terminals)."""
        return ref >> 1

    def is_complemented(self, ref: int) -> bool:
        """True when ``ref`` is the complemented sense of its node."""
        return not (ref & 1)

    def var_of(self, ref: int) -> int:
        """Variable index tested by ``ref`` (``num_vars`` for terminals)."""
        return self._var[ref >> 1]

    def level_of(self, ref: int) -> int:
        """Return the level of ``ref`` (``num_vars`` for terminals)."""
        return self._var_to_level[self._var[ref >> 1]]

    def low_of(self, ref: int) -> int:
        """Negative cofactor of ``ref`` (complement parity applied)."""
        return self._low[ref >> 1] ^ ((ref & 1) ^ 1)

    def high_of(self, ref: int) -> int:
        """Positive cofactor of ``ref`` (complement parity applied)."""
        return self._high[ref >> 1] ^ ((ref & 1) ^ 1)

    def is_terminal(self, ref: int) -> bool:
        """True for the two constant refs."""
        return ref <= 1

    def var_order(self) -> Tuple[int, ...]:
        """Current variable order: ``order[level] == variable index``."""
        return tuple(self._level_to_var[: self.num_vars])

    def set_order(self, order: Sequence[int]) -> None:
        """Seed the variable order of an *empty* manager.

        ``order[level]`` names the variable placed at BDD level
        ``level`` — the hook the static heuristics in
        :mod:`repro.bdd.ordering` use to seed sifting.  Raises once any
        internal node exists (use :meth:`reorder` on a live table).
        """
        order = [int(x) for x in order]
        if sorted(order) != list(range(self.num_vars)):
            raise ValueError("order must be a permutation of the variable indices")
        if len(self._var) > 1:
            raise ValueError(
                "set_order requires an empty manager; use reorder() on a live table"
            )
        self._level_to_var = order + [self.num_vars]
        inverse = [0] * self.num_vars
        for level, v in enumerate(order):
            inverse[v] = level
        self._var_to_level = inverse + [self.num_vars]

    def _mk(self, var: int, low: int, high: int) -> int:
        """Canonical node ``(var, low, high)`` (complement-edge normal form)."""
        if low == high:
            return low
        if not (high & 1):
            # Complemented high edge: store the complemented node (whose
            # high edge is regular) and hoist the complement to the ref.
            return self._mk_raw(var, low ^ 1, high ^ 1) ^ 1
        return self._mk_raw(var, low, high)

    def _mk_raw(self, var: int, low: int, high: int) -> int:
        key = (var, low, high)
        index = self._unique.get(key)
        if index is None:
            index = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = index
            self._np_version += 1
            if (
                self.gc_threshold
                and not self._in_reorder
                and index + 1 >= self.gc_threshold
            ):
                self._gc_pending = True
        return (index << 1) | 1

    def var(self, index: int) -> int:
        """Return the BDD of the single variable ``index``."""
        self._check_var(index)
        return self._mk(index, self.FALSE, self.TRUE)

    def nvar(self, index: int) -> int:
        """Return the BDD of the negated variable ``index``."""
        return self.var(index) ^ 1

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self.num_vars:
            raise IndexError(
                f"variable index {index} out of range for {self.num_vars} variables"
            )

    def __len__(self) -> int:
        """Physical node count (terminal included; may contain garbage
        between collections — ``cache_stats()['live_nodes']`` is exact)."""
        return len(self._var)

    # ------------------------------------------------------------------
    # GC safe points
    # ------------------------------------------------------------------
    def _checkpoint(self, ref: int) -> int:
        """End-of-operation safe point: run a pending auto-GC (and an
        auto-reorder when armed) with ``ref`` as an extra root, and
        return the possibly-remapped ref."""
        if self._gc_pending and not self._in_reorder:
            self._gc_pending = False
            if self.gc_threshold and len(self._var) >= self.gc_threshold:
                remap = self.collect_garbage(extra_roots=(ref,))
                ref = remap(ref)
                # Back off when most of the table is genuinely live, so a
                # steadily growing workload is not re-collected every _mk.
                if len(self._var) * 4 >= self.gc_threshold * 3:
                    self.gc_threshold = max(self.gc_threshold, 2 * len(self._var))
        if (
            self.auto_reorder
            and not self._in_reorder
            and self.num_vars > 1
            and len(self._var) >= self.auto_reorder_threshold
        ):
            _, remap = self._sift(extra_roots=(ref,))
            ref = remap(ref)
            self.auto_reorder_threshold = max(2 * len(self._var), 2048)
        return ref

    # ------------------------------------------------------------------
    # core operator: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """Return the BDD of ``(f AND g) OR (NOT f AND h)``.

        All binary boolean operations reduce to ``ite``; results are
        memoised, so repeated queries are amortised constant time.
        """
        return self._checkpoint(self._ite(f, g, h))

    def _ite(self, f: int, g: int, h: int) -> int:
        # Terminal shortcuts.
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return f ^ 1
        # Arguments sharing the guard collapse to constants.
        if g == f:
            g = 1
        elif g == (f ^ 1):
            g = 0
        if h == f:
            h = 0
        elif h == (f ^ 1):
            h = 1
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return f ^ 1
        # Commutative re-rooting (OR / AND) for cache friendliness.
        if g == 1 and f > h:
            f, h = h, f
        elif h == 0 and f > g:
            f, g = g, f
        # Complement normal form: regular guard, regular then-branch.
        if not (f & 1):
            f ^= 1
            g, h = h, g
        if not (g & 1):
            return self._ite(f, g ^ 1, h ^ 1) ^ 1
        self._ite_calls += 1
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._ite_cache_hits += 1
            return cached
        vtl = self._var_to_level
        var_arr = self._var
        level = min(
            vtl[var_arr[f >> 1]], vtl[var_arr[g >> 1]], vtl[var_arr[h >> 1]]
        )
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        low = self._ite(f0, g0, h0)
        high = self._ite(f1, g1, h1)
        result = self._mk(self._level_to_var[level], low, high)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, ref: int, level: int) -> Tuple[int, int]:
        """Negative/positive cofactors of ``ref`` with respect to ``level``."""
        index = ref >> 1
        if self._var_to_level[self._var[index]] == level:
            flip = (ref & 1) ^ 1
            return self._low[index] ^ flip, self._high[index] ^ flip
        return ref, ref

    # ------------------------------------------------------------------
    # derived boolean connectives
    # ------------------------------------------------------------------
    def apply_not(self, f: int) -> int:
        """Logical negation — an O(1) edge-bit flip under complement edges."""
        return f ^ 1

    def apply_and(self, f: int, g: int) -> int:
        """Logical conjunction."""
        return self._checkpoint(self._ite(f, g, 0))

    def apply_or(self, f: int, g: int) -> int:
        """Logical disjunction (the paper's ``bdd.or``)."""
        return self._checkpoint(self._ite(f, 1, g))

    def apply_xor(self, f: int, g: int) -> int:
        """Logical exclusive or (one ``ite`` — negation is free)."""
        return self._checkpoint(self._ite(f, g ^ 1, g))

    def apply_implies(self, f: int, g: int) -> int:
        """Logical implication ``f -> g``."""
        return self._checkpoint(self._ite(f, g, 1))

    def apply_iff(self, f: int, g: int) -> int:
        """Logical equivalence."""
        return self._checkpoint(self._ite(f, g, g ^ 1))

    # ------------------------------------------------------------------
    # quantification and restriction
    # ------------------------------------------------------------------
    def exists(self, f: int, index: int) -> int:
        """Existentially quantify variable ``index`` (the paper's ``bdd.exists``).

        The result treats variable ``index`` as a don't-care:
        ``exists(x, f) = f[x:=0] OR f[x:=1]``.  Applied to a set of
        bit-vectors this adds every vector reachable by flipping bit
        ``index`` — the building block of the Hamming-distance enlargement
        in Algorithm 1, line 12.
        """
        self._check_var(index)
        return self._checkpoint(self._exists_rec(f, index))

    def _exists_rec(self, f: int, index: int) -> int:
        target = self._var_to_level[index]
        node = f >> 1
        if self._var_to_level[self._var[node]] > target:
            # f does not depend on variables at or above `index`'s level.
            return f
        self._exists_calls += 1
        key = (f, index)
        cached = self._exists_cache.get(key)
        if cached is not None:
            self._exists_cache_hits += 1
            return cached
        flip = (f & 1) ^ 1
        low = self._low[node] ^ flip
        high = self._high[node] ^ flip
        if self._var[node] == index:
            result = self._ite(low, 1, high)
        else:
            result = self._mk(
                self._var[node],
                self._exists_rec(low, index),
                self._exists_rec(high, index),
            )
        self._exists_cache[key] = result
        return result

    def exists_many(self, f: int, indices: Iterable[int]) -> int:
        """Existentially quantify a set of variables, innermost first."""
        result = f
        unique = set(indices)
        for index in unique:
            self._check_var(index)
        vtl = self._var_to_level
        for index in sorted(unique, key=lambda i: -vtl[i]):
            result = self._exists_rec(result, index)
        return self._checkpoint(result)

    def forall(self, f: int, index: int) -> int:
        """Universally quantify variable ``index``."""
        self._check_var(index)
        return self._checkpoint(self._exists_rec(f ^ 1, index) ^ 1)

    def restrict(self, f: int, index: int, value: bool) -> int:
        """Return the cofactor ``f[index := value]``."""
        self._check_var(index)
        return self._checkpoint(self._restrict_rec(f, index, bool(value)))

    def _restrict_rec(self, f: int, index: int, value: bool) -> int:
        target = self._var_to_level[index]
        node = f >> 1
        if self._var_to_level[self._var[node]] > target:
            return f
        flip = (f & 1) ^ 1
        low = self._low[node] ^ flip
        high = self._high[node] ^ flip
        if self._var[node] == index:
            return high if value else low
        return self._mk(
            self._var[node],
            self._restrict_rec(low, index, value),
            self._restrict_rec(high, index, value),
        )

    # ------------------------------------------------------------------
    # set-of-patterns interface (what the monitor uses)
    # ------------------------------------------------------------------
    def empty_set(self) -> int:
        """The empty pattern set (the paper's ``bdd.emptySet``)."""
        return self.FALSE

    def universal_set(self) -> int:
        """The set of all 2^n patterns."""
        return self.TRUE

    def from_pattern(self, pattern: Sequence[int]) -> int:
        """Encode one bit-vector as a cube (the paper's ``bdd.encode``).

        ``pattern`` must have exactly ``num_vars`` entries, each 0 or 1.
        Built bottom-up along the current variable order, so it allocates
        at most ``num_vars`` nodes and costs no ``ite`` calls.
        """
        if len(pattern) != self.num_vars:
            raise ValueError(
                f"pattern has {len(pattern)} bits, expected {self.num_vars}"
            )
        result = self.TRUE
        for level in range(self.num_vars - 1, -1, -1):
            index = self._level_to_var[level]
            bit = pattern[index]
            if bit not in (0, 1, True, False):
                raise ValueError(f"pattern bit {index} is {bit!r}, expected 0 or 1")
            if bit:
                result = self._mk(index, self.FALSE, result)
            else:
                result = self._mk(index, result, self.FALSE)
        return self._checkpoint(result)

    def from_patterns(self, patterns: Iterable[Sequence[int]]) -> int:
        """Encode a collection of bit-vectors as the union of their cubes.

        Bulk construction: the patterns are deduplicated and sorted
        lexicographically *in level order*, then the BDD is built
        top-down by splitting the sorted block on each level in turn.
        Every ``_mk`` call lands on a node of the final diagram, so the
        cost is proportional to the result size — no ``ite`` calls and
        no intermediate diagrams, unlike the naive ``OR`` of N cubes
        which rebuilds the accumulated union N times.
        """
        items = patterns if isinstance(patterns, np.ndarray) else list(patterns)
        if len(items) == 0:
            return self.FALSE
        rows = np.atleast_2d(np.asarray(items, dtype=np.uint8))
        if rows.shape[1] != self.num_vars:
            raise ValueError(
                f"patterns have {rows.shape[1]} bits, expected {self.num_vars}"
            )
        if self.num_vars == 0:
            return self.TRUE
        if rows.max(initial=0) > 1:
            raise ValueError("pattern bits must be 0 or 1")

        from bisect import bisect_left

        num_vars = self.num_vars
        order = self._level_to_var[:num_vars]
        # Column k of the permuted matrix is the variable at level k, so
        # the lexicographic sort groups rows by their level-order prefix.
        rows = np.unique(rows[:, order], axis=0)
        # Per-level columns as plain lists: inside any block that agrees on
        # the bits above `level`, the column is 0s-then-1s, so the split is
        # a C-speed binary search bounded to the block.
        columns = rows.T.tolist()

        # Iterative post-order over the block tree (an explicit stack keeps
        # arbitrary variable counts clear of Python's recursion limit).
        # Each block of rows agrees on all bits above `level`; its split on
        # bit `level` yields the two child blocks.  Depth-first order means
        # a parent's child refs are exactly the top of `results` when its
        # expanded entry is popped: low last (pushed low-then-high, so the
        # high subtree finishes first).
        results: List[int] = []
        stack: List[Tuple[int, int, int, bool, int]] = [(0, 0, len(rows), False, 0)]
        while stack:
            level, lo, hi, expanded, split = stack.pop()
            if level == num_vars:
                results.append(self.TRUE)
                continue
            if not expanded:
                split = bisect_left(columns[level], 1, lo, hi)
                stack.append((level, lo, hi, True, split))
                if split > lo:   # some rows have bit `level` == 0
                    stack.append((level + 1, lo, split, False, 0))
                if split < hi:   # some rows have bit `level` == 1
                    stack.append((level + 1, split, hi, False, 0))
            else:
                low = results.pop() if split > lo else self.FALSE
                high = results.pop() if split < hi else self.FALSE
                results.append(self._mk(order[level], low, high))
        return self._checkpoint(results[0])

    def contains(self, f: int, pattern: Sequence[int]) -> bool:
        """Membership query: is ``pattern`` in the set ``f``?

        Runs in time linear in the number of variables — the runtime
        guarantee the paper relies on for deployment.
        """
        if len(pattern) != self.num_vars:
            raise ValueError(
                f"pattern has {len(pattern)} bits, expected {self.num_vars}"
            )
        var_arr, low, high = self._var, self._low, self._high
        ref = f
        while ref > 1:
            index = ref >> 1
            flip = (ref & 1) ^ 1
            child = high[index] if pattern[var_arr[index]] else low[index]
            ref = child ^ flip
        return ref == self.TRUE

    def _walk_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-ref lookup tables for the vectorized batch walk.

        ``var_of[r]`` is the variable ``r`` tests (``num_vars`` for both
        terminals, a padding column of the bit matrix) and
        ``step[2 * r + bit]`` the ref one hop down, complement parity
        already applied.  Both terminals step to themselves, so the walk
        can run a fixed number of levels without masking finished rows.
        Rebuilt after any structural change.
        """
        cache = self._np_cache
        if cache is None or cache[0] != self._np_version:
            var = np.asarray(self._var, dtype=np.int64)
            children = np.stack(
                [np.asarray(self._low, dtype=np.int64),
                 np.asarray(self._high, dtype=np.int64)], axis=1,
            )
            # A complemented ref (parity 0) flips both children.
            step = np.repeat(children, 2, axis=0)
            step[0::2] ^= 1
            step[0] = (self.FALSE, self.FALSE)
            step[1] = (self.TRUE, self.TRUE)
            cache = (self._np_version, np.repeat(var, 2), step.reshape(-1))
            self._np_cache = cache
        return cache[1], cache[2]

    def contains_batch(self, f, patterns: "np.ndarray") -> "np.ndarray":
        """Membership queries for a whole ``(N, num_vars)`` pattern matrix.

        ``f`` is one root for every row, or an int vector holding one
        root per row (the grouped query of a per-class monitor: each row
        walks its own class's zone).  Below :data:`SCALAR_WALK_ROWS` rows
        each row takes the :meth:`contains` walk; larger batches advance
        every row one hop per level with three numpy gathers, so the
        per-row cost is numpy work instead of a Python loop.
        """
        patterns = np.atleast_2d(np.asarray(patterns))
        if patterns.shape[1] != self.num_vars:
            raise ValueError(
                f"patterns have {patterns.shape[1]} bits, expected {self.num_vars}"
            )
        n = len(patterns)
        if np.ndim(f) == 0:
            roots = np.full(n, f, dtype=np.int64)
        else:
            roots = np.asarray(f, dtype=np.int64)
            if roots.shape != (n,):
                raise ValueError(
                    f"got {roots.shape} roots for {n} pattern rows"
                )
        if n < SCALAR_WALK_ROWS:
            return np.array(
                [self.contains(ref, row)
                 for ref, row in zip(roots.tolist(), patterns.tolist())],
                dtype=bool,
            )
        var_of, step = self._walk_tables()
        width = self.num_vars + 1
        # 0/1 bits plus a padding column for the terminals; the gathered
        # bit promotes to int64 when added to the ref vector.
        bits = np.zeros((n, width), dtype=np.uint8)
        bits[:, : self.num_vars] = patterns != 0
        bits = bits.reshape(-1)
        row_base = np.arange(n, dtype=np.int64) * width
        refs = roots
        # Each hop goes at least one level down, so num_vars hops reach a
        # terminal from any root.
        for _ in range(self.num_vars):
            refs = step[2 * refs + bits[row_base + var_of[refs]]]
        return refs == self.TRUE

    def hamming_expand(self, f: int, monitored: Optional[Sequence[int]] = None) -> int:
        """One Hamming-distance enlargement step (Algorithm 1, lines 9-14).

        Returns ``f`` plus every pattern at Hamming distance exactly 1
        from it (with respect to the monitored variables) — semantically
        the union of ``exists(j, f)`` over every monitored ``j``.

        The full-variable case (``monitored=None``) runs a single
        recursive pass instead of the paper's ``num_vars`` separate
        ``exists``/``or`` sweeps: with ``f = ite(x, f1, f0)``, a pattern
        is within distance 1 of ``f`` iff its tail is within distance 1
        of the matching cofactor (no flip at ``x``) or *exactly in* the
        opposite cofactor (the one flip spent at ``x``), i.e.
        ``E(f) = ite(x, E(f1) OR f0, E(f0) OR f1)``, memoised per node.
        That visits each node of ``f`` once — orders of magnitude less
        work than materialising ``num_vars`` intermediate diagrams.
        """
        if monitored is None:
            return self._checkpoint(self._expand_rec(f))
        result = self.FALSE
        for index in monitored:
            self._check_var(index)
            result = self._ite(result, 1, self._exists_rec(f, index))
        # Guard against an empty `monitored` list: the zone never shrinks.
        return self._checkpoint(self._ite(result, 1, f))

    def _expand_rec(self, f: int) -> int:
        """Distance-1 ball of ``f`` over all variables (memoised).

        Skipped (don't-care) variables need no special case: flipping a
        don't-care bit maps every pattern of ``f`` to another pattern of
        ``f``, contributing nothing new.  The cache is keyed by ``f``
        alone — the result is a function of ``f``'s semantics, so
        entries stay valid across reorders and are remapped by GC like
        the other operation caches.
        """
        if f <= 1:
            return f
        self._expand_calls += 1
        cached = self._expand_cache.get(f)
        if cached is not None:
            self._expand_cache_hits += 1
            return cached
        node = f >> 1
        flip = (f & 1) ^ 1
        low = self._low[node] ^ flip
        high = self._high[node] ^ flip
        result = self._mk(
            self._var[node],
            self._ite(self._expand_rec(low), 1, high),
            self._ite(self._expand_rec(high), 1, low),
        )
        self._expand_cache[f] = result
        return result

    def hamming_ball(
        self,
        f: int,
        radius: int,
        monitored: Optional[Sequence[int]] = None,
    ) -> int:
        """Enlarge ``f`` to all patterns within Hamming distance ``radius``."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        # The accumulator is held across hamming_expand safe points, so an
        # auto-GC/reorder inside an expansion could renumber the table out
        # from under a raw local; a tracked handle is remapped in place,
        # keeping the saturation comparison within one numbering.
        holder = BDDFunction(self, f)
        for _ in range(radius):
            expanded = self.hamming_expand(holder.ref, monitored)
            if expanded == holder.ref:
                break  # saturated: further expansion is a no-op
            holder.ref = expanded
        return holder.ref

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def incref(self, ref: int) -> int:
        """Pin ``ref`` as an external GC root (counted; see :meth:`decref`).

        Pinned refs survive :meth:`collect_garbage` and are remapped in
        the manager's own pin table when the node arrays compact;
        holders learn their new values through a remap listener
        (:meth:`register_remap_listener`).  Returns ``ref`` unchanged.
        """
        self._pins[ref] = self._pins.get(ref, 0) + 1
        self._roots_version += 1
        return ref

    def decref(self, ref: int) -> None:
        """Drop one pin count of ``ref`` (erasing the root at zero)."""
        count = self._pins.get(ref)
        if count is None:
            raise ValueError(f"ref {ref} is not pinned")
        if count == 1:
            del self._pins[ref]
        else:
            self._pins[ref] = count - 1
        self._roots_version += 1

    def register_remap_listener(self, callback: Callable[[Callable[[int], int]], None]) -> None:
        """Register ``callback(remap)`` to fire after every compaction.

        ``remap`` maps old live refs to their post-compaction values
        (parity preserved); dead refs raise ``KeyError``.  Bound methods
        are held weakly so a listener never keeps its owner alive.
        """
        if hasattr(callback, "__self__"):
            self._remap_listeners.append(weakref.WeakMethod(callback))
        else:
            self._remap_listeners.append(lambda cb=callback: cb)

    def collect_garbage(self, extra_roots: Sequence[int] = ()) -> Callable[[int], int]:
        """Mark-and-sweep the node table and compact the arrays.

        Roots are the pinned refs, every live :class:`BDDFunction`
        handle and ``extra_roots``.  Dead nodes are reclaimed, the node
        arrays compact in place, and the unique table, operation caches,
        pin table and function handles are rewritten to the new indices.
        Returns the remap callable (old live ref -> new ref).
        """
        roots: List[int] = list(self._pins)
        roots.extend(fn.ref for fn in tuple(self._functions))
        roots.extend(extra_roots)
        low_arr, high_arr = self._low, self._high
        live = {0}
        stack = [ref >> 1 for ref in roots]
        while stack:
            index = stack.pop()
            if index in live:
                continue
            live.add(index)
            stack.append(low_arr[index] >> 1)
            stack.append(high_arr[index] >> 1)
        old_count = len(self._var)
        index_map: Dict[int, int] = {}
        new_var: List[int] = []
        new_low: List[int] = []
        new_high: List[int] = []
        for old in range(old_count):
            if old in live:
                index_map[old] = len(new_var)
                new_var.append(self._var[old])
                new_low.append(self._low[old])
                new_high.append(self._high[old])

        def remap(ref: int) -> int:
            return (index_map[ref >> 1] << 1) | (ref & 1)

        for i in range(1, len(new_low)):
            new_low[i] = remap(new_low[i])
            new_high[i] = remap(new_high[i])
        self._var, self._low, self._high = new_var, new_low, new_high
        self._unique = {
            (new_var[i], new_low[i], new_high[i]): i for i in range(1, len(new_var))
        }
        # Rewrite the operation caches instead of stranding entries that
        # reference reclaimed nodes: live entries survive (remapped), the
        # rest are dropped.
        self._ite_cache = {
            (remap(f), remap(g), remap(h)): remap(r)
            for (f, g, h), r in self._ite_cache.items()
            if f >> 1 in live and g >> 1 in live and h >> 1 in live and r >> 1 in live
        }
        self._exists_cache = {
            (remap(f), index): remap(r)
            for (f, index), r in self._exists_cache.items()
            if f >> 1 in live and r >> 1 in live
        }
        self._expand_cache = {
            remap(f): remap(r)
            for f, r in self._expand_cache.items()
            if f >> 1 in live and r >> 1 in live
        }
        new_pins: Dict[int, int] = {}
        for ref, count in self._pins.items():
            new_pins[remap(ref)] = new_pins.get(remap(ref), 0) + count
        self._pins = new_pins
        for fn in tuple(self._functions):
            fn.ref = remap(fn.ref)
        self._np_version += 1
        self._gc_runs += 1
        self._gc_reclaimed += old_count - len(new_var)
        kept = []
        for entry in self._remap_listeners:
            callback = entry()
            if callback is not None:
                callback(remap)
                kept.append(entry)
        self._remap_listeners = kept
        return remap

    # ------------------------------------------------------------------
    # dynamic variable reordering (Rudell sifting)
    # ------------------------------------------------------------------
    def reorder(self, method: str = "sift", max_growth: float = 1.2,
                max_vars: Optional[int] = None, kernel: Optional[str] = None,
                groups: Optional[Sequence[Sequence[int]]] = None,
                ) -> Dict[str, int]:
        """Reorder the live table to shrink it; refs are remapped in place.

        ``method="sift"`` is Rudell's algorithm: each variable (largest
        level population first, optionally capped at ``max_vars``) is
        moved through every level by adjacent swaps and parked where the
        table was smallest; ``max_growth`` bounds the transient blow-up
        tolerated while exploring.  ``method="group"`` sifts the variable
        *pairs* named by ``groups`` as rigid two-level blocks (glued
        first, then moved two swaps per step), then sifts the remaining
        singles — pairs with correlated cofactor structure (e.g. from
        :func:`repro.bdd.ordering.correlated_pairs`) shrink further than
        sifting either member alone, because single-variable moves must
        transit the table-growing region between the pair.

        ``kernel`` picks the swap engine: ``"vector"`` (default, or env
        ``REPRO_BDD_SIFT_KERNEL``) runs each level swap as batched numpy
        column operations over array mirrors of the node table;
        ``"python"`` is the per-node reference loop.  Both kernels visit
        the same swap sequence and produce the same final variable order
        and node count — the vector kernel is the same algorithm with
        the per-node loop folded into vectorized canonicalization.

        Raw refs held by callers must be pinned or wrapped in
        :class:`BDDFunction` handles — both are remapped by the two
        compactions bracketing the sift.
        Returns ``{"nodes_before", "nodes_after", "swaps", "vars_sifted"}``.
        """
        if method not in ("sift", "group"):
            raise ValueError(
                f"unknown reorder method {method!r}; 'sift' or 'group'"
            )
        if method == "group" and not groups:
            raise ValueError("method='group' requires non-empty groups")
        stats, _ = self._sift(
            max_growth=max_growth, max_vars=max_vars, kernel=kernel,
            groups=groups if method == "group" else None,
        )
        return stats

    def _sift(
        self,
        max_growth: float = 1.2,
        max_vars: Optional[int] = None,
        extra_roots: Sequence[int] = (),
        kernel: Optional[str] = None,
        groups: Optional[Sequence[Sequence[int]]] = None,
    ) -> Tuple[Dict[str, int], Callable[[int], int]]:
        if kernel is None:
            kernel = os.environ.get("REPRO_BDD_SIFT_KERNEL", "").strip() \
                or "vector"
        if kernel not in ("vector", "python"):
            raise ValueError(
                f"unknown sift kernel {kernel!r}; 'vector' or 'python'"
            )
        grouped: Dict[int, Tuple[int, ...]] = {}
        if groups:
            for pair in groups:
                members = tuple(int(x) for x in pair)
                if len(members) != 2:
                    raise ValueError(
                        f"groups must be variable pairs, got {members!r}"
                    )
                a, b = members
                for x in members:
                    if not 0 <= x < self.num_vars:
                        raise ValueError(f"group variable {x} out of range")
                if a == b or a in grouped or b in grouped:
                    raise ValueError(
                        "groups must pair distinct, non-overlapping variables"
                    )
                grouped[a] = grouped[b] = members
        if self.num_vars < 2 or len(self._var) <= 1:
            before = len(self._var)
            self._reorder_count += 1
            return (
                {"nodes_before": before, "nodes_after": before, "swaps": 0,
                 "vars_sifted": 0},
                lambda ref: ref,
            )
        self._in_reorder = True
        try:
            # Compact first so every physical node is live and the swap
            # bookkeeping (reference counts, level populations) is exact.
            remap1 = self.collect_garbage(extra_roots=extra_roots)
            mapped_roots = [remap1(ref) for ref in extra_roots]
            nodes_before = len(self._var)
            if kernel == "vector":
                state = _VecReorderState(self, mapped_roots)
                swap, live = state.swap, state.live_count
                counts = state.counts()
            else:
                state = None
                self._build_reorder_state(mapped_roots)
                swap, live = self._swap_levels, lambda: self._live
                counts = [len(nodes) for nodes in self._var_nodes]
            # Sift entities largest population first (a pair's population
            # is the two members' combined level population); ties break
            # on variable index, matching the stable single-variable sort.
            entities: List[Tuple[int, Tuple[int, ...]]] = []
            for v in range(self.num_vars):
                entity = grouped.get(v, (v,))
                if v != entity[0]:
                    continue  # second member; entity already listed
                population = sum(counts[x] for x in entity)
                if population:
                    entities.append((population, entity))
            entities.sort(key=lambda item: (-item[0], item[1]))
            if max_vars is not None:
                entities = entities[:max_vars]
            swaps = 0
            for _population, entity in entities:
                if len(entity) == 1:
                    swaps += self._sift_single(entity[0], max_growth, swap, live)
                else:
                    swaps += self._sift_pair(*entity, max_growth, swap, live)
            if state is not None:
                state.finalize()
            remap2 = self.collect_garbage(extra_roots=mapped_roots)
            nodes_after = len(self._var)
            self._reorder_count += 1
            self._reorder_swaps += swaps
            stats = {
                "nodes_before": nodes_before,
                "nodes_after": nodes_after,
                "swaps": swaps,
                "vars_sifted": sum(len(entity) for _, entity in entities),
            }
            return stats, (lambda ref: remap2(remap1(ref)))
        finally:
            self._in_reorder = False
            for attr in ("_rc", "_var_nodes"):
                if hasattr(self, attr):
                    delattr(self, attr)

    def _build_reorder_state(self, roots: Sequence[int]) -> None:
        n = len(self._var)
        rc = [0] * n
        for i in range(1, n):
            rc[self._low[i] >> 1] += 1
            rc[self._high[i] >> 1] += 1
        for ref, count in self._pins.items():
            rc[ref >> 1] += count
        for fn in tuple(self._functions):
            rc[fn.ref >> 1] += 1
        for ref in roots:
            rc[ref >> 1] += 1
        rc[0] += 1  # the terminal is immortal
        var_nodes: List[set] = [set() for _ in range(self.num_vars)]
        for i in range(1, n):
            var_nodes[self._var[i]].add(i)
        self._rc = rc
        self._var_nodes = var_nodes
        self._live = n

    def _rc_inc(self, ref: int) -> None:
        self._rc[ref >> 1] += 1

    def _rc_dec(self, ref: int) -> None:
        stack = [ref]
        rc = self._rc
        while stack:
            index = stack.pop() >> 1
            rc[index] -= 1
            if index and not rc[index]:
                # Dead: unlink from the unique table and level population;
                # the array slot becomes junk until the closing compaction.
                del self._unique[
                    (self._var[index], self._low[index], self._high[index])
                ]
                self._var_nodes[self._var[index]].discard(index)
                self._live -= 1
                stack.append(self._low[index])
                stack.append(self._high[index])

    def _mk_rc(self, var: int, low: int, high: int) -> int:
        """``_mk`` twin used during sifting: keeps reference counts and
        per-variable populations consistent for nodes it creates."""
        if low == high:
            return low
        if not (high & 1):
            return self._mk_rc_raw(var, low ^ 1, high ^ 1) ^ 1
        return self._mk_rc_raw(var, low, high)

    def _mk_rc_raw(self, var: int, low: int, high: int) -> int:
        key = (var, low, high)
        index = self._unique.get(key)
        if index is None:
            index = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = index
            self._rc.append(0)
            self._rc_inc(low)
            self._rc_inc(high)
            self._var_nodes[var].add(index)
            self._live += 1
            self._np_version += 1
        return (index << 1) | 1

    def _swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Nodes at the upper level that depend on the lower variable are
        re-expressed in place (same physical index, so every parent edge
        and external root stays valid); their new children are found or
        created one level down.  The stored high edge stays regular
        automatically: the old high edge and *its* high edge were both
        regular, so the new high cofactor is regular by construction.
        """
        ltv, vtl = self._level_to_var, self._var_to_level
        va, vb = ltv[level], ltv[level + 1]
        var_arr, low_arr, high_arr = self._var, self._low, self._high
        interacting = [
            i
            for i in self._var_nodes[va]
            if (low_arr[i] > 1 and var_arr[low_arr[i] >> 1] == vb)
            or (high_arr[i] > 1 and var_arr[high_arr[i] >> 1] == vb)
        ]
        for i in interacting:
            f0, f1 = low_arr[i], high_arr[i]
            j1 = f1 >> 1
            if f1 > 1 and var_arr[j1] == vb:
                f10, f11 = low_arr[j1], high_arr[j1]
            else:
                f10 = f11 = f1
            j0 = f0 >> 1
            if f0 > 1 and var_arr[j0] == vb:
                flip = (f0 & 1) ^ 1
                f00, f01 = low_arr[j0] ^ flip, high_arr[j0] ^ flip
            else:
                f00 = f01 = f0
            new_low = self._mk_rc(va, f00, f10)
            new_high = self._mk_rc(va, f01, f11)
            self._rc_inc(new_low)
            self._rc_inc(new_high)
            del self._unique[(va, f0, f1)]
            self._var_nodes[va].discard(i)
            var_arr[i] = vb
            low_arr[i] = new_low
            high_arr[i] = new_high
            self._unique[(vb, new_low, new_high)] = i
            self._var_nodes[vb].add(i)
            self._rc_dec(f0)
            self._rc_dec(f1)
        ltv[level], ltv[level + 1] = vb, va
        vtl[va], vtl[vb] = level + 1, level
        self._np_version += 1

    def _sift_single(
        self,
        v: int,
        max_growth: float,
        swap: Callable[[int], None],
        live: Callable[[], int],
    ) -> int:
        """Move one variable through every level by adjacent swaps and
        park it where the live table was smallest (Rudell).  ``swap`` /
        ``live`` come from whichever kernel is driving the pass."""
        n = self.num_vars
        size = live()
        limit = max(int(size * max_growth), size + 2)
        pos = self._var_to_level[v]
        best_size, best_pos = size, pos
        swaps = 0
        while pos < n - 1:  # explore downward
            swap(pos)
            pos += 1
            swaps += 1
            size = live()
            if size < best_size:
                best_size, best_pos = size, pos
            if size > limit:
                break
        while pos > 0:  # explore upward, through the start position
            swap(pos - 1)
            pos -= 1
            swaps += 1
            size = live()
            if size < best_size:
                best_size, best_pos = size, pos
            if size > limit:
                break
        while pos < best_pos:  # park at the best position seen
            swap(pos)
            pos += 1
            swaps += 1
        while pos > best_pos:
            swap(pos - 1)
            pos -= 1
            swaps += 1
        return swaps

    def _sift_pair(
        self,
        a: int,
        b: int,
        max_growth: float,
        swap: Callable[[int], None],
        live: Callable[[], int],
    ) -> int:
        """Sift two correlated variables as one rigid block.

        The farther member is first *glued* level by level until the pair
        is adjacent, then the two-level block moves through the order as a
        unit — each block step is two adjacent swaps (the outer variable
        crosses the neighbour, then the inner one follows), which keeps
        the members' relative order — and parks where the live table was
        smallest."""
        vtl = self._var_to_level
        if vtl[a] > vtl[b]:
            a, b = b, a
        swaps = 0
        while vtl[b] > vtl[a] + 1:  # glue: walk b up until adjacent to a
            swap(vtl[b] - 1)
            swaps += 1
        n = self.num_vars
        size = live()
        limit = max(int(size * max_growth), size + 2)
        pos = vtl[a]  # block occupies levels (pos, pos + 1)
        best_size, best_pos = size, pos
        while pos < n - 2:  # block downward
            swap(pos + 1)
            swap(pos)
            pos += 1
            swaps += 2
            size = live()
            if size < best_size:
                best_size, best_pos = size, pos
            if size > limit:
                break
        while pos > 0:  # block upward, through the glue position
            swap(pos - 1)
            swap(pos)
            pos -= 1
            swaps += 2
            size = live()
            if size < best_size:
                best_size, best_pos = size, pos
            if size > limit:
                break
        while pos < best_pos:  # park
            swap(pos + 1)
            swap(pos)
            pos += 1
            swaps += 2
        while pos > best_pos:
            swap(pos - 1)
            swap(pos)
            pos -= 1
            swaps += 2
        return swaps

    # ------------------------------------------------------------------
    # convenience wrappers
    # ------------------------------------------------------------------
    def function(self, ref: int) -> "BDDFunction":
        """Wrap a ref in a :class:`BDDFunction` for operator syntax."""
        return BDDFunction(self, ref)

    def false(self) -> "BDDFunction":
        """The constant-false function, wrapped."""
        return BDDFunction(self, self.FALSE)

    def true(self) -> "BDDFunction":
        """The constant-true function, wrapped."""
        return BDDFunction(self, self.TRUE)

    def variable(self, index: int) -> "BDDFunction":
        """The single-variable function, wrapped."""
        return BDDFunction(self, self.var(index))

    def clear_caches(self) -> None:
        """Drop the operation caches (the unique table is kept: refs stay
        valid).

        Cached ``ite``/``exists`` results keep their operand and result
        nodes reachable only *from the cache* — after a collection
        rewrites the caches those entries are dropped with their nodes,
        so nothing is stranded; calling ``clear_caches()`` first simply
        releases every cache-held node for the next
        :meth:`collect_garbage` pass.
        """
        self._ite_cache.clear()
        self._exists_cache.clear()
        self._expand_cache.clear()

    def cache_stats(self) -> Dict[str, float]:
        """Engine counters: node/table sizes, cache hit rates, GC and
        reorder activity.

        ``nodes`` is the physical array length (may include garbage
        between collections); ``live_nodes`` is a mark from the current
        roots (pins + function handles; cache entries are *not* roots —
        a number lower than ``nodes`` is reclaimable).  The mark is
        memoised per (table, root-set) generation so repeated stats
        calls are O(1); a handle released between generations may be
        counted until the next table or root change.
        """
        ite_rate = self._ite_cache_hits / self._ite_calls if self._ite_calls else 0.0
        exists_rate = (
            self._exists_cache_hits / self._exists_calls if self._exists_calls else 0.0
        )
        return {
            "nodes": len(self._var),
            "live_nodes": self._live_node_count(),
            "unique_entries": len(self._unique),
            "pinned_refs": len(self._pins),
            "tracked_functions": len(self._functions),
            "gc_threshold": self.gc_threshold,
            "gc_runs": self._gc_runs,
            "gc_reclaimed_nodes": self._gc_reclaimed,
            "reorder_count": self._reorder_count,
            "reorder_swaps": self._reorder_swaps,
            "ite_calls": self._ite_calls,
            "ite_cache_hits": self._ite_cache_hits,
            "ite_hit_rate": ite_rate,
            "ite_cache_entries": len(self._ite_cache),
            "exists_calls": self._exists_calls,
            "exists_cache_hits": self._exists_cache_hits,
            "exists_hit_rate": exists_rate,
            "exists_cache_entries": len(self._exists_cache),
            "expand_calls": self._expand_calls,
            "expand_cache_hits": self._expand_cache_hits,
            "expand_cache_entries": len(self._expand_cache),
        }

    def _live_node_count(self) -> int:
        cached = self._live_count_cache
        if cached is not None and cached[:2] == (self._np_version, self._roots_version):
            return cached[2]
        live = {0}
        stack = [ref >> 1 for ref in self._pins]
        stack.extend(fn.ref >> 1 for fn in tuple(self._functions))
        while stack:
            index = stack.pop()
            if index in live:
                continue
            live.add(index)
            stack.append(self._low[index] >> 1)
            stack.append(self._high[index] >> 1)
        self._live_count_cache = (self._np_version, self._roots_version, len(live))
        return len(live)

    def reset_cache_stats(self) -> None:
        """Zero the call/hit counters (cache contents are untouched)."""
        self._ite_calls = self._ite_cache_hits = 0
        self._exists_calls = self._exists_cache_hits = 0


class _VecReorderState:
    """Numpy mirror of the node table powering the vectorized swap kernel.

    The Python swap loop spends its time in per-node dict/set traffic:
    unique-table deletes and inserts, per-variable set membership, and a
    recursive reference-count cascade.  This state drops all of that for
    the duration of a sift.  The node table is mirrored into four int64
    columns (``var``, ``low``, ``high``, ``rc``); a node is *live* iff
    ``rc > 0``, so there is no unique table to maintain; uniqueness is
    restored per swap by sorting candidate ``(low, high)`` keys against
    the survivors' keys.  Candidate rows come from *level-partitioned
    index columns* (``_rows_of[v]``, one int64 index array per
    variable), so a swap's cost scales with its two level populations,
    not the table size.  The columns are maintained lazily: death marks
    nothing (a dead row is filtered by its ``rc == 0`` the next time its
    variable reaches the upper level of a swap), and rows re-expressed
    at the lower variable are appended to that variable's column.

    One :meth:`swap` performs the same re-expression as
    ``BDDManager._swap_levels``, as whole-column batches:

    1. gather the live upper-level nodes whose cofactors touch the lower
       variable (the *interacting* rows);
    2. compute all four grandchild cofactors with ``np.where`` (applying
       the complement-edge flip on the low side);
    3. canonicalize both new-child columns in one batched ``_mk``:
       collapse ``low == high``, normalize complemented highs, then
       dedup against surviving upper-level nodes and within the batch,
       bulk-appending only the genuinely new nodes;
    4. count every new parent edge, then release the old cofactor edges
       with a batched death cascade.

    All increments land before any decrement, which is equivalent to the
    scalar kernel's interleaving: a swap's deaths happen at the lower
    level and below, so they can never free a row the batch is about to
    reuse, and a node revived by the batch was by definition still
    referenced.  Both kernels therefore see the same live count after
    every swap — and hence make identical sift decisions.

    Physical node indices may diverge from the Python kernel (batch
    append order differs from discovery order), but interacting rows are
    rewritten *in place*, so parent edges and external roots stay valid;
    the closing :meth:`BDDManager.collect_garbage` compacts junk rows
    and rebuilds the unique table either way.
    """

    __slots__ = ("mgr", "var", "low", "high", "rc", "n", "live", "_rows_of")

    def __init__(self, mgr: "BDDManager", roots: Sequence[int]):
        self.mgr = mgr
        n = len(mgr._var)
        cap = max(2 * n, 256)
        self.var = np.zeros(cap, dtype=np.int64)
        self.low = np.zeros(cap, dtype=np.int64)
        self.high = np.zeros(cap, dtype=np.int64)
        self.var[:n] = mgr._var
        self.low[:n] = mgr._low
        self.high[:n] = mgr._high
        rc = np.zeros(cap, dtype=np.int64)
        if n > 1:
            children = np.concatenate([self.low[1:n], self.high[1:n]]) >> 1
            np.add.at(rc, children, 1)
        for ref, count in mgr._pins.items():
            rc[ref >> 1] += count
        for fn in tuple(mgr._functions):
            rc[fn.ref >> 1] += 1
        for ref in roots:
            rc[ref >> 1] += 1
        rc[0] += 1  # the terminal is immortal
        self.rc = rc
        self.n = n
        self.live = n  # the opening compaction made every row live
        # Level-partitioned index columns: row indices per variable
        # (internal rows only; may go stale with dead rows, see swap).
        internal = self.var[1:n]
        order = np.argsort(internal, kind="stable") + 1
        bounds = np.searchsorted(internal[order - 1], np.arange(mgr.num_vars + 1))
        self._rows_of = [
            order[bounds[v] : bounds[v + 1]] for v in range(mgr.num_vars)
        ]

    def live_count(self) -> int:
        return self.live

    def counts(self) -> List[int]:
        """Live internal nodes per variable (sift priority populations)."""
        return [
            int((self.rc[rows] > 0).sum()) for rows in self._rows_of
        ]

    def _grow(self, needed: int) -> None:
        cap = len(self.var)
        if needed <= cap:
            return
        cap = max(2 * cap, needed)
        for name in ("var", "low", "high", "rc"):
            old = getattr(self, name)
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)

    def swap(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` — the
        batched twin of :meth:`BDDManager._swap_levels`."""
        mgr = self.mgr
        ltv, vtl = mgr._level_to_var, mgr._var_to_level
        va, vb = ltv[level], ltv[level + 1]
        var, low, high = self.var, self.low, self.high
        stale = self._rows_of[va]
        va_rows = stale[self.rc[stale] > 0]  # drop rows that died since
        self._rows_of[va] = va_rows
        if va_rows.size:
            f0 = low[va_rows]
            f1 = high[va_rows]
            inter = ((f0 > 1) & (var[f0 >> 1] == vb)) | (
                (f1 > 1) & (var[f1 >> 1] == vb)
            )
        else:
            inter = np.zeros(0, dtype=bool)
        rows = va_rows[inter] if va_rows.size else va_rows
        if rows.size:
            f0 = f0[inter]
            f1 = f1[inter]
            j0 = f0 >> 1
            j1 = f1 >> 1
            at0 = (f0 > 1) & (var[j0] == vb)
            at1 = (f1 > 1) & (var[j1] == vb)
            # Grandchildren; the low-side flip pushes a complemented low
            # edge down onto the cofactors (the high side is regular).
            flip = np.where(at0, (f0 & 1) ^ 1, 0)
            f00 = np.where(at0, low[j0] ^ flip, f0)
            f01 = np.where(at0, high[j0] ^ flip, f0)
            f10 = np.where(at1, low[j1], f1)
            f11 = np.where(at1, high[j1], f1)
            # One batched _mk over both new-child columns: the new lows
            # are mk(va, f00, f10), the new highs mk(va, f01, f11).
            survivors = va_rows[~inter]
            before = self.n
            refs = self._mk_batch(
                va,
                np.concatenate([f00, f01]),
                np.concatenate([f10, f11]),
                survivors,
            )
            var, low, high, rc = self.var, self.low, self.high, self.rc
            # Every result ref is one new parent edge (new and reused
            # children alike — the scalar kernel's _rc_inc per edge).
            np.add.at(rc, refs >> 1, 1)
            # Re-express the interacting rows in place: same physical
            # index, so parent edges and external roots stay valid.
            m = rows.size
            var[rows] = vb
            low[rows] = refs[:m]
            high[rows] = refs[m:]
            self._rows_of[va] = np.concatenate(
                [survivors, np.arange(before, self.n)]
            )
            self._rows_of[vb] = np.concatenate([self._rows_of[vb], rows])
            # Release the old cofactor edges, cascading deaths.
            self._dec_batch(np.concatenate([f0, f1]))
        ltv[level], ltv[level + 1] = vb, va
        vtl[va], vtl[vb] = level + 1, level
        mgr._np_version += 1

    def _mk_batch(
        self,
        v: int,
        lows: np.ndarray,
        highs: np.ndarray,
        survivors: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ``_mk`` over a column of ``(low, high)`` pairs at
        variable ``v``: canonicalize (collapse + complement-edge normal
        form), dedup against the surviving rows already at ``v`` and
        within the batch, bulk-append the genuinely new nodes, and count
        the new nodes' child edges.  Returns the result ref column."""
        collapse = lows == highs
        flip = np.where(collapse, 0, (highs & 1) ^ 1)
        kl = lows ^ flip
        kh = highs ^ flip
        # Packed canonical key; safe while node count < 2**31.
        key = (kl << 32) | kh
        refs = np.empty(key.size, dtype=np.int64)
        refs[collapse] = lows[collapse]
        matched = np.zeros(key.size, dtype=bool)
        if survivors.size:
            sk = (self.low[survivors] << 32) | self.high[survivors]
            order = np.argsort(sk, kind="stable")
            sk_sorted = sk[order]
            pos = np.minimum(np.searchsorted(sk_sorted, key), sk.size - 1)
            matched = (sk_sorted[pos] == key) & ~collapse
            refs[matched] = (survivors[order[pos[matched]]] << 1) | 1
        fresh = ~(collapse | matched)
        if fresh.any():
            uniq, first, inverse = np.unique(
                key[fresh], return_index=True, return_inverse=True
            )
            k = uniq.size
            self._grow(self.n + k)
            var, low, high, rc = self.var, self.low, self.high, self.rc
            base = self.n
            fresh_rows = np.flatnonzero(fresh)
            src = fresh_rows[first]  # first occurrence of each unique key
            var[base : base + k] = v
            low[base : base + k] = kl[src]
            high[base : base + k] = kh[src]
            np.add.at(rc, kl[src] >> 1, 1)
            np.add.at(rc, kh[src] >> 1, 1)
            self.n = base + k
            self.live += k
            refs[fresh_rows] = ((base + inverse) << 1) | 1
        return refs ^ flip

    def _dec_batch(self, refs: np.ndarray) -> None:
        """Release one parent edge per ref, cascading: rows whose count
        hits zero die and release their own child edges, wave by wave."""
        rc, low, high = self.rc, self.low, self.high
        targets = refs >> 1
        while targets.size:
            np.add.at(rc, targets, -1)
            dead = np.unique(targets[(rc[targets] == 0) & (targets != 0)])
            if not dead.size:
                return
            self.live -= dead.size
            targets = np.concatenate([low[dead], high[dead]]) >> 1

    def finalize(self) -> None:
        """Write the mirrors back to the manager's node lists.  Dead rows
        go back as junk — the closing compaction sweeps them and rebuilds
        the unique table and caches from the surviving rows."""
        mgr = self.mgr
        n = self.n
        mgr._var = self.var[:n].tolist()
        mgr._low = self.low[:n].tolist()
        mgr._high = self.high[:n].tolist()
        mgr._np_version += 1


class BDDFunction:
    """A boolean function bound to its manager, with operator overloading.

    Thin value-type wrapper: equality is canonical-ref equality, so two
    wrappers compare equal iff they denote the same boolean function.
    Handles are tracked (weakly) as GC roots: a function you hold keeps
    its nodes alive across :meth:`BDDManager.collect_garbage` and
    :meth:`BDDManager.reorder`, and its ``ref`` is rewritten in place
    when the table compacts — which also means its hash can change, so
    do not key long-lived dicts or sets by the wrapper itself.
    """

    __slots__ = ("manager", "ref", "__weakref__")

    def __init__(self, manager: BDDManager, ref: int):
        self.manager = manager
        self.ref = ref
        manager._functions.add(self)
        manager._roots_version += 1

    def _coerce(self, other: "BDDFunction") -> int:
        if not isinstance(other, BDDFunction):
            raise TypeError(f"expected BDDFunction, got {type(other).__name__}")
        if other.manager is not self.manager:
            raise ValueError("cannot combine functions from different managers")
        return other.ref

    def __and__(self, other: "BDDFunction") -> "BDDFunction":
        return BDDFunction(self.manager, self.manager.apply_and(self.ref, self._coerce(other)))

    def __or__(self, other: "BDDFunction") -> "BDDFunction":
        return BDDFunction(self.manager, self.manager.apply_or(self.ref, self._coerce(other)))

    def __xor__(self, other: "BDDFunction") -> "BDDFunction":
        return BDDFunction(self.manager, self.manager.apply_xor(self.ref, self._coerce(other)))

    def __invert__(self) -> "BDDFunction":
        return BDDFunction(self.manager, self.manager.apply_not(self.ref))

    def implies(self, other: "BDDFunction") -> "BDDFunction":
        """The function ``self -> other``."""
        return BDDFunction(self.manager, self.manager.apply_implies(self.ref, self._coerce(other)))

    def iff(self, other: "BDDFunction") -> "BDDFunction":
        """The function ``self <-> other``."""
        return BDDFunction(self.manager, self.manager.apply_iff(self.ref, self._coerce(other)))

    def exists(self, index: int) -> "BDDFunction":
        """Existential quantification over variable ``index``."""
        return BDDFunction(self.manager, self.manager.exists(self.ref, index))

    def restrict(self, index: int, value: bool) -> "BDDFunction":
        """Cofactor with variable ``index`` fixed to ``value``."""
        return BDDFunction(self.manager, self.manager.restrict(self.ref, index, value))

    def contains(self, pattern: Sequence[int]) -> bool:
        """Membership query for one bit-vector."""
        return self.manager.contains(self.ref, pattern)

    def is_false(self) -> bool:
        """True iff this is the constant-false function."""
        return self.ref == BDDManager.FALSE

    def is_true(self) -> bool:
        """True iff this is the constant-true function."""
        return self.ref == BDDManager.TRUE

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BDDFunction)
            and other.manager is self.manager
            and other.ref == self.ref
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.ref))

    def __repr__(self) -> str:
        return f"BDDFunction(ref={self.ref})"
