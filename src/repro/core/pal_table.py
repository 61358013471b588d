"""Subset-memoized detection kernel: price all ``T!`` orderings from a
``T * 2^(T-1)`` table.

The budget consumed before type ``t`` under an ordering ``o``,
``sum_{s before t} min(b_s, Z_s C_s)``, is a *commutative* sum: the
remaining capacity ``B_t`` — and therefore ``Pal(o, b, t)`` — depends
only on the **set** of predecessor types, never on their relative order.
Enumeration-backed pricing (every LP column of eq. 5, every ISHM probe,
every brute-force grid point, every sim re-solve) walks all ``|T|!``
orderings, i.e. ``|T|! * |T|`` scenario sweeps per threshold vector;
this module computes instead

* one predecessor-set consumption DP over the ``2^T`` subset masks
  (one vector add per mask), and
* one vectorized scenario sweep per ``(type t, predecessor set S)``
  pair with ``t not in S`` — ``T * 2^(T-1)`` sweeps total

and then assembles any ordering's ``Pal`` row by pure table lookup.
For ``T = 7`` that is 448 sweeps instead of 35 280 (~79x less kernel
work); the win grows superexponentially with ``T``.

Equivalence: every elementwise operation and the closing pairwise
expectation reduction are identical to the reference walk
(:class:`~repro.core.detection.OrderingPricer`); the only divergence is
the *accumulation order* of the predecessor sum (lowest-set-bit DP order
versus ordering order), so table rows match the legacy kernel to within
float accumulation roundoff — ``max |delta Pal| <= 1e-9`` in practice and
*bit-for-bit* on integer-valued games, where the partial sums are exact.

The elementwise pipelines themselves live in :mod:`repro.core.kernels`,
which reduces every product buffer through the one shared pairwise
reduction (:func:`~repro.core.kernels.expectation_reduce`).

Pricing many threshold vectors against one scenario set (brute force,
ISHM probes) repeats most entries: ``table[t, S]`` reads the thresholds
only through ``b_s`` for ``s`` in ``S`` and the quota ``floor(b_t /
C_t)``.  :class:`PalEntryMemo` keeps those entries across the tables of
one solver, so a build sweeps only the entries it has not seen (1940 of
the 7712 on Syn A's ``B = 3`` brute-force grid).

The legacy walk (:class:`~repro.core.detection.OrderingPricer`) remains
the reference implementation and the path for small ordering sets:
policy evaluation over small supports and the simulator's
single-ordering lookups.
CGGS column generation visits only the masks along its greedy
construction paths and prices them through :class:`LazyPalTable`.
:func:`subset_table_pays` is the break-even point at which pricing a
fixed ordering set from the eager table beats walking each ordering.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .. import obs
from ..distributions.joint import ScenarioSet
from . import kernels
from .detection import OrderingPricer
from .policy import Ordering

__all__ = [
    "LazyPalTable",
    "PalEntryMemo",
    "PalTable",
    "subset_table_pays",
    "SUBSET_TABLE_TYPE_LIMIT",
]

#: Beyond this many alert types the ``2^T`` subset space itself explodes
#: (memory and build time); callers must fall back to the legacy walk.
#: Enumeration solving is capped at 7 types (7! orderings) anyway.
SUBSET_TABLE_TYPE_LIMIT = 12

#: Cap on the consumption DP working set (mask rows x scenario columns,
#: in float64 elements); larger scenario sets are swept in chunks.
_DP_ELEMENT_BUDGET = 1 << 22

#: Cap on the entries one :class:`PalEntryMemo` holds (~150 bytes each
#: at ``T = 4``); a full memo is cleared.  Syn A's ``B = 10`` brute-force
#: grid has 35 646 distinct entries.
_ENTRY_MEMO_CAPACITY = 1 << 16


def subset_table_pays(
    n_orderings: int,
    n_types: int,
    type_limit: int = SUBSET_TABLE_TYPE_LIMIT,
) -> bool:
    """True when the eager subset table beats per-ordering walks.

    The table costs ``T * 2^(T-1)`` scenario sweeps (plus the ``2^T``
    consumption DP); pricing ``n`` orderings legacy-style costs
    ``n * T`` sweeps.  The table pays once ``n > 2^(T-1)`` — e.g. the
    full ordering set ``T!`` for every ``T >= 3``, which is why
    enumeration and :func:`~repro.core.detection.pal_for_orderings`
    choose it by this test.  Above ``type_limit`` the mask space itself
    is the bottleneck and the table never pays.  (CGGS does not use this
    test: its :class:`LazyPalTable` fills only the entries it visits.)
    """
    if n_types < 3 or n_types > type_limit:
        return False
    return n_orderings > (1 << (n_types - 1))


@functools.cache
def _mask_recursion(n_masks: int) -> tuple[np.ndarray, np.ndarray]:
    """``(prev, bit)`` of the lowest-set-bit DP, one entry per mask.

    Computed once per mask count; the arrays are shared and read-only.
    """
    prev = np.zeros(n_masks, dtype=np.int64)
    bit = np.zeros(n_masks, dtype=np.int64)
    for mask in range(1, n_masks):
        low = mask & -mask
        prev[mask] = mask ^ low
        bit[mask] = low.bit_length() - 1
    prev.flags.writeable = False
    bit.flags.writeable = False
    return prev, bit


class _SubsetLayout(NamedTuple):
    """Per-type-count index constants of a subset-table build.

    ``rows_without[t]`` lists the ``2^(T-1)`` predecessor masks that
    exclude type ``t``; the arrays below are indexed ``[t, i]`` (and
    ``[t, i, s]``) over those rows.  ``members`` marks the types ``s``
    in row ``i``'s mask, ``key_fill`` holds the entry-key sentinels
    (``-2`` at ``s == t``, ``-1`` at every other non-member) and
    ``shareable[t, i]`` is False for the one row whose mask holds every
    type but ``t``.
    """

    prev: np.ndarray
    bit: np.ndarray
    types: np.ndarray
    rows_without: np.ndarray
    members: np.ndarray
    key_fill: np.ndarray
    shareable: np.ndarray


@functools.cache
def _subset_layout(n_types: int) -> _SubsetLayout:
    """The read-only :class:`_SubsetLayout` of ``n_types`` types."""
    n_masks = 1 << n_types
    masks = np.arange(n_masks)
    types = np.arange(n_types)
    rows = np.stack([masks[(masks >> t) & 1 == 0] for t in types])
    members = (rows[:, :, None] >> types) & 1 == 1
    key_fill = np.where(
        types[:, None, None] == types, -2.0, -1.0
    ).repeat(rows.shape[1], axis=1)
    shareable = rows != (n_masks - 1) ^ (1 << types)[:, None]
    for array in (types, rows, members, key_fill, shareable):
        array.flags.writeable = False
    return _SubsetLayout(
        *_mask_recursion(n_masks), types, rows, members, key_fill,
        shareable,
    )


class PalEntryMemo:
    """Exact subset-table entries shared by every table of one solver.

    Entry ``table[t, S]`` reads the thresholds only through
    ``contrib_s = min(b_s, Z_s C_s)`` for ``s`` in ``S`` and the quota
    ``floor(b_t / C_t)``; everything else it reads (scenarios, costs,
    budget, zero-count rule, scenario chunking) is fixed for one
    solver.  So the memo keys an entry by ``(t, S, floor(b_t / C_t),
    b_S)``, packed as one ``bytes`` string of ``T + 1`` float64s: the
    quota, then ``b_s`` for ``s`` in ``S``, ``-2`` at ``t`` and ``-1``
    elsewhere (thresholds are never negative or NaN, so the sentinels
    cannot collide).  Values are Python floats, each
    bitwise what a fresh build computes for that key.

    Entries whose ``S`` holds every type but ``t`` are never stored: their
    key fixes the whole vector, which a solver does not price twice.
    The memo is cleared before a build's new entries would take it past
    :data:`_ENTRY_MEMO_CAPACITY`; since every value is exact, eviction
    changes only speed.

    A memo serves one pricing scope: the first table built through it
    fixes the scenario set, costs, budget, zero-count rule and scenario
    chunk, and a table with any other raises ``ValueError``.
    """

    __slots__ = ("_entries", "_scope")

    def __init__(self) -> None:
        self._entries: dict[bytes, float] = {}
        self._scope: tuple | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def _bind(
        self, pricer: OrderingPricer, scenario_chunk: int | None
    ) -> None:
        """Fix (first call) or check the pricing scope of this memo."""
        scope = (
            pricer.weights,
            pricer.costs.tobytes(),
            pricer.budget,
            pricer.zero_count_rule,
            scenario_chunk,
        )
        if self._scope is None:
            self._scope = scope
        elif scope[0] is not self._scope[0] or scope[1:] != self._scope[1:]:
            raise ValueError(
                "PalEntryMemo is bound to another scenario set, cost "
                "vector, budget, zero-count rule or scenario chunk"
            )

    def _keys(
        self, pricer: OrderingPricer, layout: _SubsetLayout
    ) -> list[bytes]:
        """One packed key per ``(t, row)`` entry, row-major over ``t``."""
        n_types = pricer.n_types
        keys = np.empty(layout.members.shape[:2] + (n_types + 1,))
        keys[:, :, 0] = pricer.quota[:, None]
        np.copyto(keys[:, :, 1:], layout.key_fill)
        np.copyto(keys[:, :, 1:], pricer.thresholds, where=layout.members)
        packed = np.dtype((np.void, keys.itemsize * (n_types + 1)))
        return keys.view(packed).ravel().tolist()

    def _lookup(self, keys: list[bytes]) -> np.ndarray:
        """The stored value of each key, NaN where none is stored."""
        get = self._entries.get
        return np.array([get(key, np.nan) for key in keys])

    def _store(self, keys: Iterable[bytes], values: np.ndarray) -> None:
        """Add entries, first clearing a memo they would overfill."""
        if len(self._entries) + len(values) > _ENTRY_MEMO_CAPACITY:
            self._entries.clear()
        self._entries.update(zip(keys, values.tolist()))


class PalTable:
    """``Pal(o, b, t)`` for *every* ordering, from one subset table.

    Built once per ``(thresholds, scenarios)`` pair; :meth:`pal`
    assembles a complete or partial ordering's detection row with one
    table lookup per placed type.  Entries ``table[t, mask]`` hold
    ``E_Z[n_t / Z_t]`` given that exactly the types in ``mask`` were
    audited before ``t``; entries with ``t`` in ``mask`` are unused
    (an ordering never revisits a type).

    :meth:`from_pricer` accepts a :class:`PalEntryMemo`: entries whose
    key ``(t, S, floor(b_t / C_t), b_S)`` it already holds are copied
    from it, and only the missing ``(t, rows)`` run the consumption DP
    and the type sweep, through the same kernels and the same per-row
    :func:`~repro.core.kernels.expectation_reduce`.  Each row reduces on
    its own, so a memo-filled table is bitwise the table a fresh build
    gives.  The enumeration solver shares one memo across every vector
    it prices.
    """

    __slots__ = ("_pricer", "_table", "_memo")

    def __init__(
        self,
        thresholds: np.ndarray,
        scenarios: ScenarioSet,
        costs: np.ndarray,
        budget: float,
        zero_count_rule: str = "unit",
        *,
        scenario_chunk: int | None = None,
    ) -> None:
        self._pricer = OrderingPricer(
            thresholds, scenarios, costs, budget, zero_count_rule
        )
        self._memo = None
        self._build(scenario_chunk)

    @classmethod
    def from_pricer(
        cls,
        pricer: OrderingPricer,
        scenario_chunk: int | None = None,
        memo: PalEntryMemo | None = None,
    ) -> "PalTable":
        """Build from an already-validated :class:`OrderingPricer`,
        reusing (and filling) ``memo``'s entries when one is given."""
        table = object.__new__(cls)
        table._pricer = pricer
        table._memo = memo
        table._build(scenario_chunk)
        return table

    @property
    def n_types(self) -> int:
        return self._pricer.n_types

    @property
    def table(self) -> np.ndarray:
        """The raw ``(T, 2^T)`` lookup table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def _build(self, scenario_chunk: int | None) -> None:
        p = self._pricer
        n_types = p.n_types
        if n_types > SUBSET_TABLE_TYPE_LIMIT:
            raise ValueError(
                f"{n_types} alert types give 2^{n_types} predecessor "
                f"sets (> 2^{SUBSET_TABLE_TYPE_LIMIT}); use the legacy "
                "per-ordering kernel instead"
            )
        if scenario_chunk is not None and scenario_chunk < 1:
            raise ValueError(
                f"scenario_chunk must be >= 1, got {scenario_chunk}"
            )
        # Telemetry at the build boundary only — the DP loops below stay
        # obs-free (RPL701).
        obs.counter("repro_pal_table_builds_total")
        with obs.span("pal_table.build", types=n_types):
            computed, reused = self._build_table(scenario_chunk, n_types)
        obs.counter(
            "repro_pal_table_entries_total", computed, source="computed"
        )
        obs.counter("repro_pal_table_entries_total", reused, source="reused")

    def _build_table(
        self, scenario_chunk: int | None, n_types: int
    ) -> tuple[int, int]:
        """Fill the table; returns ``(computed, reused)`` entry counts."""
        layout = _subset_layout(n_types)
        table = np.zeros((n_types, 1 << n_types))
        memo = self._memo
        if memo is None:
            self._sweep(table, layout.rows_without, scenario_chunk, layout)
            self._table = table
            return layout.rows_without.size, 0
        memo._bind(self._pricer, scenario_chunk)
        keys = memo._keys(self._pricer, layout)
        known = memo._lookup(keys).reshape(layout.rows_without.shape)
        missing = np.isnan(known)
        entries = (layout.types[:, None], layout.rows_without)
        table[entries] = np.where(missing, 0.0, known)
        self._sweep(
            table,
            [rows[gap] for rows, gap in zip(layout.rows_without, missing)],
            scenario_chunk,
            layout,
        )
        fresh = (missing & layout.shareable).ravel()
        memo._store(
            itertools.compress(keys, fresh), table[entries].ravel()[fresh]
        )
        self._table = table
        computed = int(missing.sum())
        return computed, missing.size - computed

    def _sweep(
        self,
        table: np.ndarray,
        todo: Sequence[np.ndarray],
        scenario_chunk: int | None,
        layout: _SubsetLayout,
    ) -> None:
        """Compute ``table[t, todo[t]]`` for every type ``t``."""
        p = self._pricer
        n_masks = layout.prev.shape[0]
        n_scenarios = p.counts.shape[0]
        if scenario_chunk is None:
            scenario_chunk = max(1, _DP_ELEMENT_BUDGET // n_masks)
        n_rows = max(len(rows) for rows in todo)
        # Working buffers are allocated once per distinct chunk width (at
        # most two: the full width and the final remainder) instead of
        # fresh temporaries per mask and per type — the allocation churn
        # dominated the numpy path at T=8.  Each type sweeps a leading
        # slice of the row buffer, still C-contiguous, so the closing
        # reduction runs on contiguous rows, i.e. on the same numpy
        # pairwise path whatever the number of rows.
        consumed_bufs: dict[int, np.ndarray] = {}
        work_bufs: dict[int, np.ndarray] = {}
        # Chunking the scenario axis bounds the DP working set; the
        # per-chunk partial expectations accumulate deterministically in
        # scenario order, and the common case (everything in one chunk)
        # adds each full row sum to an exact 0.0 — bitwise a no-op.
        for start in range(0, n_scenarios, scenario_chunk):
            chunk = slice(start, min(start + scenario_chunk, n_scenarios))
            contrib = np.ascontiguousarray(p.contrib[chunk])
            weights = p.weights[chunk]
            width = contrib.shape[0]
            consumed = consumed_bufs.get(width)
            if consumed is None:
                consumed = consumed_bufs.setdefault(
                    width, np.empty((n_masks, width))
                )
            work = work_bufs.get(width)
            if work is None:
                work = work_bufs.setdefault(
                    width, np.empty((n_rows, width))
                )
            kernels.dp_consumed(contrib, layout.prev, layout.bit, consumed)
            for t, rows in enumerate(todo):
                if not len(rows):
                    continue
                out = work[:len(rows)]
                kernels.type_products(
                    consumed,
                    rows,
                    float(p.costs[t]),
                    float(p.quota[t]),
                    np.ascontiguousarray(p.effective[chunk, t]),
                    np.ascontiguousarray(p.zsafe[chunk, t]),
                    weights,
                    float(p.budget),
                    out,
                )
                table[t, rows] += kernels.expectation_reduce(out)

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` assembled by table lookup.

        Works for partial orderings too (unplaced types get 0), matching
        the legacy walk's semantics.
        """
        n_types = self._pricer.n_types
        pal = np.zeros(n_types)
        mask = 0
        for t in ordering:
            if not 0 <= t < n_types:
                raise ValueError(f"type index {t} out of range")
            pal[t] = self._table[t, mask]
            mask |= 1 << t
        return pal

    def pal_rows(
        self, orderings: Iterable[Ordering | Sequence[int]]
    ) -> np.ndarray:
        """Stack of ``Pal`` rows, one per ordering (in input order)."""
        rows = [self.pal(o) for o in orderings]
        if not rows:
            raise ValueError("need at least one ordering")
        return np.stack(rows, axis=0)

    def extension_values(
        self, mask: int, types: Sequence[int]
    ) -> np.ndarray:
        """``Pal`` entries for appending each ``t`` after predecessor
        set ``mask`` — the column-generation oracle's lookup."""
        return self._table[np.asarray(types, dtype=np.int64), mask]


class LazyPalTable:
    """Per-entry lazy variant of :class:`PalTable` for column generation.

    The full table pays ``T * 2^(T-1)`` scenario sweeps up front — the
    right trade when all ``T!`` orderings are priced (enumeration), but
    overkill for CGGS, whose greedy oracle only ever visits the ``~T^2``
    ``(type, predecessor set)`` entries along its construction paths.
    This variant computes the *same* entries on demand:

    * ``consumed(S)`` follows the full table's lowest-set-bit recursion
      (memoized per mask), so partial sums accumulate in the identical
      order;
    * one **vectorized sweep per prefix mask** prices every free type at
      once (:meth:`extension_values`) — exactly the greedy append step's
      need — with per-``(t, mask)`` scalar fills for stray lookups.

    Every elementwise operation and the closing pairwise expectation
    reduction mirror :meth:`PalTable._build` entry for entry, so lazy
    and eager tables agree bitwise; only the set of *computed* entries
    differs.  The per-mask fills run the same numpy pipelines as the
    eager build (:mod:`repro.core.kernels`).  Because no ``2^T`` array
    is ever allocated, this variant has no
    :data:`SUBSET_TABLE_TYPE_LIMIT` — memory scales with the masks
    actually visited.
    """

    __slots__ = ("_pricer", "_consumed", "_rows", "_entries")

    def __init__(
        self,
        thresholds: np.ndarray,
        scenarios: ScenarioSet,
        costs: np.ndarray,
        budget: float,
        zero_count_rule: str = "unit",
    ) -> None:
        self._pricer = OrderingPricer(
            thresholds, scenarios, costs, budget, zero_count_rule
        )
        self._init_caches()

    @classmethod
    def from_pricer(cls, pricer: OrderingPricer) -> "LazyPalTable":
        """Build from an already-validated :class:`OrderingPricer`."""
        table = object.__new__(cls)
        table._pricer = pricer
        table._init_caches()
        return table

    def _init_caches(self) -> None:
        self._consumed: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._entries: dict[tuple[int, int], float] = {}

    @property
    def n_types(self) -> int:
        return self._pricer.n_types

    def _consumed_for(self, mask: int) -> np.ndarray:
        """Per-scenario budget consumed by the types in ``mask``.

        Same lowest-set-bit recursion (and therefore accumulation
        order) as the eager consumption DP.
        """
        mask = int(mask)
        cached = self._consumed.get(mask)
        if cached is None:
            if mask == 0:
                cached = np.zeros(self._pricer.counts.shape[0])
            else:
                low = mask & -mask
                cached = self._consumed_for(mask ^ low) + (
                    self._pricer.contrib[:, low.bit_length() - 1]
                )
            self._consumed[mask] = cached
        return cached

    def extension_values(
        self, mask: int, types: Sequence[int]
    ) -> np.ndarray:
        """``Pal`` entries for appending each ``t`` after ``mask``.

        All free types of a first-seen mask are priced in one vectorized
        sweep and cached, so a greedy append step costs exactly one
        sweep however many candidates it scores.
        """
        row = self._row_for(mask)
        return row[np.asarray(types, dtype=np.int64)]

    def _row_for(self, mask: int) -> np.ndarray:
        mask = int(mask)
        row = self._rows.get(mask)
        if row is None:
            p = self._pricer
            free = [
                t for t in range(p.n_types) if not (mask >> t) & 1
            ]
            free_idx = np.asarray(free, dtype=np.int64)
            consumed = self._consumed_for(mask)
            products = np.empty((len(free), consumed.shape[0]))
            kernels.extension_products(
                consumed,
                np.ascontiguousarray(p.costs[free_idx]),
                np.ascontiguousarray(p.quota[free_idx]),
                np.ascontiguousarray(p.effective[:, free_idx].T),
                np.ascontiguousarray(p.zsafe[:, free_idx].T),
                p.weights,
                float(p.budget),
                products,
            )
            row = np.zeros(p.n_types)
            row[free] = kernels.expectation_reduce(products)
            self._rows[mask] = row
        return row

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` assembled from lazily computed entries.

        Works for partial orderings too (unplaced types get 0), matching
        the legacy walk's semantics.
        """
        p = self._pricer
        n_types = p.n_types
        pal = np.zeros(n_types)
        mask = 0
        for t in ordering:
            t = int(t)
            if not 0 <= t < n_types:
                raise ValueError(f"type index {t} out of range")
            row = self._rows.get(mask)
            if row is not None:
                pal[t] = row[t]
            else:
                pal[t] = self._entry(t, mask)
            mask |= 1 << t
        return pal

    def _entry(self, t: int, mask: int) -> float:
        """One scalar table entry (memoized) — no full-row sweep."""
        cached = self._entries.get((t, mask))
        if cached is None:
            p = self._pricer
            consumed = self._consumed_for(mask)
            capacity = np.floor((p.budget - consumed) / p.costs[t])
            np.maximum(capacity, 0.0, out=capacity)
            audited = np.minimum(
                np.minimum(capacity, p.quota[t]), p.effective[:, t]
            )
            ratio = audited / p.zsafe[:, t]
            cached = float((ratio * p.weights).sum())
            self._entries[(t, mask)] = cached
        return cached
