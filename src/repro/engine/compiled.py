"""The ``compiled`` engine tier: radix hash kernels + per-symbol sharing.

A fourth backend (``REPRO_ENGINE=compiled`` / ``--engine compiled``)
layered on the columnar representation.  Two things change relative to
``columnar``:

1. **Kernels.**  The hot semijoin/probe/expand/group-count paths run on
   the radix-partitioned open-addressing tables of
   :mod:`repro.engine.radix`, JIT-compiled with numba when available.
   Without numba every probe structure transparently degrades to the
   sort-based ``_BatchProbe``/``group_ids`` kernels of the columnar
   backend (``REPRO_COMPILED_FALLBACK`` forces either tier), so the
   backend is always selectable and always correct — only the constant
   factors move.

2. **Per-symbol work sharing.**  The columnar backend already encodes a
   stored relation once per symbol (``encoded_relation_columns`` caches
   on the relation); this backend extends the sharing to *probe
   structures*: atoms whose terms are all-distinct variables materialise
   to the base columns in term order, so their probe tables depend only
   on (symbol, column positions) — never on variable names.  The engine
   keeps one position-keyed probe-cache dict per stored relation version
   (LRU, keyed on the relation's never-reused ``serial`` exactly like
   :mod:`repro.core.plancache`), and every such atom's materialisation
   shares it.  A self-join query with k atoms over one symbol builds
   each probe table once instead of k times; ``Relation.version`` bumps
   invalidate by changing the cache key.  The
   ``compiled.symbol_cache_hits``/``misses`` counters make the sharing
   observable.

Semantics are unchanged: every operation returns the same rows in the
same order as the columnar backend (the radix tables preserve insertion
order within a key group, matching the stable argsort contract), so the
parity suites compare answer *sequences*, not just sets.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.engine.base import ColumnarEngine
from repro.engine.columnar import (
    ColumnarRelation,
    count_acyclic_join_columnar,
    materialise_atom_columnar,
)
from repro.engine.radix import (
    RADIX_BITS_ENV_VAR,
    RadixTable,
    kernel_tier,
    make_probe,
)
from repro.engine.symbols import SYMBOL_WORKSPACE_LIMIT
from repro.logic.terms import Variable

#: stored relations whose probe caches the engine keeps alive (LRU) —
#: kept as a re-export: the per-symbol cache this tier pioneered now
#: lives in :class:`repro.engine.symbols.SymbolWorkspace`, shared by
#: every backend
SYMBOL_CACHE_LIMIT = SYMBOL_WORKSPACE_LIMIT


class CompiledRelation(ColumnarRelation):
    """A :class:`ColumnarRelation` whose probes are radix hash tables.

    All construction paths (``project``, ``select_mask``, ``join``, …)
    stay in-class via ``type(self)`` dispatch in the base class, so a
    pipeline that starts compiled remains compiled end to end.
    """

    __slots__ = ()

    def batch_probe(self, probe_vars: Sequence[Variable]):
        """Probe structure keyed by *column positions*, not variables.

        Two same-symbol atoms ``R(x, y)`` and ``R(u, v)`` probing their
        first column resolve to the same cache entry — the payoff of the
        shared per-symbol cache installed by
        :meth:`CompiledEngine.materialise_atom`.  The kernel tier is part
        of the key so a mid-process ``REPRO_COMPILED_FALLBACK`` flip
        cannot serve a structure built by the other tier.
        """
        self._flush()
        positions = tuple(self._positions[v] for v in probe_vars)
        cols = self._columns
        nrows = self._nrows
        return self.cached_probe(
            ("radix_probe", positions, kernel_tier()),
            lambda: make_probe([cols[p] for p in positions], nrows))

    def semijoin(self, other: Any) -> "CompiledRelation":
        """Membership via the cached probe table of ``other``.

        Unlike the base kernel (which re-groups both sides with
        ``np.unique`` on every call), the build side is memoised on
        ``other`` — so k semijoins against one relation, or one semijoin
        repeated on a warm plan, build the table once.

        Only worthwhile with the JIT tier: the fallback probe resolves
        by binary search (O(n log n), cache-miss heavy), which loses to
        the columnar engine's O(n) dense ``group_ids`` scatter even on
        a warm probe — so the numpy tier keeps the base kernel and the
        fallback is transparent in speed, not just in answers.
        """
        if kernel_tier() != "numba":
            return super().semijoin(other)
        obs.count("kernel.semijoin")
        self._flush()
        other = self._coerce(other)
        shared = [v for v in self.variables if other.has_variable(v)]
        if not shared:
            if len(other):
                return self.copy()
            return type(self)(self.variables, dictionary=self._dict)
        probe = other.batch_probe(tuple(shared))
        _lo, counts = probe.lookup(
            [self.column(v) for v in shared], self._nrows)
        return self.select_mask(counts > 0)

    def join(self, other: Any) -> "CompiledRelation":
        """Natural join through the cached probe table of ``other``.

        Output rows match the columnar sort-merge join exactly: per left
        row, the matching right rows appear in insertion order (the
        radix table's in-group order contract).  As with ``semijoin``,
        the probe path only pays off JIT-compiled; the numpy tier keeps
        the columnar sort-merge kernel."""
        if kernel_tier() != "numba":
            return super().join(other)
        obs.count("kernel.join")
        self._flush()
        other = self._coerce(other)
        shared = [v for v in self.variables if other.has_variable(v)]
        extra = [v for v in other.variables if v not in self._positions]
        out_vars = self.variables + tuple(extra)
        n = self._nrows
        probe = other.batch_probe(tuple(shared))
        lo, counts = probe.lookup([self.column(v) for v in shared], n)
        total = int(counts.sum())
        self_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts  # exclusive prefix sum
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts,
                                                              counts)
        other_idx = probe.order[np.repeat(lo, counts) + within]
        cols = [c[self_idx] for c in self._columns]
        cols += [other.column(v)[other_idx] for v in extra]
        # distinct inputs joined on equal keys stay distinct: no dedupe
        return type(self).from_codes(out_vars, cols, total, self._dict)


# --------------------------------------------------------- counting kernel


def count_acyclic_join_compiled(
        relations: Sequence[ColumnarRelation], tree,
        charged: Dict[int, Tuple[Variable, ...]],
        share_vars: Dict[int, Tuple[Variable, ...]],
        weight_table: Optional[np.ndarray] = None) -> Any:
    """The Theorem 4.21 message pass on radix group tables.

    Mirrors :func:`repro.engine.columnar.count_acyclic_join_columnar`
    node for node; grouping and child-factor probes go through
    :class:`RadixTable` instead of sort-based ``group_ids``.  Per-group
    accumulation order is row order in both kernels, so results are
    bit-identical (including the float64 weighted path).  Falls back to
    the columnar kernel when the numba tier is unavailable.
    """
    if kernel_tier() != "numba":
        return count_acyclic_join_columnar(relations, tree, charged,
                                           share_vars, weight_table)
    messages: Dict[int, Tuple[RadixTable, np.ndarray]] = {}
    for node in tree.bottom_up():
        rel = relations[node]
        rel._flush()
        n = len(rel)
        if weight_table is None:
            values = np.ones(n, dtype=np.int64)
        else:
            values = np.ones(n, dtype=np.float64)
            for v in charged[node]:
                values = values * weight_table[rel.column(v)]
        for child in tree.children[node]:
            mtable, mvals = messages[child]
            if len(mvals) == 0:  # empty child: every extension count is 0
                values = np.zeros(n, dtype=values.dtype)
                continue
            # message keys are distinct (one row per group), so the
            # probe's group id *is* the message row index
            gid = mtable.gids(
                [rel.column(v) for v in share_vars[child]], n)
            valid = gid >= 0
            factor = np.where(
                valid, mvals[np.where(valid, gid, 0)],
                np.zeros(1, dtype=mvals.dtype))
            values = values * factor
        share_pos = tuple(rel.position(v) for v in share_vars[node])
        share_cols = [rel.column(v) for v in share_vars[node]]
        table = rel.cached_probe(
            ("radix_group", share_pos, "numba"),
            lambda: RadixTable(share_cols, n, compiled=True))
        messages[node] = (table, table.group_sums(values))
    _table, root_sums = messages[tree.root]
    if len(root_sums) == 0:
        return 0
    root = root_sums[0]
    return float(root) if weight_table is not None else int(root)


# ------------------------------------------------------------------ engine


class CompiledEngine(ColumnarEngine):
    """The fourth backend: columnar layout, radix kernels, symbol sharing."""

    name = "compiled"

    def __init__(self, dictionary=None):
        # per-symbol sharing (probe caches, masked variants, migration)
        # lives in the base class's SymbolWorkspace since every backend
        # now shares it; this tier contributes the radix probes
        super().__init__(dictionary)
        obs.gauge("compiled.kernel_tier_numba", 1 if kernel_tier() == "numba"
                  else 0)

    def relation(self, variables, tuples=None):
        return CompiledRelation(variables, tuples,
                                dictionary=self.dictionary)

    def symbol_cache_stats(self) -> Dict[str, int]:
        """Introspection for tests/doctor: live per-symbol cache size."""
        return self.workspace.stats()

    def materialise_atom(self, db, atom):
        base = materialise_atom_columnar(db, atom, self.dictionary,
                                         workspace=self.workspace,
                                         scope=self.name)
        out = CompiledRelation.from_codes(
            base.variables, base.code_columns(), len(base), self.dictionary)
        # identical columns -> identical probes; the workspace already
        # picked the right shared dict (base layout, masked variant, or
        # a private one with sharing disabled), and the two classes'
        # probe-key namespaces do not collide
        out._probecache = base._probecache
        return out

    def from_relation(self, rel):
        if isinstance(rel, CompiledRelation) \
                and rel.dictionary is self.dictionary:
            return rel
        if isinstance(rel, ColumnarRelation) \
                and rel.dictionary is self.dictionary:
            out = CompiledRelation.from_codes(
                rel.variables, rel.code_columns(), len(rel), self.dictionary)
            # identical columns -> identical probes (key namespaces of
            # the two classes do not collide)
            out._probecache = rel._probecache
            return out
        return CompiledRelation(rel.variables, iter(rel),
                                dictionary=self.dictionary)

    def plan_key(self) -> Tuple:
        """Folds the kernel tier and fan-out into PlanCache keys: a plan
        whose cached relations carry numba radix tables must not serve a
        process that flipped to the numpy fallback, and vice versa."""
        return super().plan_key() + (
            "kernel", kernel_tier(),
            "radix_bits", os.environ.get(RADIX_BITS_ENV_VAR) or "auto")

    # hook consulted by repro.counting.acq_count (duck-typed, like the
    # parallel engine's parallel_count)
    def count_acyclic(self, relations, tree, charged, share_vars,
                      weight_table=None):
        return count_acyclic_join_compiled(relations, tree, charged,
                                           share_vars, weight_table)


__all__ = [
    "SYMBOL_CACHE_LIMIT",
    "CompiledEngine",
    "CompiledRelation",
    "count_acyclic_join_compiled",
]
