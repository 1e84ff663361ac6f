"""Batched columnar answer emission: block-at-a-time join-tree expansion.

The tuple-at-a-time enumerators (:mod:`repro.enumeration.full_acyclic`)
realise the paper's constant-delay bound with one Python-level hash probe
per join-tree node per answer — correct, but interpreter speed dominates.
Segoufin's habilitation frames delay as an *amortised budget*, which
licenses emitting answers in blocks: a block of B answers produced by
O(m) vectorized kernel calls costs O(m / B) interpreted steps per answer.

:class:`BlockIterator` walks the join tree in the same parent-before-child
order as the per-tuple enumerator, but carries a *batch* of partial
assignments as dictionary-encoded int64 columns:

* **preprocessing** builds, per non-root node, a :class:`_BatchProbe`:
  the node's probe columns (variables shared with its parent) are folded
  into one dense int64 key per row (pairwise packing with
  ``np.unique``-densification, so intermediates never overflow), then the
  rows are stably argsorted by key — insertion order is preserved inside
  each key group;
* **expansion** of one batch against a node is the parent-code gather +
  group-offset arithmetic of the columnar join kernel: ``searchsorted``
  the batch keys into the sorted node keys, ``repeat``/``cumsum`` the
  match runs open, and gather both sides' columns — no per-tuple Python;
* batches are re-chunked to at most ``block_size`` rows *before* each
  expansion, so the largest array ever materialised is
  ``block_size * max-fanout-per-node`` — memory stays proportional to the
  block size, not to the output;
* at the leaves the head columns are decoded through the shared
  :class:`~repro.engine.columnar.ValueDictionary` once per block and
  emitted as a list of Python tuples.

On globally consistent (fully reduced) inputs no probe comes back empty,
so every expansion makes output progress — the amortised-delay analogue
of the paper's no-dead-end argument for Theorem 4.6.  The emitted answer
*multiset* equals the tuple-at-a-time enumerator's (the order of answers
may differ: blocks follow key-sorted probe runs, not index insertion
order); ``tests/test_enum_block_parity.py`` checks this property on
random free-connex queries.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.engine.columnar import ColumnarRelation
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree, cached_join_tree
from repro.logic.terms import Variable

Tup = Tuple[Any, ...]

DEFAULT_BLOCK_SIZE = 1024
BLOCK_ENV_VAR = "REPRO_BLOCK_SIZE"


def resolve_block_size(block_size: Optional[int] = None) -> int:
    """Normalise a ``block_size`` argument.

    ``None`` consults the ``REPRO_BLOCK_SIZE`` environment variable and
    falls back to :data:`DEFAULT_BLOCK_SIZE`; zero or a negative value
    disables batching (callers then keep the tuple-at-a-time path).
    """
    if block_size is None:
        env = os.environ.get(BLOCK_ENV_VAR)
        if env:
            try:
                block_size = int(env)
            except ValueError:
                raise ValueError(
                    f"{BLOCK_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            block_size = DEFAULT_BLOCK_SIZE
    return int(block_size)


def batchable(relations: Sequence[Any]) -> bool:
    """Can ``relations`` feed the batched pipeline?  All columnar, one
    shared dictionary (codes are only comparable inside one dictionary)."""
    if not relations:
        return False
    if not all(isinstance(r, ColumnarRelation) for r in relations):
        return False
    dictionary = relations[0].dictionary
    return all(r.dictionary is dictionary for r in relations)


class _BatchProbe:
    """Sorted-key probe structure of one join-tree node.

    Folds the node's probe columns into a single dense int64 key per row
    and argsorts the rows by key, so a batch of probe keys resolves to
    (start, count) runs with two ``searchsorted`` calls per key column.
    """

    __slots__ = ("steps", "order", "sorted_keys", "nrows")

    def __init__(self, key_columns: Sequence[np.ndarray], nrows: int):
        self.nrows = nrows
        # per column: (sorted unique packed-so-far, sorted unique column)
        self.steps: List[Tuple[np.ndarray, np.ndarray]] = []
        packed = np.zeros(nrows, dtype=np.int64)
        for col in key_columns:
            cu, col_dense = np.unique(col, return_inverse=True)
            su, dense = np.unique(packed, return_inverse=True)
            packed = dense.reshape(-1) * max(len(cu), 1) + col_dense.reshape(-1)
            self.steps.append((su, cu))
        self.order = np.argsort(packed, kind="stable")
        self.sorted_keys = packed[self.order]

    def extended(self, new_key_columns: Sequence[np.ndarray], count: int
                 ) -> Optional["_BatchProbe"]:
        """A probe over this structure's rows plus ``count`` appended
        rows, built by merging instead of re-sorting.

        The packing steps are reusable only when every appended value
        (and every intermediate packed key) already occurs in the
        structure's sorted-unique tables — otherwise the densification
        would assign codes the existing ``sorted_keys`` never saw, and
        we return ``None`` so the caller falls back to a full rebuild.
        Appended rows are merged after all equal existing keys
        (``side='right'``), which is exactly where a stable argsort of
        the extended columns would put them, so lookups on the patched
        probe are indistinguishable from a cold build.
        """
        packed = np.zeros(count, dtype=np.int64)
        for (su, cu), col in zip(self.steps, new_key_columns):
            col = np.ascontiguousarray(col, dtype=np.int64)
            if len(cu) == 0 or len(su) == 0:
                return None
            ci = np.searchsorted(cu, col)
            np.clip(ci, 0, len(cu) - 1, out=ci)
            if not (cu[ci] == col).all():
                return None
            si = np.searchsorted(su, packed)
            np.clip(si, 0, len(su) - 1, out=si)
            if not (su[si] == packed).all():
                return None
            packed = si * len(cu) + ci
        pos = np.searchsorted(self.sorted_keys, packed, side="right")
        patched = _BatchProbe.__new__(_BatchProbe)
        patched.nrows = self.nrows + count
        patched.steps = self.steps
        patched.order = np.insert(
            self.order, pos,
            np.arange(self.nrows, self.nrows + count, dtype=np.int64))
        patched.sorted_keys = np.insert(self.sorted_keys, pos, packed)
        return patched

    def lookup(self, key_columns: Sequence[np.ndarray], k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a batch of ``k`` probe keys to ``(lo, counts)``:
        ``counts[i]`` matching rows starting at sorted position ``lo[i]``."""
        if self.nrows == 0:
            zeros = np.zeros(k, dtype=np.int64)
            return zeros, zeros
        packed = np.zeros(k, dtype=np.int64)
        valid = np.ones(k, dtype=bool)
        for (su, cu), col in zip(self.steps, key_columns):
            if len(cu) == 0:  # pragma: no cover - nrows == 0 handled above
                return np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
            ci = np.searchsorted(cu, col)
            np.clip(ci, 0, len(cu) - 1, out=ci)
            valid &= cu[ci] == col
            si = np.searchsorted(su, packed)
            np.clip(si, 0, len(su) - 1, out=si)
            valid &= su[si] == packed
            packed = si * len(cu) + ci
        lo = np.searchsorted(self.sorted_keys, packed, side="left")
        counts = np.searchsorted(self.sorted_keys, packed, side="right") - lo
        counts[~valid] = 0
        return lo.astype(np.int64, copy=False), counts.astype(np.int64,
                                                              copy=False)


def build_probe(rel: ColumnarRelation, probe_vars: Sequence[Variable]):
    """The node's batch probe structure, memoised on the relation.

    The probe's index (the argsort inside ``_BatchProbe``) is the
    expensive part of probe construction; caching it on the relation
    (:meth:`ColumnarRelation.cached_probe`, shared across ``copy()``
    views and invalidated by the relation's version counter) means
    repeated enumerator builds over the same reduced relations — warm
    plan-cache runs, parallel enumeration workers, reruns at a different
    block size — skip the rebuild entirely.
    """
    return rel.batch_probe(tuple(probe_vars))


class BlockIterator:
    """Batched enumeration of a consistent acyclic full join.

    Parameters
    ----------
    relations:
        :class:`ColumnarRelation` operands sharing one dictionary; their
        variable sets must form an alpha-acyclic hypergraph.
    head:
        Output variable order; must cover every join variable (genuine
        projections belong to the free-connex preprocessing, which hands
        this class projection-free inputs).
    block_size:
        Target answers per emitted block (the amortisation unit B).
    tree:
        Optional prebuilt join tree (nodes indexing ``relations``).
    reduce:
        Run the full reducer first (True unless the caller guarantees
        global consistency).

    Iterating the instance yields single answers; :meth:`blocks` yields
    lists of up to ``block_size`` answers.  Both are restartable — all
    state below is immutable after construction, so one ``BlockIterator``
    can be shared (e.g. through the plan cache) by many consumers.
    """

    def __init__(self, relations: Sequence[ColumnarRelation],
                 head: Sequence[Variable],
                 block_size: Optional[int] = None,
                 tree: Optional[JoinTree] = None,
                 reduce: bool = True):
        if not batchable(relations):
            raise TypeError(
                "BlockIterator needs ColumnarRelation operands sharing one "
                "ValueDictionary; convert via an engine first"
            )
        self._head = tuple(head)
        self.block_size = max(1, resolve_block_size(block_size))
        relations = list(relations)
        if tree is None:
            h = Hypergraph(
                {v for r in relations for v in r.variables},
                [frozenset(r.variables) for r in relations],
            )
            tree = cached_join_tree(h)
        if reduce:
            from repro.enumeration.full_acyclic import reduce_relations

            relations = reduce_relations(tree, relations)
        self._relations = relations
        self._empty = any(len(r) == 0 for r in relations)
        self._dict = relations[0].dictionary
        self._order = tree.top_down()
        # per level: probe variables (bound so far = shared with parent,
        # by the running-intersection property), fresh output variables,
        # and the sorted probe structure
        self._probe_vars: List[Tuple[Variable, ...]] = []
        self._fresh_vars: List[Tuple[Variable, ...]] = []
        self._probes: List[Optional[_BatchProbe]] = []
        bound: set = set()
        with obs.span("block_iter.build_probes", levels=len(self._order),
                      block_size=self.block_size):
            for level, node in enumerate(self._order):
                rel = relations[node]
                pv = tuple(v for v in rel.variables if v in bound)
                fresh = tuple(v for v in rel.variables if v not in bound)
                bound.update(rel.variables)
                self._probe_vars.append(pv)
                self._fresh_vars.append(fresh)
                if level == 0:
                    self._probes.append(None)
                else:
                    self._probes.append(build_probe(rel, pv))
        missing = [v for v in self._head if v not in bound]
        if missing:
            raise ValueError(
                f"head variables {[v.name for v in missing]} do not occur "
                "in any relation"
            )

    # ------------------------------------------------------------- pipeline

    def _expand(self, level: int, batch: Dict[Variable, np.ndarray],
                nrows: int) -> Tuple[Dict[Variable, np.ndarray], int]:
        """Join one batch of partial assignments against level's node.

        With tracing live, each batch probe gets its own span carrying
        the level and in/out row counts (the per-level "batch probe"
        unit of the amortised-delay argument); disabled, the cost is one
        attribute check per block — not per answer."""
        if not obs.enabled():
            return self._expand_raw(level, batch, nrows)
        with obs.span("block.expand", level=level, rows_in=nrows) as sp:
            obs.count("enum.batch_probes")
            obs.count("enum.rows_probed", nrows)
            out, total = self._expand_raw(level, batch, nrows)
            sp.set("rows_out", total)
            if total == 0:
                # a dead end: on fully reduced inputs every expansion
                # must make progress (Theorem 4.6's no-dead-end
                # invariant) — `repro analyze` flags any occurrence
                obs.count("enum.dead_ends")
            return out, total

    def _expand_raw(self, level: int, batch: Dict[Variable, np.ndarray],
                    nrows: int) -> Tuple[Dict[Variable, np.ndarray], int]:
        node = self._order[level]
        rel = self._relations[node]
        probe = self._probes[level]
        pv = self._probe_vars[level]
        lo, counts = probe.lookup([batch[v] for v in pv], nrows)
        total = int(counts.sum())
        if total == 0:
            return {}, 0
        batch_idx = np.repeat(np.arange(nrows, dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts  # exclusive prefix sum
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts,
                                                              counts)
        rel_rows = probe.order[np.repeat(lo, counts) + within]
        out = {v: col[batch_idx] for v, col in batch.items()}
        for v in self._fresh_vars[level]:
            out[v] = rel.column(v)[rel_rows]
        return out, total

    def _walk(self, level: int, batch: Dict[Variable, np.ndarray],
              nrows: int) -> Iterator[List[Tup]]:
        """Depth-first block expansion: chunk to B rows, expand, recurse."""
        if nrows == 0:
            return
        if level == len(self._order):
            yield from self._emit(batch, nrows)
            return
        block = self.block_size
        for start in range(0, nrows, block):
            stop = min(start + block, nrows)
            chunk = {v: col[start:stop] for v, col in batch.items()}
            expanded, total = self._expand(level, chunk, stop - start)
            yield from self._walk(level + 1, expanded, total)

    def _emit(self, batch: Dict[Variable, np.ndarray], nrows: int
              ) -> Iterator[List[Tup]]:
        """Decode the head columns of a finished batch, block by block."""
        table = self._dict.decode_table()
        code_cols = [batch[v] for v in self._head]
        block = self.block_size
        if not code_cols:  # zero-ary head: nrows copies of ()
            for start in range(0, nrows, block):
                size = min(start + block, nrows) - start
                obs.count("enum.blocks")
                obs.count("enum.answers", size)
                yield [()] * size
            return
        for start in range(0, nrows, block):
            stop = min(start + block, nrows)
            decoded = [table[c[start:stop]].tolist() for c in code_cols]
            obs.count("enum.blocks")
            obs.count("enum.answers", stop - start)
            yield list(zip(*decoded))

    # -------------------------------------------------------------- iteration

    def blocks(self) -> Iterator[List[Tup]]:
        """Yield answer blocks (lists of head tuples) of size <= B.

        Each block's production gap (consumer time excluded: the clock
        restarts after the yield returns) feeds the always-on registry's
        amortised per-answer delay sketch — one ``obs.delay`` per block,
        weight = answers, so the per-answer hot path stays untouched."""
        if self._empty:
            return
        root = self._relations[self._order[0]]
        batch = {v: root.column(v) for v in root.variables}
        clock = time.perf_counter_ns
        last = clock()
        for block in self._walk(1, batch, len(root)):
            obs.delay(clock() - last, len(block))
            yield block
            last = clock()

    def __iter__(self) -> Iterator[Tup]:
        for block in self.blocks():
            yield from block


def block_enumerate(relations: Sequence[ColumnarRelation],
                    head: Sequence[Variable],
                    block_size: Optional[int] = None,
                    reduce: bool = True) -> Iterator[Tup]:
    """Convenience wrapper: flat answer stream over :class:`BlockIterator`."""
    return iter(BlockIterator(relations, head, block_size=block_size,
                              reduce=reduce))
