"""Constant-delay enumeration of a globally consistent acyclic full join.

This is the kernel under the free-connex algorithm (Theorem 4.6): given
relations R_1..R_m over variable sets forming an alpha-acyclic hypergraph,
*globally consistent* (every tuple of every relation participates in at
least one join result), the full join can be enumerated with delay
O(m) — independent of the data — by nested index probes along a join tree
in depth-first preorder:

* by the running-intersection property, the variables a node shares with
  everything enumerated before it are exactly those shared with its
  parent, so one hash probe per node suffices;
* by global consistency no probe ever comes back empty, so the nested
  loops never hit a dead end and each step of the iteration makes output
  progress.

Global consistency is the caller's responsibility; for safety the
constructor can run a full-reducer pass (pairwise consistency along a join
tree implies global consistency for acyclic schemes — Beeri, Fagin, Maier,
Yannakakis 1983).

The tuple path runs the nested probes block-at-a-time: an explicit-stack
DFS over steps fixed at preprocessing time fills a block of answers per
resumption, with blocks doubling from one answer up to the block size.
Delay is recorded once per block, so the bound becomes O(block x depth)
per block boundary; ``block_size <= 0`` keeps blocks of one answer.
"""

from __future__ import annotations

import time
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import NotAcyclicError
from repro.engine.enumerate import BlockIterator, batchable, resolve_block_size
from repro.enumeration.base import Answer, Enumerator
from repro.eval.join import VarRelation
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree, build_join_tree
from repro.logic.terms import Variable

#: a tuple-to-tuple column picker (an ``operator.itemgetter``)
_Getter = Callable[[Answer], Answer]


def reduce_relations(tree: JoinTree, relations: List[VarRelation],
                     engine=None) -> List[VarRelation]:
    """Full reducer on bare relations along a join tree (node i uses
    relations[i]); returns the reduced list.

    When ``engine`` (an Engine, a backend name, or None for the current
    selection) exposes the worker-pool hooks and the inputs clear its
    tuple-count threshold, the semijoin passes are sharded across the
    pool; the reduced relations are byte-identical either way.
    """
    relations = list(relations)
    from repro.engine import resolve_engine

    eng = resolve_engine(engine)
    parallel = getattr(eng, "parallel_reduce", None)
    if parallel is not None and eng.should_parallelise(relations):
        return parallel(tree, relations)
    with obs.span("full_join.reduce", nodes=len(relations)):
        for node in tree.bottom_up():
            parent = tree.parent[node]
            if parent is not None:
                relations[parent] = relations[parent].semijoin(relations[node])
        for node in tree.top_down():
            for child in tree.children[node]:
                relations[child] = relations[child].semijoin(relations[node])
    return relations


class FullJoinEnumerator(Enumerator):
    """Enumerate the natural join of ``relations`` with constant delay.

    Parameters
    ----------
    relations:
        The relations to join; their variable sets must form an
        alpha-acyclic hypergraph.
    head:
        Output variable order.  Must cover *all* join variables —
        otherwise the same head tuple could be emitted repeatedly (use the
        free-connex engine for genuine projections).
    reduce:
        When True (default) run the full reducer first, guaranteeing
        global consistency; set False only when the inputs are known
        consistent (saves one linear pass).
    block_size:
        Amortisation block size.  When every relation is a
        ColumnarRelation over one shared dictionary it is the batched
        pipeline's block (:class:`repro.engine.enumerate.BlockIterator`);
        otherwise the tuple-path probe join emits blocks that double
        from one answer up to it.  ``None`` consults
        ``REPRO_BLOCK_SIZE`` (default 1024); a value <= 0 forces the
        tuple path with blocks of one answer, the strict per-answer
        delay bound.
    engine:
        Backend selection (an Engine, a name, or None for the current
        process-wide selection).  An engine with worker-pool hooks routes
        the reduction and the batched enumeration through the pool when
        the inputs clear its threshold; answer order is unaffected.
    """

    def __init__(self, relations: Sequence[VarRelation],
                 head: Sequence[Variable], reduce: bool = True,
                 block_size: Optional[int] = None, engine=None):
        super().__init__()
        self._relations = list(relations)
        self._head = tuple(head)
        self._reduce = reduce
        self._engine = engine
        self._block_size = resolve_block_size(block_size)
        self._block_iter: Optional[BlockIterator] = None
        all_vars: Dict[Variable, None] = {}
        for r in self._relations:
            for v in r.variables:
                all_vars.setdefault(v, None)
        if set(self._head) != set(all_vars):
            raise ValueError(
                "head must cover exactly the join variables; "
                f"head={sorted(v.name for v in self._head)} "
                f"join={sorted(v.name for v in all_vars)}"
            )
        self._tree: Optional[JoinTree] = None
        # tuple path: the root's tuples, one (index, key, new) step per
        # later preorder node, and the binding-to-head reorder (or None)
        self._root: List[Answer] = []
        self._steps: Tuple[Tuple[Dict[Answer, List[Answer]], _Getter,
                                 _Getter], ...] = ()
        self._finish: Optional[_Getter] = None
        self._empty = False

    # ------------------------------------------------------------ preprocess

    def _preprocess(self) -> None:
        h = Hypergraph(
            {v for r in self._relations for v in r.variables},
            [frozenset(r.variables) for r in self._relations],
        )
        self._tree = build_join_tree(h)  # raises NotAcyclicError if cyclic
        if self._reduce:
            self._relations = reduce_relations(self._tree, self._relations,
                                               engine=self._engine)
        if any(len(r) == 0 for r in self._relations):
            self._empty = True
            return
        if self._block_size > 0 and batchable(self._relations):
            # batched columnar pipeline: probe structures replace the
            # decoded hash indexes entirely
            from repro.engine import resolve_engine

            eng = resolve_engine(self._engine)
            par_enum = getattr(eng, "parallel_enumerator", None)
            if par_enum is not None and eng.should_parallelise(self._relations):
                self._block_iter = par_enum(
                    self._relations, self._head, block_size=self._block_size,
                    tree=self._tree, reduce=False)
            else:
                self._block_iter = BlockIterator(
                    self._relations, self._head, block_size=self._block_size,
                    tree=self._tree, reduce=False)
            return
        # DFS preorder.  Each node's variables bound by earlier nodes are
        # exactly those shared with its parent (running intersection),
        # so one probe of a warmed index per node suffices.  Partial
        # answers are value tuples in binding order: the root's
        # variables, then each later node's new ones.
        order = self._tree.top_down()
        root = self._relations[order[0]]
        slot: Dict[Variable, int] = {v: i for i, v in enumerate(root.variables)}
        steps = []
        with obs.span("full_join.index_build", nodes=len(order)):
            self._root = root.index_on(()).get((), [])
            for node in order[1:]:
                rel = self._relations[node]
                probe = tuple(v for v in rel.variables if v in slot)
                new = [i for i, v in enumerate(rel.variables) if v not in slot]
                key = _getter([slot[v] for v in probe])
                for i in new:
                    slot[rel.variables[i]] = len(slot)
                steps.append((rel.index_on(probe), key, _getter(new)))
        self._steps = tuple(steps)
        head_slots = [slot[v] for v in self._head]
        if head_slots != list(range(len(head_slots))):
            self._finish = itemgetter(*head_slots)

    # ------------------------------------------------------------- enumerate

    def blocks(self) -> Iterator[List[Answer]]:
        """Answer blocks (preprocesses if needed).

        On the batched path these are the columnar kernel's blocks; on
        the tuple path they are the probe join's own: the first holds
        one answer and each later one doubles, up to ``block_size``
        (blocks of one when ``block_size <= 0``)."""
        self.preprocess()
        if self._empty:
            return iter(())
        if self._block_iter is not None:
            return self._block_iter.blocks()
        return _recorded(self._probe_join(max(1, self._block_size)))

    def _enumerate(self) -> Iterator[Answer]:
        return chain.from_iterable(self.blocks())

    def _probe_join(self, cap: int) -> Iterator[List[Answer]]:
        """The probe join as an explicit-stack DFS, one block per
        resumption.

        The stack holds one iterator of partial answers per level above
        the leaf; each leaf bucket becomes answers by concatenating its
        new columns onto the partial.  A bucket larger than the room
        left in the block is sliced and resumed in the next block, so no
        block exceeds its limit and the work between two yields is
        O(limit x depth).  Buckets are read with ``get``: a probe that
        misses (only possible on unreduced inputs) is a dead end, not
        an error."""
        root, steps, finish = self._root, self._steps, self._finish
        limit = 1
        if not steps:
            start = 0
            while start < len(root):
                block = root[start:start + limit]
                start += limit
                limit = min(2 * limit, cap)
                yield list(map(finish, block)) if finish else block
            return
        *inner, (leaf_index, leaf_key, leaf_new) = steps
        depth = len(steps)  # levels above the leaf: the root + inner
        stack = [iter(root)]
        pending = None  # (partial, bucket, start) of a sliced leaf bucket
        while True:
            block: List[Answer] = []
            extend = block.extend
            room = limit
            if pending is not None:
                part, bucket, start = pending
                end = start + room
                extend(map(part.__add__, map(leaf_new, bucket[start:end])))
                if end < len(bucket):
                    pending = (part, bucket, end)
                    room = 0
                else:
                    pending = None
                    room -= len(bucket) - start
            while room and stack:
                if len(stack) < depth:
                    part = next(stack[-1], None)
                    if part is None:
                        stack.pop()
                        continue
                    index, key, new = inner[len(stack) - 1]
                    stack.append(map(part.__add__,
                                     map(new, index.get(key(part), ()))))
                    continue
                for part in stack[-1]:
                    bucket = leaf_index.get(leaf_key(part), ())
                    size = len(bucket)
                    if size < room:
                        extend(map(part.__add__, map(leaf_new, bucket)))
                        room -= size
                        continue
                    extend(map(part.__add__, map(leaf_new, bucket[:room])))
                    if size > room:
                        pending = (part, bucket, room)
                    room = 0
                    break
                else:
                    stack.pop()
            if not block:
                return
            limit = min(2 * limit, cap)
            yield list(map(finish, block)) if finish else block


def _getter(positions: Sequence[int]) -> _Getter:
    """A getter that always returns a tuple: a slice when ``positions``
    are contiguous (so zero or one position still yields a tuple),
    otherwise an ``itemgetter`` over two or more positions."""
    first = positions[0] if positions else 0
    if list(positions) == list(range(first, first + len(positions))):
        return itemgetter(slice(first, first + len(positions)))
    return itemgetter(*positions)


def _recorded(blocks: Iterator[List[Answer]]) -> Iterator[List[Answer]]:
    """Pass ``blocks`` through, recording each block's answer count and
    production time (one ``obs.count`` and one ``obs.delay`` per block).
    The clock covers only the producer's resumption, so time the
    consumer spends between blocks never reaches the delay sketch."""
    clock = time.perf_counter_ns
    while True:
        began = clock()
        block = next(blocks, None)
        if block is None:
            return
        n = len(block)
        obs.count("enum.answers", n)
        obs.delay(clock() - began, n)
        yield block
