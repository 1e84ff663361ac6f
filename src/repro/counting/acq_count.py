"""Counting answers of acyclic conjunctive queries (Section 4.4).

Three levels, matching the paper's tractability ladder:

* :func:`count_full_acyclic_join` — weighted message passing over a join
  tree: the #F-ACQ^0 algorithm behind Theorem 4.21.  One bottom-up DP
  pass; each node aggregates its children's sums through hash probes, so
  the cost is O(||phi|| * ||D||) (better than the O(||phi|| * ||D||^2)
  the theorem quotes).  It needs no semijoin reduction first: a row with
  no extension below finds no child message and adds nothing.
* :func:`count_quantifier_free_acyclic` — the same on a query + database.
  The rows come from :func:`repro.eval.yannakakis.scan_atoms`, so on the
  tuple engine an atom whose terms are distinct variables is read from
  the stored relation with no copy.
* :func:`count_acq` — general ACQs.  A quantifier-free ACQ goes straight
  to the DP above.  Otherwise the quantified-star-size decomposition of
  Theorem 4.28 collapses S-components to relations over their free
  variables (candidate generation over a covering set of s = star-size
  atoms of the fully reduced relations, then per-candidate satisfiability
  filtering), and the resulting quantifier-free acyclic query is counted
  by the DP.  Total time ||D||^{O(s)}.

Cross-validation baseline: :func:`count_cq_naive`.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import repeat
from operator import mul
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.data.database import Database
from repro.counting.weighted import WeightFunction
from repro.errors import NotAcyclicError, UnsupportedQueryError
from repro.eval.join import VarRelation, key_getter
from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
from repro.eval.yannakakis import full_reducer, yannakakis_boolean
from repro.hypergraph.components import free_cover_atoms, s_components
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import build_join_tree, cached_join_tree
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable


def count_full_acyclic_join(relations: Sequence[VarRelation],
                            weights: Optional[WeightFunction] = None,
                            engine=None) -> Any:
    """Weighted number of tuples in the natural join of ``relations``.

    The relations' variable sets must form an acyclic hypergraph.  Message
    passing: for each node tuple, the number (weight) of extensions into
    its subtree; each variable's weight is charged at the unique top node
    of its occurrence subtree.

    When every relation is columnar and the weight is the plain counting
    weight, the messages are computed by vectorized group-sums
    (:func:`repro.engine.columnar.count_acyclic_join_columnar`; exact up
    to the int64 range) instead of per-tuple dict probes.  An ``engine``
    with worker-pool hooks additionally shards each node's message across
    the pool when the inputs clear its tuple-count threshold (per-key
    sums are bit-identical to the serial DP; see
    :func:`repro.engine.parallel.parallel_count`).
    """
    w = weights or WeightFunction.ones()
    relations = list(relations)
    if not relations:
        return 1
    if any(len(r.variables) == 0 for r in relations):
        # zero-ary relations are just truth values
        for r in relations:
            if len(r.variables) == 0 and len(r) == 0:
                return 0
        relations = [r for r in relations if len(r.variables) > 0]
        if not relations:
            return 1
    h = Hypergraph(
        {v for r in relations for v in r.variables},
        [frozenset(r.variables) for r in relations],
    )
    tree = cached_join_tree(h)

    # variables charged at each node: those absent from the parent
    charged: Dict[int, Tuple[Variable, ...]] = {}
    seen_top: Set[Variable] = set()
    for node in tree.top_down():
        parent = tree.parent[node]
        here = relations[node].variables
        if parent is None:
            mine = tuple(here)
        else:
            parent_vars = set(relations[parent].variables)
            mine = tuple(v for v in here if v not in parent_vars and v not in seen_top)
        charged[node] = mine
        seen_top.update(mine)

    # variables each node shares with its parent (the message key schema)
    share_vars: Dict[int, Tuple[Variable, ...]] = {}
    for node in tree.bottom_up():
        parent = tree.parent[node]
        if parent is None:
            share_vars[node] = ()
        else:
            parent_vars = set(relations[parent].variables)
            share_vars[node] = tuple(
                v for v in relations[node].variables if v in parent_vars)

    # a columnar relation exists only once its module is loaded, so a
    # tuple-engine count never imports numpy to rule the vectorized
    # path out
    columnar = sys.modules.get("repro.engine.columnar")
    unweighted = weights is None or (
        isinstance(weights, WeightFunction) and weights.is_ones())
    if columnar is not None and all(
            isinstance(r, columnar.ColumnarRelation)
            and r.dictionary is relations[0].dictionary
            for r in relations):
        from repro.engine import resolve_engine

        eng = resolve_engine(engine)
        par = getattr(eng, "parallel_count", None)
        sharded = par is not None and eng.should_parallelise(relations)
        if unweighted:
            if sharded:
                return par(relations, tree, charged, share_vars)
            with obs.span("count.message_passing", backend="columnar",
                          nodes=len(relations)):
                return columnar.count_acyclic_join_columnar(
                    relations, tree, charged, share_vars)
        if isinstance(weights, WeightFunction):
            # weighted vectorized path: per-code weight gather; falls back
            # to the exact per-tuple DP when the weights aren't machine
            # floats (see WeightFunction.code_table)
            import numpy as np

            table = weights.code_table(relations[0].dictionary)
            if table is not None:
                if sharded:
                    total = par(relations, tree, charged, share_vars,
                                weight_table=table)
                else:
                    with obs.span("count.message_passing",
                                  backend="columnar_weighted",
                                  nodes=len(relations)):
                        total = columnar.count_acyclic_join_columnar(
                            relations, tree, charged, share_vars,
                            weight_table=table)
                integral_weights = bool(np.all(table == np.floor(table)))
                if integral_weights and float(total).is_integer():
                    return int(total)
                return total

    # messages[node]: key over the variables shared with the parent ->
    # sum of the weights of the node's subtree extensions; one bottom-up
    # pass, stopping at the first empty message (the join is then empty)
    with obs.span("count.message_passing", backend="tuple",
                  nodes=len(relations)):
        messages: Dict[int, Dict[Any, Any]] = {}
        for node in tree.bottom_up():
            rel = relations[node]
            key = key_getter(rel, share_vars[node])
            children = [(messages.pop(c).get, key_getter(rel, share_vars[c]))
                        for c in tree.children[node]]
            charged_pos = None if unweighted else \
                [rel.position(v) for v in charged[node]]
            if not charged_pos and node == tree.root:
                # the root's message has the one key (): the sum over its
                # rows of the product of their child factors (0 where a
                # child has no message for the row)
                products = repeat(1, len(rel))
                for get, child_key in children:
                    products = map(mul, products,
                                   map(get, map(child_key, rel), repeat(0)))
                return sum(products)
            if not children and not charged_pos:
                msg: Dict[Any, Any] = Counter(map(key, rel))
            else:
                msg = {}
                for t in rel:
                    value: Any = 1
                    if charged_pos:
                        for p in charged_pos:
                            value = value * w(t[p])
                    for get, child_key in children:
                        factor = get(child_key(t))
                        if factor is None:
                            break
                        value = value * factor
                    else:
                        k = key(t)
                        msg[k] = msg.get(k, 0) + value
            if not msg:
                return 0
            messages[node] = msg
        return messages[tree.root].get((), 0)


def count_quantifier_free_acyclic(cq: ConjunctiveQuery, db: Database,
                                  weights: Optional[WeightFunction] = None,
                                  engine=None) -> Any:
    """#F-ACQ^0 (Theorem 4.21): weighted count of a projection-free ACQ.

    One DP pass over the atoms' rows as the engine scans them
    (:func:`repro.eval.yannakakis.scan_atoms`); with incremental mode on,
    an unweighted count is served by a maintained
    :class:`~repro.dynamic.delta.DeltaCounter` instead.
    """
    if not cq.is_quantifier_free():
        raise UnsupportedQueryError(
            "count_quantifier_free_acyclic needs a quantifier-free query; "
            "use count_acq for projections"
        )
    if cq.has_comparisons():
        raise UnsupportedQueryError("comparisons are not supported in counting")
    unweighted = weights is None or (
        isinstance(weights, WeightFunction) and weights.is_ones())
    if unweighted:
        from repro.core.plancache import (cached_plan, incremental_enabled,
                                          plan_cache_enabled)

        if incremental_enabled() and plan_cache_enabled():
            from repro.dynamic.delta import DeltaCounter

            # delta-propagated DP: the cached artefact is a DeltaCounter
            # whose maintained total is the exact int the cold message
            # passing computes (any backend), refreshed through the
            # per-relation delta logs.  Engine-independent, so the state
            # is cached under a fixed pseudo-engine name and shared
            # across backends.
            if DeltaCounter.supports(cq):
                state = cached_plan(
                    "count_state", cq, db, "-",
                    lambda: DeltaCounter.build(cq, db),
                    refresher=lambda st, deltas: st.refreshed(deltas))
                return state.total()
    from repro.eval.yannakakis import scan_atoms

    return count_full_acyclic_join(scan_atoms(cq, db, engine), weights,
                                   engine=engine)


def derive_counting_join(cq: ConjunctiveQuery, db: Database, engine=None
                         ) -> Optional[List[VarRelation]]:
    """The star-size decomposition behind Theorem 4.28.

    Returns derived relations over free variables whose join *is* phi(D),
    or None when the query is unsatisfiable.  Cost ||D||^{O(s)}, s the
    quantified star size: per component, candidates come from joining the
    s covering atoms' (reduced) relations and each candidate is verified
    by one Boolean satisfiability check of the component.

    The decomposition (the expensive, per-database part) is served from
    the plan cache on repeats; returned relations are shallow copies.
    """
    from repro.core.plancache import cached_plan
    from repro.engine import resolve_engine

    eng = resolve_engine(engine)
    derived = cached_plan("counting_join", cq, db, eng.name,
                          lambda: _derive_counting_join(cq, db, eng),
                          extra=eng.plan_key())
    if derived is None:
        return None
    return [r.copy() for r in derived]


def _derive_counting_join(cq: ConjunctiveQuery, db: Database, engine
                          ) -> Optional[List[VarRelation]]:
    free = cq.free_variables()
    h = cq.hypergraph()
    tree, reduced = full_reducer(cq, db, engine=engine)
    if any(len(r) == 0 for r in reduced):
        return None

    derived: List[VarRelation] = []
    for i, atom in enumerate(cq.atoms):
        if atom.variable_set() <= free:
            derived.append(reduced[i])

    for comp in s_components(h, free):
        f_vars = tuple(sorted(comp.s_vertices, key=lambda v: v.name))
        if not f_vars:
            continue  # satisfiability already enforced by the full reducer
        cover = free_cover_atoms(h, comp)
        # fast path: a single covering atom (star size 1 locally) — its
        # reduced relation projects exactly onto pi_{F_i}(phi(D))
        if len(cover) == 1:
            derived.append(reduced[cover[0]].project(f_vars))
            continue
        # candidates: join of the covering atoms' reduced relations
        candidate_rel = reduced[cover[0]]
        for j in cover[1:]:
            candidate_rel = candidate_rel.join(reduced[j])
        candidates = candidate_rel.project(f_vars)
        obs.count("count.candidates", len(candidates))
        # verify each candidate against the whole component, probing the
        # already-reduced relations (no re-materialisation per candidate)
        comp_relations = [reduced[j] for j in comp.edge_indexes]
        from repro.engine import resolve_engine

        verified = resolve_engine(engine).relation(f_vars)
        for t in candidates:
            if _component_satisfiable(comp_relations, dict(zip(f_vars, t))):
                verified.add(t)
        derived.append(verified)
    return derived


def _component_satisfiable(relations: List[VarRelation],
                           assignment: Dict[Variable, Any]) -> bool:
    """Does the candidate assignment of the component's free variables
    extend to all component atoms?  Backtracking over the (reduced)
    relations with hash probes — most-bound-first order."""
    remaining = list(relations)
    order: List[VarRelation] = []
    bound = set(assignment)
    while remaining:
        best = max(remaining,
                   key=lambda r: sum(1 for v in r.variables if v in bound))
        remaining.remove(best)
        order.append(best)
        bound.update(best.variables)

    def backtrack(i: int, env: Dict[Variable, Any]) -> bool:
        if i == len(order):
            return True
        rel = order[i]
        for t in rel.probe_assignment(env):
            added = []
            ok = True
            for v, val in zip(rel.variables, t):
                if v in env:
                    if env[v] != val:
                        ok = False
                        break
                else:
                    env[v] = val
                    added.append(v)
            if ok and backtrack(i + 1, env):
                for v in added:
                    del env[v]
                return True
            for v in added:
                del env[v]
        return False

    return backtrack(0, dict(assignment))


def count_acq(cq: ConjunctiveQuery, db: Database,
              weights: Optional[WeightFunction] = None,
              engine=None) -> Any:
    """#ACQ via quantified star size (Theorem 4.28): weighted count of the
    *answers* (distinct head tuples) of an acyclic CQ.

    A quantifier-free ACQ is counted by one bottom-up DP pass over its
    atoms' rows (:func:`count_quantifier_free_acyclic`, Theorem 4.21),
    with no reduction and no derived relations.  Queries with quantified
    variables go through :func:`derive_counting_join` first.

    Weights apply to the free variables (answers are tuples over the
    head), matching the #F-CQ definition of Section 4.4.
    """
    if cq.has_comparisons():
        raise UnsupportedQueryError("comparisons are not supported in counting")
    if not cq.is_acyclic():
        raise NotAcyclicError(f"query {cq!r} is not acyclic; use count_cq_naive")
    if cq.is_quantifier_free():
        # the answers are exactly the join rows: the star-size
        # decomposition is the identity, so count with the DP directly
        return count_quantifier_free_acyclic(cq, db, weights, engine=engine)
    with obs.span("count.acq", atoms=len(cq.atoms)):
        derived = derive_counting_join(cq, db, engine=engine)
        if derived is None:
            return 0
        if cq.is_boolean():
            return 1  # satisfiable (derived is not None), the only answer is ()
        if any(len(r) == 0 for r in derived):
            return 0
        return count_full_acyclic_join(derived, weights, engine=engine)


def count_cq_naive(cq: ConjunctiveQuery, db: Database,
                   weights: Optional[WeightFunction] = None) -> Any:
    """Ground truth: materialise the answers, sum the weights."""
    w = weights or WeightFunction.ones()
    total: Any = 0
    for tup in evaluate_cq_naive(cq, db):
        total = total + w.tuple_weight(tup)
    return total
