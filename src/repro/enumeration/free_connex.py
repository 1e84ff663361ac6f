"""Constant-delay enumeration of free-connex ACQs (Theorem 4.6).

Preprocessing (all linear in ||D|| for a fixed query):

1. check free-connexity (quantified star size <= 1, Definition 4.26);
2. run the full reducer over a join tree of the query — afterwards every
   remaining tuple of every atom participates in a full answer;
3. decompose the hypergraph into S-components (S = free variables); for
   each component with free part F_i, star size 1 plus conformality of
   acyclic hypergraphs guarantees some atom's variable set contains F_i —
   project that atom's reduced relation onto F_i, obtaining
   P_i = pi_{F_i}(phi(D));
4. atoms entirely over free variables contribute their reduced relations
   directly (the psi_0 part of Section 4.4).

Because quantified variables never cross S-components,

    phi(D)  =  join of the P_i,

a quantifier-free acyclic full join over the free variables — the
"only the join R(x1,x2) /\\ S'(x2,x3) remains" step of Figure 1 — which
:class:`~repro.enumeration.full_acyclic.FullJoinEnumerator` emits with
delay independent of ||D||.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.data.database import Database
from repro.enumeration.base import Answer, Enumerator
from repro.enumeration.full_acyclic import FullJoinEnumerator
from repro.errors import NotFreeConnexError, UnsupportedQueryError
from repro.eval.join import VarRelation
from repro.eval.yannakakis import full_reducer
from repro.hypergraph.components import s_components
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable


def derive_free_join(cq: ConjunctiveQuery, db: Database,
                     engine=None) -> List[VarRelation]:
    """The derived quantifier-free join: relations over free variables whose
    natural join equals phi(D).  Raises NotFreeConnexError if the query's
    star size exceeds 1.

    The preprocessing bulk work (materialisation, full reduction,
    projections) runs on the selected backend; the returned relations
    keep that representation (both satisfy the enumerator's probe
    interface)."""
    free = cq.free_variables()
    _tree, reduced = full_reducer(cq, db, engine=engine)
    h = cq.hypergraph()

    derived: List[VarRelation] = []
    # psi_0: atoms entirely over free variables keep their reduced relation
    for i, atom in enumerate(cq.atoms):
        if atom.variable_set() <= free:
            derived.append(reduced[i])

    components = s_components(h, free)
    obs.count("free_connex.s_components", len(components))
    # one projected relation per S-component
    for comp in components:
        f_vars = tuple(sorted(comp.s_vertices, key=lambda v: v.name))
        if not f_vars:
            # a fully quantified component: contributes satisfiability only,
            # already enforced by the full reducer (empty relations)
            if any(len(reduced[i]) == 0 for i in comp.edge_indexes):
                derived.append(VarRelation(()))  # empty -> no answers
            continue
        carrier = None
        for i, atom in enumerate(cq.atoms):
            if frozenset(f_vars) <= atom.variable_set():
                carrier = i
                break
        if carrier is None:
            raise NotFreeConnexError(
                f"component free variables {[v.name for v in f_vars]} are not "
                f"covered by a single atom: query {cq!r} is not free-connex"
            )
        derived.append(reduced[carrier].project(f_vars))

    # an empty list is possible for satisfiable Boolean queries: every
    # component was fully quantified and non-empty, so there is nothing
    # left to join and the query is simply true
    return derived


class FreeConnexEnumerator(Enumerator):
    """Linear-preprocessing, constant-delay enumeration of a free-connex
    acyclic conjunctive query (without comparisons)."""

    def __init__(self, cq: ConjunctiveQuery, db: Database, engine=None,
                 block_size: Optional[int] = None):
        super().__init__()
        if cq.has_comparisons():
            raise UnsupportedQueryError(
                "use DisequalityEnumerator for queries with comparison atoms"
            )
        if not cq.is_acyclic():
            raise NotFreeConnexError(f"query {cq!r} is not acyclic")
        self.cq = cq
        self.db = db
        self.engine = engine
        self.block_size = block_size
        self._inner: Optional[FullJoinEnumerator] = None
        self._boolean_true = False

    def _preprocess(self) -> None:
        # the whole preprocessing output (Boolean verdict or a prepared
        # inner enumerator) is plan-cached: a preprocessed
        # FullJoinEnumerator is immutable and restartable, so repeated
        # queries against an unchanged database skip reduction,
        # projection and probe-structure builds entirely
        from repro.core.plancache import cached_plan
        from repro.engine import resolve_engine
        from repro.engine.enumerate import resolve_block_size

        eng = resolve_engine(self.engine)
        block = resolve_block_size(self.block_size)
        kind, payload = cached_plan("free_connex", self.cq, self.db,
                                    eng.name, self._build_plan,
                                    extra=(block,) + eng.plan_key())
        if kind == "bool":
            self._boolean_true = payload
        else:
            self._inner = payload

    def _build_plan(self):
        cq, db = self.cq, self.db
        with obs.span("free_connex.derive_join"):
            derived = derive_free_join(cq, db, engine=self.engine)
        if cq.is_boolean():
            # satisfiable iff no derived relation is empty (full reduction
            # has already propagated emptiness everywhere)
            return ("bool", all(len(r) > 0 for r in derived))
        # zero-ary relations are Boolean verdicts of fully quantified
        # S-components: an empty one falsifies the whole query, a
        # non-empty one is vacuous — either way they leave the join
        zero_ary = [r for r in derived if len(r.variables) == 0]
        if any(len(r) == 0 for r in zero_ary):
            return ("enum", None)
        derived = [r for r in derived if len(r.variables) > 0]
        # no second reduce: the derived relations are projections of one
        # fully reduced (hence globally consistent) join, so every tuple
        # of each already extends to an answer
        inner = FullJoinEnumerator(derived, self.cq.head, reduce=False,
                                   block_size=self.block_size,
                                   engine=self.engine)
        inner.preprocess()
        return ("enum", inner)

    def _enumerate(self) -> Iterator[Answer]:
        # the inner stream itself, not a generator around it: no frame
        # of this class sits between the kernel and the consumer
        if self.cq.is_boolean():
            return iter([()] if self._boolean_true else [])
        if self._inner is None:
            return iter(())
        return self._inner._enumerate()
