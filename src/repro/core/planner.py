"""One-call answering: route a query to the best implemented engine.

The planner consults the same structure the classifier reports on and
dispatches:

* ``decide`` — Boolean answering (Yannakakis / DP resolution / naive);
* ``count`` — star-size counting for ACQs, naive elsewhere;
* ``enumerate_answers`` — constant-delay when free-connex (with or
  without disequalities), linear-delay ACQ, union extensions for UCQs,
  with correct fallbacks everywhere else;
* ``answer`` — materialise the full answer set.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Iterator, Set, Tuple, Union

from repro import obs
from repro.data.database import Database
from repro.errors import UnsupportedQueryError
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import Formula
from repro.logic.ncq import NegativeConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries

QueryLike = Union[ConjunctiveQuery, UnionOfConjunctiveQueries,
                  NegativeConjunctiveQuery, Formula]


def decide(query: QueryLike, db: Database) -> bool:
    """Boolean query answering (model checking)."""
    from repro.eval.modelcheck import model_check

    with obs.span("planner.decide", query=type(query).__name__):
        return model_check(query, db)


def enumerate_answers(query: QueryLike, db: Database, engine=None,
                      block_size=None) -> Iterator[Tuple[Any, ...]]:
    """Enumerate the answers with the best applicable delay guarantee.

    ``engine`` selects the relational backend (see :mod:`repro.engine`)
    and ``block_size`` the batched pipeline's amortisation block for the
    engines that support it; both default to the process-wide selection.

    When the delay-guarantee watchdog is installed
    (:func:`repro.obs.watchdog.install` / ``REPRO_WATCHDOG=1``), the
    answer stream is wrapped so delay observations recorded while it
    runs are attributed to this query's plan label and checked against
    its classifier-derived expectation.

    This generator is the only frame between the consumer and the
    chosen enumerator's stream; preprocessing runs at the first
    ``next``, inside the ``planner.enumerate`` span.
    """
    from repro.obs.watchdog import maybe_watch

    span = (obs.span("planner.enumerate", query=type(query).__name__)
            if obs.enabled() else nullcontext())
    with span:
        yield from maybe_watch(query, _enumerate_answers(
            query, db, engine=engine, block_size=block_size))


def _enumerate_answers(query: QueryLike, db: Database, engine=None,
                       block_size=None) -> Iterator[Tuple[Any, ...]]:
    """The answer iterator of the route ``query`` takes; the chosen
    enumerator preprocesses before this returns."""
    if isinstance(query, ConjunctiveQuery):
        if query.order_comparisons():
            from repro.enumeration.disequality import FallbackDisequalityEnumerator

            return iter(FallbackDisequalityEnumerator(query, db))
        if query.disequalities():
            from repro.enumeration.disequality import enumerate_acq_disequalities
            from repro.errors import NotFreeConnexError

            try:
                return iter(enumerate_acq_disequalities(query, db))
            except NotFreeConnexError:
                from repro.enumeration.disequality import FallbackDisequalityEnumerator

                return iter(FallbackDisequalityEnumerator(query, db))
        if query.is_acyclic():
            if query.is_free_connex():
                from repro.enumeration.free_connex import FreeConnexEnumerator

                return iter(FreeConnexEnumerator(query, db, engine=engine,
                                                 block_size=block_size))
            from repro.enumeration.acq_linear import LinearDelayACQEnumerator

            return iter(LinearDelayACQEnumerator(query, db, engine=engine))
        from repro.eval.naive import evaluate_cq_naive

        return iter(sorted(evaluate_cq_naive(query, db), key=repr))
    if isinstance(query, UnionOfConjunctiveQueries):
        from repro.enumeration.ucq_union import enumerate_ucq

        return iter(enumerate_ucq(query, db, engine=engine,
                                  block_size=block_size))
    if isinstance(query, NegativeConjunctiveQuery):
        from repro.csp.ncq_solver import ncq_answers

        return iter(sorted(ncq_answers(query, db), key=repr))
    if isinstance(query, Formula):
        from repro.eval.naive import fo_answers

        if query.so_variables():
            raise UnsupportedQueryError(
                "free second-order variables: use "
                "repro.enumeration.gray.Sigma0SOEnumerator"
            )
        return iter(sorted(fo_answers(query, db), key=repr))
    raise UnsupportedQueryError(f"cannot enumerate {type(query).__name__}")


def answer(query: QueryLike, db: Database) -> Set[Tuple[Any, ...]]:
    """The full answer set phi(D)."""
    return set(enumerate_answers(query, db))


def count(query: QueryLike, db: Database, weights=None, engine=None) -> Any:
    """|phi(D)| (or its weighted sum), via the best applicable engine.

    ``engine`` selects the relational backend for the routes that use
    one (star-size counting of ACQs); other routes ignore it.
    """
    with obs.span("planner.count", query=type(query).__name__):
        return _count(query, db, weights, engine=engine)


def _count(query: QueryLike, db: Database, weights=None, engine=None) -> Any:
    if isinstance(query, ConjunctiveQuery):
        if not query.has_comparisons() and query.is_acyclic():
            from repro.counting.acq_count import count_acq

            return count_acq(query, db, weights, engine=engine)
        if (query.disequalities() and not query.order_comparisons()
                and weights is None):
            # count through the ACQ!= enumerator when its fragment applies
            from repro.enumeration.disequality import enumerate_acq_disequalities
            from repro.errors import NotFreeConnexError

            try:
                return sum(1 for _ in enumerate_acq_disequalities(query, db))
            except NotFreeConnexError:
                pass
        from repro.counting.acq_count import count_cq_naive

        return count_cq_naive(query, db, weights)
    if isinstance(query, UnionOfConjunctiveQueries):
        if weights is not None:
            from repro.counting.weighted import sum_of_weights

            return sum_of_weights(answer(query, db), weights)
        return sum(1 for _ in enumerate_answers(query, db))
    if isinstance(query, NegativeConjunctiveQuery):
        return sum(1 for _ in enumerate_answers(query, db))
    if isinstance(query, Formula):
        from repro.eval.naive import fo_answers

        if query.so_variables():
            from repro.counting.spectrum import count_sigma0
            from repro.logic.fo import is_quantifier_free

            if is_quantifier_free(query):
                return count_sigma0(query, db)
            from repro.counting.spectrum import count_so_bruteforce

            return count_so_bruteforce(query, db)
        return len(fo_answers(query, db))
    raise UnsupportedQueryError(f"cannot count {type(query).__name__}")
