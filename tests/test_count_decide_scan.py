"""Count and decide of acyclic CQs read the stored relations in place.

* ``repro.count`` and ``repro.decide`` agree with the naive evaluator on
  random acyclic CQs with constants, repeated variables, self-joins,
  zero-ary atoms, empty relations and values that compare equal across
  types (``1``, ``1.0``, ``True``), also while one database is written to
  between calls, and for weighted counts;
* neither call changes a stored relation (version, size, delta log);
* a quantifier-free count is one DP pass: no full reduction and no
  star-size decomposition, and on the tuple engine an atom whose terms are
  distinct variables is never materialised.

The parity checks run on the selected engine (``REPRO_ENGINE``); the
route checks pin the engine they are about.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core.plancache import incremental_scope
from repro.counting.acq_count import count_cq_naive
from repro.counting.weighted import WeightFunction
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.base import TupleEngine
from repro.eval.naive import cq_is_satisfiable_naive
from repro.eval.yannakakis import yannakakis_boolean
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq
from repro.logic.terms import Constant, Variable

ARITIES = {"R": 2, "S": 2, "T": 3, "U": 1, "Z": 0}
VALUES = [0, 1, 1.0, True, "a", 2]
VARIABLES = [Variable(name) for name in ("x", "y", "z", "u")]
WEIGHTS = WeightFunction({0: 2, 1: 3, "a": 5, 2: 7})


@st.composite
def acyclic_cases(draw):
    """An acyclic CQ over R/2, S/2, T/3, U/1, Z/0 (symbols may repeat;
    terms are variables or constants) with a random head, a database
    over the same symbols (any relation may be empty) and a list of
    writes to apply between calls."""
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(ARITIES)))
        terms = [draw(st.one_of(st.sampled_from(VARIABLES),
                                st.sampled_from(VALUES).map(Constant)))
                 for _ in range(ARITIES[name])]
        atoms.append(Atom(name, terms))
    variables = sorted({v for a in atoms for v in a.variables()},
                       key=lambda v: v.name)
    head = draw(st.permutations(variables))[:draw(
        st.integers(0, len(variables)))]
    q = ConjunctiveQuery(head, atoms)
    assume(q.is_acyclic())
    rows = {name: draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * k),
                                max_size=8))
            for name, k in ARITIES.items()}
    db = Database([Relation(name, ARITIES[name], rows[name])
                   for name in ARITIES])
    writes = draw(st.lists(st.tuples(
        st.booleans(), st.sampled_from(sorted(ARITIES)),
        st.lists(st.sampled_from(VALUES), min_size=3, max_size=3)),
        max_size=6))
    return q, db, [(add, name, tuple(values[:ARITIES[name]]))
                   for add, name, values in writes]


def _snapshot(db):
    return {rel.name: (rel.version, len(rel), len(rel.delta_log),
                       rel.deltas_since(rel.version - len(rel.delta_log)))
            for rel in db}


def _check(q, db):
    before = _snapshot(db)
    count = repro.count(q, db)
    assert count == count_cq_naive(q, db) and type(count) is int
    weighted = repro.count(q, db, weights=WEIGHTS)
    assert weighted == count_cq_naive(q, db, WEIGHTS)
    boolean = q.with_head(())
    decided = repro.decide(boolean, db)
    assert decided is cq_is_satisfiable_naive(boolean, db)
    assert _snapshot(db) == before


@given(acyclic_cases())
@settings(max_examples=150, deadline=None)
def test_count_and_decide_match_naive_between_writes(case):
    q, db, writes = case
    _check(q, db)
    for add, name, tup in writes:
        rel = db.relation(name)
        if add:
            rel.add(tup)
        else:
            rel.discard(tup)
        _check(q, db)


@pytest.mark.parametrize("text", [
    "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)",
    "Q(x, y, z) :- R(x, y), R(y, z)",
    "Q(x, y) :- R(x, y), R(y, 2)",
    "Q(x) :- R(x, x), U(x)",
    "Q() :- R(1, 2)",
    "Q(x, y) :- R(x, y), Z()",
])
def test_quantifier_free_count_skips_reduction(text, monkeypatch):
    # the package re-exports a function named like the module
    yannakakis = importlib.import_module("repro.eval.yannakakis")
    acq_count = importlib.import_module("repro.counting.acq_count")

    def forbidden(*args, **kwargs):
        raise AssertionError("a quantifier-free count ran a reduction")

    monkeypatch.setattr(acq_count, "derive_counting_join", forbidden)
    monkeypatch.setattr(acq_count, "full_reducer", forbidden)
    monkeypatch.setattr(yannakakis, "full_reducer", forbidden)
    db = _path_db()
    db.add_relation(Relation("U", 1, [(2,), (3,)]))
    db.add_relation(Relation("Z", 0, [()]))
    q = parse_cq(text)
    with obs.capture() as tracer:
        assert repro.count(q, db) == count_cq_naive(q, db)
        assert repro.count(q, db, weights=WEIGHTS) \
            == count_cq_naive(q, db, WEIGHTS)
    names = {s.name for s in tracer.spans}
    assert "yannakakis.full_reduce" not in names
    assert "count.acq" not in names


def test_tuple_engine_reads_distinct_variable_atoms_in_place(monkeypatch):
    calls = []
    original = TupleEngine.materialise_atom

    def counted(self, db, atom):
        calls.append(atom)
        return original(self, db, atom)

    monkeypatch.setattr(TupleEngine, "materialise_atom", counted)
    db = _path_db()
    full = parse_cq("Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)")
    boolean = full.with_head(())
    # the cold DP route, not a maintained DeltaCounter
    with incremental_scope(False):
        with obs.capture() as tracer:
            assert repro.count(full, db, engine="tuple") == 5
            assert yannakakis_boolean(boolean, db, engine="tuple") is True
        names = {s.name for s in tracer.spans}
        assert "yannakakis.materialise_atoms" not in names
        assert "yannakakis.semijoin" not in names
        assert calls == []
        # constants and repeated variables still go through materialisation
        mixed = parse_cq("Q(x) :- R(x, x), S(x, 3)")
        assert repro.count(mixed, db, engine="tuple") == 2
    assert [a.relation for a in calls] == ["R", "S"]


def test_count_and_decide_leave_stored_relations_untouched():
    db = _path_db()
    queries = [parse_cq("Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)"),
               parse_cq("Q(x) :- R(x, y), S(y, z)"),
               parse_cq("Q(x) :- R(x, x), S(x, 3)")]
    before = _snapshot(db)
    indexes = {rel.name: dict(rel._indexes) for rel in db}
    for q in queries[:2]:
        repro.count(q, db, engine="tuple")
        repro.decide(q.with_head(()), db)
    # reads in place build no index either: later writes stay cheap
    assert {rel.name: dict(rel._indexes) for rel in db} == indexes
    repro.count(queries[2], db, engine="tuple")
    assert _snapshot(db) == before


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_no_match_between_nonempty_relations(engine):
    # every relation has rows, but no S row joins a T row
    db = _path_db()
    db.relation("T").discard((3, 9))
    db.relation("T").discard((4, 9))
    db.relation("T").add((7, 9))
    q = parse_cq("Q() :- R(x, y), S(y, z), T(z, w)")
    assert yannakakis_boolean(q, db, engine=engine) is False
    assert repro.count(q.with_head(("x", "y", "z", "w")), db,
                       engine=engine) == 0
    assert repro.count(q.with_head(("x", "y")), db, engine=engine) == 0


def test_bulk_built_relation_starts_at_version_zero():
    tuples = [(i % 5000, i % 7) for i in range(10_000)]
    rel = Relation("R", 2, tuples)
    assert len(rel) == len(set(tuples))
    assert rel.version == 0 and len(rel.delta_log) == 0
    rel.add((-1, -1))
    assert rel.deltas_since(0) == [("+", (-1, -1))]
    with pytest.raises(repro.MalformedQueryError, match="length 3"):
        Relation("R", 2, [(1, 2), (1, 2, 3)])


def _path_db():
    return Database.from_relations({
        "R": [(1, 2), (2, 2), (3, 3)],
        "S": [(2, 3), (2, 4), (3, 3)],
        "T": [(3, 9), (4, 9)],
    })
