"""Unit tests for the pluggable engine layer (repro.engine): the backend
registry, the dictionary-encoded columnar kernel, and the satellite
index/caching optimisations that ride along with it."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import (
    available_engines,
    get_engine,
    resolve_engine,
    set_engine,
    use_engine,
)
from repro.engine.base import ColumnarEngine, TupleEngine
from repro.engine.columnar import (
    ColumnarRelation,
    ValueDictionary,
    group_ids,
    materialise_atom_columnar,
)
from repro.eval.join import VarRelation, atom_to_varrelation
from repro.hypergraph.jointree import cached_join_tree
from repro.logic.parser import parse_cq
from repro.logic.terms import Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


# ------------------------------------------------------------------ registry


def test_registry_lists_both_backends():
    assert "tuple" in available_engines()
    assert "columnar" in available_engines()


def test_registry_lists_every_backend_exactly():
    assert available_engines() == ["columnar", "parallel", "tuple"]
    with pytest.raises(ValueError, match="unknown engine"):
        get_engine("compiled")


def test_tuple_engine_count_and_decide_never_import_numpy():
    """Only the tuple backend is built at import: a fresh interpreter
    that counts and decides on it loads neither numpy nor the numpy
    backends, while every backend stays listed."""
    code = (
        "import sys\n"
        "import repro\n"
        "from repro import Database, parse_query\n"
        "from repro.engine import available_engines\n"
        "db = Database.from_relations({'R': [(1, 2), (2, 3)],\n"
        "                              'S': [(2, 10), (3, 30)]})\n"
        "assert repro.count(parse_query('Q(x, y, z) :- R(x, y), S(y, z)'),\n"
        "                   db) == 2\n"
        "assert repro.decide(parse_query('Q() :- R(x, y), S(y, z)'), db)\n"
        "assert available_engines() == ['columnar', 'parallel', 'tuple']\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy'\n"
        "                or m.startswith('repro.engine.'))\n"
        "print(loaded)\n"
        "assert 'numpy' not in sys.modules, loaded\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_get_engine_default_is_tuple(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    set_engine(None)
    assert get_engine().name == "tuple"


def test_get_engine_honours_env_var(monkeypatch):
    set_engine(None)
    monkeypatch.setenv("REPRO_ENGINE", "columnar")
    assert get_engine().name == "columnar"


def test_set_engine_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "tuple")
    set_engine("columnar")
    try:
        assert get_engine().name == "columnar"
    finally:
        set_engine(None)


def test_use_engine_restores_previous_selection():
    set_engine(None)
    before = get_engine().name
    with use_engine("tuple" if before == "columnar" else "columnar") as eng:
        assert get_engine().name == eng.name != before
    assert get_engine().name == before


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        get_engine("no-such-backend")
    with pytest.raises(ValueError):
        set_engine("no-such-backend")


def test_resolve_engine_accepts_name_instance_and_none():
    assert resolve_engine("tuple").name == "tuple"
    eng = ColumnarEngine()
    assert resolve_engine(eng) is eng
    set_engine(None)
    assert resolve_engine(None).name == get_engine().name


# --------------------------------------------------------- value dictionary


def test_value_dictionary_roundtrip():
    d = ValueDictionary()
    values = [3, "a", (1, 2), None, 3, "a"]
    codes = [d.encode(v) for v in values]
    assert codes[0] == codes[4] and codes[1] == codes[5]
    assert [d.decode(c) for c in codes[:4]] == [3, "a", (1, 2), None]
    assert d.code_of("missing") is None


def test_group_ids_distinguishes_composite_keys():
    a = np.array([0, 0, 1, 1, 0], dtype=np.int64)
    b = np.array([0, 1, 0, 1, 0], dtype=np.int64)
    ids, card = group_ids([a, b], 5)
    assert card >= 4
    # equal rows share an id, distinct rows do not
    assert ids[0] == ids[4]
    assert len({ids[0], ids[1], ids[2], ids[3]}) == 4


# ------------------------------------------------------ columnar relation ops


def _pair(rows_r, rows_s):
    r = ColumnarRelation((x, y), rows_r)
    s = ColumnarRelation((y, z), rows_s, dictionary=r.dictionary)
    return r, s


def test_columnar_matches_varrelation_on_core_ops():
    rows_r = [(1, 2), (1, 3), (2, 3), (4, 5)]
    rows_s = [(2, 7), (3, 8), (9, 9)]
    cr, cs = _pair(rows_r, rows_s)
    vr, vs = VarRelation((x, y), rows_r), VarRelation((y, z), rows_s)

    assert set(cr.semijoin(cs)) == set(vr.semijoin(vs))
    assert set(cr.join(cs)) == set(vr.join(vs))
    assert set(cr.project([y])) == set(vr.project([y]))
    assert set(cr.project([y, x])) == set(vr.project([y, x]))
    assert len(cr) == len(vr)


def test_columnar_join_column_order_and_duplicate_free():
    cr, cs = _pair([(1, 2), (1, 2)], [(2, 3)])
    assert len(cr) == 1  # construction dedupes
    joined = cr.join(cs)
    assert joined.variables == (x, y, z)
    assert set(joined) == {(1, 2, 3)}


def test_columnar_project_preserves_first_seen_order():
    rel = ColumnarRelation((x, y), [(5, 1), (3, 1), (5, 2), (3, 9)])
    assert list(rel.project([x])) == [5, 3] or list(rel.project([x])) == [(5,), (3,)]


def test_columnar_probe_interface_matches_tuple_backend():
    rows = [(1, 2), (1, 3), (2, 3)]
    cr = ColumnarRelation((x, y), rows)
    vr = VarRelation((x, y), rows)
    assert sorted(cr.probe_assignment({x: 1})) == sorted(vr.probe_assignment({x: 1}))
    assert sorted(cr.index_on((x,))[(1,)]) == sorted(vr.index_on((x,))[(1,)])
    assert (1, 2) in cr and (9, 9) not in cr


def test_columnar_mixed_type_rows_do_not_coerce():
    # numpy would coerce [(1, "a")] to strings; the encoder must not
    rel = ColumnarRelation((x, y), [(1, "a"), ("b", 2)])
    assert set(rel) == {(1, "a"), ("b", 2)}


def test_columnar_empty_and_nullary():
    empty = ColumnarRelation((x,))
    assert len(empty) == 0 and list(empty) == []
    other = ColumnarRelation((x,), [(1,)], dictionary=empty.dictionary)
    assert len(empty.semijoin(other)) == 0
    assert len(other.semijoin(empty)) == 0


# ------------------------------------------------- atom materialisation paths


def _db():
    db = Database()
    db.add_relation(Relation("R", 2, [(1, 1), (1, 2), (2, 2), (3, 1)]))
    return db


@pytest.mark.parametrize("query", [
    "Q(x, y) :- R(x, y)",
    "Q(x) :- R(x, x)",
    "Q(x) :- R(x, 1)",
    "Q(x) :- R(1, x)",
])
def test_materialise_atom_parity(query):
    db = _db()
    atom = parse_cq(query).atoms[0]
    tup = atom_to_varrelation(db, atom)
    col = materialise_atom_columnar(db, atom)
    assert set(col) == set(tup)
    assert col.variables == tup.variables


def test_engine_objects_materialise_consistently():
    db = _db()
    atom = parse_cq("Q(x) :- R(x, x)").atoms[0]
    assert set(TupleEngine().materialise_atom(db, atom)) == \
        set(ColumnarEngine().materialise_atom(db, atom))


# ----------------------------------------------------- satellite: indexes etc


def test_atom_to_varrelation_uses_index_for_constants():
    db = _db()
    atom = parse_cq("Q(x) :- R(x, 2)").atoms[0]
    rel = db.relation("R")
    atom_to_varrelation(db, atom)
    # the constant position should now be indexed on the base relation
    assert any(pos == (1,) for pos in rel._indexes)


def test_relation_discard_maintains_indexes_incrementally():
    rel = Relation("R", 2, [(1, 2), (1, 3), (2, 4)])
    idx = rel.index_on((0,))
    assert sorted(idx[(1,)]) == [(1, 2), (1, 3)]
    rel.discard((1, 2))
    idx2 = rel.index_on((0,))
    assert idx2[(1,)] == [(1, 3)]
    rel.discard((2, 4))
    assert (2,) not in rel.index_on((0,))
    # discarding a missing tuple is a no-op
    rel.discard((9, 9))
    assert len(rel) == 1


def test_cached_join_tree_memoises_per_hypergraph():
    q1 = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    q2 = parse_cq("Q(x) :- R(x, z), S(z, y)")
    t1 = cached_join_tree(q1.hypergraph())
    t2 = cached_join_tree(q2.hypergraph())
    assert t1 is t2  # same body hypergraph -> same memoised tree
