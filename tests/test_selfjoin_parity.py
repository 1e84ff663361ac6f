"""Parity and unit tests for engine-wide per-symbol work sharing.

Self-join queries name one stored relation through several atoms, and
the :class:`repro.engine.symbols.SymbolWorkspace` shares one build (one
dictionary encode, one probe structure, one masked column set) per
(symbol, database version) across all of them.  Sharing must be
invisible: every backend, with sharing on or off
(``REPRO_SYMBOL_SHARING``), must return exactly the answers of the
naive evaluator — including duplicate-variable atoms ``R(x, x)``,
constant atoms ``R(3, y)``, and interleaved updates that invalidate the
workspace mid-stream.  The classifier half pins the Carmeli–Segoufin
self-join analysis: core-based verdicts are decisive, not hedged with
the old "lower bound stated for self-join-free queries" caveat.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.classify import classify
from repro.core.plancache import clear_plan_cache
from repro.counting.acq_count import count_acq
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import get_engine
from repro.engine.base import ColumnarEngine
from repro.engine.symbols import (
    SymbolWorkspace,
    atom_signature,
    sharing_enabled,
    sharing_scope,
)
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.naive import cq_is_satisfiable_naive, evaluate_cq_naive
from repro.eval.yannakakis import full_reducer, yannakakis, yannakakis_boolean
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_cq
from repro.logic.terms import Constant, Variable
from repro.obs.fitting import expected_verdict
from repro.obs.registry import registry

ENGINES = ("tuple", "columnar", "parallel")

DOMAIN = st.integers(min_value=0, max_value=4)


@st.composite
def selfjoin_instance(draw):
    """A random *acyclic* self-join CQ over one binary symbol ``R``, plus
    a random database.  Atoms grow tree-shaped (each new atom hangs off
    one existing variable), which keeps the variable graph a forest and
    hence the query alpha-acyclic; the second term is a fresh variable,
    the anchor again (``R(v, v)``), or a constant — so the strategy
    exercises every :func:`atom_signature` layout."""
    n_atoms = draw(st.integers(min_value=2, max_value=4))
    anchor = Variable("v0")
    pool = [anchor]
    fresh = 1
    atoms = []
    for i in range(n_atoms):
        anchor = pool[0] if i == 0 else draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["fresh", "dup", "const"]))
        if kind == "fresh":
            other = Variable(f"v{fresh}")
            fresh += 1
            pool.append(other)
        elif kind == "dup":
            other = anchor
        else:
            other = Constant(draw(DOMAIN))
        terms = [other, anchor] if draw(st.booleans()) else [anchor, other]
        atoms.append(Atom("R", terms))
    all_vars = sorted({t for a in atoms for t in a.terms
                       if isinstance(t, Variable)}, key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(all_vars), unique=True,
                         max_size=len(all_vars)))
    cq = ConjunctiveQuery(head, atoms)
    rows = draw(st.lists(st.tuples(DOMAIN, DOMAIN), min_size=0, max_size=12))
    db = Database([Relation("R", 2, rows)])
    return cq, db


# ----------------------------------------------------- cross-engine parity


@settings(max_examples=40, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_answer_parity(instance):
    cq, db = instance
    if cq.is_boolean():
        expect = cq_is_satisfiable_naive(cq, db)
        for enabled in (True, False):
            with sharing_scope(enabled):
                clear_plan_cache()
                for engine in ENGINES:
                    assert yannakakis_boolean(cq, db, engine=engine) == expect
        return
    expect = evaluate_cq_naive(cq, db)
    for enabled in (True, False):
        with sharing_scope(enabled):
            clear_plan_cache()
            for engine in ENGINES:
                assert set(yannakakis(cq, db, engine=engine)) == expect


@settings(max_examples=40, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_count_parity(instance):
    cq, db = instance
    expect = (1 if cq_is_satisfiable_naive(cq, db) else 0) \
        if cq.is_boolean() else len(evaluate_cq_naive(cq, db))
    for enabled in (True, False):
        with sharing_scope(enabled):
            clear_plan_cache()
            for engine in ENGINES:
                assert count_acq(cq, db, engine=engine) == expect


@settings(max_examples=30, deadline=None)
@given(selfjoin_instance())
def test_selfjoin_enumeration_parity(instance):
    """Quantifier-free variant (all variables in the head): free-connex
    by construction, so every backend must enumerate the same answer
    set, and the *order* within one backend must not depend on whether
    the workspace served shared artefacts."""
    cq, db = instance
    all_vars = sorted(cq.variables(), key=lambda v: v.name)
    qf = ConjunctiveQuery(all_vars, cq.atoms)
    expect = evaluate_cq_naive(qf, db)
    for engine in ENGINES:
        with sharing_scope(True):
            clear_plan_cache()
            shared = list(FreeConnexEnumerator(qf, db, engine=engine))
        with sharing_scope(False):
            clear_plan_cache()
            unshared = list(FreeConnexEnumerator(qf, db, engine=engine))
        assert set(shared) == expect
        assert shared == unshared


def test_interleaved_updates_invalidate_workspace():
    """Mutations bump the stored relation's version; the next query must
    see the new data on every backend (a stale shared materialisation
    would be silently wrong), with workspace misses accounting for the
    invalidation."""
    q = parse_cq("Q(x, y, z) :- R(x, y), R(y, z)")
    db = Database([Relation("R", 2, [(i, i + 1) for i in range(20)])])
    reg = registry()
    for step in range(4):
        expect = evaluate_cq_naive(q, db)
        misses_before = reg.counter("engine.symbol_workspace_misses")
        for engine in ENGINES:
            assert set(yannakakis(q, db, engine=engine)) == expect
        if step % 2 == 0:
            db.relation("R").add((100 + step, 0))       # append-only delta
        else:
            db.relation("R").discard((step, step + 1))  # delete path
        assert reg.counter("engine.symbol_workspace_misses") > misses_before


# ------------------------------------------------------- workspace internals


def test_atom_signature_layouts():
    x, y = Variable("x"), Variable("y")
    u = Variable("u")
    assert atom_signature(Atom("R", [x, y])) is None
    assert atom_signature(Atom("R", [x, x])) == (("dup", 1, 0),)
    assert atom_signature(Atom("R", [Constant(3), y])) == (("const", 0, 3),)
    # signatures are variable-name independent: R(x, x) and R(u, u)
    # share one masked materialisation
    assert atom_signature(Atom("R", [x, x])) == atom_signature(Atom("R", [u, u]))
    assert atom_signature(Atom("R", [Constant(3), x])) \
        == atom_signature(Atom("R", [Constant(3), u]))
    assert atom_signature(Atom("R", [Constant(2), x])) \
        != atom_signature(Atom("R", [Constant(3), x]))


def test_workspace_hit_miss_and_version_invalidation():
    ws = SymbolWorkspace()
    r = Relation("R", 2, [(1, 2)])
    e1 = ws.entry("R", r, "unit")
    assert ws.entry("R", r, "unit") is e1          # same version: hit
    r.add((3, 4))                                  # version bump
    e2 = ws.entry("R", r, "unit")
    assert e2 is not e1
    assert ws.stats()["entries"] == 1              # stale entry dropped


def test_workspace_variant_memoised_once():
    ws = SymbolWorkspace()
    r = Relation("R", 2, [(1, 1), (1, 2)])
    entry = ws.entry("R", r, "unit")
    calls = []

    def build():
        calls.append(1)
        return ("payload",)

    key = ("cols", (("dup", 1, 0),))
    assert entry.variant(key, build) == ("payload",)
    assert entry.variant(key, build) == ("payload",)
    assert len(calls) == 1
    assert ws.stats()["variants"] == 1


def test_workspace_lru_eviction():
    ws = SymbolWorkspace(limit=2)
    rels = [Relation(f"R{i}", 1, [(i,)]) for i in range(3)]
    for rel in rels:
        ws.entry(rel.name, rel, "unit")
    assert ws.stats()["entries"] == 2              # oldest evicted


def _self_join_cq():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return ConjunctiveQuery(
        [x, y, z], [Atom("E", (x, y)), Atom("E", (y, z))])


@sharing_scope(True)
def test_symbol_cache_shares_probes_across_self_join_atoms():
    rng = random.Random(5)
    db = Database.from_relations({
        "E": [(rng.randrange(25), rng.randrange(25)) for _ in range(800)],
    })
    cq = _self_join_cq()
    eng = ColumnarEngine()
    with obs.capture() as tracer:
        r1 = eng.materialise_atom(db, cq.atoms[0])
        r2 = eng.materialise_atom(db, cq.atoms[1])
    # one miss (first atom installs the cache), one hit (second shares)
    assert tracer.counters.get("columnar.symbol_cache_misses") == 1
    assert tracer.counters.get("columnar.symbol_cache_hits") == 1
    assert r1._probecache is r2._probecache
    # a probe built through one atom is visible to the other: R(x,y)
    # probing column 0 and R(y,z) probing column 0 are the same entry
    p1 = r1.batch_probe((r1.variables[0],))
    p2 = r2.batch_probe((r2.variables[0],))
    assert p1 is p2


@sharing_scope(True)
def test_symbol_cache_invalidated_by_version_bump():
    db = Database.from_relations({"E": [(1, 2), (2, 3)]})
    cq = _self_join_cq()
    eng = ColumnarEngine()
    r1 = eng.materialise_atom(db, cq.atoms[0])
    cache_before = r1._probecache
    r1.batch_probe((r1.variables[0],))
    assert len(cache_before) > 0
    db.relation("E").add((3, 4))  # version bump
    with obs.capture() as tracer:
        r2 = eng.materialise_atom(db, cq.atoms[0])
    assert tracer.counters.get("columnar.symbol_cache_misses") == 1
    assert r2._probecache is not cache_before
    assert len(r2) == 3
    assert eng.workspace.stats()["entries"] >= 1


@sharing_scope(True)
def test_symbol_cache_variants_for_masked_atoms():
    """Atoms with constants or repeated variables materialise masked
    columns, so they must not share the *base* position-keyed cache —
    but atoms with the *same* constant/dup-var signature share one
    variant (masked columns and probe cache), regardless of the
    variable names they use."""
    db = Database.from_relations({"E": [(1, 1), (1, 2), (2, 2)]})
    x, u = Variable("x"), Variable("u")
    eng = ColumnarEngine()
    dup = eng.materialise_atom(db, Atom("E", (x, x)))
    plain = eng.materialise_atom(db, Atom("E", (x, Variable("y"))))
    const = eng.materialise_atom(db, Atom("E", (x, Constant(2))))
    assert dup._probecache is not plain._probecache
    assert const._probecache is not plain._probecache
    assert set(dup) == {(1,), (2,)}       # rows with t[0] == t[1]
    assert set(const) == {(1,), (2,)}     # rows with t[1] == 2
    # same signature, different variable names -> one shared variant
    dup2 = eng.materialise_atom(db, Atom("E", (u, u)))
    const2 = eng.materialise_atom(db, Atom("E", (u, Constant(2))))
    assert dup2._probecache is dup._probecache
    assert const2._probecache is const._probecache
    assert set(dup2) == set(dup)
    # a different constant is a different variant
    other = eng.materialise_atom(db, Atom("E", (x, Constant(1))))
    assert other._probecache is not const._probecache
    assert set(other) == {(1,)}           # rows with t[1] == 1


def test_sharing_scope_and_plan_key():
    """The kill-switch folds into every backend's plan key, so a plan
    built with sharing on can never serve a run with sharing off."""
    assert sharing_enabled() in (True, False)
    for engine in ENGINES:
        eng = get_engine(engine)
        with sharing_scope(True):
            on = eng.plan_key()
        with sharing_scope(False):
            off = eng.plan_key()
        assert on != off
    with sharing_scope(False):
        assert not sharing_enabled()
        with sharing_scope(True):
            assert sharing_enabled()
        assert not sharing_enabled()


def test_semijoin_coalescing_counted_and_sound():
    """When one tree node is reduced by two sources whose shared columns
    are the *same arrays* (per-symbol sharing aliases them), the second
    pass is provably a no-op and gets coalesced — without changing the
    reduction.  A star-shaped join tree (root with two same-symbol
    children) forces the situation deterministically."""
    from repro.eval.yannakakis import materialise_atoms
    from repro.hypergraph.jointree import JoinTree

    q = parse_cq("Q(x, y1, y2, y3) :- R(x, y1), R(x, y2), R(x, y3)")
    db = Database([Relation("R", 2, [(i % 5, i) for i in range(40)])])
    star = JoinTree(q.hypergraph(), 0, {0: None, 1: 0, 2: 0})
    assert star.is_valid()
    reg = registry()
    with sharing_scope(True):
        clear_plan_cache()
        before = reg.counter("yannakakis.coalesced_semijoins")
        _, reduced = full_reducer(
            q, db, tree=star,
            relations=materialise_atoms(q, db, "columnar"),
            engine="columnar")
        assert reg.counter("yannakakis.coalesced_semijoins") > before
    with sharing_scope(False):
        clear_plan_cache()
        base = reg.counter("yannakakis.coalesced_semijoins")
        _, reduced_off = full_reducer(
            q, db, tree=star,
            relations=materialise_atoms(q, db, "columnar"),
            engine="columnar")
        assert reg.counter("yannakakis.coalesced_semijoins") == base
    for a, b in zip(reduced, reduced_off):
        assert set(a) == set(b)


# ------------------------------------------------- classifier: self-joins


def test_cyclic_query_with_acyclic_core_is_decisively_tractable():
    """R(x,y),R(y,z),R(z,x),R(x,x) looks cyclic, but y,z collapse onto x
    (the loop atom absorbs the triangle): the homomorphic core is the
    free-connex ACQ Q(x) :- R(x,x), so every task is decisively easy."""
    q = parse_cq("Q(x) :- R(x, y), R(y, z), R(z, x), R(x, x)")
    rep = classify(q)
    assert rep.query_class == "cyclic CQ (acyclic core)"
    assert rep.fact("core_is_proper") is True
    assert rep.fact("effective_acyclic") is True
    assert rep.fact("effective_free_connex") is True
    assert rep.verdict("decide").tractable is True
    assert rep.verdict("count").tractable is True
    assert rep.verdict("enumerate").tractable is True
    # the observatory's expectation rides on the effective structure
    assert expected_verdict(q, "total") == "linear"
    assert expected_verdict(q, "delay") == "constant-delay"


def test_triangle_selfjoin_lower_bound_is_decisive():
    """The triangle's core is the triangle: no identification removes
    the cyclic structure, so the Hyperclique bound transfers to the
    self-join query — stated decisively, not hedged as 'lower bound
    stated for self-join-free queries'."""
    q = parse_cq("Q() :- R(x, y), R(y, z), R(z, x)")
    rep = classify(q)
    assert rep.query_class == "cyclic CQ"
    assert rep.fact("self_join_free") is False
    assert rep.fact("core_acyclic") is False
    v = rep.verdict("enumerate")
    assert v.tractable is False
    assert "Carmeli-Segoufin" in v.caveat
    assert "self-join-free" not in v.caveat
    assert expected_verdict(q, "total") == "superlinear"


def test_acyclic_selfjoin_matmul_bound_transfers():
    """The same-symbol path Q(x,z) :- R(x,y),R(y,z) is its own core, so
    the Mat-Mul non-free-connex bound lifts from the self-join-free
    setting to this query."""
    q = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
    rep = classify(q)
    assert rep.fact("self_join_free") is False
    assert rep.fact("core_is_proper") is False
    assert rep.fact("effective_free_connex") is False
    v = rep.verdict("enumerate")
    assert v.tractable is False
    assert "Carmeli-Segoufin" in v.caveat
    assert expected_verdict(q, "delay") == "linear"


def test_free_connex_selfjoin_star_is_constant_delay():
    q = parse_cq("Q(x, y1, y2) :- R(x, y1), R(x, y2)")
    rep = classify(q)
    assert rep.fact("self_join_free") is False
    assert rep.verdict("enumerate").tractable is True
    assert expected_verdict(q, "delay") == "constant-delay"
    assert rep.fact("self_join_signature") == (("R", 2),)
