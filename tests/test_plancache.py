"""Unit tests for the cross-query plan/preprocessing cache
(repro.core.plancache): database-fingerprint invalidation, and entry
lifetime (superseded on write, released with the database, evicted by
LRU)."""

import copy
import gc
import pickle
import sys
import threading
import time
import weakref
from collections import Counter

import pytest

import repro
from repro.core.plancache import (
    DEFAULT_MAXSIZE,
    ENV_VAR,
    PlanCache,
    cached_plan,
    clear_plan_cache,
    incremental_scope,
    plan_cache,
    plan_cache_disabled,
    plan_cache_enabled,
    set_plan_cache_enabled,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.eval.naive import evaluate_cq_naive
from repro.eval.yannakakis import full_reducer
from repro.logic.parser import parse_cq


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    set_plan_cache_enabled(None)
    yield
    clear_plan_cache()
    set_plan_cache_enabled(None)


def _db():
    return Database([
        Relation("R", 2, [(i, i % 3) for i in range(12)]),
        Relation("S", 2, [(i % 3, i) for i in range(12)]),
    ])


# --------------------------------------------------------------- PlanCache


def test_hit_miss_accounting():
    cache = PlanCache(maxsize=4)
    from repro.core.plancache import _MISS

    key = PlanCache.key_for("k", "q", None, "tuple")
    assert cache.get(key) is _MISS
    cache.put(key, "plan")
    assert cache.get(key) == "plan"
    expected = {"hits": 1, "misses": 1, "evictions": 0,
                "superseded": 0, "released": 0,
                "refreshes": 0, "refresh_overflows": 0,
                "refresh_fallbacks": 0,
                "entries": 1, "maxsize": 4}
    stats = cache.stats()
    assert {k: stats[k] for k in expected} == expected
    # sharing telemetry (process-global counters) rides along
    assert isinstance(stats["symbol_sharing"], bool)
    assert stats["symbol_workspace_hits"] >= 0
    assert stats["coalesced_semijoins"] >= 0
    cache.clear()
    expected = {"hits": 0, "misses": 0, "evictions": 0,
                "superseded": 0, "released": 0,
                "refreshes": 0, "refresh_overflows": 0,
                "refresh_fallbacks": 0,
                "entries": 0, "maxsize": 4}
    stats = cache.stats()
    assert {k: stats[k] for k in expected} == expected


def test_none_is_a_cacheable_value():
    cache = PlanCache()
    key = PlanCache.key_for("k", "q", None, "tuple")
    cache.put(key, None)
    assert cache.get(key) is None
    assert cache.stats()["hits"] == 1


def test_lru_eviction_order():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")       # refresh a; b becomes LRU
    cache.put("c", 3)    # evicts b
    assert len(cache) == 2
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    misses_before = cache.misses
    from repro.core.plancache import _MISS

    assert cache.get("b") is _MISS
    assert cache.misses == misses_before + 1


# ------------------------------------------------- fingerprint / versioning


def test_relation_version_counts_effective_mutations():
    r = Relation("R", 1)
    v0 = r.version
    r.add((1,))
    assert r.version == v0 + 1
    r.add((1,))                  # duplicate: no effect, no bump
    assert r.version == v0 + 1
    r.discard((1,))
    assert r.version == v0 + 2
    r.discard((1,))              # absent: no effect, no bump
    assert r.version == v0 + 2


def test_fingerprint_changes_on_mutation():
    db = _db()
    fp0 = db.fingerprint()
    assert db.fingerprint() == fp0            # stable while untouched
    db.relation("R").add((99, 99))
    fp1 = db.fingerprint()
    assert fp1 != fp0
    db.relation("R").discard((99, 99))
    assert db.fingerprint() != fp1            # version is monotone


def test_keys_distinguish_kind_engine_extra_and_db():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db1, db2 = _db(), _db()
    keys = {
        PlanCache.key_for("a", q, db1, "tuple"),
        PlanCache.key_for("b", q, db1, "tuple"),
        PlanCache.key_for("a", q, db1, "columnar"),
        PlanCache.key_for("a", q, db1, "tuple", extra=7),
        PlanCache.key_for("a", q, db2, "tuple"),  # distinct serials per db
    }
    assert len(keys) == 5


# ------------------------------------------------------------- cached_plan


def test_cached_plan_builds_once_then_hits():
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = _db()
    calls = []

    def build():
        calls.append(1)
        return "artefact"

    assert cached_plan("t", q, db, "tuple", build) == "artefact"
    assert cached_plan("t", q, db, "tuple", build) == "artefact"
    assert len(calls) == 1
    db.relation("S").add((50, 51))
    assert cached_plan("t", q, db, "tuple", build) == "artefact"
    assert len(calls) == 2                    # mutation invalidated the key


def test_cached_plan_respects_disable_toggles(monkeypatch):
    db = _db()
    calls = []

    def build():
        calls.append(1)
        return len(calls)

    with plan_cache_disabled():
        assert not plan_cache_enabled()
        cached_plan("t", "q", db, "tuple", build)
        cached_plan("t", "q", db, "tuple", build)
    assert len(calls) == 2                    # no caching inside the scope
    assert plan_cache_enabled()               # restored on exit

    set_plan_cache_enabled(False)
    cached_plan("t", "q", db, "tuple", build)
    assert len(calls) == 3
    set_plan_cache_enabled(None)              # back to env default

    monkeypatch.setenv(ENV_VAR, "off")
    assert not plan_cache_enabled()
    monkeypatch.setenv(ENV_VAR, "1")
    assert plan_cache_enabled()


def test_global_cache_defaults():
    cache = plan_cache()
    assert cache.maxsize == DEFAULT_MAXSIZE


# ----------------------------------------------- integration with the stack


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_full_reducer_warm_results_are_isolated_copies(engine):
    q = parse_cq("Q(x, z) :- R(x, z), S(z, y)")
    db = _db()
    _tree, first = full_reducer(q, db, engine=engine)
    baseline = [set(r) for r in first]
    # mutating what a caller received must not corrupt the cached plan
    first[0].add((777, 777))
    _tree, second = full_reducer(q, db, engine=engine)
    assert [set(r) for r in second] == baseline
    assert plan_cache().hits >= 1


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_warm_enumeration_matches_cold(engine):
    q = parse_cq("Q(x) :- R(x, z), S(z, y)")
    db = _db()
    expected = evaluate_cq_naive(q, db)
    cold = set(FreeConnexEnumerator(q, db, engine=engine))
    warm = set(FreeConnexEnumerator(q, db, engine=engine))
    assert cold == warm == expected
    assert plan_cache().hits >= 1
    # mutation: the next run is a miss and sees the new data
    db.relation("R").add((42, 0))
    after = set(FreeConnexEnumerator(q, db, engine=engine))
    assert after == evaluate_cq_naive(q, db)
    assert (42,) in after


# ------------------------------------------------------------ entry lifetime


def _entries():
    return list(plan_cache()._entries)


def test_fingerprint_names_relations_by_serial():
    db = _db()
    fp = db.fingerprint()
    assert [r[1] for r in fp[1]] == [db.relation("R").serial,
                                     db.relation("S").serial]
    assert db.relation("R").serial != db.relation("S").serial


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r)),
                                   lambda r: r.copy()])
def test_copied_relations_draw_fresh_serials(clone):
    r = Relation("R", 2, [(1, 2), (3, 4)])
    c = clone(r)
    assert c.serial != r.serial
    assert set(c) == set(r)


def test_recycled_id_gets_a_different_fingerprint():
    def make():
        return Database([Relation("R", 1, [(1,)])])

    db = make()
    old_fp, old_id = db.fingerprint(), id(db.relation("R"))
    del db
    for _ in range(10_000):
        db = make()
        if id(db.relation("R")) == old_id:
            break
        del db
    else:
        pytest.skip("the allocator never recycled the relation's id")
    assert db.fingerprint() != old_fp


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_dropped_database_is_released(engine):
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    db = _db()
    expected = repro.count(q, db, engine=engine)
    set(repro.enumerate_answers(q, db, engine=engine))
    assert len(plan_cache()) > 0
    ref = weakref.ref(db)
    del db
    gc.collect()
    assert ref() is None
    assert len(plan_cache()) == 0
    stats = plan_cache().stats()
    assert stats["released"] > 0 and stats["evictions"] == 0
    # a fresh database with the same contents builds again, correctly
    assert repro.count(q, _db(), engine=engine) == expected


def test_writes_leave_one_entry_per_kind_and_query():
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    db = _db()
    for i in range(50):
        db.relation("S").add((i % 3, 1000 + i))
        db.relation("S").discard((i % 3, i % 12))
        assert repro.count(q, db) == len(evaluate_cq_naive(q, db))
    per_plan = Counter(key[:2] for key in _entries())
    assert per_plan and set(per_plan.values()) == {1}
    stats = plan_cache().stats()
    assert stats["superseded"] >= 49
    assert stats["evictions"] == 0


def test_database_in_a_reference_cycle_is_released_after_gc():
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    db = _db()
    db.cycle = db                   # only the cycle collector frees it
    repro.count(q, db)
    ref = weakref.ref(db)
    del db
    survivor = _db()
    survivor_count = repro.count(q, survivor)
    calls = []

    def build():
        # the collector runs the dead database's finalizer in the middle
        # of a cache operation (between the miss and the insert)
        gc.collect()
        calls.append(1)
        return "built"

    assert cached_plan("t", "q", survivor, "tuple", build) == "built"
    assert ref() is None and calls == [1]
    cache = plan_cache()
    keys = _entries()
    assert len(cache) == len(keys) == cache.stats()["entries"]
    assert all(key[4] == survivor.fingerprint() for key in keys)
    assert cache.stats()["released"] > 0
    # the survivor's plans are still served
    hits = cache.hits
    assert repro.count(q, survivor) == survivor_count
    assert cached_plan("t", "q", survivor, "tuple", build) == "built"
    assert cache.hits > hits and calls == [1]


def test_lru_pressure_counts_as_eviction_not_release():
    cache = PlanCache(maxsize=2)
    dbs = [_db() for _ in range(3)]
    for db in dbs:
        cache.put(PlanCache.key_for("k", "q", db, "tuple"), "plan", db=db)
    stats = cache.stats()
    assert (stats["evictions"], stats["superseded"], stats["released"]) \
        == (1, 0, 0)
    del dbs[:2]                     # one evicted, one live entry released
    gc.collect()
    stats = cache.stats()
    assert (stats["entries"], stats["released"]) == (1, 1)


def test_alternating_databases_each_refresh_their_own_plan():
    q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    with incremental_scope(True):
        one = _db()
        for i in range(6):
            one.relation("S").add((i % 3, 100 + i))
            repro.count(q, one)
        control = plan_cache().stats()
        clear_plan_cache()
        dbs = [_db(), _db()]
        for i in range(6):
            for db in dbs:
                db.relation("S").add((i % 3, 100 + i))
                assert repro.count(q, db) == len(evaluate_cq_naive(q, db))
        stats = plan_cache().stats()
    assert (control["refreshes"], control["entries"]) == (5, 1)
    assert stats["refresh_overflows"] == 0
    assert stats["refreshes"] == 10
    assert stats["entries"] == 2


def test_stats_from_other_threads_while_databases_come_and_go():
    # stats() drains released entries, and the metrics server calls it
    # from its own thread while queries put and get on the main one
    q = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    errors = []
    stop = threading.Event()

    def scrape():
        try:
            while not stop.is_set():
                plan_cache().stats()
                len(plan_cache())
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    scrapers = [threading.Thread(target=scrape) for _ in range(3)]
    try:
        for t in scrapers:
            t.start()
        live = []           # enough live entries for long drain scans
        deadline = time.monotonic() + 1.0
        rounds = 0
        while time.monotonic() < deadline:
            db = _db()
            if rounds % 2:      # half die at once, half wait for the collector
                db.cycle = db
            assert repro.count(q, db) == len(evaluate_cq_naive(q, db))
            live.append(db)
            if len(live) > 60:
                del live[0]
            del db
            rounds += 1
        del live[:]
    finally:
        stop.set()
        for t in scrapers:
            t.join(timeout=10)
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in scrapers)
    assert errors == [] and rounds > 0
    gc.collect()
    assert len(plan_cache()) == 0
