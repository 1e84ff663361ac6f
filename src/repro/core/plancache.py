"""Cross-query plan/preprocessing cache.

Constant-delay enumeration splits work into a *preprocessing* phase
(join-tree construction, atom materialisation + dictionary encoding,
full-reducer semijoins, free-connex projections) and an *enumeration*
phase whose delay the paper bounds.  Under repeated-query workloads —
Carmeli–Segoufin's motivation of answering the same query against a
slowly changing database, the ROADMAP's "heavy traffic" scenario — the
preprocessing phase is pure recomputation.  This module caches it.

:class:`PlanCache` is a small LRU keyed on

    (kind, query, engine name, extra, database fingerprint)

where the fingerprint (:meth:`repro.data.database.Database.fingerprint`)
combines each stored relation's process-unique ``serial``, its mutation
``version`` counter and its cardinality, plus the domain size — so any
``add``/``discard`` on any relation invalidates every plan derived from
that database.  A serial is never handed out twice, so a key stays sound
after its database dies: entries hold derived plans only, never the
database or its relations, and cache lifetime follows the data:

* **superseded** — a new key drops the entry with the same ``(kind,
  query, engine, extra)`` and the same relation serials at older
  versions (versions and the domain only grow, so that key can never be
  looked up again);
* **released** — the cache watches each database it stores plans for
  with :func:`weakref.finalize`; once the database is gone, its entries
  leave on the next cache call;
* **evicted** — beyond ``maxsize`` live entries, least recently used
  first.

Cached values are returned as-is: callers that hand mutable relations to
consumers must copy them first (see ``full_reducer``).  Enumerator-level
entries (prepared :class:`~repro.engine.enumerate.BlockIterator`
pipelines) are immutable after preprocessing and safely shared.

The cache is enabled by default; disable with ``REPRO_PLAN_CACHE=0``,
:func:`set_plan_cache_enabled`, or per-scope with :func:`plan_cache_disabled`.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro import obs

ENV_VAR = "REPRO_PLAN_CACHE"
INCREMENTAL_ENV_VAR = "REPRO_INCREMENTAL"
DEFAULT_MAXSIZE = 256

_MISS = object()


def _lineage(key: Hashable) -> Optional[Hashable]:
    """The part of a :meth:`PlanCache.key_for` key that survives writes:
    ``(kind, query, engine, extra)`` plus the relation names and serials.
    Keys of one lineage differ only in versions, cardinalities and the
    domain size.  ``None`` for keys of any other shape."""
    if not (isinstance(key, tuple) and len(key) == 5):
        return None
    fp = key[4]
    rels = None if fp is None else tuple(r[:2] for r in fp[1])
    return key[:4] + (rels,)


def _supersedes(key: Hashable, old: Hashable) -> bool:
    """Does ``key`` name a later state of ``old``'s database?  (Both of
    one lineage: no relation has a newer version in ``old``, and its
    domain is no larger.)"""
    new_fp, old_fp = key[4], old[4]
    if new_fp is None or old_fp is None or old_fp[0] > new_fp[0]:
        return False
    return all(o[2] <= n[2] for o, n in zip(old_fp[1], new_fp[1]))


_OWNER_TOKENS = itertools.count()


class PlanCache:
    """An LRU mapping plan keys to preprocessing artefacts.

    An entry is ``(value, owner token)``: the token stands for the
    database the plan was derived from, which the cache references only
    weakly.  A finalizer per database appends its token to a pending
    list when the database dies; :meth:`get`, :meth:`put`,
    :meth:`stats` and ``len()`` drain that list.  The finalizer never
    touches the entries itself, because the garbage collector may run it
    in the middle of any change to them.

    Every method that reads or changes the entries holds one lock: the
    metrics server calls :meth:`stats` from its own thread
    (:mod:`repro.obs.expose`), and ``stats`` drains.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        self.maxsize = int(maxsize)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Tuple[Any, Optional[int]]]" \
            = OrderedDict()
        # lineage (see _lineage) -> most recent full key, so a miss caused
        # purely by a write can find the entry it supersedes, and refresh
        # it instead of rebuilding from scratch
        self._latest: Dict[Hashable, Hashable] = {}
        # live database -> owner token; weak, so no entry keeps it alive
        self._owners: "weakref.WeakKeyDictionary[Any, int]" = \
            weakref.WeakKeyDictionary()
        # tokens of databases that died since the last drain
        self._dead_owners: List[int] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.superseded = 0
        self.released = 0
        self.refreshes = 0
        self.refresh_overflows = 0
        self.refresh_fallbacks = 0

    # ------------------------------------------------------------------ state

    def __len__(self) -> int:
        with self._lock:
            self._drain()
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._latest.clear()
            del self._dead_owners[:]
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.superseded = 0
            self.released = 0
            self.refreshes = 0
            self.refresh_overflows = 0
            self.refresh_fallbacks = 0

    def stats(self) -> dict:
        from repro.engine.symbols import sharing_enabled
        from repro.obs.registry import registry

        with self._lock:
            self._drain()
            counts = {"hits": self.hits, "misses": self.misses,
                      "evictions": self.evictions,
                      "superseded": self.superseded,
                      "released": self.released,
                      "refreshes": self.refreshes,
                      "refresh_overflows": self.refresh_overflows,
                      "refresh_fallbacks": self.refresh_fallbacks,
                      "entries": len(self._entries)}
        reg = registry()
        return {**counts, "maxsize": self.maxsize,
                # per-symbol work sharing rides the same repeated-query
                # motivation as the plan cache, so its counters surface
                # here (and in doctor/top) alongside the plan hit rates
                "symbol_sharing": sharing_enabled(),
                "symbol_workspace_hits":
                    reg.counter("engine.symbol_workspace_hits"),
                "symbol_workspace_misses":
                    reg.counter("engine.symbol_workspace_misses"),
                "coalesced_semijoins":
                    reg.counter("yannakakis.coalesced_semijoins")}

    def _forget(self, key: Hashable) -> None:
        """Drop ``key``'s lineage pointer if it still points at ``key``."""
        lineage = _lineage(key)
        if lineage is not None and self._latest.get(lineage) == key:
            del self._latest[lineage]

    def _owner_token(self, db: Any) -> Optional[int]:
        """``db``'s token, watching ``db`` from its first entry on."""
        if db is None:
            return None
        token = self._owners.get(db)
        if token is None:
            token = next(_OWNER_TOKENS)
            self._owners[db] = token
            weakref.finalize(db, self._dead_owners.append, token).atexit \
                = False
        return token

    def _drain(self) -> None:
        """Remove the entries of every database that died since the last
        call (the caller holds the lock).  Their serials never recur, so
        no lookup can miss them."""
        if not self._dead_owners:
            return
        dead = set()
        while self._dead_owners:
            dead.add(self._dead_owners.pop())
        doomed = [k for k, (_value, token) in self._entries.items()
                  if token in dead]
        for key in doomed:
            del self._entries[key]
            self._forget(key)
        if doomed:
            self.released += len(doomed)
            obs.count("plancache.released", len(doomed))

    # ----------------------------------------------------------------- lookup

    @staticmethod
    def key_for(kind: str, query: Hashable, db, engine_name: str,
                extra: Hashable = ()) -> Hashable:
        """The cache key: query canonical form + database fingerprint."""
        return (kind, query, engine_name, extra,
                db.fingerprint() if db is not None else None)

    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``, or the module-private miss
        sentinel (so ``None`` is a cacheable value)."""
        with self._lock:
            self._drain()
            entry = self._entries.get(key, _MISS)
            if entry is _MISS:
                self.misses += 1
                return _MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, db: Any = None) -> Any:
        """Insert ``value`` derived from ``db`` (held weakly: the entry
        leaves when ``db`` dies).  Drops the entry ``key`` supersedes,
        then evicts the LRU entry beyond maxsize."""
        lineage = _lineage(key)
        with self._lock:
            self._drain()
            if lineage is not None:
                prev = self._latest.get(lineage)
                if prev is not None and prev != key \
                        and prev in self._entries and _supersedes(key, prev):
                    del self._entries[prev]
                    self.superseded += 1
                    obs.count("plancache.superseded")
                self._latest[lineage] = key
            self._entries[key] = (value, self._owner_token(db))
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                evicted, _ = self._entries.popitem(last=False)
                self._forget(evicted)
                self.evictions += 1
                obs.count("plancache.evictions")
        return value

    # ---------------------------------------------------------------- refresh

    def predecessor(self, key: Hashable) -> Tuple[Any, Any]:
        """The live entry cached for ``key``'s lineage (same kind, query,
        engine, extra and relation serials) under an *older* fingerprint:
        ``(prev_key, value)``, or ``(None, _MISS)`` when there is none to
        refresh from."""
        lineage = _lineage(key)
        if lineage is None:
            return None, _MISS
        with self._lock:
            prev_key = self._latest.get(lineage)
            if prev_key is None or prev_key == key:
                return None, _MISS
            entry = self._entries.get(prev_key, _MISS)
        if entry is _MISS:
            return None, _MISS
        return prev_key, entry[0]

    def replace(self, prev_key: Hashable, key: Hashable, value: Any,
                db: Any = None) -> Any:
        """Move a refreshed plan from its stale key to the current one."""
        with self._lock:
            self._entries.pop(prev_key, None)
            self.refreshes += 1
            return self.put(key, value, db=db)


_GLOBAL = PlanCache()
_ENABLED: Optional[bool] = None  # None -> consult the environment
_INCREMENTAL: Optional[bool] = None  # None -> consult the environment


def plan_cache() -> PlanCache:
    """The process-wide cache instance."""
    return _GLOBAL


def plan_cache_enabled() -> bool:
    if _ENABLED is not None:
        return _ENABLED
    env = os.environ.get(ENV_VAR, "").strip().lower()
    return env not in ("0", "false", "off", "no")


def set_plan_cache_enabled(enabled: Optional[bool]) -> None:
    """Force the cache on/off process-wide (None resets to the
    ``REPRO_PLAN_CACHE`` environment default)."""
    global _ENABLED
    _ENABLED = enabled


@contextmanager
def plan_cache_disabled() -> Iterator[None]:
    """Temporarily bypass the cache (cold-path measurements, tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def incremental_enabled() -> bool:
    """Is delta-propagated plan refresh on?  Off by default: set
    ``REPRO_INCREMENTAL=1`` / ``--incremental`` (or call
    :func:`set_incremental_enabled`) to opt in."""
    if _INCREMENTAL is not None:
        return _INCREMENTAL
    env = os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower()
    return env in ("1", "true", "on", "yes")


def set_incremental_enabled(enabled: Optional[bool]) -> None:
    """Force incremental refresh on/off process-wide (None resets to
    the ``REPRO_INCREMENTAL`` environment default)."""
    global _INCREMENTAL
    _INCREMENTAL = enabled


@contextmanager
def incremental_scope(enabled: bool) -> Iterator[None]:
    """Temporarily force incremental refresh on or off (tests, CLI)."""
    global _INCREMENTAL
    previous = _INCREMENTAL
    _INCREMENTAL = enabled
    try:
        yield
    finally:
        _INCREMENTAL = previous


def clear_plan_cache() -> None:
    _GLOBAL.clear()


def _collect_deltas(db, old_fp, new_fp
                    ) -> Optional[Dict[str, List[Tuple[str, Tuple]]]]:
    """Per-relation effective ops taking ``old_fp`` to ``new_fp``.

    Returns ``None`` when the two fingerprints are not delta-comparable:
    different domain size or relation line-up (the domain and the
    relation list only change at ``add_relation``, so a mismatch means
    a structurally different database, not a tuple-level update), or
    any per-relation delta log that has overflowed.
    """
    if old_fp is None or new_fp is None or old_fp[0] != new_fp[0]:
        return None
    old_rels, new_rels = old_fp[1], new_fp[1]
    if len(old_rels) != len(new_rels):
        return None
    deltas: Dict[str, List[Tuple[str, Tuple]]] = {}
    for (oname, oserial, over, _olen), (nname, nserial, nver, _nlen) in zip(
            old_rels, new_rels):
        if oname != nname or oserial != nserial:
            return None
        if over == nver:
            continue
        ops = db.relation(oname).deltas_since(over)
        if ops is None:
            return None
        deltas[oname] = ops
    return deltas


def cached_plan(kind: str, query: Hashable, db, engine_name: str,
                builder: Callable[[], Any], extra: Hashable = (),
                refresher: Optional[Callable[[Any, Dict[str, list]], Any]]
                = None) -> Any:
    """Fetch-or-build helper used by the preprocessing entry points.

    ``builder`` runs (and its result is cached until a write to ``db``
    supersedes it, ``db`` dies, or LRU eviction) only on a miss or when
    caching is disabled.  ``extra`` distinguishes
    same-query plans with different knobs — block size, and the engine's
    :meth:`~repro.engine.base.Engine.plan_key` (for the parallel backend:
    worker count and fallback threshold, since shard plans and chunk
    bounds built for one fan-out must not serve another).

    ``refresher`` opts the plan kind into delta propagation: when a
    lookup misses only because the database fingerprint moved, and
    :func:`incremental_enabled` is on, ``refresher(stale_value,
    deltas)`` is offered the predecessor entry plus the per-relation
    ``{name: [('+'|'-', tuple), ...]}`` ops that separate the two
    fingerprints.  Returning the caught-up value re-caches it under the
    new key; returning ``None`` (unsupported delta shape) — or any
    delta-log overflow — falls back to a cold ``builder`` run.
    Refreshers must validate support *before* mutating their state.
    """
    if not plan_cache_enabled():
        with obs.span("plan.build", kind=kind, cache="off"):
            return builder()
    cache = _GLOBAL
    with obs.span("plan.fingerprint", kind=kind):
        key = PlanCache.key_for(kind, query, db, engine_name, extra)
    value = cache.get(key)
    if value is not _MISS:
        obs.count("plancache.hits")
        return value
    obs.count("plancache.misses")
    if refresher is not None and db is not None and incremental_enabled():
        prev_key, stale = cache.predecessor(key)
        if stale is not _MISS:
            deltas = _collect_deltas(db, prev_key[4], key[4])
            if deltas is None:
                cache.refresh_overflows += 1
                obs.count("plancache.delta_overflow")
                obs.event("plancache.delta_overflow", kind=kind,
                          engine=engine_name)
            else:
                n_ops = sum(len(ops) for ops in deltas.values())
                with obs.span("plan.refresh", kind=kind, ops=n_ops):
                    value = refresher(stale, deltas)
                if value is None:
                    cache.refresh_fallbacks += 1
                    obs.count("plancache.refresh_fallback")
                    obs.event("plancache.refresh_fallback", kind=kind,
                              engine=engine_name, ops=n_ops)
                else:
                    obs.count("plancache.refresh")
                    obs.count("plancache.delta_applied", n_ops)
                    return cache.replace(prev_key, key, value, db=db)
    with obs.span("plan.build", kind=kind, cache="miss"):
        value = builder()
    return cache.put(key, value, db=db)
