"""Engine-wide per-symbol work sharing: the :class:`SymbolWorkspace`.

The unit of repeated work in a self-join query is the relation *symbol*,
not the atom: ``R(x, y), R(y, z), R(z, x)`` names one stored relation
three times, and every per-atom artefact — the dictionary encoding, the
sorted probe structures, the constant/duplicate-variable masks —
depends only on the stored rows and the *positions* involved, never on
the variable names the atom happens to use.  This module lets every
backend (tuple, columnar, parallel) share one build per (symbol,
database version):

* one **entry** per (symbol, stored-relation serial, version), LRU'd;
  the key names the stored relation by its process-unique
  :attr:`~repro.data.relation.Relation.serial`, so an entry needs no
  reference to the relation and never keeps it alive;
* per entry, one shared position-keyed **probe cache** served to every
  all-distinct-variable atom over the symbol (``_BatchProbe`` keys on
  column positions, so ``R(x, y)`` and ``R(u, v)`` probing column 0
  resolve to the same structure);
* per entry, a **variant** table keyed by the atom's constant/dup-var
  *signature* — ``R(x, x)`` and ``R(u, u)`` share one masked column set
  (and its own probe cache); ``R(3, x)`` and ``R(3, y)`` likewise —
  closing the gap where masked atoms silently bypassed all sharing.

Because shared materialisations reuse the *same ndarray objects*, the
parallel engine's arena cache (keyed on column identity) collapses to
one published segment per symbol automatically, and the semijoin
coalescing in :mod:`repro.eval.yannakakis` can prove two reduction
passes identical by comparing column identities.

``REPRO_SYMBOL_SHARING=0`` (or :func:`sharing_scope`) force-disables
every layer of the sharing — per-atom encodes, private probe caches, no
coalescing — which is both the parity-test baseline and the measured
"per-atom" arm of ``repro bench --selfjoin-suite``.  The flag folds
into every engine's ``plan_key`` so plans built under one mode never
serve the other.

Counters: ``engine.symbol_workspace_{hits,misses,patches}`` aggregate
across backends; ``<engine>.symbol_cache_{hits,misses,patches}`` keep
the per-backend view, and
``engine.symbol_workspace_variant_{hits,misses}`` track the masked-atom
variants.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Optional, Tuple

from repro import obs

#: kill-switch: set to "0" to disable all symbol-level work sharing
SHARING_ENV_VAR = "REPRO_SYMBOL_SHARING"

#: stored-relation versions whose shared artefacts stay alive (LRU)
SYMBOL_WORKSPACE_LIMIT = 64

_SHARING_OVERRIDE: Optional[bool] = None


def sharing_enabled() -> bool:
    """Is per-symbol work sharing on? (env kill-switch + scoped override)"""
    if _SHARING_OVERRIDE is not None:
        return _SHARING_OVERRIDE
    return os.environ.get(SHARING_ENV_VAR, "1") != "0"


@contextmanager
def sharing_scope(enabled: bool):
    """Force sharing on/off for a ``with`` block (bench baselines, parity
    tests); nests, and restores the previous override on exit."""
    global _SHARING_OVERRIDE
    previous = _SHARING_OVERRIDE
    _SHARING_OVERRIDE = bool(enabled)
    try:
        yield
    finally:
        _SHARING_OVERRIDE = previous


def atom_signature(atom) -> Optional[Tuple]:
    """The constant/duplicate-variable layout of an atom, by position.

    ``None`` for the *base* layout (all terms distinct variables): such
    atoms materialise to the stored columns in term order, so they all
    share the entry's base probe cache.  Otherwise a hashable tuple of
    ``('const', pos, value)`` / ``('dup', pos, first_pos)`` markers:
    two atoms with equal signatures select and project exactly the same
    rows and columns regardless of their variable names, so their
    materialisations (and probe caches) are shareable.
    """
    from repro.logic.terms import Constant

    first_pos: Dict[Any, int] = {}
    marks = []
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            marks.append(("const", pos, term.value))
        elif term in first_pos:
            marks.append(("dup", pos, first_pos[term]))
        else:
            first_pos[term] = pos
    return tuple(marks) if marks else None


class _SymbolEntry:
    """Shared artefacts of one (symbol, stored relation, version).

    Holds derived structures only: the entry is keyed on the relation's
    serial, never on the relation object itself."""

    __slots__ = ("probes", "variants")

    def __init__(self, probes: Optional[Dict[Any, Any]] = None):
        #: position-keyed probe cache for the base (all-distinct) layout;
        #: installed as the materialised relations' ``_probecache``
        self.probes: Dict[Any, Any] = probes if probes is not None else {}
        #: signature -> backend-specific payload (masked column sets,
        #: projected row lists, ...) plus their own shared probe caches
        self.variants: Dict[Any, Any] = {}

    def variant(self, key: Any, builder) -> Any:
        """Memoise one masked/derived materialisation on the entry."""
        payload = self.variants.get(key)
        if payload is None:
            obs.count("engine.symbol_workspace_variant_misses")
            payload = builder()
            self.variants[key] = payload
        else:
            obs.count("engine.symbol_workspace_variant_hits")
        return payload


class SymbolWorkspace:
    """Per-engine registry of shared per-symbol artefacts.

    Keys are (symbol, stored relation serial, version); a mutation bumps
    the stored relation's version, making the stale entry unreachable (it
    ages out by LRU, or migrates its patchable probes forward on an
    append-only delta, mirroring the plan cache's refresh path).
    """

    def __init__(self, limit: int = SYMBOL_WORKSPACE_LIMIT):
        self.limit = int(limit)
        self._entries: "OrderedDict[Tuple[str, int, int], _SymbolEntry]" = \
            OrderedDict()

    def entry(self, name: str, rel: Any, scope: str,
              dictionary: Any = None) -> _SymbolEntry:
        """The live entry for ``rel``'s current version (hit), or a fresh
        one seeded from its stale predecessor where sound (miss)."""
        key = (name, rel.serial, rel.version)
        found = self._entries.get(key)
        if found is not None:
            self._entries.move_to_end(key)
            obs.count("engine.symbol_workspace_hits")
            obs.count(f"{scope}.symbol_cache_hits")
            return found
        obs.count("engine.symbol_workspace_misses")
        obs.count(f"{scope}.symbol_cache_misses")
        stale = [k for k in self._entries
                 if k[0] == name and k[1] == rel.serial]
        probes: Dict[Any, Any] = {}
        if stale and dictionary is not None:
            probes = self._migrated_probes(
                rel, max(stale, key=lambda k: k[2]), dictionary, scope)
        for k in stale:
            del self._entries[k]
        made = _SymbolEntry(probes)
        self._entries[key] = made
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
        return made

    def _migrated_probes(self, rel: Any, stale_key: Tuple,
                         dictionary: Any, scope: str) -> Dict[Any, Any]:
        """Seed a fresh base probe cache from its stale predecessor.

        Only on an *append-only* delta (every effective op since the
        stale version is an insert, so the new column layout is exactly
        the old rows plus the appended ones at the end): each
        position-keyed probe entry with a merge path (sorted
        ``_BatchProbe``'s ``extended``) is carried forward in
        O(delta + log n).  Deletes or delta-log overflow migrate nothing — a cold
        rebuild is always sound.  Masked variants are never migrated:
        appended rows change their selections unpredictably.
        """
        from repro.core.plancache import incremental_enabled

        if not incremental_enabled():
            return {}
        ops = rel.deltas_since(stale_key[2])
        if not ops or any(op != "+" for op, _t in ops):
            return {}
        old_probes = self._entries[stale_key].probes
        added = [t for _op, t in ops]
        columns: Dict[int, Any] = {}
        migrated: Dict[Any, Any] = {}
        for pkey, probe in old_probes.items():
            extend = getattr(probe, "extended", None)
            if extend is None or not (
                    isinstance(pkey, tuple) and pkey
                    and pkey[0] == "batch_probe"):
                continue
            cols = []
            for p in pkey[1]:
                col = columns.get(p)
                if col is None:
                    col = dictionary.encode_values([t[p] for t in added])
                    columns[p] = col
                cols.append(col)
            patched = extend(cols, len(added))
            if patched is not None:
                migrated[pkey] = patched
                obs.count("engine.symbol_workspace_patches")
                obs.count(f"{scope}.symbol_cache_patches")
        return migrated

    def stats(self) -> Dict[str, int]:
        """Introspection for tests/doctor: live workspace inventory."""
        return {
            "entries": len(self._entries),
            "probes": sum(len(e.probes) for e in self._entries.values()),
            "variants": sum(len(e.variants)
                            for e in self._entries.values()),
        }

    def clear(self) -> None:
        self._entries.clear()


__all__ = [
    "SHARING_ENV_VAR",
    "SYMBOL_WORKSPACE_LIMIT",
    "SymbolWorkspace",
    "atom_signature",
    "sharing_enabled",
    "sharing_scope",
]
