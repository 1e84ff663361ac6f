"""Columnar relational kernel: dictionary-encoded numpy columns.

A :class:`ColumnarRelation` stores one int64 numpy array per variable
(column); arbitrary Python values are mapped to dense integer codes by a
shared :class:`ValueDictionary`, so every relational operation reduces to
integer-key kernels:

* **semijoin** — joint group-id computation over the shared columns of the
  two operands, then a dense boolean membership mask (linear after the
  grouping);
* **natural join** — sort-merge on joint group ids: argsort the build
  side, ``searchsorted`` the probe side, expand matches with
  ``repeat``/``cumsum`` arithmetic (no per-tuple Python);
* **project / distinct** — group ids plus first-occurrence selection, so
  insertion order is preserved like the tuple backend;
* **group-count** — `grouped_sums` powers the vectorized acyclic counting
  message passing (Theorem 4.21) in :mod:`repro.counting.acq_count`.

The class is duck-compatible with :class:`repro.eval.join.VarRelation`
(``variables``, ``position``, ``project``, ``semijoin``, ``join``,
``index_on``, ``probe``, iteration, ...), so every join-tree algorithm
runs unmodified on either backend; hash-index probes fall back to a
decoded per-relation dict index, which keeps enumeration correct while
the bulk passes (full reducer, joins, counting) stay vectorized.

Grouping uses sorting (`np.unique`), so the kernels run in O(n log n)
worst case — a log factor over the RAM-model hash bounds of the paper,
which leaves the measured scaling *shapes* intact (see
``benchmarks/test_bench_engines.py``).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.errors import SchemaMismatchError
from repro.logic.terms import Constant, Variable

Tup = Tuple[Any, ...]

_INT_KINDS = "iu"


class ValueDictionary:
    """A bijective value <-> int64 code dictionary shared by columns.

    Codes are assigned densely in first-seen order.  All relations taking
    part in one computation must share the dictionary so that per-column
    codes are directly comparable across relations (the default global
    dictionary makes this automatic).
    """

    __slots__ = ("_codes", "_values", "_table", "__weakref__")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        self._table: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: Any) -> int:
        """Code of ``value``, assigning a fresh one if needed."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def code_of(self, value: Any) -> Optional[int]:
        """Code of ``value`` or None if it was never interned."""
        return self._codes.get(value)

    def decode(self, code: int) -> Any:
        return self._values[code]

    def encode_values(self, values: Sequence[Any]) -> np.ndarray:
        """Encode a Python sequence into an int64 code array."""
        encode = self.encode
        return np.fromiter((encode(v) for v in values), dtype=np.int64,
                           count=len(values))

    def encode_column(self, column: np.ndarray) -> np.ndarray:
        """Encode one raw column, vectorized for integer dtypes.

        Integer columns are encoded through their (few) distinct values:
        one Python-level dictionary insertion per *distinct* value, one
        ``searchsorted`` gather for the bulk.
        """
        arr = np.asarray(column)
        if arr.dtype.kind in _INT_KINDS and arr.size:
            uniq, inverse = np.unique(arr, return_inverse=True)
            encode = self.encode
            codes_for_uniq = np.fromiter(
                (encode(int(v)) for v in uniq), dtype=np.int64,
                count=len(uniq))
            return codes_for_uniq[inverse.reshape(-1)]
        return self.encode_values(list(column))

    def decode_table(self) -> np.ndarray:
        """Object-array lookup table ``table[code] -> value`` (cached).

        Codes are append-only, so a cached table is valid iff its length
        still matches; the block-emission path decodes one gather per
        block instead of rebuilding the table each time.
        """
        if self._table is None or len(self._table) != len(self._values):
            table = np.empty(len(self._values), dtype=object)
            table[:] = self._values
            self._table = table
        return self._table

    def decode_column(self, codes: np.ndarray) -> np.ndarray:
        """Decode a code array into an object array of original values."""
        return self.decode_table()[codes]


_DEFAULT_DICTIONARY = ValueDictionary()


def default_dictionary() -> ValueDictionary:
    """The process-wide dictionary used when none is given explicitly."""
    return _DEFAULT_DICTIONARY


# ------------------------------------------------------------------ grouping


def group_ids(columns: Sequence[np.ndarray], length: int
              ) -> Tuple[np.ndarray, int]:
    """Dense group ids of the row tuples formed by ``columns``.

    Returns ``(ids, cardinality)`` with ``ids`` an int64 array of length
    ``length`` and every id in ``[0, cardinality)``.  Rows are in the same
    group iff they agree on every column.  Multi-column keys are packed
    pairwise with re-densification, so intermediate products never
    overflow int64.
    """
    if not columns:
        return np.zeros(length, dtype=np.int64), 1
    acc = columns[0]
    card = int(acc.max()) + 1 if acc.size else 1
    for col in columns[1:]:
        ccard = int(col.max()) + 1 if col.size else 1
        if card > 1 and ccard > (2 ** 62) // card:
            uniq, inverse = np.unique(acc, return_inverse=True)
            acc = inverse.reshape(-1)
            card = len(uniq) if len(uniq) else 1
        acc = acc * ccard + col
        card = card * ccard
    if card > max(1024, 4 * length):
        uniq, inverse = np.unique(acc, return_inverse=True)
        acc = inverse.reshape(-1)
        card = len(uniq) if len(uniq) else 1
    return acc.astype(np.int64, copy=False), int(card)


def first_occurrences(ids: np.ndarray) -> np.ndarray:
    """Indices of the first row of each group, in insertion order."""
    _uniq, first = np.unique(ids, return_index=True)
    return np.sort(first)


def grouped_sums(ids: np.ndarray, card: int,
                 values: np.ndarray) -> np.ndarray:
    """Per-group sums following the value dtype (``np.add.at`` scatter,
    not float bincount, so int64 counts stay exact up to int64 range;
    float64 weighted sums follow IEEE semantics)."""
    sums = np.zeros(card, dtype=values.dtype)
    np.add.at(sums, ids, values)
    return sums


# ----------------------------------------------------------------- relation


class ColumnarRelation:
    """A distinct set of rows over named variables, stored by column.

    Duck-compatible with :class:`repro.eval.join.VarRelation`; rows are
    kept distinct as an invariant (the constructor and every operation
    deduplicate where needed) and first-insertion order is preserved.
    """

    __slots__ = ("variables", "_positions", "_columns", "_nrows",
                 "_pending", "_indexes", "_dict", "_decoded",
                 "_probecache", "_version")

    def __init__(self, variables: Sequence[Variable],
                 tuples: Optional[Iterable[Tup]] = None,
                 dictionary: Optional[ValueDictionary] = None):
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self._positions: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)}
        if len(self._positions) != len(self.variables):
            raise ValueError("duplicate variables in ColumnarRelation schema")
        # `is not None`, not truthiness: an empty ValueDictionary is falsy
        # (it has __len__) but must still be honoured as the caller's
        # dictionary rather than silently aliasing the global default
        self._dict = dictionary if dictionary is not None else default_dictionary()
        self._columns: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in self.variables]
        self._nrows = 0
        self._pending: List[Tup] = []
        self._indexes: Dict[Tuple[Variable, ...], Dict[Tup, List[Tup]]] = {}
        self._decoded: Optional[List[Tup]] = None
        self._probecache: Dict[Any, Any] = {}
        self._version = 0
        if tuples is not None:
            for t in tuples:
                self.add(t)
            self._flush()

    # -------------------------------------------------------------- plumbing

    @classmethod
    def from_codes(cls, variables: Sequence[Variable],
                   columns: Sequence[np.ndarray], nrows: int,
                   dictionary: ValueDictionary,
                   dedupe: bool = False) -> "ColumnarRelation":
        """Wrap already-encoded columns (no copy unless deduping)."""
        rel = cls(variables, dictionary=dictionary)
        cols = [np.ascontiguousarray(c, dtype=np.int64) for c in columns]
        if dedupe:
            cols, nrows = _dedupe_columns(cols, nrows)
        rel._columns = cols
        rel._nrows = int(nrows)
        return rel

    def _flush(self) -> None:
        """Fold pending Python rows into the column arrays."""
        if not self._pending:
            return
        rows = self._pending
        self._pending = []
        new_cols = _encode_rows(rows, len(self.variables), self._dict)
        old_nrows = self._nrows
        if old_nrows:
            cols = [np.concatenate([old, new])
                    for old, new in zip(self._columns, new_cols)]
        else:
            cols = new_cols
        cols, nrows = _dedupe_columns(cols, old_nrows + len(rows))
        if nrows == old_nrows:
            # every pending row was already present (dedupe kept exactly
            # the old prefix): a no-op mutation keeps the old arrays, the
            # version, and every probe cache built on them warm
            return
        self._columns, self._nrows = cols, nrows
        self._invalidate()

    def _invalidate(self) -> None:
        self._indexes = {}
        self._decoded = None
        # replace, never mutate: copies sharing the old cache (see
        # ``copy``) keep their still-valid probes for the old columns
        self._probecache = {}
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter (mirrors :attr:`repro.data.relation.Relation.
        version`): bumps whenever pending rows are folded in, so derived
        structures keyed on a version snapshot self-invalidate."""
        self._flush()
        return self._version

    def cached_probe(self, key: Any, builder):
        """Memoise a derived probe structure on this relation's columns.

        ``builder`` is called once per ``key`` per column version; the
        result (e.g. a sorted-order ``_BatchProbe`` permutation) is
        reused by every consumer holding this relation *or a copy of
        it* — ``copy`` shares the cache dict, and any later mutation
        swaps in a fresh dict (:meth:`_invalidate`) rather than mutating
        the shared one, so stale entries are unreachable by
        construction.  Skips re-sorting on warm plan-cache runs and in
        repeated enumerator builds over the same reduced relations.
        """
        self._flush()
        entry = self._probecache.get(key)
        if entry is None:
            obs.count("kernel.probe_cache_misses")
            entry = builder()
            self._probecache[key] = entry
        else:
            obs.count("kernel.probe_cache_hits")
        return entry

    def batch_probe(self, probe_vars: Sequence[Variable]):
        """The batch probe structure over ``probe_vars``, memoised on the
        relation (see :func:`repro.engine.enumerate.build_probe`).

        Keyed by *column positions*, not variable names: a probe depends
        only on the column arrays, so two same-symbol atoms sharing one
        cache dict (:class:`repro.engine.symbols.SymbolWorkspace`)
        resolve ``R(x, y)`` and ``R(u, v)`` probing column 0 to the same
        entry."""
        from repro.engine.enumerate import _BatchProbe

        self._flush()
        positions = tuple(self._positions[v] for v in probe_vars)
        cols = self._columns
        nrows = self._nrows
        return self.cached_probe(
            ("batch_probe", positions),
            lambda: _BatchProbe([cols[p] for p in positions], nrows))

    def column(self, v: Variable) -> np.ndarray:
        """The code column of variable ``v``."""
        self._flush()
        return self._columns[self._positions[v]]

    def code_columns(self) -> List[np.ndarray]:
        self._flush()
        return list(self._columns)

    @property
    def dictionary(self) -> ValueDictionary:
        return self._dict

    def _coerce(self, other: Any) -> "ColumnarRelation":
        """View ``other`` (columnar or tuple-backed) through this
        relation's dictionary."""
        if isinstance(other, ColumnarRelation):
            if other._dict is self._dict:
                other._flush()
                return other
            return type(self)(other.variables, iter(other),
                              dictionary=self._dict)
        return type(self)(other.variables, iter(other),
                          dictionary=self._dict)

    # ----------------------------------------------------------------- basics

    def add(self, tup: Tup) -> None:
        t = tuple(tup)
        if len(t) != len(self.variables):
            raise ValueError(
                f"tuple length {len(t)} does not match schema {self.variables}"
            )
        self._pending.append(t)

    def __len__(self) -> int:
        self._flush()
        return self._nrows

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.tuples())

    def __contains__(self, tup: Tup) -> bool:
        self._flush()
        t = tuple(tup)
        if len(t) != len(self.variables):
            return False
        if not self.variables:
            return self._nrows > 0
        mask = np.ones(self._nrows, dtype=bool)
        for value, col in zip(t, self._columns):
            code = self._dict.code_of(value)
            if code is None:
                return False
            mask &= col == code
        return bool(mask.any())

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"ColumnarRelation([{names}], size={len(self)})"

    def position(self, v: Variable) -> int:
        return self._positions[v]

    def has_variable(self, v: Variable) -> bool:
        return v in self._positions

    def assignment(self, tup: Tup) -> Dict[Variable, Any]:
        return {v: tup[i] for i, v in enumerate(self.variables)}

    def tuples(self) -> List[Tup]:
        """Decode the rows into Python tuples (cached)."""
        self._flush()
        if self._decoded is None:
            if not self.variables:
                self._decoded = [()] * self._nrows
            else:
                decoded = [self._dict.decode_column(c) for c in self._columns]
                self._decoded = list(zip(*decoded)) if self._nrows else []
        return list(self._decoded)

    def copy(self) -> "ColumnarRelation":
        self._flush()
        dup = type(self).from_codes(
            self.variables, self._columns, self._nrows, self._dict)
        # identical columns -> identical probes; share the cache (a
        # mutation on either side installs a fresh dict, leaving the
        # other's view intact)
        dup._probecache = self._probecache
        return dup

    def extended_with(self, new_cols: Sequence[np.ndarray], count: int
                      ) -> "ColumnarRelation":
        """A new relation holding this one's rows plus ``count``
        appended pre-encoded rows, with every patchable sorted-probe
        cache entry migrated by merge instead of rebuilt.

        This is the append-only fast path of incremental maintenance:
        the caller guarantees the appended rows are not already present
        (so no dedupe pass), and each ``_BatchProbe`` whose packing
        tables still cover the new values is extended in
        O(count + log n) per entry (see
        :meth:`repro.engine.enumerate._BatchProbe.extended`) rather
        than re-argsorted in O(n log n).
        """
        self._flush()
        new_cols = [np.ascontiguousarray(c, dtype=np.int64)
                    for c in new_cols]
        cols = [np.concatenate([old, new])
                for old, new in zip(self._columns, new_cols)]
        out = type(self).from_codes(
            self.variables, cols, self._nrows + count, self._dict)
        for key, probe in self._probecache.items():
            if not (isinstance(key, tuple) and key
                    and key[0] == "batch_probe"):
                continue
            extend = getattr(probe, "extended", None)
            if extend is None:
                continue
            patched = extend([new_cols[p] for p in key[1]], count)
            if patched is not None:
                obs.count("kernel.probe_cache_patches")
                out._probecache[key] = patched
        return out

    def to_varrelation(self):
        """Materialise as a tuple-backed VarRelation."""
        from repro.eval.join import VarRelation

        return VarRelation(self.variables, self.tuples())

    # --------------------------------------------------------------- indexing

    def index_on(self, variables: Sequence[Variable]) -> Dict[Tup, List[Tup]]:
        """Tuple-compatible hash index (decoded); the bridge that lets
        per-tuple enumerators run unchanged on columnar data."""
        vars_key = tuple(variables)
        if vars_key not in self._indexes:
            positions = [self._positions[v] for v in vars_key]
            index: Dict[Tup, List[Tup]] = {}
            for t in self.tuples():
                index.setdefault(tuple(t[p] for p in positions), []).append(t)
            self._indexes[vars_key] = index
        return self._indexes[vars_key]

    def probe(self, variables: Sequence[Variable],
              key: Sequence[Any]) -> List[Tup]:
        return self.index_on(tuple(variables)).get(tuple(key), [])

    def probe_assignment(self, assignment: Dict[Variable, Any]) -> List[Tup]:
        bound = tuple(v for v in self.variables if v in assignment)
        key = tuple(assignment[v] for v in bound)
        return self.probe(bound, key)

    # -------------------------------------------------------------- operators

    def project(self, variables: Sequence[Variable]) -> "ColumnarRelation":
        obs.count("kernel.project")
        self._flush()
        vars_out = tuple(variables)
        cols = [self._columns[self._positions[v]] for v in vars_out]
        dedupe = set(vars_out) != set(self.variables)
        return type(self).from_codes(
            vars_out, cols, self._nrows, self._dict, dedupe=dedupe)

    def select_mask(self, mask: np.ndarray) -> "ColumnarRelation":
        """Rows where ``mask`` is True (length must equal len(self))."""
        self._flush()
        cols = [c[mask] for c in self._columns]
        nrows = len(cols[0]) if cols else int(np.count_nonzero(mask))
        return type(self).from_codes(
            self.variables, cols, nrows, self._dict)

    def semijoin(self, other: Any) -> "ColumnarRelation":
        """Rows of self matching some row of other on the shared
        variables; same degenerate-case semantics as VarRelation."""
        obs.count("kernel.semijoin")
        self._flush()
        other = self._coerce(other)
        shared = [v for v in self.variables if other.has_variable(v)]
        if not shared:
            if len(other):
                return self.copy()
            return type(self)(self.variables, dictionary=self._dict)
        n, m = self._nrows, other._nrows
        self_keys = [self._columns[self._positions[v]] for v in shared]
        other_keys = [other._columns[other._positions[v]] for v in shared]
        joint = [np.concatenate([a, b])
                 for a, b in zip(self_keys, other_keys)]
        ids, card = group_ids(joint, n + m)
        present = np.zeros(card, dtype=bool)
        present[ids[n:]] = True
        keep = present[ids[:n]]
        return self.select_mask(keep)

    def join(self, other: Any) -> "ColumnarRelation":
        """Natural join via sort-merge on joint group ids."""
        obs.count("kernel.join")
        self._flush()
        other = self._coerce(other)
        shared = [v for v in self.variables if other.has_variable(v)]
        extra = [v for v in other.variables if v not in self._positions]
        out_vars = self.variables + tuple(extra)
        n, m = self._nrows, other._nrows
        self_keys = [self._columns[self._positions[v]] for v in shared]
        other_keys = [other._columns[other._positions[v]] for v in shared]
        joint = [np.concatenate([a, b])
                 for a, b in zip(self_keys, other_keys)]
        ids, _card = group_ids(joint, n + m)
        self_ids, other_ids = ids[:n], ids[n:]
        order = np.argsort(other_ids, kind="stable")
        sorted_ids = other_ids[order]
        lo = np.searchsorted(sorted_ids, self_ids, side="left")
        hi = np.searchsorted(sorted_ids, self_ids, side="right")
        counts = hi - lo
        total = int(counts.sum())
        self_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        run_starts = np.cumsum(counts) - counts  # exclusive prefix sum
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts,
                                                              counts)
        other_idx = order[np.repeat(lo, counts) + within]
        cols = [c[self_idx] for c in self._columns]
        cols += [other._columns[other._positions[v]][other_idx]
                 for v in extra]
        # distinct inputs joined on equal keys stay distinct: no dedupe
        return type(self).from_codes(
            out_vars, cols, total, self._dict)

    def rename(self, mapping: Dict[Variable, Variable]) -> "ColumnarRelation":
        """Rename columns along ``mapping``; rows whose merged columns
        conflict are dropped (VarRelation semantics)."""
        obs.count("kernel.rename")
        self._flush()
        new_vars: List[Variable] = []
        source_pos: Dict[Variable, int] = {}
        mask = np.ones(self._nrows, dtype=bool)
        for i, v in enumerate(self.variables):
            nv = mapping.get(v, v)
            if nv in source_pos:
                mask &= self._columns[i] == self._columns[source_pos[nv]]
            else:
                source_pos[nv] = i
                new_vars.append(nv)
        cols = [self._columns[source_pos[nv]][mask] for nv in new_vars]
        nrows = int(mask.sum())
        return type(self).from_codes(
            tuple(new_vars), cols, nrows, self._dict, dedupe=True)


def _dedupe_columns(columns: List[np.ndarray], nrows: int
                    ) -> Tuple[List[np.ndarray], int]:
    """Drop duplicate rows, keeping first occurrences in order."""
    if not columns:
        return columns, min(nrows, 1)
    if nrows <= 1:
        return columns, nrows
    ids, _card = group_ids(columns, nrows)
    first = first_occurrences(ids)
    if len(first) == nrows:
        return columns, nrows
    return [c[first] for c in columns], len(first)


def _encode_rows(rows: List[Tup], width: int,
                 dictionary: ValueDictionary) -> List[np.ndarray]:
    """Encode a list of equal-length Python tuples column-wise.

    Integer-only data takes the vectorized path through a single 2-d
    array; anything else (mixed types, strings) is encoded value by
    value to avoid numpy's dtype coercion changing equality semantics.
    """
    if width == 0:
        return []
    arr = None
    try:
        candidate = np.asarray(rows)
        if candidate.ndim == 2 and candidate.dtype.kind in _INT_KINDS:
            arr = candidate
    except (ValueError, TypeError):  # ragged or unorderable rows
        arr = None
    if arr is not None:
        return [dictionary.encode_column(arr[:, j]) for j in range(width)]
    return [dictionary.encode_values([t[j] for t in rows])
            for j in range(width)]


# ------------------------------------------------------- atom materialisation


def encoded_relation_columns(rel, dictionary: ValueDictionary
                             ) -> Tuple[List[np.ndarray], int]:
    """Dictionary-encoded columns of a stored :class:`Relation`.

    Cached on the relation itself, tagged with the relation version the
    encoding was taken at.  A version-stale cache is *delta-patched*
    when incremental maintenance is on and the relation's
    :class:`~repro.data.relation.DeltaLog` still covers the gap —
    appended rows are encoded and concatenated, deleted rows tombstoned
    by one vectorized membership mask — so re-materialising a 100k-tuple
    relation after a 1% delta costs O(delta) encoding plus one O(n)
    gather instead of a full per-value re-encode.

    The cache is the symbol-level share of the encode work, so the
    ``REPRO_SYMBOL_SHARING=0`` kill-switch bypasses it: every atom (and
    every run) then pays its own per-occurrence encode, which is the
    measured baseline of ``repro bench --selfjoin-suite``.
    """
    from repro.engine.symbols import sharing_enabled

    if not sharing_enabled():
        obs.count("kernel.encode_cache_bypasses")
        rows = rel.tuples()
        return _encode_rows(rows, rel.arity, dictionary), len(rows)
    cache = getattr(rel, "_colcache", None)
    version = getattr(rel, "version", None)
    if cache is not None and len(cache) == 4 and cache[0] is dictionary:
        if cache[3] == version:
            obs.count("kernel.encode_cache_hits")
            return cache[1], cache[2]
        patched = _patch_encoded_columns(rel, dictionary, cache, version)
        if patched is not None:
            obs.count("kernel.encode_cache_patches")
            return patched[1], patched[2]
    obs.count("kernel.encode_cache_misses")
    rows = rel.tuples()
    cols = _encode_rows(rows, rel.arity, dictionary)
    try:
        rel._colcache = (dictionary, cols, len(rows), version)
    except AttributeError:  # foreign relation type without the slot
        pass
    return cols, len(rows)


def _patch_encoded_columns(rel, dictionary: ValueDictionary,
                           cache, version):
    """Catch a stale column cache up by replaying the relation's delta
    log, or ``None`` when the gap is not patchable (incremental off,
    overflowed log, zero-arity relation)."""
    from repro.core.plancache import incremental_enabled

    if not incremental_enabled() or version is None or rel.arity == 0:
        return None
    ops = getattr(rel, "deltas_since", lambda _v: None)(cache[3])
    if not ops:
        return None
    old_cols, old_n = cache[1], cache[2]
    # replay the ops against dict-of-tuples semantics: deletions of
    # pre-cache rows tombstone their old position; insertions (including
    # re-inserts of deleted rows) append at the end, preserving the
    # insertion order rel.tuples() would report
    deleted_old: set = set()
    tail: Dict[Tup, None] = {}
    for op, t in ops:
        if op == "+":
            tail[t] = None
        elif t in tail:
            del tail[t]
        else:
            deleted_old.add(t)
    width = rel.arity
    if deleted_old:
        dead_cols = _encode_rows(list(deleted_old), width, dictionary)
        joint = [np.concatenate([oc, dc])
                 for oc, dc in zip(old_cols, dead_cols)]
        ids, card = group_ids(joint, old_n + len(deleted_old))
        dead = np.zeros(card, dtype=bool)
        dead[ids[old_n:]] = True
        keep = ~dead[ids[:old_n]]
        base_cols = [c[keep] for c in old_cols]
        base_n = int(keep.sum())
    else:
        base_cols, base_n = old_cols, old_n
    if tail:
        tail_cols = _encode_rows(list(tail), width, dictionary)
        cols = [np.concatenate([b, t])
                for b, t in zip(base_cols, tail_cols)]
    else:
        cols = base_cols
    nrows = base_n + len(tail)
    if nrows != len(rel):  # bookkeeping drift: rebuild cold
        return None
    new_cache = (dictionary, cols, nrows, version)
    try:
        rel._colcache = new_cache
    except AttributeError:
        return None
    return new_cache


def _masked_atom_columns(atom, cols, nrows,
                         dictionary: ValueDictionary
                         ) -> Tuple[List[np.ndarray], int]:
    """Resolve an atom's constants and repeated variables into selected,
    projected columns (the non-base layout of
    :func:`materialise_atom_columnar`)."""
    variables = atom.variables()
    mask: Optional[np.ndarray] = None
    first_pos: Dict[Variable, int] = {}
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            code = dictionary.code_of(term.value)
            if code is None:
                cond = np.zeros(nrows, dtype=bool)
            else:
                cond = cols[pos] == code
        elif term in first_pos:
            cond = cols[pos] == cols[first_pos[term]]
        else:
            first_pos[term] = pos
            continue
        mask = cond if mask is None else mask & cond
    out_cols = [cols[first_pos[v]] for v in variables]
    if mask is not None:
        out_cols = [c[mask] for c in out_cols]
        nrows = int(mask.sum())
    return out_cols, nrows


def materialise_atom_columnar(db, atom,
                              dictionary: Optional[ValueDictionary] = None,
                              workspace=None, scope: str = "columnar"
                              ) -> ColumnarRelation:
    """Vectorized counterpart of :func:`repro.eval.join.atom_to_varrelation`:
    constants and repeated variables become boolean column masks.

    With a :class:`~repro.engine.symbols.SymbolWorkspace` (and sharing
    on), the result rides the per-symbol entry: all-distinct-variable
    atoms share the entry's base probe cache (one sorted build per
    (symbol, positions, version) across every atom of the symbol), and
    masked atoms share one column set + probe cache per
    constant/dup-variable signature — ``R(x, x)`` and ``R(u, u)`` are
    materialised once.  The selected and projected columns depend only
    on the signature, never on variable names, which is what makes the
    share sound.
    """
    from repro.engine.symbols import atom_signature, sharing_enabled

    # None check, not truthiness: an empty ValueDictionary is falsy but
    # still the dictionary the caller asked to encode into
    dictionary = dictionary if dictionary is not None else default_dictionary()
    rel = db.relation(atom.relation)
    if rel.arity != atom.arity:
        raise SchemaMismatchError(
            f"atom {atom!r} has arity {atom.arity} but relation "
            f"{atom.relation!r} has arity {rel.arity}"
        )
    variables = atom.variables()
    obs.count("kernel.materialise_atom")
    cols, nrows = encoded_relation_columns(rel, dictionary)
    obs.gauge("dictionary.size", len(dictionary))
    sig = atom_signature(atom)
    shared = workspace is not None and sharing_enabled()
    entry = workspace.entry(atom.relation, rel, scope, dictionary) \
        if shared else None
    if sig is None:
        # base layout: the stored columns in term order, no copy; every
        # such atom of the symbol shares the entry's probe cache
        out = ColumnarRelation.from_codes(variables, cols, nrows, dictionary)
        if entry is not None:
            out._probecache = entry.probes
        return out
    if entry is not None:
        out_cols, out_n, probes = entry.variant(
            ("cols", sig),
            lambda: _masked_atom_columns(atom, cols, nrows, dictionary)
            + ({},))
        out = ColumnarRelation.from_codes(variables, out_cols, out_n,
                                          dictionary)
        out._probecache = probes
        return out
    out_cols, out_n = _masked_atom_columns(atom, cols, nrows, dictionary)
    # base rows are distinct, so the selected/projected rows are too
    return ColumnarRelation.from_codes(variables, out_cols, out_n, dictionary)


# --------------------------------------------------------- counting kernel


def count_acyclic_join_columnar(relations: Sequence[ColumnarRelation],
                                tree, charged: Dict[int, Tuple[Variable, ...]],
                                share_vars: Dict[int, Tuple[Variable, ...]],
                                weight_table: Optional[np.ndarray] = None
                                ) -> Any:
    """Vectorized bottom-up counting messages (Theorem 4.21).

    Mirrors the tuple-backed message passing of
    :func:`repro.counting.acq_count.count_full_acyclic_join`: a message is
    ``(key columns, per-key sums)``; child factors are fetched with
    a dense scatter/gather instead of per-tuple dict probes.

    Unweighted (``weight_table=None``) sums run in int64, exact up to
    its range.  With a per-code float64 ``weight_table``
    (:meth:`repro.counting.weighted.WeightFunction.code_table`) each
    node's charged variables contribute a gathered weight factor and
    the messages become float64 — IEEE semantics, see code_table's
    caveat.
    """
    messages: Dict[int, Tuple[List[np.ndarray], np.ndarray]] = {}
    for node in tree.bottom_up():
        rel = relations[node]
        rel._flush()
        n = len(rel)
        if weight_table is None:
            values = np.ones(n, dtype=np.int64)
        else:
            values = np.ones(n, dtype=np.float64)
            for v in charged[node]:
                values = values * weight_table[rel.column(v)]
        for child in tree.children[node]:
            mkeys, mvals = messages[child]
            probe_cols = [rel.column(v) for v in share_vars[child]]
            g = len(mvals)
            joint = [np.concatenate([mk, pc])
                     for mk, pc in zip(mkeys, probe_cols)]
            ids, card = group_ids(joint, g + n)
            factor = np.zeros(card, dtype=mvals.dtype)
            factor[ids[:g]] = mvals
            values = values * factor[ids[g:]]
        shared_cols = [rel.column(v) for v in share_vars[node]]
        ids, card = group_ids(shared_cols, n)
        sums = grouped_sums(ids, card, values)
        uniq, first = np.unique(ids, return_index=True)
        messages[node] = ([c[first] for c in shared_cols], sums[uniq])
    _keys, root_sums = messages[tree.root]
    if len(root_sums) == 0:
        return 0
    root = root_sums[0]
    return float(root) if weight_table is not None else int(root)
