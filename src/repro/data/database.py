"""Databases: finite relational structures (paper Section 2.1).

A :class:`Database` packages a set of named :class:`~repro.data.relation.Relation`
objects together with an explicit domain.  It implements the size measure

    ||D|| = |sigma| + |Dom(D)| + sum_R |R^D| * ar(R)

and the *degree* of a structure (Section 3.1): the degree of an element is
the total number of tuples, over all relations, in which it occurs; the
degree of the structure is the maximum over its elements.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.errors import MalformedQueryError, SchemaMismatchError


class Database:
    """A finite relational structure over an explicit domain.

    The domain always contains every value occurring in some relation;
    isolated domain elements (occurring in no tuple) are allowed and matter
    for the semantics of quantifiers and for the degree notion.
    """

    def __init__(self, relations: Optional[Iterable[Relation]] = None,
                 domain: Optional[Iterable[Any]] = None):
        self._relations: Dict[str, Relation] = {}
        self._domain: Dict[Any, None] = {}
        if relations is not None:
            for rel in relations:
                self.add_relation(rel)
        if domain is not None:
            for value in domain:
                self._domain.setdefault(value, None)

    # ----------------------------------------------------------- construction

    @classmethod
    def from_relations(cls, relations: Mapping[str, Iterable[Sequence[Any]]],
                       domain: Optional[Iterable[Any]] = None) -> "Database":
        """Build a database from ``{name: iterable of tuples}``.

        Arities are inferred from the first tuple of each relation; an empty
        iterable is rejected here because its arity is ambiguous — construct
        a :class:`Relation` explicitly for empty relations.
        """
        rels = []
        for name, tuples in relations.items():
            tuples = [tuple(t) for t in tuples]
            if not tuples:
                raise MalformedQueryError(
                    f"cannot infer arity of empty relation {name!r}; "
                    "use Relation(name, arity) and Database.add_relation"
                )
            rels.append(Relation(name, len(tuples[0]), tuples))
        return cls(rels, domain=domain)

    def add_relation(self, rel: Relation) -> None:
        """Register a relation; its values are merged into the domain."""
        if rel.name in self._relations:
            raise MalformedQueryError(f"duplicate relation name {rel.name!r}")
        self._relations[rel.name] = rel
        self._domain.update(dict.fromkeys(rel.domain_values()))

    def add_domain_values(self, values: Iterable[Any]) -> None:
        for value in values:
            self._domain.setdefault(value, None)

    # ----------------------------------------------------------------- access

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaMismatchError(f"database has no relation named {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return list(self._relations)

    def relations(self) -> List[Relation]:
        return list(self._relations.values())

    @property
    def domain(self) -> List[Any]:
        """The domain in a fixed (insertion) order — the linear order the
        RAM model assumes on the input encoding."""
        return list(self._domain)

    def domain_size(self) -> int:
        return len(self._domain)

    def __contains__(self, value: Any) -> bool:
        return value in self._domain

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __repr__(self) -> str:
        rels = ", ".join(f"{r.name}/{r.arity}:{len(r)}" for r in self._relations.values())
        return f"Database(|dom|={len(self._domain)}, {rels})"

    # ------------------------------------------------------------------ sizes

    def size(self) -> int:
        """||D|| as defined in Section 2.1 of the paper."""
        return (
            len(self._relations)
            + len(self._domain)
            + sum(r.size_contribution() for r in self._relations.values())
        )

    def tuple_count(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(r) for r in self._relations.values())

    # ----------------------------------------------------------------- degree

    def degrees(self) -> Dict[Any, int]:
        """Degree of every domain element (number of tuples containing it).

        An element occurring several times inside one tuple is counted once
        for that tuple, matching "the total number of tuples of relations
        R_i to which x belongs".
        """
        deg: Dict[Any, int] = {value: 0 for value in self._domain}
        for rel in self._relations.values():
            for t in rel:
                for value in set(t):
                    deg[value] += 1
        return deg

    def degree(self) -> int:
        """deg(D) = max over elements of their degree (0 for empty domain)."""
        degs = self.degrees()
        return max(degs.values()) if degs else 0

    # ------------------------------------------------------------ fingerprint

    def fingerprint(self) -> Tuple:
        """A hashable snapshot identity for plan caching.

        Combines, per relation, its process-unique ``serial`` with its
        mutation ``version`` and cardinality, plus the domain size —
        equal fingerprints mean "the same relation objects in the same
        state".  Serials are never reused, so a fingerprint stays sound
        after its database dies and the plan cache need not keep the
        database alive (see :mod:`repro.core.plancache`).
        """
        return (
            len(self._domain),
            tuple((name, rel.serial, rel.version, len(rel))
                  for name, rel in self._relations.items()),
        )

    # ------------------------------------------------------------------ misc

    def copy(self) -> "Database":
        db = Database(domain=self._domain)
        for rel in self._relations.values():
            db._relations[rel.name] = rel.copy()
        return db

    def restrict_domain(self, values: Iterable[Any]) -> "Database":
        """Induced substructure on ``values`` (keeps tuples fully inside)."""
        keep = set(values)
        rels = []
        for rel in self._relations.values():
            sub = Relation(rel.name, rel.arity)
            for t in rel:
                if all(v in keep for v in t):
                    sub.add(t)
            rels.append(sub)
        return Database(rels, domain=[v for v in self._domain if v in keep])
