"""Configurations and atomic configurations.

A *configuration* ``X`` is a set of indexes.  An *atomic configuration*
(Finkelstein et al.) contains at most one index per table; the INUM cost
formula and the ILP baseline both reason over atomic configurations, so this
module provides an explicit representation plus an enumerator
:func:`atomic_configurations` over ``atom(X)`` restricted to a query's tables.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from repro.catalog.schema import Schema
from repro.exceptions import IndexDefinitionError
from repro.indexes.index import Index

__all__ = ["Configuration", "AtomicConfiguration", "atomic_configurations",
           "baseline_configuration"]


class Configuration:
    """An unordered set of indexes (a candidate or recommended physical design)."""

    def __init__(self, indexes: Iterable[Index] = (), name: str = ""):
        unique: dict[Index, None] = dict.fromkeys(indexes)
        self._indexes = tuple(unique)
        self._index_set = frozenset(self._indexes)
        # Lazily built table -> indexes partition; configurations are
        # immutable, and the costing hot paths call ``indexes_on`` for every
        # (statement, table) pair, so a linear scan per call adds up.
        self._by_table: dict[str, tuple[Index, ...]] | None = None
        # Configurations key the costing memos and the scale-out shard maps;
        # precompute the hash instead of re-deriving it per lookup.
        self._hash = hash(self._index_set)
        self.name = name

    # ---------------------------------------------------------------- accessors
    @property
    def indexes(self) -> tuple[Index, ...]:
        return self._indexes

    def __iter__(self) -> Iterator[Index]:
        return iter(self._indexes)

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, index: Index) -> bool:
        return index in self._index_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._index_set == other._index_set

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # Like Index/TemplatePlan: the cached hash derives from string hashes,
        # which vary per process (hash randomisation) — never ship it across a
        # pickle boundary.  The by-table partition is cheap to rebuild lazily.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        state["_by_table"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._hash = hash(self._index_set)

    def indexes_on(self, table: str) -> tuple[Index, ...]:
        if self._by_table is None:
            by_table: dict[str, list[Index]] = {}
            for index in self._indexes:
                by_table.setdefault(index.table, []).append(index)
            self._by_table = {name: tuple(indexes)
                              for name, indexes in by_table.items()}
        return self._by_table.get(table, ())

    def tables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(index.table for index in self._indexes))

    def clustered_indexes_on(self, table: str) -> tuple[Index, ...]:
        return tuple(index for index in self.indexes_on(table) if index.clustered)

    # ------------------------------------------------------------- construction
    def union(self, other: "Configuration | Iterable[Index]") -> "Configuration":
        other_indexes = other.indexes if isinstance(other, Configuration) else tuple(other)
        return Configuration((*self._indexes, *other_indexes), name=self.name)

    def with_index(self, index: Index) -> "Configuration":
        return Configuration((*self._indexes, index), name=self.name)

    def without_index(self, index: Index) -> "Configuration":
        return Configuration((i for i in self._indexes if i != index), name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Configuration({len(self._indexes)} indexes)"


def baseline_configuration(schema: Schema) -> Configuration:
    """The baseline ``X0``: one clustered primary-key index per table.

    Mirrors the paper's evaluation baseline ("a configuration that contains
    only the clustered primary key indexes").
    """
    indexes: list[Index] = []
    for table in schema:
        if table.primary_key:
            indexes.append(Index(table.name, table.primary_key, clustered=True,
                                 name=f"pk_{table.name}"))
    return Configuration(indexes, name="baseline-clustered-pk")


class AtomicConfiguration:
    """At most one index per table, represented as a mapping ``table -> Index | None``.

    ``None`` plays the role of the paper's ``I_0`` symbol (no index selected
    for that table, i.e. the table is accessed through a heap scan or its
    existing clustered primary key).
    """

    def __init__(self, assignment: Mapping[str, Index | None]):
        for table, index in assignment.items():
            if index is not None and index.table != table:
                raise IndexDefinitionError(
                    f"Atomic configuration maps table {table!r} to an index on "
                    f"{index.table!r}")
        self._assignment = dict(assignment)

    @classmethod
    def from_indexes(cls, indexes: Iterable[Index]) -> "AtomicConfiguration":
        assignment: dict[str, Index | None] = {}
        for index in indexes:
            if index.table in assignment:
                raise IndexDefinitionError(
                    f"Atomic configuration has two indexes on table {index.table!r}")
            assignment[index.table] = index
        return cls(assignment)

    # ---------------------------------------------------------------- accessors
    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(self._assignment.keys())

    def index_for(self, table: str) -> Index | None:
        return self._assignment.get(table)

    def indexes(self) -> tuple[Index, ...]:
        return tuple(index for index in self._assignment.values() if index is not None)

    def items(self) -> Iterator[tuple[str, Index | None]]:
        return iter(self._assignment.items())

    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomicConfiguration):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self._assignment.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{table}={'∅' if index is None else index.name}"
            for table, index in self._assignment.items())
        return f"AtomicConfiguration({parts})"


def atomic_configurations(configuration: Configuration | Iterable[Index],
                          tables: Iterable[str],
                          max_count: int | None = None) -> Iterator[AtomicConfiguration]:
    """Enumerate ``atom(X)`` restricted to the given tables.

    For each table the choice is "no index" (``None``) or one of the
    configuration's indexes on that table; the result is the cross product,
    which grows as ``prod_i (|S_i| + 1)``.  The ILP baseline relies on this
    enumerator (and must prune it); CoPhy never enumerates it.

    Args:
        configuration: The index set ``X``.
        tables: Tables over which to build atomic configurations (typically a
            query's FROM list).
        max_count: Optional hard cap on the number of yielded configurations.

    Yields:
        :class:`AtomicConfiguration` objects.
    """
    if not isinstance(configuration, Configuration):
        configuration = Configuration(configuration)
    table_list = tuple(dict.fromkeys(tables))
    per_table_choices: list[list[Index | None]] = []
    for table in table_list:
        choices: list[Index | None] = [None]
        choices.extend(configuration.indexes_on(table))
        per_table_choices.append(choices)
    produced = 0
    for combination in itertools.product(*per_table_choices):
        if max_count is not None and produced >= max_count:
            return
        yield AtomicConfiguration(dict(zip(table_list, combination)))
        produced += 1
