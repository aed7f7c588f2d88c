"""Schema: a named collection of tables plus helpers used across the library."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.catalog.table import Table
from repro.exceptions import CatalogError


class Schema:
    """A database schema (set of tables).

    The schema is the single source of truth consulted by the workload model
    (to validate column references), the candidate generator (to enumerate
    indexable columns), the what-if optimizer (for statistics) and the
    constraint language (e.g. the per-table clustered-index rule).

    A schema is identified by the object, not by its contents: the
    :class:`~repro.api.tuner.Tuner` keys its per-schema contexts by
    ``id(schema)``, and a :class:`~repro.server.client.TuningClient` names a
    schema it has sent once by the digest of that first payload.  So a schema
    object must not be modified once it has been tuned or sent; build a new
    one for a changed catalog.  (The optimizer's lazily synthesised default
    column statistics are the one write, and they change no decision.)
    """

    def __init__(self, tables: Iterable[Table], name: str = "schema"):
        self.name = name
        self._tables: dict[str, Table] = {}
        for table in tables:
            if table.name in self._tables:
                raise CatalogError(f"Duplicate table {table.name!r} in schema")
            self._tables[table.name] = table

    # ------------------------------------------------------------------ lookup
    @property
    def tables(self) -> tuple[Table, ...]:
        return tuple(self._tables.values())

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables.keys())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def table(self, table_name: str) -> Table:
        try:
            return self._tables[table_name]
        except KeyError as exc:
            raise CatalogError(f"Schema has no table {table_name!r}") from exc

    def has_column(self, table_name: str, column_name: str) -> bool:
        return table_name in self._tables and self._tables[table_name].has_column(column_name)

    def resolve_column(self, table_name: str, column_name: str):
        """Return the :class:`Column`, raising :class:`CatalogError` if missing."""
        return self.table(table_name).column(column_name)

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"Duplicate table {table.name!r} in schema")
        self._tables[table.name] = table

    # -------------------------------------------------------------------- sizes
    @property
    def total_size_bytes(self) -> float:
        """Total heap size of all tables; storage budgets are fractions of this."""
        return sum(table.size_bytes for table in self._tables.values())

    @property
    def total_row_count(self) -> float:
        return sum(table.row_count for table in self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema(name={self.name!r}, tables={len(self._tables)})"
