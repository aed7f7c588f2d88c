"""Tests for index definitions, configurations and candidate generation."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexDefinitionError
from repro.indexes.candidate_generation import CandidateGenerator, CandidateSet
from repro.indexes.configuration import (
    AtomicConfiguration,
    Configuration,
    atomic_configurations,
)
from repro.indexes.index import Index, index_size_bytes
from repro.workload.predicates import ColumnRef
from repro.workload.query import StatementKind, UpdateQuery


class TestIndex:
    def test_canonical_name_and_str(self):
        index = Index("orders", ("o_date", "o_total"), include_columns=("o_status",))
        assert "orders" in index.name
        assert "INDEX ON orders(o_date, o_total)" in str(index)
        assert "INCLUDE" in str(index)

    def test_rejects_empty_key(self):
        with pytest.raises(IndexDefinitionError):
            Index("orders", ())

    def test_rejects_duplicate_key_columns(self):
        with pytest.raises(IndexDefinitionError):
            Index("orders", ("a", "a"))

    def test_rejects_overlap_between_key_and_includes(self):
        with pytest.raises(IndexDefinitionError):
            Index("orders", ("a",), include_columns=("a",))

    def test_include_columns_are_deduplicated(self):
        index = Index("orders", ("a",), include_columns=("b", "b", "c"))
        assert index.include_columns == ("b", "c")

    def test_covers(self):
        index = Index("orders", ("o_date",), include_columns=("o_total",))
        assert index.covers(["o_date", "o_total"])
        assert index.covers([ColumnRef("orders", "o_date")])
        assert not index.covers(["o_status"])

    def test_provides_order_only_on_leading_column(self):
        index = Index("orders", ("o_date", "o_total"))
        assert index.provides_order_on("o_date")
        assert not index.provides_order_on("o_total")

    def test_key_prefix_matches(self):
        index = Index("orders", ("a", "b", "c"))
        assert index.key_prefix_matches({"a", "b"}) == 2
        assert index.key_prefix_matches({"b", "c"}) == 0
        assert index.key_prefix_matches({"a", "c"}) == 1

    def test_equality_ignores_name(self):
        first = Index("orders", ("o_date",), name="one")
        second = Index("orders", ("o_date",), name="two")
        assert first == second
        assert hash(first) == hash(second)

    def test_width(self):
        index = Index("orders", ("a", "b"), include_columns=("c",))
        assert index.width == 3


class TestIndexSize:
    def test_size_positive_and_grows_with_columns(self, simple_schema):
        table = simple_schema.table("orders")
        narrow = Index("orders", ("o_date",))
        wide = Index("orders", ("o_date",), include_columns=("o_total", "o_status"))
        assert index_size_bytes(narrow, table) > 0
        assert index_size_bytes(wide, table) > index_size_bytes(narrow, table)

    def test_size_grows_with_row_count(self, simple_schema):
        orders = simple_schema.table("orders")
        items = simple_schema.table("items")
        orders_index = Index("orders", ("o_date",))
        items_index = Index("items", ("i_shipdate",))
        per_row_orders = index_size_bytes(orders_index, orders) / orders.row_count
        per_row_items = index_size_bytes(items_index, items) / items.row_count
        assert per_row_items == pytest.approx(per_row_orders, rel=0.5)

    def test_clustered_index_cheaper_than_secondary_copy(self, simple_schema):
        table = simple_schema.table("orders")
        clustered = Index("orders", ("o_id",), clustered=True)
        secondary_full = Index("orders", ("o_id",),
                               include_columns=("o_customer", "o_date", "o_total",
                                                "o_status"))
        assert index_size_bytes(clustered, table) < index_size_bytes(
            secondary_full, table)

    def test_wrong_table_rejected(self, simple_schema):
        index = Index("items", ("i_order",))
        with pytest.raises(IndexDefinitionError):
            index_size_bytes(index, simple_schema.table("orders"))

    @given(columns=st.lists(st.sampled_from(["o_customer", "o_date", "o_total",
                                             "o_status"]),
                            min_size=1, max_size=4, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_property_size_monotone_in_key_width(self, columns):
        from tests.conftest import build_simple_schema

        table = build_simple_schema().table("orders")
        sizes = [index_size_bytes(Index("orders", tuple(columns[:i + 1])), table)
                 for i in range(len(columns))]
        assert all(b >= a - 1e-6 for a, b in zip(sizes, sizes[1:]))


class TestConfiguration:
    def test_deduplicates(self):
        index = Index("orders", ("o_date",))
        configuration = Configuration([index, Index("orders", ("o_date",))])
        assert len(configuration) == 1

    def test_set_like_equality(self):
        a = Index("orders", ("o_date",))
        b = Index("items", ("i_order",))
        assert Configuration([a, b]) == Configuration([b, a])
        assert hash(Configuration([a, b])) == hash(Configuration([b, a]))

    def test_union_with_and_without(self):
        a = Index("orders", ("o_date",))
        b = Index("items", ("i_order",))
        configuration = Configuration([a])
        union = configuration.union(Configuration([b]))
        assert set(union.indexes) == {a, b}
        assert union.without_index(a) == Configuration([b])
        assert configuration.with_index(b) == union

    def test_per_table_lookup(self):
        a = Index("orders", ("o_date",))
        clustered = Index("orders", ("o_id",), clustered=True)
        configuration = Configuration([a, clustered])
        assert set(configuration.indexes_on("orders")) == {a, clustered}
        assert configuration.clustered_indexes_on("orders") == (clustered,)
        assert configuration.indexes_on("items") == ()

    def test_pickle_roundtrip_rehashes(self):
        """Like Index/TemplatePlan: the cached hash never ships in a pickle.

        A shipped hash would be built from another process's string hashes
        (hash randomisation) and silently break every dict lookup keyed by
        the configuration in scale-out workers.
        """
        configuration = Configuration(
            [Index("orders", ("o_date",)), Index("items", ("i_order",))],
            name="shipped")
        clone = pickle.loads(pickle.dumps(configuration))
        assert "_hash" not in pickle.loads(
            pickle.dumps(configuration.__getstate__()))
        assert clone == configuration
        assert hash(clone) == hash(configuration)
        assert clone in {configuration}
        assert clone.name == "shipped"
        # The lazily built per-table partition is rebuilt, not shipped.
        assert set(clone.indexes_on("orders")) == {Index("orders", ("o_date",))}

    def test_process_pool_roundtrip_preserves_dict_lookups(self, monkeypatch):
        """A dict keyed by configurations answers lookups in a spawned worker
        under another hash seed, probed with configurations it builds itself
        (a forked worker inherits the hash secret and would not notice a
        shipped hash)."""
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        specs = [[("orders", ("o_date",), False)],
                 [("items", ("i_order",), False),
                  ("orders", ("o_total",), True)],
                 []]
        mapping = {_configuration(spec): position
                   for position, spec in enumerate(specs)}
        seed = os.environ.get("PYTHONHASHSEED", "")
        monkeypatch.setenv("PYTHONHASHSEED",
                           str(int(seed) + 1) if seed.isdigit() else "1")
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            looked_up = pool.submit(_lookup_all, mapping, specs).result()
        assert looked_up == [0, 1, 2]


def _configuration(spec):
    return Configuration([Index(table, columns, clustered=clustered)
                          for table, columns, clustered in spec])


def _lookup_all(mapping, specs):
    """Worker-side dict lookups; only the map crosses the pickle."""
    return [mapping.get(_configuration(spec), -1) for spec in specs]


class TestAtomicConfiguration:
    def test_at_most_one_index_per_table(self):
        with pytest.raises(IndexDefinitionError):
            AtomicConfiguration.from_indexes([Index("orders", ("o_date",)),
                                              Index("orders", ("o_total",))])

    def test_table_assignment_must_match(self):
        with pytest.raises(IndexDefinitionError):
            AtomicConfiguration({"orders": Index("items", ("i_order",))})

    def test_lookup(self):
        index = Index("orders", ("o_date",))
        atomic = AtomicConfiguration({"orders": index, "items": None})
        assert atomic.index_for("orders") is index
        assert atomic.index_for("items") is None
        assert atomic.indexes() == (index,)

    def test_enumeration_counts(self):
        orders_indexes = [Index("orders", ("o_date",)), Index("orders", ("o_total",))]
        items_indexes = [Index("items", ("i_order",))]
        configuration = Configuration(orders_indexes + items_indexes)
        atomics = list(atomic_configurations(configuration, ["orders", "items"]))
        # (2 + none) * (1 + none) = 6 combinations.
        assert len(atomics) == 6

    def test_enumeration_respects_cap(self):
        configuration = Configuration([Index("orders", ("o_date",)),
                                       Index("orders", ("o_total",))])
        atomics = list(atomic_configurations(configuration, ["orders"], max_count=2))
        assert len(atomics) == 2


class TestCandidateGeneration:
    def test_generates_candidates_for_every_referenced_table(self, simple_schema,
                                                             simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        assert len(candidates) > 0
        assert set(candidates.tables_with_candidates()) == {"orders", "items"}

    def test_includes_single_column_sargable_candidates(self, simple_schema,
                                                        simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        assert Index("orders", ("o_customer",)) in candidates
        assert Index("items", ("i_shipdate",)) in candidates

    def test_includes_join_column_candidates(self, simple_schema, simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        assert Index("items", ("i_order",)) in candidates

    def test_covering_candidates_cover_output_columns(self, simple_schema,
                                                      simple_workload):
        candidates = CandidateGenerator(simple_schema).generate(simple_workload)
        covering = [index for index in candidates if index.include_columns]
        assert covering, "expected at least one covering candidate"

    def test_update_statements_contribute_shell_candidates(self, simple_schema):
        update = UpdateQuery(
            table="orders",
            set_columns=(ColumnRef("orders", "o_status"),),
            predicates=(),
            name="u#1",
        )
        assert update.kind is StatementKind.UPDATE
        generator = CandidateGenerator(simple_schema)
        # An update without predicates yields no sargable candidates.
        assert generator.candidates_for_query(update) == ()

    def test_per_query_limit(self, simple_schema, simple_workload):
        limited = CandidateGenerator(simple_schema, per_query_limit=2)
        for statement in simple_workload:
            assert len(limited.candidates_for_query(statement.query)) <= 2

    def test_disabling_features_reduces_candidates(self, simple_schema,
                                                   simple_workload):
        full = CandidateGenerator(simple_schema).generate(simple_workload)
        minimal = CandidateGenerator(simple_schema, multi_column=False,
                                     covering=False, clustered=False
                                     ).generate(simple_workload)
        assert len(minimal) < len(full)
        assert all(len(index.key_columns) == 1 and not index.include_columns
                   for index in minimal)

    def test_dba_indexes_are_added(self, simple_schema, simple_workload):
        dba_index = Index("orders", ("o_total", "o_date"))
        candidates = CandidateGenerator(simple_schema).generate(
            simple_workload, dba_indexes=[dba_index])
        assert dba_index in candidates


class TestCandidateSet:
    def test_add_deduplicates(self, simple_schema):
        candidates = CandidateSet(simple_schema)
        index = Index("orders", ("o_date",))
        assert candidates.add(index)
        assert not candidates.add(Index("orders", ("o_date",)))
        assert len(candidates) == 1

    def test_rejects_unknown_table(self, simple_schema):
        candidates = CandidateSet(simple_schema)
        with pytest.raises(IndexDefinitionError):
            candidates.add(Index("missing", ("x",)))

    def test_size_cache_and_total(self, simple_schema):
        candidates = CandidateSet(simple_schema, [Index("orders", ("o_date",)),
                                                  Index("items", ("i_order",))])
        total = candidates.total_size()
        assert total == pytest.approx(sum(candidates.size_of(i) for i in candidates))

    def test_subset(self, simple_schema):
        a = Index("orders", ("o_date",))
        b = Index("items", ("i_order",))
        candidates = CandidateSet(simple_schema, [a, b])
        subset = candidates.subset([a])
        assert len(subset) == 1
        assert a in subset and b not in subset
