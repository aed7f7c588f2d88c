"""Tests for the W_hom / W_het workload generators and the TPC-H templates."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.workload.generators import (
    HeterogeneousWorkloadGenerator,
    HomogeneousWorkloadGenerator,
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
)
from repro.workload.query import StatementKind
from repro.workload.templates_tpch import (
    SELECT_TEMPLATES,
    UPDATE_TEMPLATES,
    instantiate_template,
)
import random


class TestTemplates:
    def test_fifteen_select_templates(self):
        assert len(SELECT_TEMPLATES) == 15

    @pytest.mark.parametrize("template_id", sorted(SELECT_TEMPLATES))
    def test_select_templates_instantiate_and_validate(self, tpch, template_id):
        query = instantiate_template(template_id, random.Random(7), 1)
        assert query.kind is StatementKind.SELECT
        query.validate_against(tpch)
        assert query.name == f"{template_id}#1"

    @pytest.mark.parametrize("template_id", sorted(UPDATE_TEMPLATES))
    def test_update_templates_instantiate_and_validate(self, tpch, template_id):
        query = instantiate_template(template_id, random.Random(7), 2)
        assert query.kind is StatementKind.UPDATE
        query.validate_against(tpch)

    def test_unknown_template_rejected(self):
        with pytest.raises(KeyError):
            instantiate_template("Q99", random.Random(0), 1)

    def test_instances_differ_in_parameters(self):
        rng = random.Random(1)
        first = SELECT_TEMPLATES["Q6"](rng, "Q6#1")
        second = SELECT_TEMPLATES["Q6"](rng, "Q6#2")
        assert first.predicates[0].value != second.predicates[0].value


class TestHomogeneousGenerator:
    def test_deterministic_given_seed(self):
        first = generate_homogeneous_workload(30, seed=11)
        second = generate_homogeneous_workload(30, seed=11)
        assert [s.query.name for s in first] == [s.query.name for s in second]
        assert [s.weight for s in first] == [s.weight for s in second]

    def test_different_seeds_differ(self):
        first = generate_homogeneous_workload(30, seed=1)
        second = generate_homogeneous_workload(30, seed=2)
        assert [s.query.name for s in first] != [s.query.name for s in second]

    def test_size_and_validity(self, tpch):
        workload = generate_homogeneous_workload(40, seed=3)
        assert len(workload) == 40
        workload.validate_against(tpch)

    def test_update_fraction_zero_means_no_updates(self):
        workload = generate_homogeneous_workload(40, seed=3, update_fraction=0.0)
        assert not workload.update_statements()

    def test_update_fraction_roughly_respected(self):
        workload = generate_homogeneous_workload(200, seed=3, update_fraction=0.2)
        fraction = len(workload.update_statements()) / len(workload)
        assert 0.1 < fraction < 0.3

    def test_few_distinct_templates(self):
        workload = generate_homogeneous_workload(200, seed=5)
        # At most the 15 SELECT templates plus the 4 update templates.
        assert workload.distinct_template_count() <= 19

    def test_template_subset_restriction(self):
        generator = HomogeneousWorkloadGenerator(seed=0, update_fraction=0.0,
                                                 templates=("Q1", "Q6"))
        workload = generator.generate(50)
        prefixes = {s.query.name.split("#")[0] for s in workload}
        assert prefixes <= {"Q1", "Q6"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            HomogeneousWorkloadGenerator(update_fraction=1.5)
        with pytest.raises(WorkloadError):
            HomogeneousWorkloadGenerator(update_fraction=-0.1)
        with pytest.raises(WorkloadError):
            HomogeneousWorkloadGenerator(templates=("Q999",))
        with pytest.raises(WorkloadError):
            generate_homogeneous_workload(0)


class TestHeterogeneousGenerator:
    def test_deterministic_given_seed(self):
        first = generate_heterogeneous_workload(30, seed=11)
        second = generate_heterogeneous_workload(30, seed=11)
        assert [s.query.name for s in first] == [s.query.name for s in second]

    def test_size_and_validity(self, tpch):
        workload = generate_heterogeneous_workload(40, seed=3)
        assert len(workload) == 40
        workload.validate_against(tpch)

    def test_many_distinct_shapes(self):
        homogeneous = generate_homogeneous_workload(100, seed=4)
        heterogeneous = generate_heterogeneous_workload(100, seed=4)
        assert (heterogeneous.distinct_template_count()
                > 3 * homogeneous.distinct_template_count())

    def test_joins_are_connected(self, tpch):
        workload = generate_heterogeneous_workload(60, seed=9, update_fraction=0.0)
        for statement in workload:
            query = statement.query
            if len(query.tables) == 1:
                continue
            # Every multi-table query must have at least |tables| - 1 joins.
            assert len(query.joins) >= len(query.tables) - 1

    def test_max_tables_respected(self):
        generator = HeterogeneousWorkloadGenerator(seed=2, max_tables=3,
                                                   update_fraction=0.0)
        workload = generator.generate(50)
        assert max(len(s.query.tables) for s in workload) <= 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            HeterogeneousWorkloadGenerator(update_fraction=-0.1)
        with pytest.raises(WorkloadError):
            HeterogeneousWorkloadGenerator(max_tables=0)
        with pytest.raises(WorkloadError):
            generate_heterogeneous_workload(0)


class TestAllUpdateWorkloads:
    """``update_fraction=1.0``: write-only workloads (e.g. maintenance-cost
    studies) must generate, validate and stay seed-deterministic."""

    @pytest.mark.parametrize("generate", [generate_homogeneous_workload,
                                          generate_heterogeneous_workload])
    def test_every_statement_is_an_update(self, tpch, generate):
        workload = generate(30, seed=13, update_fraction=1.0)
        assert len(workload) == 30
        assert all(s.query.kind is StatementKind.UPDATE for s in workload)
        assert not workload.select_statements()
        workload.validate_against(tpch)

    @pytest.mark.parametrize("generate", [generate_homogeneous_workload,
                                          generate_heterogeneous_workload])
    def test_seed_determinism(self, generate):
        first = generate(25, seed=21, update_fraction=1.0)
        second = generate(25, seed=21, update_fraction=1.0)
        assert [s.query.name for s in first] == [s.query.name for s in second]
        assert [s.weight for s in first] == [s.weight for s in second]
        assert ([s.query.table for s in first]
                == [s.query.table for s in second])
        other_seed = generate(25, seed=22, update_fraction=1.0)
        assert ([s.query.name for s in first]
                != [s.query.name for s in other_seed])


def _column_refs(workload):
    for statement in workload:
        query = statement.query
        yield from query.projections
        yield from query.group_by
        yield from query.order_by
        yield from (predicate.column for predicate in query.predicates)
        for join in getattr(query, "joins", ()):
            yield join.left
            yield join.right
        yield from getattr(query, "set_columns", ())


@pytest.mark.parametrize("generate", [generate_homogeneous_workload,
                                      generate_heterogeneous_workload])
def test_generated_statements_share_one_column_ref_per_column(generate):
    """A generated workload holds one ColumnRef object per column, not one
    per mention: a benchmark round that builds thousands of statements then
    hands the collector a few dozen of them."""
    refs = list(_column_refs(generate(40, seed=3, update_fraction=0.3)))
    assert len(refs) > len({(ref.table, ref.column) for ref in refs})
    assert len({id(ref) for ref in refs}) == len(
        {(ref.table, ref.column) for ref in refs})
