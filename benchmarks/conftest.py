"""Shared configuration for the per-figure benchmarks.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation (section 5 and appendix C).  The experiments run at a
reduced, laptop-friendly scale that preserves the qualitative shape of the
results:

* the 1 GB TPC-H database becomes a scale-factor-0.01 statistics-only catalog
  (data skew ``z`` is reproduced analytically);
* the 250/500/1000-statement workloads become 15/30/60-statement workloads
  drawn from the same generators;
* CPLEX becomes HiGHS, the build scipy vendors.

Each benchmark prints the rows/series corresponding to the paper's table or
figure (run with ``pytest benchmarks/ --benchmark-only -s`` to see them) and
asserts the qualitative claims (who wins, how the trend moves).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.catalog.tpch import tpch_schema
from repro.core.constraints import StorageBudgetConstraint

#: Mapping from the paper's workload sizes to the reduced sizes used here.
WORKLOAD_SIZES = {250: 15, 500: 30, 1000: 60}
#: TPC-H scale factor used by all benchmarks (the paper uses 1.0 = 1 GB).
SCALE_FACTOR = 0.01
#: Random seed shared by the benchmark workloads.
SEED = 42


def make_schema(skew: float = 0.0):
    """The benchmark catalog at the standard scale factor."""
    return tpch_schema(scale_factor=SCALE_FACTOR, skew=skew)


def storage_budget(schema, fraction: float = 1.0) -> StorageBudgetConstraint:
    """The paper's space budget: a fraction ``M`` of the data size."""
    return StorageBudgetConstraint.from_fraction_of_data(schema, fraction)


def print_report(title: str, text: str) -> None:
    """Print a benchmark report block (visible with ``pytest -s``)."""
    print(f"\n==== {title} ====\n{text}\n")


def pytest_collection_modifyitems(config, items):
    """Every per-figure benchmark is heavyweight: mark it ``slow``.

    The fast lane (``pytest -m "not slow"``) then runs only the unit suite;
    the full default invocation is unchanged.  (The hook sees the whole
    session's items, so restrict the marker to this directory.)
    """
    bench_dir = Path(__file__).parent
    for item in items:
        if bench_dir in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def uniform_schema():
    return make_schema(0.0)


@pytest.fixture(scope="session")
def skewed_schema():
    return make_schema(2.0)
