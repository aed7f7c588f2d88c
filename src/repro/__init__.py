"""repro — a full reproduction of CoPhy (VLDB 2011).

CoPhy is a scalable, portable and interactive index advisor built on a compact
binary-integer-program (BIP) formulation of the index tuning problem.  This
package reimplements the complete system described in the paper together with
every substrate it depends on:

* a statistics-only relational catalog with a TPC-H generator (``repro.catalog``),
* a structural workload model, SQL-subset parser and the paper's workload
  generators (``repro.workload``),
* hypothetical indexes, configurations and candidate generation
  (``repro.indexes``),
* a cost-based what-if optimizer (``repro.optimizer``),
* INUM-style fast what-if optimization (``repro.inum``),
* a BIP modelling layer over the HiGHS solver (``repro.lp``),
* the CoPhy advisor itself: BIP generation, constraint language, soft
  constraints / Pareto exploration and early termination (``repro.core``),
* the comparison baselines: ILP, a Tool-A-like relaxation advisor and a
  Tool-B-like advisor with workload compression (``repro.advisors``),
* the evaluation harness reproducing the paper's metrics (``repro.bench``).

* the unified tuning API: declarative ``TuningRequest -> TuningResult``
  through ``Tuner``/``TuningService`` with a pluggable advisor registry, and
  interactive re-tuning sessions (``TuningService.open_session``) that
  extend or re-solve one BIP per session (``repro.api``).

Quick start::

    from repro import StorageBudgetConstraint, Tuner, TuningRequest
    from repro.catalog import tpch_schema
    from repro.workload import generate_homogeneous_workload

    schema = tpch_schema(scale_factor=0.01)
    workload = generate_homogeneous_workload(50, seed=1)
    budget = StorageBudgetConstraint.from_fraction_of_data(schema, 1.0)
    result = Tuner().tune(TuningRequest(workload=workload, schema=schema,
                                        constraints=[budget]))
    for index in result.configuration:
        print(index)
"""

from repro.advisors import (
    DtaAdvisor,
    IlpAdvisor,
    Recommendation,
    RelaxationAdvisor,
    ScaleOutAdvisor,
)
from repro.api import (
    AdvisorSpec,
    CostingSpec,
    ScaleSpec,
    Tuner,
    TuningRequest,
    TuningResult,
    TuningService,
    make_advisor,
)
from repro.catalog import Schema, tpch_schema
from repro.core import (
    ClusteredIndexConstraint,
    CoPhyAdvisor,
    CoPhySolver,
    IndexCountConstraint,
    IndexWidthConstraint,
    ParetoExplorer,
    QueryCostConstraint,
    QuerySpeedupGenerator,
    SoftConstraint,
    StorageBudgetConstraint,
    UpdateCostConstraint,
)
from repro.indexes import CandidateGenerator, Configuration, Index
from repro.inum import InumCache
from repro.optimizer import CostModel, WhatIfOptimizer
from repro.workload import (
    Workload,
    generate_heterogeneous_workload,
    generate_homogeneous_workload,
    parse_statement,
    parse_workload,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # catalog
    "Schema",
    "tpch_schema",
    # workload
    "Workload",
    "generate_homogeneous_workload",
    "generate_heterogeneous_workload",
    "parse_statement",
    "parse_workload",
    # indexes
    "Index",
    "Configuration",
    "CandidateGenerator",
    # optimizer / INUM
    "WhatIfOptimizer",
    "CostModel",
    "InumCache",
    # CoPhy
    "CoPhyAdvisor",
    "CoPhySolver",
    "ParetoExplorer",
    "StorageBudgetConstraint",
    "IndexCountConstraint",
    "IndexWidthConstraint",
    "ClusteredIndexConstraint",
    "QueryCostConstraint",
    "QuerySpeedupGenerator",
    "UpdateCostConstraint",
    "SoftConstraint",
    # baselines
    "IlpAdvisor",
    "RelaxationAdvisor",
    "DtaAdvisor",
    "Recommendation",
    # scale-out (PR 3)
    "ScaleOutAdvisor",
    # unified tuning API (PR 4)
    "AdvisorSpec",
    "CostingSpec",
    "ScaleSpec",
    "Tuner",
    "TuningRequest",
    "TuningResult",
    "TuningService",
    "make_advisor",
]
