"""Scale-out tuning: workload compression, BIP partitioning, process pools.

The PR 3 subsystem that lets tuning-problem size scale past a single
monolithic solve, following the divide-and-conquer recipe the paper implies
for thousand-statement workloads:

1. :mod:`repro.scale.compress` — cluster statements into weighted
   representatives (structural signatures, bounded cost error, exact
   fallback);
2. :mod:`repro.scale.partition` — split the BIP along the query–candidate
   interaction graph into balanced shards with a water-filled storage-budget
   split;
3. :mod:`repro.scale.executor` — solve shards in a process pool, each
   worker building its own shard's gamma matrices, merging results
   deterministically in workload order.

:class:`repro.advisors.scaleout.ScaleOutAdvisor` wires the three stages into
an end-to-end advisor with a final merge BIP over the per-shard winners.
"""

from repro.scale.compress import CompressedWorkload, compress_workload
from repro.scale.partition import PartitionPlan, Shard, partition_workload, split_budget
from repro.scale.executor import ShardExecutor, ShardResult

__all__ = [
    "CompressedWorkload",
    "compress_workload",
    "PartitionPlan",
    "Shard",
    "partition_workload",
    "split_budget",
    "ShardExecutor",
    "ShardResult",
]
