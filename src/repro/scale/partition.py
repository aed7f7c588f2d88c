"""BIP partitioning along the query–candidate interaction graph.

The second stage of the scale-out pipeline (PR 3).  The Theorem-1 BIP couples
two statements only through candidate indexes both of them can use (a shared
``z_a`` variable) and through global resource constraints (the storage
budget).  This module exploits that structure:

1. **Interaction graph** — statements are vertices; two statements interact
   when at least one candidate index is *relevant* to both (same relevance
   rule BIP assembly uses: the candidate's leading key column is referenced
   by the statement on that table, or it covers the referenced columns).
2. **Connected components** — statements in different components share no BIP
   variable except through the storage budget; solving them separately is
   exact once the budget is split.
3. **Balanced shards** — components are bin-packed (and over-large components
   split, trading exactness for parallelism) into ``shard_count`` shards of
   roughly equal total statement weight.  Every shard carries the sub-workload
   plus the subset of candidates relevant to it; candidates relevant to two
   shards are duplicated (the merge step restores a single decision).
4. **Budget split** — the global storage budget is divided across shards by
   greedy water-filling on each shard's candidate demand (total size of its
   candidate subset): equal shares are poured repeatedly, capping saturated
   shards at their demand, so small shards never starve large ones.  A final
   merge BIP over the union of per-shard winners re-applies the *global*
   budget, restoring feasibility of the combined recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bip_builder import BipBuilder
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.index import Index
from repro.workload.query import Query, UpdateQuery
from repro.workload.workload import Workload

__all__ = ["Shard", "PartitionPlan", "partition_workload", "split_budget"]


@dataclass(frozen=True)
class Shard:
    """One independent sub-problem of a partitioned tuning instance."""

    position: int
    workload: Workload
    candidates: tuple[Index, ...]
    statement_positions: tuple[int, ...]
    budget_bytes: float | None = None

    @property
    def statement_count(self) -> int:
        return len(self.statement_positions)

    def with_budget(self, budget_bytes: float | None) -> "Shard":
        return Shard(self.position, self.workload, self.candidates,
                     self.statement_positions, budget_bytes)


@dataclass(frozen=True)
class PartitionPlan:
    """The sharding of one workload/candidate-set tuning instance."""

    shards: tuple[Shard, ...]
    shard_of: tuple[int, ...]  # statement position -> shard position
    component_count: int

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def summary(self) -> dict[str, float | int]:
        sizes = [shard.statement_count for shard in self.shards]
        return {
            "shards": self.shard_count,
            "components": self.component_count,
            "largest_shard": max(sizes),
            "smallest_shard": min(sizes),
        }


def partition_workload(workload: Workload, candidates: CandidateSet,
                       shard_count: int | None = None) -> PartitionPlan:
    """Partition a workload into balanced shards of interacting statements.

    Args:
        workload: The (possibly compressed) workload to shard.
        candidates: The candidate universe; each shard receives the subset
            relevant to its statements.
        shard_count: Desired number of shards.  ``None`` keeps one shard per
            connected component (the exact decomposition).  When fewer
            components exist than requested shards, the heaviest components
            are split by statement weight; when more exist, components are
            bin-packed by weight.

    Returns:
        A :class:`PartitionPlan` with shards ordered (and statements within
        each shard ordered) by original workload position — deterministic for
        a given input regardless of dictionary iteration quirks.
    """
    statements = workload.statements
    relevant = [_relevant_candidates(statement.query, candidates)
                for statement in statements]

    parent = list(range(len(statements)))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(left: int, right: int) -> None:
        root_left, root_right = find(left), find(right)
        if root_left != root_right:
            parent[max(root_left, root_right)] = min(root_left, root_right)

    first_user: dict[Index, int] = {}
    for position, indexes in enumerate(relevant):
        for index in indexes:
            anchor = first_user.setdefault(index, position)
            if anchor != position:
                union(anchor, position)

    components: dict[int, list[int]] = {}
    for position in range(len(statements)):
        components.setdefault(find(position), []).append(position)
    groups = sorted(components.values(), key=lambda members: members[0])
    component_count = len(groups)

    def weight_of(members: list[int]) -> float:
        return sum(statements[member].weight for member in members)

    if shard_count is not None and shard_count > 0:
        groups = _split_heavy_groups(groups, weight_of, shard_count)
        groups = _bin_pack_groups(groups, weight_of, shard_count)

    shards: list[Shard] = []
    shard_of = [0] * len(statements)
    for shard_position, members in enumerate(groups):
        members = sorted(members)
        shard_candidates: dict[Index, None] = {}
        for member in members:
            shard_of[member] = shard_position
            for index in relevant[member]:
                shard_candidates.setdefault(index)
        shard_workload = Workload(
            [statements[member] for member in members],
            name=f"{workload.name}/shard{shard_position}")
        shards.append(Shard(
            position=shard_position,
            workload=shard_workload,
            candidates=tuple(shard_candidates),
            statement_positions=tuple(members),
        ))
    return PartitionPlan(shards=tuple(shards), shard_of=tuple(shard_of),
                         component_count=component_count)


def split_budget(plan: PartitionPlan, candidates: CandidateSet,
                 budget_bytes: float | None,
                 oversubscription: float | None = None) -> PartitionPlan:
    """Divide a global storage budget across shards by greedy water-filling.

    Each shard's *demand* is the total size of its candidate subset capped at
    the global budget (it can never usefully consume more than either).
    Equal shares of the pool are poured repeatedly over the unsaturated
    shards until every shard is saturated or the pool is exhausted, so small
    shards never starve large ones.

    The pool is the global budget times ``oversubscription`` (default: the
    shard count, i.e. every shard may fill up to the whole global budget).
    Oversubscribing is deliberate: a shard solved under a starved slice of
    the budget surfaces only small-index winners, and the merge BIP can never
    recover the large winners a global solve would have picked.  Letting
    shards overgenerate and the merge BIP arbitrate under the *global* budget
    (which restores feasibility of the combined recommendation) preserves
    quality; pass ``oversubscription=1.0`` for a strict partition of the
    budget (the sum of shard budgets then never exceeds the global one) and
    values below 1.0 to deliberately under-allocate it.
    """
    if budget_bytes is None:
        return plan
    if oversubscription is None:
        oversubscription = float(plan.shard_count)
    if oversubscription <= 0.0:
        raise ValueError("oversubscription must be positive")
    demands = [min(sum(candidates.size_of(index) for index in shard.candidates),
                   float(budget_bytes))
               for shard in plan.shards]
    allocation = [0.0] * len(demands)
    remaining = float(budget_bytes) * oversubscription
    active = [position for position, demand in enumerate(demands)
              if demand > 0.0]
    while active and remaining > 1e-9:
        share = remaining / len(active)
        saturated: list[int] = []
        for position in active:
            headroom = demands[position] - allocation[position]
            poured = min(share, headroom)
            allocation[position] += poured
            remaining -= poured
            if demands[position] - allocation[position] <= 1e-9:
                saturated.append(position)
        if not saturated:
            break  # every active shard absorbed its full share
        active = [position for position in active if position not in saturated]
    shards = tuple(shard.with_budget(allocation[position])
                   for position, shard in enumerate(plan.shards))
    return PartitionPlan(shards=shards, shard_of=plan.shard_of,
                         component_count=plan.component_count)


# ------------------------------------------------------------------- internals
def _relevant_candidates(query: Query, candidates: CandidateSet
                         ) -> tuple[Index, ...]:
    """Candidates that could serve some slot of this statement.

    Delegates to BIP assembly's own relevance rule — the decomposition is
    only exact because two statements in different shards provably share no
    ``z`` variable, so partitioning must use the same predicate variable
    creation uses.  (Plus update-maintenance coupling: an index on the
    written table interacts with the update through its ``ucost`` term even
    when it cannot serve the shell.)
    """
    shell = query.query_shell() if isinstance(query, UpdateQuery) else query
    relevant: list[Index] = [
        index for indexes in BipBuilder._relevant(shell, candidates.for_table)
        for index in indexes]
    if isinstance(query, UpdateQuery):
        written = {c.column for c in query.set_columns}
        for index in candidates.for_table(query.table):
            if written & set(index.all_columns) and index not in relevant:
                relevant.append(index)
    return tuple(relevant)


def _split_heavy_groups(groups: list[list[int]], weight_of,
                        shard_count: int) -> list[list[int]]:
    """Split the heaviest groups until at least ``shard_count`` exist.

    Splitting a connected component sacrifices exactness for balance; chunks
    stay contiguous in workload order so the result is deterministic.
    """
    groups = [list(members) for members in groups]
    while len(groups) < shard_count:
        heaviest = max(range(len(groups)),
                       key=lambda position: (weight_of(groups[position]),
                                             -position))
        members = groups[heaviest]
        if len(members) < 2:
            break  # nothing left to split
        middle = len(members) // 2
        groups[heaviest:heaviest + 1] = [members[:middle], members[middle:]]
    return groups


def _bin_pack_groups(groups: list[list[int]], weight_of,
                     shard_count: int) -> list[list[int]]:
    """Greedy bin packing: heaviest group first, into the lightest shard."""
    if len(groups) <= shard_count:
        return groups
    ranked = sorted(range(len(groups)),
                    key=lambda position: (-weight_of(groups[position]),
                                          position))
    bins: list[list[int]] = [[] for _ in range(shard_count)]
    loads = [0.0] * shard_count
    for position in ranked:
        lightest = min(range(shard_count),
                       key=lambda bin_position: (loads[bin_position],
                                                 bin_position))
        bins[lightest].extend(groups[position])
        loads[lightest] += weight_of(groups[position])
    packed = [sorted(members) for members in bins if members]
    return sorted(packed, key=lambda members: members[0])
