"""Join enumeration and plan finishing (aggregation, ordering).

Given one costed :class:`~repro.optimizer.plan.ScanNode` per referenced table,
the :class:`PlanBuilder` enumerates join orders with a dynamic program over
connected table subsets, choosing between hash joins, merge joins (adding
explicit sorts when an input is not suitably ordered) and nested loops for
tiny inputs.  It then adds grouping/aggregation and ORDER BY handling on top.

The builder is deliberately order-aware: providing a sorted access path for a
join, group-by or order-by column removes sort work from the *internal* plan,
which is exactly the effect INUM's interesting-order templates capture.

Each piece of the work is done once.  Which table subsets are connected, how
each splits, the selectivity product of the connecting joins and the join
column on either side depend on the query alone: this :class:`_JoinSkeleton`
is derived once per query object.  A sub-plan carries the cost of its subtree,
summed in exactly the order :meth:`PlanNode.total_cost` walks it (``node.cost +
(left + right)``, ``node.cost + child``), and its leaf costs in walk order, so
neither comparing plans nor taking a plan's internal cost re-walks them and
every cost is bit-identical to the walked one.  A sub-plan also keeps the cost
of sorting its output once some parent has asked for it.  And the best sub-plan
of a subset is a function of the leaves *inside* it, so builds that pass the
same :class:`SubPlanTable` (INUM: the order specs of one shell) reuse every
sub-plan whose leaves are the same scan objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import OptimizerError
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plan import (
    AggregateNode,
    JoinAlgorithm,
    JoinNode,
    Plan,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.workload.predicates import ColumnRef
from repro.workload.query import Query

__all__ = ["PlanBuilder", "SubPlanTable"]

#: Inputs at or below this cardinality may use a naive nested-loop join.
_NESTED_LOOP_THRESHOLD = 64.0


@dataclass(slots=True)
class _SubPlan:
    """A DP entry: a plan covering a set of tables, its output width, rows and
    order, the cost of its whole subtree (``node.total_cost()``, carried not
    re-walked) and the costs of its leaves in walk order (what
    :attr:`Plan.internal_cost` subtracts).  ``sort`` is the cost of sorting
    its output, costed the first time a parent asks for it."""

    node: PlanNode
    width: float
    cost: float
    rows: float
    order: ColumnRef | None
    leaves: tuple[float, ...]
    sort: float | None = None

    @classmethod
    def over(cls, node: PlanNode, width: float, *inputs: "_SubPlan") -> "_SubPlan":
        """``node`` above the sub-plans it consumes (none for a leaf).  The one
        statement of the summation rule: :meth:`PlanNode.total_cost`'s order."""
        if not inputs:
            return cls(node, width, node.cost, node.rows, node.output_order,
                       (node.cost,))
        below = 0
        leaves: tuple[float, ...] = ()
        for sub in inputs:
            below += sub.cost
            leaves += sub.leaves
        return cls(node, width, node.cost + below, node.rows, node.output_order,
                   leaves)

    def sort_cost(self, model: CostModel) -> float:
        """The cost of sorting this sub-plan's output."""
        if self.sort is None:
            self.sort = model.sort_cost(self.rows, self.width)
        return self.sort


class SubPlanTable:
    """Sub-plans that builds of one query with the same widths may share.

    A leaf is identified by the :class:`ScanNode` object itself: each distinct
    leaf gets one bit, a sub-plan is keyed by the bits of the leaves under it,
    and the table keeps every leaf it has seen alive.
    """

    __slots__ = ("leaf_bits", "best")

    def __init__(self) -> None:
        self.leaf_bits: dict[int, int] = {}
        self.best: dict[int, _SubPlan] = {}


@dataclass(slots=True)
class _JoinSkeleton:
    """The leaf-independent half of one query's join DP.

    ``query`` is the object this was derived from (a cached skeleton is trusted
    only for that very object).  ``subsets`` holds the connected multi-table
    subsets (bit ``i`` = table ``i``) in increasing popcount order, so both
    halves of any split are solved first, each with its admissible splits in
    enumeration order as ``(left, right, join selectivity, left column, right
    column)``.  ``bridge`` is empty unless the join graph is disconnected: then
    it lists the largest solved pieces that cover every table.
    """

    query: Query
    subsets: tuple[tuple[int, tuple[tuple, ...]], ...]
    bridge: tuple[int, ...]


class PlanBuilder:
    """Builds a full physical plan from per-table access paths."""

    def __init__(self, cost_model: CostModel, selectivity: SelectivityEstimator):
        self._cost_model = cost_model
        self._selectivity = selectivity
        # One skeleton per multi-table query name, like the optimizer's scan
        # cache; replaced when a different query object arrives under the name.
        self._skeletons: dict[str, _JoinSkeleton] = {}

    # -------------------------------------------------------------------- public
    def build(self, query: Query, scans: Mapping[str, ScanNode],
              widths: Mapping[str, float],
              shared: SubPlanTable | None = None) -> Plan:
        """Assemble the cheapest plan for ``query`` over the given leaf scans.

        Args:
            query: The statement being planned.
            scans: One scan node per referenced table.
            widths: Output width (bytes) each table contributes to the query.
            shared: Sub-plans of earlier builds for this query (same widths)
                to reuse and extend; the plan is the same with or without it.
        """
        missing = [t for t in query.tables if t not in scans]
        if missing:
            raise OptimizerError(f"No access path supplied for tables {missing}")
        if shared is None:
            shared = SubPlanTable()
        joined = self._join_tables(query, scans, widths, shared)
        finished = self._finish(query, joined)
        return Plan(finished.node, query_name=query.name,
                    total_cost=finished.cost, leaf_costs=finished.leaves)

    # ------------------------------------------------------------------- joining
    def _join_tables(self, query: Query, scans: Mapping[str, ScanNode],
                     widths: Mapping[str, float], shared: SubPlanTable) -> _SubPlan:
        leaf_bits, best = shared.leaf_bits, shared.best
        keys: dict[int, int] = {}
        for position, table in enumerate(query.tables):
            scan = scans[table]
            key = leaf_bits.get(id(scan))
            if key is None:
                key = leaf_bits[id(scan)] = 1 << len(leaf_bits)
                best[key] = _SubPlan.over(scan, widths.get(table, 8.0))
            keys[1 << position] = key
        if len(keys) == 1:
            return best[key]

        skeleton = self._skeleton(query)
        for subset, splits in skeleton.subsets:
            key = keys[subset] = keys[splits[0][0]] | keys[splits[0][1]]
            if key in best:
                continue
            cheapest: _SubPlan | None = None
            for left, right, selectivity, left_column, right_column in splits:
                cheapest = self._best_join(
                    best[keys[left]], best[keys[right]], selectivity,
                    left_column, right_column, cheapest) or cheapest
            best[key] = cheapest
        if skeleton.bridge:
            # The join graph is disconnected: bridge the pieces with
            # cartesian-product hash joins (rare, but keeps the builder total).
            return self._bridge_disconnected(
                [best[keys[mask]] for mask in skeleton.bridge])
        return best[key]

    def _skeleton(self, query: Query) -> _JoinSkeleton:
        cached = self._skeletons.get(query.name)
        if cached is not None and cached.query is query:
            return cached
        tables = query.tables
        table_bit = {table: 1 << position for position, table in enumerate(tables)}
        joins = [(join, table_bit[join.left.table], table_bit[join.right.table],
                  self._selectivity.join_selectivity(join))
                 for join in query.joins]
        full_mask = (1 << len(tables)) - 1
        solved = set(table_bit.values())
        subsets = []
        for subset in sorted(range(1, full_mask + 1),
                             key=lambda m: (m.bit_count(), m)):
            if subset in solved:
                continue
            splits = []
            # Enumerate proper splits of `subset` into left/right halves.
            left = (subset - 1) & subset
            while left:
                right = subset ^ left
                if left > right and left in solved and right in solved:
                    connecting = [
                        (join, bit, join_selectivity)
                        for join, bit, other_bit, join_selectivity in joins
                        if (bit & left and other_bit & right)
                        or (other_bit & left and bit & right)]
                    if connecting:
                        selectivity = 1.0
                        for _, _, join_selectivity in connecting:
                            selectivity *= join_selectivity
                        primary, left_bit, _ = connecting[0]
                        on_left, on_right = (
                            (primary.left, primary.right) if left_bit & left
                            else (primary.right, primary.left))
                        splits.append((left, right, selectivity, on_left, on_right))
                left = (left - 1) & subset
            if splits:
                solved.add(subset)
                subsets.append((subset, tuple(splits)))
        bridge: list[int] = []
        if full_mask not in solved:
            covered = 0
            for mask in sorted(solved, key=lambda m: (-m.bit_count(), m)):
                if not mask & covered:
                    bridge.append(mask)
                    covered |= mask
        skeleton = _JoinSkeleton(query, tuple(subsets), tuple(bridge))
        self._skeletons[query.name] = skeleton
        return skeleton

    def _best_join(self, left: _SubPlan, right: _SubPlan, join_selectivity: float,
                   left_column: ColumnRef, right_column: ColumnRef,
                   incumbent: _SubPlan | None) -> _SubPlan | None:
        """The cheapest join of two sub-plans, or ``None`` unless it beats
        ``incumbent``: hash join, merge join (sorting an input not ordered on
        its join column) and — for a tiny input — nested loops are costed
        first, the earlier winning a tie; only the winner's nodes are built, so
        the totals here are the one copy of :meth:`_SubPlan.over`'s sum.  No
        operator costs less than 0, so when the inputs alone cost no less than
        ``incumbent`` no join of them is costed."""
        inputs_cost = left.cost + right.cost
        if incumbent is not None and not inputs_cost < incumbent.cost:
            return None
        model = self._cost_model
        output_rows = max(1.0, left.rows * right.rows * join_selectivity)
        smaller, larger = (left, right) if left.rows <= right.rows else (right, left)

        algorithm = JoinAlgorithm.HASH_JOIN
        cost = model.hash_join_cost(smaller.rows, larger.rows, smaller.width,
                                    output_rows)
        total = cost + inputs_cost

        left_sort = None if left.order == left_column else left.sort_cost(model)
        right_sort = (None if right.order == right_column
                      else right.sort_cost(model))
        merge_cost = model.merge_join_cost(left.rows, right.rows, output_rows)
        merge_total = merge_cost + (
            (left.cost if left_sort is None else left_sort + left.cost)
            + (right.cost if right_sort is None else right_sort + right.cost))
        if merge_total < total:
            algorithm, cost, total = JoinAlgorithm.MERGE_JOIN, merge_cost, merge_total

        if smaller.rows <= _NESTED_LOOP_THRESHOLD:
            loop_cost = model.nested_loop_cost(smaller.rows, larger.rows, output_rows)
            if loop_cost + inputs_cost < total:
                algorithm, cost, total = (JoinAlgorithm.NESTED_LOOP, loop_cost,
                                          loop_cost + inputs_cost)

        if incumbent is not None and not total < incumbent.cost:
            return None
        output_width = left.width + right.width
        output_order = None
        if algorithm is JoinAlgorithm.MERGE_JOIN:
            output_order = left_column
            if left_sort is not None:
                left = self._sorted(left, left_column, left_sort)
            if right_sort is not None:
                right = self._sorted(right, right_column, right_sort)
        elif algorithm is JoinAlgorithm.NESTED_LOOP:
            output_order = smaller.order
        node = JoinNode(cost=cost, rows=output_rows, output_order=output_order,
                        algorithm=algorithm, left=left.node, right=right.node,
                        join_column_left=left_column,
                        join_column_right=right_column)
        return _SubPlan(node, output_width, total, output_rows, output_order,
                        left.leaves + right.leaves)

    def _sorted(self, sub: _SubPlan, column: ColumnRef, sort_cost: float) -> _SubPlan:
        node = SortNode(cost=sort_cost, rows=sub.rows, output_order=column,
                        child=sub.node, sort_column=column)
        return _SubPlan.over(node, sub.width, sub)

    def _bridge_disconnected(self, pieces: list[_SubPlan]) -> _SubPlan:
        result = pieces[0]
        for piece in pieces[1:]:
            output_rows = max(1.0, result.rows * piece.rows)
            cost = self._cost_model.hash_join_cost(
                min(result.rows, piece.rows), max(result.rows, piece.rows),
                min(result.width, piece.width), output_rows)
            node = JoinNode(cost=cost, rows=output_rows, output_order=None,
                            algorithm=JoinAlgorithm.HASH_JOIN,
                            left=result.node, right=piece.node)
            result = _SubPlan.over(node, result.width + piece.width, result, piece)
        return result

    # ----------------------------------------------------------------- finishing
    def _finish(self, query: Query, joined: _SubPlan) -> _SubPlan:
        current = joined
        if query.group_by:
            current = self._aggregate(query, current)
        elif query.aggregates:
            cost = self._cost_model.plain_aggregate_cost(current.rows)
            node = AggregateNode(cost=cost, rows=1.0, output_order=None,
                                 child=current.node, strategy="plain")
            current = _SubPlan.over(node, current.width, current)
        if query.order_by:
            current = self._order(query, current)
        return current

    def _aggregate(self, query: Query, current: _SubPlan) -> _SubPlan:
        group_count = self._selectivity.group_count(query, current.rows)
        leading_group = query.group_by[0]
        if current.order == leading_group:
            cost = self._cost_model.stream_aggregate_cost(current.rows, group_count)
            node = AggregateNode(cost=cost, rows=group_count,
                                 output_order=leading_group, child=current.node,
                                 strategy="stream", group_columns=query.group_by)
            return _SubPlan.over(node, current.width, current)
        hash_cost = self._cost_model.hash_aggregate_cost(current.rows, group_count)
        sort_cost = current.sort_cost(self._cost_model)
        stream_cost = self._cost_model.stream_aggregate_cost(current.rows, group_count)
        if hash_cost <= sort_cost + stream_cost:
            node = AggregateNode(cost=hash_cost, rows=group_count, output_order=None,
                                 child=current.node, strategy="hash",
                                 group_columns=query.group_by)
            return _SubPlan.over(node, current.width, current)
        sorted_input = self._sorted(current, leading_group, sort_cost)
        node = AggregateNode(cost=stream_cost, rows=group_count,
                             output_order=leading_group, child=sorted_input.node,
                             strategy="stream", group_columns=query.group_by)
        return _SubPlan.over(node, current.width, sorted_input)

    def _order(self, query: Query, current: _SubPlan) -> _SubPlan:
        """Add a Sort unless the output is already ordered by the leading column."""
        leading_order = query.order_by[0]
        if current.order == leading_order:
            return current
        return self._sorted(current, leading_order,
                            current.sort_cost(self._cost_model))
