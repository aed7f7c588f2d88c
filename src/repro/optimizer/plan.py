"""Physical plan representation.

Plans are trees of :class:`PlanNode` objects.  Leaf nodes are
:class:`ScanNode` instances — these are the "slots" INUM turns into template
holes.  Internal nodes (joins, sorts, aggregation) make up the *internal plan*
whose cost becomes the ``beta`` constant of linear composability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from typing import Iterator

from repro.indexes.index import Index
from repro.workload.predicates import ColumnRef

__all__ = ["AccessPath", "JoinAlgorithm", "PlanNode", "ScanNode", "JoinNode",
           "SortNode", "AggregateNode", "Plan"]


class AccessPath(enum.Enum):
    """Access method used by a leaf node."""

    SEQ_SCAN = "seq_scan"
    INDEX_SCAN = "index_scan"
    INDEX_ONLY_SCAN = "index_only_scan"


class JoinAlgorithm(enum.Enum):
    """Join algorithms considered by the optimizer."""

    HASH_JOIN = "hash_join"
    MERGE_JOIN = "merge_join"
    NESTED_LOOP = "nested_loop"


@dataclass
class PlanNode:
    """Base class for plan nodes.

    Attributes:
        cost: Cost of this node alone (excluding children).
        rows: Estimated output cardinality.
        output_order: Column whose order the node's output follows, if any.
    """

    cost: float
    rows: float
    output_order: ColumnRef | None = None

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def total_cost(self) -> float:
        """Cost of the subtree rooted at this node."""
        return self.cost + sum(child.total_cost() for child in self.children)

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ScanNode(PlanNode):
    """A leaf access of one table — the INUM "slot".

    Attributes:
        table: Accessed table.
        index: Index used, or ``None`` for a heap scan.
        access_path: Which access method was chosen.
    """

    table: str = ""
    index: Index | None = None
    access_path: AccessPath = AccessPath.SEQ_SCAN

    def describe(self) -> str:
        if self.index is None:
            return f"SeqScan({self.table})"
        kind = ("IndexOnlyScan" if self.access_path is AccessPath.INDEX_ONLY_SCAN
                else "IndexScan")
        return f"{kind}({self.table} via {self.index.name})"


@dataclass
class JoinNode(PlanNode):
    """A binary join."""

    algorithm: JoinAlgorithm = JoinAlgorithm.HASH_JOIN
    left: PlanNode | None = None
    right: PlanNode | None = None
    join_column_left: ColumnRef | None = None
    join_column_right: ColumnRef | None = None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        children = []
        if self.left is not None:
            children.append(self.left)
        if self.right is not None:
            children.append(self.right)
        return tuple(children)

    def describe(self) -> str:
        return (f"{self.algorithm.value}({self.join_column_left} = "
                f"{self.join_column_right})")


@dataclass
class SortNode(PlanNode):
    """An explicit sort (for merge joins, order-by or sort-based grouping)."""

    child: PlanNode | None = None
    sort_column: ColumnRef | None = None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        return f"Sort({self.sort_column})"


@dataclass
class AggregateNode(PlanNode):
    """Grouping / aggregation (hash, stream or scalar)."""

    child: PlanNode | None = None
    strategy: str = "hash"
    group_columns: tuple[ColumnRef, ...] = ()

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,) if self.child is not None else ()

    def describe(self) -> str:
        columns = ", ".join(str(c) for c in self.group_columns) or "-"
        return f"Aggregate[{self.strategy}]({columns})"


class Plan:
    """A complete physical plan for one statement.

    Exposes the two quantities INUM needs: the per-slot access costs (one per
    leaf) and the *internal plan cost* — the total cost minus the leaves.
    """

    def __init__(self, root: PlanNode, query_name: str = "",
                 total_cost: float | None = None):
        self.root = root
        self.query_name = query_name
        #: ``root.total_cost()`` — the plan builder hands over the sum it
        #: carried while planning, so comparing plans never re-walks them.
        self.total_cost = root.total_cost() if total_cost is None else total_cost

    def scan_nodes(self) -> tuple[ScanNode, ...]:
        """The leaf accesses of the plan, in traversal order."""
        return tuple(node for node in self.root.walk() if isinstance(node, ScanNode))

    def scan_node_for(self, table: str) -> ScanNode | None:
        for node in self.scan_nodes():
            if node.table == table:
                return node
        return None

    def access_cost(self, table: str) -> float:
        node = self.scan_node_for(table)
        return 0.0 if node is None else node.cost

    @property
    def internal_cost(self) -> float:
        """Total cost minus all leaf access costs (the ``beta`` of the template)."""
        return self.total_cost - sum(node.cost for node in self.scan_nodes())

    def indexes_used(self) -> tuple[Index, ...]:
        used = [node.index for node in self.scan_nodes() if node.index is not None]
        return tuple(dict.fromkeys(used))

    def explain(self) -> str:
        """A compact, indented EXPLAIN-style rendering of the plan."""
        lines: list[str] = []

        def render(node: PlanNode, depth: int) -> None:
            describe = getattr(node, "describe", None)
            label = describe() if callable(describe) else type(node).__name__
            lines.append(f"{'  ' * depth}{label}  "
                         f"(cost={node.cost:.2f}, rows={node.rows:.0f})")
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Plan(query={self.query_name!r}, cost={self.total_cost:.2f})"
