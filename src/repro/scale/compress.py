"""Workload compression: weighted representatives with a bounded cost error.

The first stage of the scale-out pipeline (PR 3).  Real workloads repeat
themselves — thousands of statements are instantiations of a few templates
with different constants — and the BIP's size (INUM preprocessing, coefficient
assembly, solve time) is linear-to-superlinear in the statement count.  This
module clusters statements whose INUM cost structure is (approximately)
identical and replaces each cluster by one *representative* statement whose
weight is the sum of the member weights, so every downstream consumer
(``WorkloadGammaTensor`` reductions, BIP objective coefficients ``f_q``)
automatically accounts for the cluster through the standard weighted-workload
machinery.

Two signature modes are supported:

* ``"structural"`` — statements are keyed on their template structure alone:
  tables, join edges, predicate (column, operator) pairs with selectivity
  hints quantised into relative buckets of width ``max_cost_error``, group-by
  / order-by / aggregate / projection shapes, and (for updates) the written
  columns.  No optimizer work is needed, so compression runs before any INUM
  preprocessing — only representatives ever reach the optimizer.
* ``"gamma"`` — statements are keyed on their exact structural identity
  (selectivity hints excluded) *plus* their quantised INUM cost vectors: the
  ``beta`` template costs and the heap column ``gamma_k,i,I0`` of their
  :class:`~repro.inum.gamma_matrix.QueryGammaMatrix`.  This requires template
  enumeration for every statement (an :class:`~repro.inum.cache.InumCache`
  must be supplied) but merges on measured costs instead of AST heuristics.

The cost-error bound: values are quantised to logarithmic buckets of relative
width ``max_cost_error`` — two merged statements agree on every signature
value within a factor of ``1 + max_cost_error``.  In gamma mode this bounds
the heap/beta components of the INUM cost formula exactly; candidate-column
gammas are derived from the same selectivities and track the heap costs, so
the end-to-end bound is a tight heuristic rather than a theorem.  The exact
fallback is ``max_cost_error = 0.0``: no quantisation, statements merge only
when their signature values are bit-identical.

Updates compress like selects, with the written table/columns and the
quantised base-update cost (a monotone proxy for the updated row count, which
also drives the per-index maintenance costs) folded into the signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.exceptions import WorkloadError
from repro.workload.query import Query, UpdateQuery
from repro.workload.workload import Workload, WorkloadStatement

if TYPE_CHECKING:  # pragma: no cover - type-checking import only
    from repro.inum.cache import InumCache

__all__ = ["CompressedWorkload", "compress_workload", "SIGNATURE_MODES",
           "structural_statement_key"]

#: Supported signature modes (see module docstring).
SIGNATURE_MODES = ("structural", "gamma")


@dataclass(frozen=True)
class CompressedWorkload:
    """The result of compressing a workload into weighted representatives.

    Attributes:
        original: The uncompressed workload.
        workload: The representative workload; one statement per cluster, in
            the workload order of each cluster's first member, carrying the
            cluster's total weight.
        clusters: Original statement positions per representative, aligned
            with ``workload`` (each cluster's first member is its
            representative).
        representative_of: For every original position, the position of its
            representative within ``workload``.
        signature: The signature mode that produced the clustering.
        max_cost_error: The relative quantisation width used.
    """

    original: Workload
    workload: Workload
    clusters: tuple[tuple[int, ...], ...]
    representative_of: tuple[int, ...]
    signature: str
    max_cost_error: float

    @property
    def original_size(self) -> int:
        return len(self.original)

    @property
    def compressed_size(self) -> int:
        return len(self.workload)

    @property
    def ratio(self) -> float:
        """``compressed / original`` statement count (1.0 = incompressible)."""
        return self.compressed_size / self.original_size

    def summary(self) -> dict[str, float | int | str]:
        return {
            "original_statements": self.original_size,
            "representatives": self.compressed_size,
            "ratio": round(self.ratio, 4),
            "signature": self.signature,
            "max_cost_error": self.max_cost_error,
        }


def compress_workload(workload: Workload, *, signature: str = "structural",
                      max_cost_error: float = 0.0,
                      inum: "InumCache | None" = None) -> CompressedWorkload:
    """Cluster a workload into weighted representative statements.

    Args:
        workload: The workload to compress.
        signature: ``"structural"`` or ``"gamma"`` (see module docstring).
        max_cost_error: Relative quantisation width; ``0.0`` is the exact
            fallback (only signature-identical statements merge).
        inum: Required for gamma signatures — supplies template plans and
            heap gamma columns (built on demand for statements that do not
            have them yet).

    Returns:
        A :class:`CompressedWorkload`; the representative workload preserves
        total weight exactly (``workload.total_weight()`` is unchanged).
    """
    if signature not in SIGNATURE_MODES:
        raise WorkloadError(f"Unknown compression signature {signature!r}; "
                            f"expected one of {SIGNATURE_MODES}")
    if max_cost_error < 0.0:
        raise WorkloadError("max_cost_error must be non-negative")
    if signature == "gamma" and inum is None:
        raise WorkloadError("Gamma-signature compression needs an InumCache")

    clusters: dict[Hashable, list[int]] = {}
    for position, statement in enumerate(workload):
        if signature == "gamma":
            key = _gamma_key(statement.query, inum, max_cost_error)
        else:
            key = _structural_key(statement.query, max_cost_error)
        clusters.setdefault(key, []).append(position)

    ordered = sorted(clusters.values(), key=lambda members: members[0])
    statements = workload.statements
    representatives: list[WorkloadStatement] = []
    representative_of = [0] * len(statements)
    for cluster_position, members in enumerate(ordered):
        total_weight = sum(statements[member].weight for member in members)
        representatives.append(WorkloadStatement(
            statements[members[0]].query, total_weight))
        for member in members:
            representative_of[member] = cluster_position
    compressed = Workload(representatives, name=f"{workload.name}/compressed")
    return CompressedWorkload(
        original=workload,
        workload=compressed,
        clusters=tuple(tuple(members) for members in ordered),
        representative_of=tuple(representative_of),
        signature=signature,
        max_cost_error=max_cost_error,
    )


# ------------------------------------------------------------------ signatures
def _quantise(value: float | None, max_cost_error: float) -> float | int | None:
    """Map a value to its logarithmic bucket of relative width ``1 + error``.

    ``0.0`` (the exact fallback) returns the value itself; two values share a
    bucket only when they agree within a factor of ``1 + max_cost_error``.
    """
    if value is None:
        return None
    if max_cost_error <= 0.0:
        return value
    if value <= 0.0:
        return 0
    if math.isinf(value):
        return math.inf
    return int(round(math.log(value) / math.log1p(max_cost_error)))


def _shell_of(query: Query) -> Query:
    if isinstance(query, UpdateQuery):
        return query.query_shell()
    return query


def _shape_key(shell: Query) -> tuple:
    """The selectivity-free structural identity of a query shell.

    Statements must agree on this part of the signature in *both* modes:
    it determines which candidate indexes are relevant to which slots, so
    merging across different shapes would change the BIP's variable space,
    not just its coefficients.
    """
    joins = tuple(sorted(
        (j.left.table, j.left.column, j.right.table, j.right.column)
        for j in shell.joins))
    predicate_columns = tuple(sorted(
        (p.column.table, p.column.column, p.operator.name)
        for p in shell.predicates))
    return (
        tuple(shell.tables),
        joins,
        predicate_columns,
        tuple((c.table, c.column) for c in shell.group_by),
        tuple((c.table, c.column) for c in shell.order_by),
        tuple((a.function.name,
               None if a.column is None else (a.column.table, a.column.column))
              for a in shell.aggregates),
        tuple((c.table, c.column) for c in shell.projections),
    )


def _update_key(query: Query, max_cost_error: float,
                inum: "InumCache | None") -> tuple | None:
    """The update-specific signature part (``None`` for selects)."""
    if not isinstance(query, UpdateQuery):
        return None
    written = tuple(c.column for c in query.set_columns)
    if inum is not None:
        # The base-update cost is a monotone function of the updated row
        # count, which also drives every ``ucost(a, q)`` term — quantising it
        # bounds the maintenance-cost error alongside the scan costs.
        base_cost = _quantise(inum.optimizer.base_update_cost(query),
                              max_cost_error)
    else:
        base_cost = _quantise(query.update_fraction, max_cost_error)
    return (query.table, written, base_cost)


def structural_statement_key(query: Query, max_cost_error: float = 0.0
                             ) -> Hashable:
    """The structural signature of one statement (public: the unified API's
    workload fingerprint reuses it with the exact ``0.0`` fallback)."""
    shell = _shell_of(query)
    # Two predicates on one column and operator may differ in having a hint
    # at all; a hint-less one sorts first instead of comparing ``None``
    # with a number (any other order is the plain tuple order).
    selectivities = tuple(sorted(
        ((p.column.table, p.column.column, p.operator.name,
          _quantise(getattr(p, "selectivity_hint", None), max_cost_error))
         for p in shell.predicates),
        key=lambda key: (key[:3], key[3] is not None, key[3] or 0)))
    return (_shape_key(shell), selectivities,
            _update_key(query, max_cost_error, None))


_structural_key = structural_statement_key


# reprolint: requires-lock (gamma_matrix builds lazily; reached only via
# compress_workload under the scale-out advisor's serialization)
def _gamma_key(query: Query, inum: "InumCache", max_cost_error: float
               ) -> Hashable:
    shell = _shell_of(query)
    matrix = inum.gamma_matrix(shell)
    betas = tuple(_quantise(float(b), max_cost_error)
                  for b in matrix.beta)
    heap = tuple(_quantise(float(g), max_cost_error)
                 for g in matrix.array[:, :, 0].ravel())
    return (_shape_key(shell), betas, heap,
            _update_key(query, max_cost_error, inum))
