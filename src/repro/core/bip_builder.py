"""BIPGen: the compact binary integer program of Theorem 1.

Variables (per the theorem):

* ``z_a`` — one per candidate index ``a``: is ``a`` part of the recommended
  configuration ``X*``?
* ``y_qk`` — one per (query, template plan): is template ``k`` the one used to
  evaluate ``q``?
* ``x_qkia`` — one per (query, template, slot, access method): does slot ``i``
  of template ``k`` use access method ``a`` (where ``a`` may be ``I_0``, the
  heap access)?

Constraints: exactly one template per query, exactly one access method per
slot of the chosen template, and ``z_a >= x_qkia`` (an index must be selected
before a slot may use it).

Objective: ``sum f_q beta_qk y_qk + sum f_q gamma_qkia x_qkia +
sum f_q ucost(a, q) z_a``.

Compactness: variables are only created for (query, template, slot, access
method) combinations with finite ``gamma`` and for access methods that are
*relevant* to the query's slot (their leading key column is referenced by the
query on that table, or they cover the referenced columns) — irrelevant
indexes could never beat the ``I_0`` choice, so dropping them changes nothing
while keeping the program linear in the size of the input, as the paper
requires.

Layout: the program is assembled as arrays, straight from the workload gamma
tensor's per-slot blocks.  Columns are the ``z`` (candidate order), then per
statement its ``y`` (usable templates, ascending) and its ``x`` (template,
then slot in table order, then access: heap first, candidates in candidate
order).  The rows are one :class:`~repro.lp.model.RowBlock` in the same
per-statement order: the one-template row, then per (template, slot) the
``x <= z`` select rows and the slot's one-access row.  Only the ``z`` columns
carry :class:`~repro.lp.variable.Variable` objects; the ``y``/``x`` columns
are described by the struct-of-array tables on :class:`CophyBip`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.exceptions import BuildInterrupted, SolverError, WorkloadError
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.template_plan import INFEASIBLE_COST
from repro.inum.workload_tensor import WorkloadGammaTensor
from repro.lp.budget import SolveBudget
from repro.lp.expression import LinearExpression
from repro.lp.model import Model, Objective, RowBlock, RowKind
from repro.lp.solution import Solution
from repro.lp.variable import Variable
from repro.workload.query import Query, StatementKind, UpdateQuery
from repro.workload.workload import Workload

__all__ = ["BipBuilder", "CophyBip"]

#: ``I_0`` — the "no index" access method, represented as ``None`` in slot maps.
NO_INDEX = None


@dataclass(frozen=True)
class _Table:
    """Parallel arrays, one entry per row of the table."""

    @classmethod
    def of(cls, parts: list["_Table"]) -> "_Table":
        """The parts' entries, one after the other (no parts: no entries)."""
        return cls(**{column.name: np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [getattr(part, column.name) for part in parts])
            for column in fields(cls)})


@dataclass(frozen=True)
class TemplateColumns(_Table):
    """One entry per ``y`` column: a usable template of a statement.

    A statement's entries are consecutive, in template position order.
    """

    columns: np.ndarray
    #: Ordinal of the statement in the workload.
    statements: np.ndarray
    #: Template position in ``InumCache.templates`` of the statement's shell.
    positions: np.ndarray
    betas: np.ndarray


@dataclass(frozen=True)
class AccessColumns(_Table):
    """One entry per ``x`` column: an access method of a (template, slot).

    A slot is named by its one-access row; a template's slots, in its
    shell's table order, have ascending rows.
    """

    columns: np.ndarray
    #: The template, as an entry of :class:`TemplateColumns`.
    templates: np.ndarray
    #: The slot's one-access row, as a row of :attr:`CophyBip.rows`.
    slot_rows: np.ndarray
    #: The index's ``z`` column, or -1 for the heap access ``I_0``.
    indexes: np.ndarray
    gammas: np.ndarray


@dataclass(frozen=True)
class UpdateCosts(_Table):
    """One entry per positive ``ucost(a, q)``: an UPDATE and an index."""

    statements: np.ndarray
    #: The index's ``z`` column.
    columns: np.ndarray
    costs: np.ndarray


@dataclass(eq=False)
class CophyBip:
    """The generated BIP plus the bookkeeping needed to interpret solutions."""

    model: Model
    workload: Workload
    candidates: CandidateSet
    z_variables: dict[Index, Variable]
    #: The Theorem-1 rows (one-template, select and one-access rows).
    rows: RowBlock
    templates: TemplateColumns
    accesses: AccessColumns
    updates: UpdateCosts
    #: Aggregate sizes only: ``variables``, ``constraints``, ``candidates``.
    statistics: dict[str, float] = field(default_factory=dict)
    #: Per-statement weight overrides the BIP was built with (by statement
    #: name); ``extend`` reads them so delta coefficients stay consistent.
    statement_weights: dict[str, float] | None = None

    def weight_of(self, statement) -> float:
        """The effective ``f_q`` of a workload statement in this BIP."""
        if self.statement_weights is not None:
            return self.statement_weights.get(statement.query.name,
                                              statement.weight)
        return statement.weight

    # ---------------------------------------------------------------- accessors
    def index_variable(self, index: Index) -> Variable:
        try:
            return self.z_variables[index]
        except KeyError as exc:
            raise SolverError(f"Index {index.name} is not part of this BIP") from exc

    def storage_expression(self) -> LinearExpression:
        """``sum_a size(a) * z_a`` — the left side of storage constraints."""
        variables = []
        sizes = []
        for index, variable in self.z_variables.items():
            variables.append(variable)
            sizes.append(self.candidates.size_of(index))
        return LinearExpression.sum_of(variables, sizes)

    def update_cost_expression(self) -> LinearExpression:
        """``sum_q sum_a f_q ucost(a, q) z_a`` — total index-maintenance cost."""
        coefficients: dict[Variable, float] = {}
        for ordinal, statement in enumerate(self.workload):
            update = statement.query
            if update.kind is not StatementKind.UPDATE:
                continue
            if not isinstance(update, UpdateQuery):
                raise WorkloadError(
                    f"statement '{getattr(update, 'name', update)}' is "
                    "classified as an update but its query is "
                    f"{type(update).__name__}")
            mine = self.updates.statements == ordinal
            ucosts = dict(zip(self.updates.columns[mine].tolist(),
                              self.updates.costs[mine].tolist()))
            for index, variable in self.z_variables.items():
                ucost = ucosts.get(variable.index)
                if index.table == update.table and ucost:
                    coefficients[variable] = (coefficients.get(variable, 0.0)
                                              + statement.weight * ucost)
        return LinearExpression(coefficients)

    def query_cost_expression(self, query: Query) -> LinearExpression:
        """The BIP expression of ``cost(q, X*)`` for one SELECT / query shell.

        A shell the workload repeats is read at its last occurrence.
        """
        shell_name = _shell(query).name
        ordinals = [ordinal for ordinal, statement in enumerate(self.workload)
                    if _shell(statement.query).name == shell_name]
        if not ordinals:
            return LinearExpression()
        mine = self.templates.statements == ordinals[-1]
        accesses = mine[self.accesses.templates]
        columns = np.concatenate((self.templates.columns[mine],
                                  self.accesses.columns[accesses]))
        costs = 0.0 + np.concatenate((self.templates.betas[mine],
                                      self.accesses.gammas[accesses]))
        return LinearExpression({self.model.column(column): cost
                                 for column, cost in zip(columns.tolist(),
                                                         costs.tolist())})

    def extract_configuration(self, solution: Solution) -> Configuration:
        """Read ``X* = {a | z_a = 1}`` out of a solver solution."""
        selected = [index for index, variable in self.z_variables.items()
                    if solution.value(variable) >= 0.5]
        return Configuration(selected, name="cophy-recommendation")

    def warm_start_from(self, configuration: Configuration) -> np.ndarray:
        """A feasible assignment (a column vector) selecting exactly
        ``configuration``.

        Used to warm-start re-tuning: the z variables follow the previous
        recommendation and, for every statement, the cheapest template/slot
        combination compatible with that configuration is switched on (ties
        go to the first template, and in a slot to the first access).
        """
        values = np.zeros(self.model.variable_count)
        # One more entry, read by the heap's index -1: always allowed.
        allowed = np.zeros(self.model.variable_count + 1, dtype=bool)
        allowed[-1] = True
        chosen = set(configuration.indexes)
        for index, variable in self.z_variables.items():
            if index in chosen:
                values[variable.index] = 1.0
                allowed[variable.index] = True
        accesses, templates = self.accesses, self.templates
        gammas = np.where(allowed[accesses.indexes], accesses.gammas,
                          INFEASIBLE_COST)
        # Per slot its cheapest allowed access, in slot-row order; added to
        # beta one slot at a time, so in each template's table order.
        picks = _group_minima(accesses.slot_rows, gammas)
        totals = templates.betas.copy()
        np.add.at(totals, accesses.templates[picks], gammas[picks])
        best = _group_minima(templates.statements, totals)
        best = best[totals[best] < INFEASIBLE_COST]
        values[templates.columns[best]] = 1.0
        values[accesses.columns[picks[np.isin(accesses.templates[picks],
                                              best)]]] = 1.0
        return values


class _Assembly:
    """Columns, rows and objective terms of a program under construction.

    Rows are collected as triplets, numbered from 0; objective terms in the
    order they are encoded, which is the order the objective's value is
    summed in.  A ``z`` coefficient accumulates across UPDATE statements but
    keeps its place at the first statement that touched it.
    """

    def __init__(self, first_column: int):
        self.first_column = self.columns = first_column
        self.templates = 0
        self.rows = 0
        self.triplets: list[tuple[np.ndarray, np.ndarray, float]] = []
        self.rhs: list[np.ndarray] = []
        self.kinds: list[np.ndarray] = []
        self.terms: list[tuple[np.ndarray, np.ndarray | None]] = []
        self.z_costs: dict[int, float] = {}
        self.tables: dict[type, list[_Table]] = {}

    def entries(self, rows: np.ndarray, columns: np.ndarray,
                value: float) -> None:
        """``value`` at every ``(rows[k], columns[k])``."""
        self.triplets.append((rows, columns, value))

    def add_rows(self, rhs: np.ndarray, kinds: np.ndarray) -> int:
        """Number ``len(rhs)`` more rows; returns the first one's number."""
        first = self.rows
        self.rhs.append(rhs)
        self.kinds.append(kinds)
        self.rows += len(rhs)
        return first

    def add(self, part: _Table) -> None:
        self.tables.setdefault(type(part), []).append(part)

    def update_cost(self, column: int, cost: float) -> None:
        if column not in self.z_costs:
            self.terms.append((np.array([column]), None))
            self.z_costs[column] = 0.0
        self.z_costs[column] = self.z_costs[column] + cost

    def table(self, kind: type) -> _Table:
        return kind.of(self.tables.get(kind, []))

    def row_block(self) -> RowBlock:
        if not self.triplets:
            return RowBlock.of(())
        rows, columns, values = zip(*self.triplets)
        return RowBlock.from_triplets(
            np.concatenate(rows), np.concatenate(columns),
            np.repeat(values, [part.size for part in rows]),
            np.concatenate(self.rhs), np.concatenate(self.kinds))

    def objective(self, base: Objective) -> Objective:
        """``base`` with the encoded terms appended."""
        columns = [base.columns]
        coefficients = [base.coefficients]
        for term_columns, values in self.terms:
            columns.append(term_columns)
            coefficients.append(values if values is not None else
                                np.array([self.z_costs[int(term_columns[0])]]))
        return Objective(np.concatenate(columns), np.concatenate(coefficients),
                         base.constant)


def _lay_out(gammas: list[np.ndarray], indexes: list[list[int]]):
    """The finite cells of per-slot gamma blocks, as ``x`` columns.

    ``gammas[t]`` holds slot ``t``'s gammas, a row per template and a
    column per access; ``indexes[t]`` the accesses' ``z`` columns (-1 for
    the heap).  Returns, for every finite cell in template, slot, access
    order: its slot (numbered template-major), its access's ``z`` column
    and its gamma.
    """
    templates, tables = gammas[0].shape[0], len(gammas)
    width = max(block.shape[1] for block in gammas)
    cells = np.full((templates, tables, width), INFEASIBLE_COST)
    columns = np.full((tables, width), -1, dtype=np.int64)
    for table, (block, accesses) in enumerate(zip(gammas, indexes)):
        cells[:, table, :block.shape[1]] = block
        columns[table, :len(accesses)] = accesses
    finite = np.flatnonzero(cells != INFEASIBLE_COST)
    slots, offsets = np.divmod(finite, width)
    return slots, columns[slots % tables, offsets], cells.ravel()[finite]


class BipBuilder:
    """Builds the Theorem-1 BIP from a workload, a candidate set and INUM."""

    def __init__(self, inum: InumCache):
        self._inum = inum
        self._optimizer = inum._optimizer  # shared what-if optimizer

    # -------------------------------------------------------------------- public
    # reprolint: requires-lock (reads/extends the shared gamma tensor; driven by
    # the advisor pipeline, which serializes per-context)
    def build(self, workload: Workload, candidates: CandidateSet,
              model_name: str = "cophy-bip",
              statement_weights: Mapping[str, float] | None = None,
              budget: "SolveBudget | None" = None) -> CophyBip:
        """Generate the BIP for the given tuning-problem instance.

        Args:
            workload: The workload being tuned.
            candidates: The candidate index universe.
            model_name: Name of the generated model.
            statement_weights: Optional per-statement weight overrides keyed
                by statement name.  Statements not in the mapping keep their
                workload weight.  Lets callers re-weight a BIP (e.g. cluster
                weights, what-if frequency studies) without materialising a
                re-weighted workload object; :meth:`extend` honours the same
                overrides for delta coefficients.
            budget: Optional anytime budget.  Model assembly on a large
                workload can dwarf a tight deadline, so the per-statement
                encoding loop checks it and aborts with
                :class:`~repro.exceptions.BuildInterrupted` — a partial model
                is never returned.

        Raises:
            BuildInterrupted: When ``budget``'s deadline fires mid-build.
        """
        model = Model(name=model_name)
        z_variables = {index: model.add_binary(f"z[{index.name}]")
                       for index in candidates}
        z_columns = {index: variable.index
                     for index, variable in z_variables.items()}

        # Coefficients are read through the workload gamma tensor (one batched
        # column registration for the whole candidate set up front), so the
        # BIP's gamma values come from the same stacked array every
        # ``workload_cost`` reduction reads.
        tensor = self._inum.workload_tensor(workload)
        tensor.ensure_columns(tuple(candidates))

        # The per-statement base-update costs (the ``c_q`` terms) do not depend
        # on the chosen configuration; the paper drops them from the BIP, we
        # keep them as the objective's constant so that the objective value
        # equals the INUM workload cost and stays directly interpretable.
        objective_constant = 0.0
        overrides = (dict(statement_weights)
                     if statement_weights is not None else None)
        assembly = _Assembly(model.variable_count)
        for ordinal, statement in enumerate(workload):
            if budget is not None and budget.expired():
                raise BuildInterrupted(
                    f"Anytime deadline fired while building "
                    f"{model_name!r}; {ordinal} of {len(workload)} "
                    f"statements encoded")
            weight = statement.weight
            if overrides is not None:
                weight = overrides.get(statement.query.name, weight)
            self._encode_statement(ordinal, statement.query, weight,
                                   candidates, z_columns, tensor, assembly)
            if isinstance(statement.query, UpdateQuery):
                objective_constant += (weight
                                       * self._optimizer.base_update_cost(
                                           statement.query))

        model.add_columns(assembly.columns - assembly.first_column)
        rows = model.add_rows(assembly.row_block())
        empty = np.zeros(0, dtype=np.int64)
        model.set_objective(assembly.objective(
            Objective(empty, np.zeros(0), objective_constant)))
        bip = CophyBip(
            model=model, workload=workload, candidates=candidates,
            z_variables=z_variables, rows=rows,
            templates=assembly.table(TemplateColumns),
            accesses=assembly.table(AccessColumns),
            updates=assembly.table(UpdateCosts),
            statement_weights=overrides)
        self._count(bip)
        return bip

    # reprolint: requires-lock (see build: caller serializes)
    def extend(self, bip: CophyBip, added_candidates: Iterable[Index]) -> CophyBip:
        """Incrementally extend an existing BIP with new candidate indexes.

        This is the "delta BIP" of interactive tuning: INUM's cache and all
        existing columns and rows are reused; the new candidates' columns
        are appended, their ``x <= z`` rows follow every stored row, and the
        one-access rows of the slots they serve grow in place.  Rebuilding
        from scratch is never required.
        """
        added = [index for index in added_candidates if index not in bip.candidates]
        if not added:
            return bip
        model = bip.model
        for index in added:
            bip.candidates.add(index)
            bip.z_variables[index] = model.add_binary(f"z[{index.name}]")
        z_columns = {index: bip.z_variables[index].index for index in added}

        tensor = self._inum.workload_tensor(bip.workload)
        tensor.ensure_columns(added)  # one batched registration
        assembly = _Assembly(model.variable_count)
        for ordinal, statement in enumerate(bip.workload):
            self._extend_statement(ordinal, statement.query,
                                   bip.weight_of(statement), added, z_columns,
                                   bip, tensor, assembly)
        model.add_columns(assembly.columns - assembly.first_column)
        model.add_rows(assembly.row_block())
        accesses = assembly.table(AccessColumns)
        bip.rows = model.grow_rows(bip.rows, accesses.slot_rows,
                                   accesses.columns,
                                   np.ones(accesses.columns.size))
        model.set_objective(assembly.objective(model.objective))
        bip.accesses = AccessColumns.of([bip.accesses, accesses])
        bip.updates = UpdateCosts.of([bip.updates,
                                      assembly.table(UpdateCosts)])
        self._count(bip)
        return bip

    # ----------------------------------------------------------------- internals
    @staticmethod
    def _count(bip: CophyBip) -> None:
        bip.statistics["variables"] = float(bip.model.variable_count)
        bip.statistics["constraints"] = float(bip.model.constraint_count)
        bip.statistics["candidates"] = float(len(bip.candidates))

    def _encode_statement(self, ordinal: int, query: Query, weight: float,
                          candidates: CandidateSet,
                          z_columns: Mapping[Index, int],
                          tensor: WorkloadGammaTensor,
                          assembly: _Assembly) -> None:
        shell = _shell(query)
        templates = self._inum.build(shell)
        view = tensor.view(shell.name)
        gammas: list[np.ndarray] = []
        indexes: list[list[int]] = []
        for table, relevant in zip(shell.tables,
                                   self._relevant(shell, candidates.for_table)):
            gammas.append(view.slot_block(table, [NO_INDEX, *relevant]))
            indexes.append([-1, *(z_columns[index] for index in relevant)])
        # A template is usable when every slot has a finite access.
        positions = np.flatnonzero(np.logical_and.reduce(
            [(block != INFEASIBLE_COST).any(axis=1) for block in gammas]))
        if not positions.size:
            raise SolverError(
                f"No feasible template plan for statement {shell.name!r}")
        slots, accesses, costs = _lay_out(
            [block[positions] for block in gammas], indexes)

        usable, tables = len(positions), len(shell.tables)
        y_columns = assembly.columns + np.arange(usable)
        x_columns = assembly.columns + usable + np.arange(len(slots))
        assembly.columns += usable + len(slots)
        betas = np.array([templates[position].internal_cost
                          for position in positions])

        # Row order: the one-template row, then per slot its select rows
        # (one per index access) followed by its one-access row.
        select = np.flatnonzero(accesses >= 0)
        selects = np.bincount(slots[select], minlength=usable * tables)
        slot_rows = np.cumsum(selects + 1)
        select_rows = (slot_rows - selects)[slots[select]] + (
            np.arange(select.size) - (np.cumsum(selects) - selects)[slots[select]])
        kinds = np.full(1 + slot_rows[-1], RowKind.LESS_EQUAL, dtype=np.int8)
        kinds[0] = RowKind.EQUAL
        kinds[slot_rows] = RowKind.RELAXABLE
        rhs = np.full(kinds.size, -0.0)
        rhs[0] = 1.0
        first = assembly.add_rows(rhs, kinds)
        slot_rows += first
        select_rows += first
        assembly.entries(np.full(usable, first), y_columns, 1.0)
        assembly.entries(select_rows, accesses[select], -1.0)
        assembly.entries(select_rows, x_columns[select], 1.0)
        assembly.entries(slot_rows,
                         y_columns[np.arange(usable * tables) // tables], -1.0)
        assembly.entries(slot_rows[slots], x_columns, 1.0)

        assembly.terms.append((
            np.concatenate((y_columns, x_columns)),
            0.0 + weight * np.concatenate((betas, costs))))
        assembly.add(TemplateColumns(y_columns, np.full(usable, ordinal),
                                     positions, betas))
        assembly.add(AccessColumns(x_columns,
                                   assembly.templates + slots // tables,
                                   slot_rows[slots], accesses, costs))
        assembly.templates += usable
        if isinstance(query, UpdateQuery):
            self._encode_update_cost(ordinal, query, weight,
                                     candidates.for_table(query.table),
                                     z_columns, assembly)

    def _encode_update_cost(self, ordinal: int, update: UpdateQuery,
                            weight: float, indexes: Iterable[Index],
                            z_columns: Mapping[Index, int],
                            assembly: _Assembly) -> None:
        columns, costs = [], []
        for index in indexes:
            if index.table != update.table:
                continue
            ucost = self._optimizer.update_maintenance_cost(index, update)
            if ucost <= 0.0:
                continue
            columns.append(z_columns[index])
            costs.append(ucost)
            assembly.update_cost(z_columns[index], weight * ucost)
        assembly.add(UpdateCosts(np.full(len(columns), ordinal),
                                 np.array(columns, dtype=np.int64),
                                 np.array(costs)))

    @staticmethod
    def _relevant(shell: Query, indexes_on: Callable[[str], Iterable[Index]]
                  ) -> list[list[Index]]:
        """Per table of ``shell``, the indexes (from ``indexes_on(table)``)
        that could plausibly serve its slot: the leading key column is
        referenced by the query on that table, or the index covers every
        referenced column."""
        referenced: dict[str, set[str]] = {}
        for column in shell.referenced_columns():
            referenced.setdefault(column.table, set()).add(column.column)
        return [[index for index in indexes_on(table)
                 if index.leading_column in columns
                 or columns.issubset(index.all_columns)]
                if (columns := referenced.get(table)) else []
                for table in shell.tables]

    def _extend_statement(self, ordinal: int, query: Query, weight: float,
                          added: list[Index], z_columns: Mapping[Index, int],
                          bip: CophyBip, tensor: WorkloadGammaTensor,
                          assembly: _Assembly) -> None:
        shell = _shell(query)
        view = tensor.view(shell.name)
        mine = np.flatnonzero(bip.templates.statements == ordinal)
        gammas: list[np.ndarray] = []
        indexes: list[list[int]] = []
        for table, relevant in zip(shell.tables, self._relevant(
                shell, lambda table: [index for index in added
                                      if index.table == table])):
            gammas.append(view.slot_block(table, relevant)[
                bip.templates.positions[mine]])
            indexes.append([z_columns[index] for index in relevant])
        slots, accesses, costs = _lay_out(gammas, indexes)
        # The statement's one-access rows, template-major like ``slots``.
        slot_rows = np.unique(bip.accesses.slot_rows[
            np.isin(bip.accesses.templates, mine)])[slots]
        x_columns = assembly.columns + np.arange(len(slots))
        assembly.columns += len(slots)
        select_rows = assembly.add_rows(
            np.full(len(slots), -0.0),
            np.full(len(slots), RowKind.LESS_EQUAL, dtype=np.int8)
        ) + np.arange(len(slots))
        assembly.entries(select_rows, accesses, -1.0)
        assembly.entries(select_rows, x_columns, 1.0)
        assembly.terms.append((x_columns, 0.0 + weight * costs))
        assembly.add(AccessColumns(x_columns,
                                   mine[slots // len(shell.tables)],
                                   slot_rows, accesses, costs))
        if isinstance(query, UpdateQuery):
            self._encode_update_cost(ordinal, query, weight, added, z_columns,
                                     assembly)


def _shell(query: Query) -> Query:
    """The query a statement is costed as (an UPDATE's query shell)."""
    return query.query_shell() if isinstance(query, UpdateQuery) else query


def _group_minima(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per group in ascending order, the entry with the least value (the
    first one on ties)."""
    order = np.lexsort((np.arange(len(values)), values, groups))
    return order[np.diff(groups[order], prepend=-1) != 0]
