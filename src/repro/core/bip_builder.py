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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.exceptions import BuildInterrupted, SolverError, WorkloadError
from repro.indexes.candidate_generation import CandidateSet
from repro.indexes.configuration import Configuration
from repro.indexes.index import Index
from repro.inum.cache import InumCache
from repro.inum.workload_tensor import QueryTensorView, WorkloadGammaTensor
from repro.lp.budget import SolveBudget
from repro.lp.constraint import Constraint
from repro.lp.expression import LinearExpression
from repro.lp.model import Model
from repro.lp.solution import Solution
from repro.lp.variable import Variable
from repro.workload.query import Query, UpdateQuery
from repro.workload.workload import Workload

__all__ = ["BipBuilder", "CophyBip", "SlotKey"]

#: ``I_0`` — the "no index" access method, represented as ``None`` in slot maps.
NO_INDEX = None


@dataclass(frozen=True)
class SlotKey:
    """Identifies one slot variable family: (query, template index, table)."""

    query_name: str
    template_position: int
    table: str


@dataclass
class CophyBip:
    """The generated BIP plus the bookkeeping needed to interpret solutions."""

    model: Model
    workload: Workload
    candidates: CandidateSet
    z_variables: dict[Index, Variable]
    y_variables: dict[tuple[str, int], Variable]
    x_variables: dict[SlotKey, dict[Index | None, Variable]]
    cost_expression: LinearExpression
    statistics: dict[str, float] = field(default_factory=dict)
    slot_constraints: dict[SlotKey, Constraint] = field(default_factory=dict)
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
        for statement in self.workload.update_statements():
            update = statement.query
            if not isinstance(update, UpdateQuery):
                raise WorkloadError(
                    f"statement '{getattr(update, 'name', update)}' is "
                    "classified as an update but its query is "
                    f"{type(update).__name__}")
            for index, variable in self.z_variables.items():
                if index.table != update.table:
                    continue
                ucost = self.statistics.get(f"ucost::{update.name}::{index.name}")
                if ucost:
                    coefficients[variable] = (coefficients.get(variable, 0.0)
                                              + statement.weight * ucost)
        return LinearExpression(coefficients)

    def query_cost_expression(self, query: Query) -> LinearExpression:
        """The BIP expression of ``cost(q, X*)`` for one SELECT / query shell."""
        terms: dict[Variable, float] = {}
        shell_name = self._shell_name(query)
        for (query_name, position), y_variable in self.y_variables.items():
            if query_name != shell_name:
                continue
            beta = self.statistics.get(f"beta::{query_name}::{position}", 0.0)
            terms[y_variable] = terms.get(y_variable, 0.0) + beta
        for slot, access_variables in self.x_variables.items():
            if slot.query_name != shell_name:
                continue
            for access, variable in access_variables.items():
                gamma = self.statistics.get(self._gamma_key(slot, access), 0.0)
                terms[variable] = terms.get(variable, 0.0) + gamma
        return LinearExpression(terms)

    def extract_configuration(self, solution: Solution) -> Configuration:
        """Read ``X* = {a | z_a = 1}`` out of a solver solution."""
        selected = [index for index, variable in self.z_variables.items()
                    if solution.value(variable) >= 0.5]
        return Configuration(selected, name="cophy-recommendation")

    def warm_start_from(self, configuration: Configuration
                        ) -> dict[Variable, float]:
        """A feasible assignment that selects exactly ``configuration``.

        Used to warm-start re-tuning: the z variables follow the previous
        recommendation and, for every query, the cheapest template/slot
        combination compatible with that configuration is switched on.
        """
        values: dict[Variable, float] = {variable: 0.0
                                         for variable in self.model.variables}
        chosen = set(configuration.indexes)
        for index, variable in self.z_variables.items():
            values[variable] = 1.0 if index in chosen else 0.0
        by_query: dict[str, list[tuple[int, Variable]]] = {}
        for (query_name, position), variable in self.y_variables.items():
            by_query.setdefault(query_name, []).append((position, variable))
        for query_name, templates in by_query.items():
            best_choice = None
            for position, y_variable in templates:
                total = self.statistics.get(f"beta::{query_name}::{position}",
                                            0.0)
                slot_choices: list[tuple[SlotKey, Variable]] = []
                feasible = True
                for slot, access_variables in self.x_variables.items():
                    if slot.query_name != query_name or slot.template_position != position:
                        continue
                    best_access = None
                    for access, x_variable in access_variables.items():
                        if access is not NO_INDEX and access not in chosen:
                            continue
                        gamma = self.statistics.get(self._gamma_key(slot, access))
                        if gamma is None:
                            continue
                        if best_access is None or gamma < best_access[0]:
                            best_access = (gamma, x_variable)
                    if best_access is None:
                        feasible = False
                        break
                    total += best_access[0]
                    slot_choices.append((slot, best_access[1]))
                if not feasible:
                    continue
                if best_choice is None or total < best_choice[0]:
                    best_choice = (total, y_variable, slot_choices)
            if best_choice is None:
                continue
            _, y_variable, slot_choices = best_choice
            values[y_variable] = 1.0
            for _, x_variable in slot_choices:
                values[x_variable] = 1.0
        return values

    @staticmethod
    def _shell_name(query: Query) -> str:
        if isinstance(query, UpdateQuery):
            return query.query_shell().name
        return query.name

    @staticmethod
    def _gamma_key(slot: SlotKey, access: Index | None) -> str:
        access_name = "I0" if access is NO_INDEX else access.name
        return (f"gamma::{slot.query_name}::{slot.template_position}::"
                f"{slot.table}::{access_name}")


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
        statistics: dict[str, float] = {}

        z_variables: dict[Index, Variable] = {}
        for index in candidates:
            z_variables[index] = model.add_binary(f"z[{index.name}]")

        y_variables: dict[tuple[str, int], Variable] = {}
        x_variables: dict[SlotKey, dict[Index | None, Variable]] = {}
        objective_terms: dict[Variable, float] = {}
        slot_constraints: dict[SlotKey, Constraint] = {}

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
        for encoded, statement in enumerate(workload):
            if budget is not None and budget.expired():
                raise BuildInterrupted(
                    f"Anytime deadline fired while building "
                    f"{model_name!r}; {encoded} of {len(workload)} "
                    f"statements encoded")
            weight = statement.weight
            if overrides is not None:
                weight = overrides.get(statement.query.name, weight)
            self._encode_statement(statement.query, weight, candidates,
                                   model, z_variables, y_variables, x_variables,
                                   objective_terms, statistics, slot_constraints,
                                   tensor)
            if isinstance(statement.query, UpdateQuery):
                objective_constant += (weight
                                       * self._optimizer.base_update_cost(
                                           statement.query))

        cost_expression = LinearExpression(objective_terms, objective_constant)
        model.set_objective(cost_expression)

        bip = CophyBip(
            model=model,
            workload=workload,
            candidates=candidates,
            z_variables=z_variables,
            y_variables=y_variables,
            x_variables=x_variables,
            cost_expression=cost_expression,
            statistics=statistics,
            slot_constraints=slot_constraints,
            statement_weights=overrides,
        )
        bip.statistics["variables"] = float(model.variable_count)
        bip.statistics["constraints"] = float(model.constraint_count)
        bip.statistics["candidates"] = float(len(candidates))
        return bip

    # reprolint: requires-lock (see build: caller serializes)
    def extend(self, bip: CophyBip, added_candidates: Iterable[Index]) -> CophyBip:
        """Incrementally extend an existing BIP with new candidate indexes.

        This is the "delta BIP" of interactive tuning: INUM's cache and all
        existing variables/constraints are reused; only variables and rows
        involving the new candidates are added.  Rebuilding from scratch is
        never required.
        """
        added = [index for index in added_candidates if index not in bip.candidates]
        if not added:
            return bip
        model = bip.model
        for index in added:
            bip.candidates.add(index)
            bip.z_variables[index] = model.add_binary(f"z[{index.name}]")

        tensor = self._inum.workload_tensor(bip.workload)
        tensor.ensure_columns(added)  # one batched registration
        objective_terms = bip.cost_expression.terms
        objective_constant = bip.cost_expression.constant
        for statement in bip.workload:
            self._extend_statement(statement.query, bip.weight_of(statement),
                                   added, bip, objective_terms, tensor)
        bip.cost_expression = LinearExpression(objective_terms, objective_constant)
        model.set_objective(bip.cost_expression)
        bip.statistics["variables"] = float(model.variable_count)
        bip.statistics["constraints"] = float(model.constraint_count)
        bip.statistics["candidates"] = float(len(bip.candidates))
        return bip

    # ----------------------------------------------------------------- internals
    def _encode_statement(self, query: Query, weight: float,
                          candidates: CandidateSet, model: Model,
                          z_variables: Mapping[Index, Variable],
                          y_variables: dict[tuple[str, int], Variable],
                          x_variables: dict[SlotKey, dict[Index | None, Variable]],
                          objective_terms: dict[Variable, float],
                          statistics: dict[str, float],
                          slot_constraints: dict[SlotKey, Constraint],
                          tensor: WorkloadGammaTensor) -> None:
        shell = query.query_shell() if isinstance(query, UpdateQuery) else query
        templates = self._inum.build(shell)
        view = tensor.view(shell.name)
        # Relevance filtering and column registration are position-independent:
        # do them once per table, not once per (template, table).
        per_table_accesses: dict[str, list[Index | None]] = {}
        for table in shell.tables:
            referenced = {c.column for c in shell.referenced_columns_on(table)}
            accesses: list[Index | None] = [NO_INDEX]
            accesses.extend(index for index in candidates.for_table(table)
                            if self._relevant(index, referenced))
            per_table_accesses[table] = accesses
            view.ensure_columns(accesses)

        usable_positions: list[int] = []
        per_position_slots: dict[int, dict[str, dict[Index | None, float]]] = {}
        for position in range(len(templates)):
            slots = self._slot_access_costs(position, per_table_accesses, view)
            if slots is None:
                continue
            usable_positions.append(position)
            per_position_slots[position] = slots
        if not usable_positions:
            raise SolverError(
                f"No feasible template plan for statement {shell.name!r}")

        y_of_position: dict[int, Variable] = {}
        for position in usable_positions:
            y_variable = model.add_binary(f"y[{shell.name}][{position}]")
            y_variables[(shell.name, position)] = y_variable
            y_of_position[position] = y_variable
            beta = templates[position].internal_cost
            statistics[f"beta::{shell.name}::{position}"] = beta
            objective_terms[y_variable] = (objective_terms.get(y_variable, 0.0)
                                           + weight * beta)

        # Exactly one template per statement.
        model.add_constraint(
            LinearExpression.sum_of(list(y_of_position.values())) == 1.0,
            name=f"one_template[{shell.name}]")

        for position in usable_positions:
            slots = per_position_slots[position]
            y_variable = y_of_position[position]
            for table, access_costs in slots.items():
                slot = SlotKey(shell.name, position, table)
                access_variables: dict[Index | None, Variable] = {}
                for access, gamma in access_costs.items():
                    access_name = "I0" if access is NO_INDEX else access.name
                    x_variable = model.add_binary(
                        f"x[{shell.name}][{position}][{table}][{access_name}]")
                    access_variables[access] = x_variable
                    statistics[CophyBip._gamma_key(slot, access)] = gamma
                    objective_terms[x_variable] = (
                        objective_terms.get(x_variable, 0.0) + weight * gamma)
                    if access is not NO_INDEX:
                        # z_a >= x_qkia
                        model.add_constraint(
                            (1.0 * x_variable) - (1.0 * z_variables[access]) <= 0.0,
                            name=f"select[{x_variable.name}]")
                x_variables[slot] = access_variables
                # Exactly one access method per slot of the chosen template.
                slot_constraints[slot] = model.add_constraint(
                    LinearExpression.sum_of(list(access_variables.values()))
                    - (1.0 * y_variable) == 0.0,
                    name=f"one_access[{shell.name}][{position}][{table}]")

        if isinstance(query, UpdateQuery):
            self._encode_update_cost(query, weight, candidates, z_variables,
                                     objective_terms, statistics)

    def _encode_update_cost(self, update: UpdateQuery, weight: float,
                            candidates: CandidateSet,
                            z_variables: Mapping[Index, Variable],
                            objective_terms: dict[Variable, float],
                            statistics: dict[str, float]) -> None:
        for index in candidates.for_table(update.table):
            ucost = self._optimizer.update_maintenance_cost(index, update)
            if ucost <= 0.0:
                continue
            statistics[f"ucost::{update.name}::{index.name}"] = ucost
            variable = z_variables[index]
            objective_terms[variable] = (objective_terms.get(variable, 0.0)
                                         + weight * ucost)

    @staticmethod
    def _slot_access_costs(position: int,
                           per_table_accesses: Mapping[str, list[Index | None]],
                           view: QueryTensorView
                           ) -> dict[str, dict[Index | None, float]] | None:
        """Finite-gamma access methods per slot, or ``None`` if a slot has none.

        The caller has registered the accesses' columns, so each slot's
        coefficients are read as one row slice of the stacked array.
        """
        slots: dict[str, dict[Index | None, float]] = {}
        for table, accesses in per_table_accesses.items():
            gammas = view.slot_costs(position, table, accesses,
                                     registered=True)
            access_costs = {access: gamma
                            for access, gamma in zip(accesses, gammas)
                            if gamma != float("inf")}
            if not access_costs:
                return None
            slots[table] = access_costs
        return slots

    @staticmethod
    def _relevant(index: Index, referenced_columns: set[str]) -> bool:
        """Whether an index could plausibly serve a slot of this query."""
        if not referenced_columns:
            return False
        if index.leading_column in referenced_columns:
            return True
        return index.covers(referenced_columns)

    def _extend_statement(self, query: Query, weight: float, added: list[Index],
                          bip: CophyBip,
                          objective_terms: dict[Variable, float],
                          tensor: WorkloadGammaTensor) -> None:
        shell = query.query_shell() if isinstance(query, UpdateQuery) else query
        templates = self._inum.build(shell)
        view = tensor.view(shell.name)
        model = bip.model
        for position in range(len(templates)):
            for table in shell.tables:
                slot = SlotKey(shell.name, position, table)
                access_variables = bip.x_variables.get(slot)
                if access_variables is None:
                    continue
                slot_constraint = bip.slot_constraints.get(slot)
                referenced = {c.column for c in shell.referenced_columns_on(table)}
                for index in added:
                    if index.table != table or not self._relevant(index, referenced):
                        continue
                    gamma = view.value(position, table, index)
                    if gamma == float("inf"):
                        continue
                    x_variable = model.add_binary(
                        f"x[{shell.name}][{position}][{table}][{index.name}]")
                    access_variables[index] = x_variable
                    bip.statistics[CophyBip._gamma_key(slot, index)] = gamma
                    objective_terms[x_variable] = (
                        objective_terms.get(x_variable, 0.0) + weight * gamma)
                    model.add_constraint(
                        (1.0 * x_variable) - (1.0 * bip.z_variables[index]) <= 0.0,
                        name=f"select[{x_variable.name}]")
                    # Grow the slot's assignment row in place so the new access
                    # method becomes a legal choice for this slot.
                    if slot_constraint is not None:
                        slot_constraint.expression = (
                            slot_constraint.expression + (1.0 * x_variable))
                        model.invalidate_cache()
        if isinstance(query, UpdateQuery):
            for index in added:
                if index.table != update_table(query):
                    continue
                ucost = self._optimizer.update_maintenance_cost(index, query)
                if ucost <= 0.0:
                    continue
                bip.statistics[f"ucost::{query.name}::{index.name}"] = ucost
                variable = bip.z_variables[index]
                objective_terms[variable] = (objective_terms.get(variable, 0.0)
                                             + weight * ucost)


def update_table(update: UpdateQuery) -> str:
    """The table written by an UPDATE statement (helper for readability)."""
    return update.table
