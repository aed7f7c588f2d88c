"""Exception hierarchy shared across the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors, mirroring
how CoPhy reports infeasible tuning problems back to the DBA.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CatalogError(ReproError):
    """Raised for schema / statistics inconsistencies (unknown tables, columns)."""


class WorkloadError(ReproError):
    """Raised for malformed queries or workloads."""


class ParseError(WorkloadError):
    """Raised when the SQL-subset parser cannot understand a statement."""


class IndexDefinitionError(ReproError):
    """Raised when an index definition is invalid (empty key, cross-table columns)."""


class OptimizerError(ReproError):
    """Raised when the what-if optimizer cannot produce a plan for a query."""


class SolverError(ReproError):
    """Raised when the LP / BIP machinery fails (unbounded model, bad variable use)."""


class BuildInterrupted(SolverError):
    """Raised when an anytime deadline fires while a BIP is still being built.

    A partially built model is unusable (statements without their assignment
    rows would be costed as free), so the builder aborts instead of returning
    one; budget-aware callers catch this and fall back to their incumbent.
    """


class SolveInterrupted(SolverError):
    """Raised when a solve's time limit fires before its first incumbent.

    The clock, not the program, stopped the solve; a caller with a feasible
    fallback answer (the greedy's, or the empty configuration) gives that.
    """


class InfeasibleProblemError(SolverError):
    """Raised when the hard constraints of a tuning problem cannot all be satisfied.

    CoPhy surfaces this to the DBA (Figure 3, line 2 of the Solver pseudo-code)
    so that offending constraints can be removed or converted to soft constraints.
    """

    def __init__(self, message: str = "Tuning problem is infeasible",
                 violated_constraints: tuple[str, ...] = ()):
        super().__init__(message)
        self.violated_constraints = tuple(violated_constraints)


class ConstraintError(ReproError):
    """Raised when a DBA constraint cannot be translated to linear form."""


class ServerOverloaded(ReproError):
    """Raised when admission control rejects a request (queue full).

    Maps to HTTP 429 with a ``Retry-After`` header on the wire;
    ``retry_after_s`` is the server's backoff hint, which
    :class:`~repro.reliability.retry.RetryPolicy` honors as a delay floor.
    """

    def __init__(self, message: str = "Tuning service is overloaded",
                 retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s
