"""Shared exception types.

The CLI maps these onto its exit codes: contradictions exit 1, budget or
capability limits exit 2, malformed input exits 3.
"""

from __future__ import annotations

# Here, not in an engine module, because the CLI's parser reads it.
DEFAULT_BUDGET = 10_000_000


class OrdpolyError(Exception):
    """Base class for all library errors."""


class MalformedInputError(OrdpolyError):
    """Input file or request that cannot be interpreted."""


class ContradictionError(OrdpolyError):
    """Raised when an operation requires a consistent constraint set.

    ``witness`` holds the offending chain as variable names, ordered so that
    each consecutive pair is a constraint of the closed set and the chain
    leads from a larger pinned value to a smaller one.
    """

    def __init__(self, message: str, witness: tuple[str, ...] = ()):
        super().__init__(message)
        self.witness = witness


class PersistentTieError(OrdpolyError):
    """Raised by operations that require a tie-free constraint set."""


class BudgetExceededError(OrdpolyError):
    """The linear-extension count exceeds the configured budget.

    ``lower_bound`` is a proven lower bound on the extension count at the
    moment the guard fired (it may be far below the true count); ``where``
    names the part that tripped the guard, when one did; ``remedy``, what
    to use instead (the lattice, which ``auto`` runs, names the sampler).
    """

    def __init__(
        self,
        budget: int,
        lower_bound: int,
        where: str = "",
        remedy: str = "--engine auto, which answers part by part, or the sampler",
    ):
        super().__init__(
            f"{where + ': ' if where else ''}more than {budget} linear "
            f"extensions (count is at least {lower_bound}); use {remedy} "
            "for an estimate"
        )
        self.budget = budget
        self.lower_bound = lower_bound


def _check_budget(budget: int) -> None:
    """Reject a negative budget: it is malformed input, not a limit."""
    if budget < 0:
        raise MalformedInputError(f"the budget must be at least 0, got {budget}")


class LimitExceededError(OrdpolyError):
    """A non-budget capability limit was hit (e.g. sequence-table size)."""


class ShapeError(LimitExceededError):
    """A tree-engine operation was asked for a part that is not
    (reverse-)tree-shaped.  Callers should fall back to the exact engine
    or the sampler."""


class SamplerError(OrdpolyError):
    """The random walk could not make progress."""
