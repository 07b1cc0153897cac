"""Exception types shared across the solver suite."""


class WardallocError(Exception):
    """Base class for every package-specific error."""


class InvalidInstanceError(WardallocError):
    """A scenario instance, profile, or scenario file violates a structural invariant."""


class InstanceTooLargeError(WardallocError):
    """A size guard on the work or memory a run would need, or on the size of
    a number it writes, was exceeded."""


class GenerationError(WardallocError):
    """No instance of the requested profile: it cannot hold at the requested
    size, or rejection sampling found none within the iteration cap."""


class BudgetExceededError(WardallocError):
    """An excellence set was evaluated although its upgrade cost does not fit the budget."""


class AssumptionViolationError(WardallocError):
    """An operation requires a cost-structure assumption that the instance violates."""
