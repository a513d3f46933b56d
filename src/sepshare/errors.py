"""Error taxonomy shared across the package.

Every exception carries a short machine-readable code (the class name) and
a human message.  Callers that need to distinguish input errors from
internal assertion failures can catch `InputError` vs `InternalInvariant`.
"""

from __future__ import annotations


class SepshareError(Exception):
    """Base class for all package errors."""


class InputError(SepshareError):
    """Malformed or inconsistent input data."""


class InfeasibleProfile(InputError):
    """A strategy profile contains a choice outside the player's space."""


class NotABasis(InputError):
    """An edge/element set is not a basis of the player's matroid."""


class NotEnforceable(SepshareError):
    """The requested profile admits no separable protocol making it stable."""


class UnsupportedSpace(InputError):
    """Operation requires a different strategy-space kind than supplied."""


class Disconnected(InputError):
    """Required connectivity is missing (e.g. no source-terminal path)."""


class NotSeriesParallel(InputError):
    """The relevant subgraph is not two-terminal series-parallel."""


class NoTightAlternative(SepshareError):
    """No tight alternative exists for an unpaid edge; theory precondition
    unmet, usually a sign the share vector is not an LP optimum."""


class BudgetExceeded(SepshareError):
    """An enumeration budget would be exceeded; results are never truncated
    silently, the caller must raise the budget or shrink the instance."""


class InvalidCostOracle(InputError):
    """A cost oracle violated monotonicity or subadditivity on queried sets."""


class InvalidMatroid(InputError):
    """An independence oracle violated a matroid axiom."""


class InternalInvariant(SepshareError):
    """A property guaranteed by theory failed at runtime.  Indicates either
    a bug or an input that silently violates a precondition."""
