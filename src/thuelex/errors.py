"""Exception types and the default search budget shared across the package.

Invalid arguments raise the stdlib ValueError everywhere; only outcomes that
callers are expected to branch on get their own class.
"""

# Default node budget of every search: solver assignments, sequence
# expansions and projected walk counts alike.
DEFAULT_NODE_BUDGET = 100_000_000


class NoSuchSequenceError(Exception):
    """A constrained sequence search exhausted: no sequence with the requested
    properties exists at the requested length."""


class ResourceLimitError(Exception):
    """A search exceeded its node or time budget before reaching a decision.

    May carry a partial result in ``partial`` (e.g. the failed coloring
    attempt of a fallback search)."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
