"""Exception types and the one search budget type shared across the package.

Invalid arguments raise the stdlib ValueError everywhere; only outcomes that
callers are expected to branch on get their own class.
"""

import time

# Default node budget of every search: solver assignments, sequence
# expansions and the projected sizes of the two sweeps alike.
DEFAULT_NODE_BUDGET = 100_000_000


class NoSuchSequenceError(Exception):
    """A constrained sequence search exhausted: no sequence with the requested
    properties exists at the requested length."""


class ResourceLimitError(Exception):
    """A search exceeded its node or time budget before reaching a decision."""


class Budget:
    """A node limit and an optional deadline, ``time_budget`` seconds from
    now, that a search charges as it goes.  ``spent`` counts every node
    charged, including the one that ran out, so one budget can be shared by
    several searches.  Every search that takes a budget takes this type."""

    __slots__ = ("max_nodes", "deadline", "spent")

    def __init__(self, max_nodes: float = DEFAULT_NODE_BUDGET, time_budget: float = float("inf")):
        self.max_nodes = max_nodes
        self.deadline = None if time_budget == float("inf") else time.monotonic() + time_budget
        self.spent = 0

    def charge(self, n: int = 1) -> None:
        """Account for n nodes; raise ResourceLimitError once the budget is gone."""
        self.spent += n
        if self.spent > self.max_nodes:
            raise ResourceLimitError(f"search exceeded its budget of {self.max_nodes} nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("search exceeded its time budget")
