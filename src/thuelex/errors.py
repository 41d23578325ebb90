"""Exception types, the one search budget type and the frozen-value base
shared across the package.

Invalid arguments raise the stdlib ValueError everywhere; only outcomes that
callers are expected to branch on get their own class.  ``FrozenValue`` gives
every value type of the package (graphs, colorings, sequences, results and
witnesses) construction, equality, hashing, a repr and immutability from plain
methods, so that a command's start-up imports no class generator (nor
``inspect``, which such generators pull in) and generates no code.  The base
alone stores a value's fields; a value type declares them and, where it has
invariants, checks them.
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


class FrozenValue:
    """Immutable value data.  A subclass declares its fields, in order, as
    class annotations, and is built from one positional value per field,
    which the base stores in that declared order.  A subclass defines
    ``__init__`` only to validate its fields (ValueError for an invalid one)
    and then calls ``super().__init__`` with them.  A wrong number of fields
    raises TypeError.  Values of the same class are equal when their fields
    are, and equal values hash alike; a value never equals one of another
    class.  Assigning or deleting an attribute raises AttributeError.
    Instances keep a ``__dict__``, so ``copy``, ``deepcopy`` and ``pickle``
    restore the fields without calling ``__init__``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            name = self.__class__.__qualname__
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(values)}")
        self.__dict__.update(zip(fields, values))

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")
