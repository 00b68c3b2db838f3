"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search hit its configured budget before finishing.

    Raised instead of silently truncating, so callers can distinguish
    "search completed, nothing found" from "search gave up".  A
    teaching-set search also says how far it got: the size k it had
    reached, how many of its concepts were ``left`` without a teaching
    set, and the ``work`` done (walk nodes).
    """

    def __init__(self, what: str, limit: int, k: int | None = None,
                 left: int | None = None, work: int | None = None):
        text = f"{what}: budget of {limit} exceeded"
        if k is not None:
            text += (f" at k={k}, with {left} concepts still without a "
                     f"teaching set, after {work} walk nodes")
        super().__init__(text)
        self.what = what
        self.limit = limit
        self.k = k
        self.left = left
        self.work = work


class GraphFormatError(ValueError):
    """Malformed graph text input."""


class ClassFormatError(ValueError):
    """Malformed concept-class text input."""


class PreferenceCycleError(ValueError):
    """A preference construction produced a cycle (not a strict partial order)."""


class TeacherPreconditionError(ValueError):
    """A constructive teacher was asked for a graph outside its precondition."""
