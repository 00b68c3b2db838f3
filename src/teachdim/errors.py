"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search hit its configured budget before finishing.

    Raised instead of silently truncating, so callers can distinguish
    "search completed, nothing found" from "search gave up".
    """

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what}: budget of {limit} exceeded")
        self.what = what
        self.limit = limit

    def __reduce__(self):
        # rebuilt from (what, limit), so it survives a worker process
        return type(self), (self.what, self.limit)


class GraphFormatError(ValueError):
    """Malformed graph text input."""


class ClassFormatError(ValueError):
    """Malformed concept-class text input."""


class PreferenceCycleError(ValueError):
    """A preference construction produced a cycle (not a strict partial order)."""


class TeacherPreconditionError(ValueError):
    """A constructive teacher was asked for a graph outside its precondition."""
