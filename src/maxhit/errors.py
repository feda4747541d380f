"""Exception types shared across the package."""

from __future__ import annotations


class MaxhitError(Exception):
    """Base class for package-specific failures."""


class InvalidSpecError(MaxhitError, ValueError):
    """A generator specification violates one or more parameter constraints.

    ``violations`` lists each broken constraint by name, e.g.
    ``"c < (a-b)/(a-1) violated"``.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class BoundTooLooseError(MaxhitError, RuntimeError):
    """The spectral sampler hit ``max_points`` arrivals before its stopping
    rule fired.

    ``deficit`` is how far the rule still was from firing (the current
    envelope ``C / gamma`` minus the running grid minimum); ``arrivals`` is
    the number of arrivals consumed.
    """

    def __init__(self, deficit: float, arrivals: int):
        self.deficit = float(deficit)
        self.arrivals = int(arrivals)
        super().__init__(
            f"stopping rule not met within {arrivals} arrivals "
            f"(deficit {deficit:.3e}); the generator bound is too loose "
            "or max_points is too small"
        )


class OffGridError(MaxhitError, ValueError):
    """A time that must be a grid point is not one."""


class UnknownCheckError(MaxhitError, ValueError):
    """A verification suite names an unregistered check id, names one twice
    or names none; ``check_id`` is the offending id ("" for none)."""

    def __init__(self, check_id: str, problem: str = "unknown check id"):
        self.check_id = check_id
        super().__init__(f"{problem}: {check_id!r}" if check_id else problem)
