"""Exception types shared across the package. Usage errors (CLI exit 2) are
``InvalidArgumentError`` and its subclasses; internal invariants stay plain
``ValueError``, so a program fault never reads as a usage error."""

from __future__ import annotations


class MaxhitError(Exception):
    """Base class for package-specific failures."""


class InvalidArgumentError(MaxhitError, ValueError):
    """An argument outside its function's documented domain."""


class InvalidSpecError(InvalidArgumentError):
    """A generator spec holds a mistyped number or violates a constraint.

    Raised when such a spec is constructed, and when a generator document
    cannot describe one. ``violations`` lists each mistyped parameter
    (``"'d' must be a finite float"``), or else each broken constraint.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class BoundTooLooseError(MaxhitError, RuntimeError):
    """The spectral sampler drew ``msp.MAX_ARRIVALS`` arrivals for a block
    before its stopping rule fired.

    ``deficit`` is how far the rule still was from firing (the current
    envelope ``C / gamma`` minus the running grid minimum); ``arrivals`` is
    the number of arrivals consumed.
    """

    def __init__(self, deficit: float, arrivals: int):
        self.deficit = float(deficit)
        self.arrivals = int(arrivals)
        super().__init__(
            f"stopping rule not met within {arrivals} arrivals "
            f"(deficit {deficit:.3e}); the generator bound is too loose"
        )


class OffGridError(InvalidArgumentError):
    """A time that must be a grid point is not one."""


class UnknownCheckError(InvalidArgumentError):
    """A verification suite names an unregistered check id, names one twice
    or names none; ``check_id`` is the offending id ("" for none)."""

    def __init__(self, check_id: str, problem: str = "unknown check id"):
        self.check_id = check_id
        super().__init__(f"{problem}: {check_id!r}" if check_id else problem)
