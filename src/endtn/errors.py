"""Exception types shared across the package."""


class CapacityError(Exception):
    """A requested degree exceeds the enumeration guards.

    Set ENDTN_CAPACITY_OVERRIDE=1 to bypass (expert-only; runtimes blow up
    as n^n and worse).
    """


class UsageError(ValueError):
    """A command-line argument is malformed or inconsistent with another."""


class NotAnEndomorphismError(ValueError):
    """A value table does not describe a semigroup endomorphism."""


class VerificationError(Exception):
    """A formula-vs-brute-force cross check found a mismatch.

    Carries the first counterexample so CLI output is self-contained.
    """

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
