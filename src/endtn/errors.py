"""Exception types shared across the package."""


class CapacityError(Exception):
    """A requested degree is beyond what the computation supports.

    The cost bounds are the capacity policy next to ``check_capacity`` in
    ``transformations``; set ENDTN_CAPACITY_OVERRIDE=1 to lift them
    (expert-only; runtimes blow up as n^n and worse).  The presentation's
    degrees and the product table's 65,536 elements (its ``uint16``
    cells) are not cost bounds, and the override does not lift them.
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
