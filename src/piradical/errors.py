"""Exception types shared across the package.

Every error raised by the library's own validation derives from
:class:`PiradicalError`, so callers can catch one base class.  Input-syntax
problems additionally derive from ``ValueError`` and carry position
information where available.
"""

from __future__ import annotations


class PiradicalError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# permutation / cycle-notation errors


class CycleError(PiradicalError, ValueError):
    """Base for cycle-notation parsing and construction problems."""


class MalformedCycle(CycleError):
    """Cycle string does not match the ``(a b c)(d e)`` grammar."""


class PointOutOfRange(CycleError):
    """A point is < 1 or exceeds the stated degree."""


class RepeatedPoint(CycleError):
    """A point appears twice within one cycle expression."""


class DegreeTooLarge(PiradicalError, ValueError):
    """A permutation, group or spec acts on more points than the package
    supports (a point is stored in one byte, so at most 256)."""


class DegreeMismatch(PiradicalError, ValueError):
    """Two permutations (or a permutation and a group) act on different
    numbers of points."""


# ---------------------------------------------------------------------------
# group-level errors


class NotAMember(PiradicalError, ValueError):
    """An element was required to lie in a group but does not."""


class TooLarge(PiradicalError):
    """An enumeration or a class scan would exceed its cap."""


class BudgetExhausted(PiradicalError):
    """A search ran out of its bounds before reaching a definitive answer:
    it passed ``width.STATE_CAP`` states or its width, or its class has
    more than ``structure.CLASS_CAP`` members, which is refused before any
    search starts."""


# ---------------------------------------------------------------------------
# almost-simple context errors


class NotNormalizing(PiradicalError, ValueError):
    """The candidate automorphism does not normalize the socle."""


class CentralizesSocle(PiradicalError, ValueError):
    """The candidate automorphism centralizes the socle (acts trivially),
    so it induces no automorphism worth studying."""


class NotAlmostSimple(PiradicalError, ValueError):
    """The ambient group <socle, x> has a nontrivial element centralizing
    the socle, so the context is not almost simple."""


class NotATransposition(PiradicalError, ValueError):
    """An element required to be a transposition is not one."""


class RNotDividingOrder(PiradicalError, ValueError):
    """The prime r does not divide the order of the ambient group, so no
    subgroup order can be divisible by r."""


# ---------------------------------------------------------------------------
# catalog / parsing errors


class UnsupportedQ(PiradicalError, ValueError):
    """Projective-group constructor called with a prime power outside the
    supported list."""


class ParseError(PiradicalError, ValueError):
    """Group-spec file syntax error, with position information."""

    def __init__(self, reason: str, line: int, column: int = 0):
        self.reason = reason
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {reason}")


class InvariantViolation(PiradicalError):
    """A result the package computed failed its own check (e.g. class sizes
    that do not sum to the group order): an implementation bug, never a
    property of the input."""
