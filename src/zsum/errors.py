"""Exception hierarchy shared by all solver modules.

Everything recoverable derives from :class:`ZsumError`.  The one deliberate
exception is :class:`TheoremViolation`, which derives from ``BaseException``
so that a blanket ``except Exception`` cannot swallow it: it fires only when
a construction or search that a proved statement says cannot fail comes up
short, which means either an implementation bug or a genuine mathematical
event, or when two independent routes of one decision disagree (the
conjecture scan's DFS and its exhaustive oracle), which is a bug.  All of
them must surface loudly.
"""

from __future__ import annotations


class ZsumError(Exception):
    """Base class for ordinary, catchable failures."""


class InvalidGroup(ZsumError):
    """Group construction from a malformed order list."""


class InvalidElement(ZsumError):
    """Element with the wrong arity or out-of-range residues."""


class InvalidInstance(ZsumError):
    """Solver input violating a stated precondition."""


class InvalidArgument(ZsumError):
    """Operation argument outside its legal range."""


class UnsatisfiableStatement(ZsumError):
    """The requested statement has no solution for structural reasons
    (counting/pigeonhole), independent of the particular sequence values."""


class BudgetExceeded(ZsumError):
    """Search or scan budget ran out before completion.

    ``lower_bound`` and ``witness`` carry the best partial result of a
    truncated search (a valid lower bound, never an exact answer); ``report``
    carries a partial scan report flagged non-authoritative.
    """

    def __init__(
        self,
        message: str,
        lower_bound: int | None = None,
        witness: tuple = (),
        report=None,
    ):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.witness = witness
        self.report = report


class OracleTooLarge(ZsumError):
    """Instance exceeds the exhaustive oracle's size cap."""


class TheoremViolation(BaseException):
    """A construction or search that a theorem guarantees to succeed missed,
    or two independent routes of one decision disagreed: a DFS selection
    that fails the oracle's check, or an oracle selection where the DFS
    found none.

    Not a ZsumError on purpose: it must never be silently converted into an
    "absent" result.  Catch it only to report and abort.
    """
