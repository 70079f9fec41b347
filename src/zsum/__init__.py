"""Constructive solvers and verifiers for zero-sum and weighted zero-sum
selection problems over finite abelian groups."""

from .errors import (
    BudgetExceeded,
    InvalidArgument,
    InvalidElement,
    InvalidGroup,
    InvalidInstance,
    OracleTooLarge,
    TheoremViolation,
    UnsatisfiableStatement,
    ZsumError,
)
from .groups import AbelianGroup, Element, canonicalize, groups_of_order, groups_up_to_order, rho
from .davenport import (
    DavenportRecord,
    davenport_exact,
    davenport_formula,
    davenport_get,
    zero_sum_free_check,
)
from .zerosum import find_zero_sum_bounded, find_zero_sum_davenport, find_zero_sum_exact_length
from .weighted import (
    Certificate,
    Instance,
    Selection,
    Shelling,
    fallback_search,
    instance_digest,
    solve,
    solve_corollary,
    solve_theorem1,
    solve_word1,
    verify_certificate,
)

# The scanner loads on first use, so ``import zsum`` (and every CLI command
# but scan-conjecture) does not pay for it.
_CONJECTURE_NAMES = ("ScanConfig", "ScanReport", "conjecture_check_instance", "conjecture_scan")


def __getattr__(name: str):
    if name in _CONJECTURE_NAMES:
        from . import conjecture

        return getattr(conjecture, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AbelianGroup",
    "BudgetExceeded",
    "Certificate",
    "DavenportRecord",
    "Element",
    "Instance",
    "InvalidArgument",
    "InvalidElement",
    "InvalidGroup",
    "InvalidInstance",
    "OracleTooLarge",
    "ScanConfig",
    "ScanReport",
    "Selection",
    "Shelling",
    "TheoremViolation",
    "UnsatisfiableStatement",
    "ZsumError",
    "canonicalize",
    "conjecture_check_instance",
    "conjecture_scan",
    "davenport_exact",
    "davenport_formula",
    "davenport_get",
    "fallback_search",
    "find_zero_sum_bounded",
    "find_zero_sum_davenport",
    "find_zero_sum_exact_length",
    "groups_of_order",
    "groups_up_to_order",
    "instance_digest",
    "rho",
    "solve",
    "solve_corollary",
    "solve_theorem1",
    "solve_word1",
    "verify_certificate",
    "zero_sum_free_check",
]

__version__ = "0.1.0"
