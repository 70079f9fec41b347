"""The public API: ``zsum.__all__`` is pinned, so that adding, renaming or
removing a public name is a deliberate edit of this list."""

from __future__ import annotations

import zsum

PUBLIC_API = [
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
    "ZeroSumWitness",
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


def test_public_api_is_pinned_and_resolves():
    assert sorted(zsum.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(zsum, name)] == []
