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


def test_the_package_imports_without_site_packages():
    # zsum is stdlib only: under ``python -S`` no site-packages directory is
    # on the path, and the library, the CLI and the modules it loads lazily
    # must all still import
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(zsum.__file__)))
    code = ("import sys, zsum, zsum.cli, zsum.conjecture, zsum.acceptance; "
            "print('site' in sys.modules, any('-packages' in p for p in sys.path))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "False False\n"


def test_the_package_does_not_import_dataclasses_or_inspect():
    # a ``zsum solve`` process pays for every module the package pulls in;
    # the records share ``groups.Record``, so none of these heavy stdlib
    # modules loads.  Compared against the bare interpreter, which may hold
    # some of them already, whatever the Python version.
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(zsum.__file__)))
    code = ("import sys; bare = set(sys.modules); "
            "import zsum.cli, zsum.conjecture, zsum.acceptance; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - bare)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env={"PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\n"
