"""Golden outputs: certificate and scan-report bytes, pinned by SHA-256.

Each digest is of the canonical JSON text (``dumps_stable``) that ``zsum
solve`` and ``zsum scan-conjecture`` write.  Identical inputs must keep
giving these exact bytes; a digest that moves is a break of the
determinism contract, not a test to update.
"""

from __future__ import annotations

import hashlib

import pytest

from zsum import weighted
from zsum.conjecture import ScanConfig, conjecture_scan
from zsum.errors import TheoremViolation
from zsum.groups import canonicalize
from zsum.serialize import certificate_to_json, dumps_stable
from zsum.weighted import Instance, solve

# name: (statement, orders, x, w, ell, constructive step disabled or None, digest)
CASES = {
    "theorem1-narrow": (
        "theorem1", [3, 3],
        [[1, 0], [2, 2], [0, 2], [1, 2], [2, 1], [0, 1], [0, 0], [2, 1], [1, 1], [2, 2], [1, 0]],
        [-3, 13, 6, 8, 17, 8, 6, 3, 11, 18, -5], 2, None,
        "3aed73ff467bb9ed80f49eaf72f81dc8ac14235e3153d9df2c35e2cb62910fe3",
    ),
    "theorem1-wide": (
        "theorem1", [3, 3],
        [[1, 0], [0, 2], [2, 2], [2, 0], [0, 0], [0, 1], [0, 2], [0, 0]],
        [0, 15, -9, 17, 18, -1, 6, 10], 5, None,
        "ef80569a62f00eb04159f2a05b78d35821074a53649d043c2258fe10ae5e96a1",
    ),
    "corollary": (
        "corollary", [2, 4],
        [[1, 3], [0, 2], [0, 3], [1, 2], [0, 0], [0, 1], [0, 1], [1, 2], [0, 2], [0, 0], [1, 1], [1, 1]],
        [17, 18, -6, -9, 18, -6, 12, 6, 17, 13], 2, None,
        "ebe0426244240a4ec42e8f342c54e8b8659d514af643a52084708466856726cb",
    ),
    "word1": (
        "word1", [2, 4],
        [[1, 1], [0, 2], [0, 1], [0, 3], [0, 2], [0, 3], [1, 3], [1, 2]],
        [-1, 2, 10, 3, 2, 8, 4, -7], 2, None,
        "c1fe7ce84a962357ec0e1157f7bef9274bb162dfb5698bdb3d53f80e3e41ef23",
    ),
    "theorem1-fallback": (
        "theorem1", [4], [[1], [2], [3], [2], [1]], [0, -9, -1, 6, 16], 2,
        "_combine_narrow_and_wide",
        "5c582a77a582ff380679b7d4d7aabf233f1e4bfb3d5224024d6ca365d50d1447",
    ),
    "corollary-fallback": (
        "corollary", [4], [[3], [0], [1], [0], [3], [2], [2]], [-2, 13, 15, 7, 2], 2,
        "_corollary_constructive",
        "cbc83cde1376ce92fa6a2a9c69c8a064f2440b79973a30b70c42308eb9bffdf5",
    ),
    "word1-fallback": (
        "word1", [2, 4],
        [[1, 1], [0, 2], [0, 1], [0, 3], [0, 2], [0, 3], [1, 3], [1, 2]],
        [-1, 2, 10, 3, 2, 8, 4, -7], 2,
        "_word1_constructive",
        "94b557a84c2edc2209bbc5a7def9b89ad7632abb3480afa76f4b09972a9e4ad3",
    ),
}

SCAN_Z4_K2_DIGEST = "6ec751cc9dbdef37d811b5ac5b1108f6f425cfb074e80933bdd165fdaafa1b65"


def _digest(payload: dict) -> str:
    return hashlib.sha256(dumps_stable(payload).encode("utf-8")).hexdigest()


def _raise_violation(*args, **kwargs):
    raise TheoremViolation("constructive step disabled by the test")


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_are_pinned(name, monkeypatch):
    statement, orders, x, w, ell, disabled, expected = CASES[name]
    if disabled is not None:
        monkeypatch.setattr(weighted, disabled, _raise_violation)
    g = canonicalize(orders)
    inst = Instance(group=g, x=tuple([tuple(e) for e in x]), w=tuple(w), ell=ell)
    cert = solve(inst, statement)
    assert cert.solve_path == ("constructive" if disabled is None else "fallback")
    assert _digest(certificate_to_json(g, cert)) == expected


def test_scan_report_bytes_are_pinned():
    report = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3)))
    assert (report.checked, report.counterexample_count) == (1836, 24)
    assert _digest(report.to_json()) == SCAN_Z4_K2_DIGEST
