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

# Scans split over worker processes: an exhaustive one and a sampled one with
# counterexamples.  Parallelism must not change a byte of the report.
# name: (orders, k, weights, mode, sample_size, seed, workers, checked, counterexamples, digest)
PARALLEL_SCANS = {
    "z4-k2-exhaustive-workers2": ((4,), 2, (1, 2, 3), "exhaustive", 0, 0, 2, 1836, 24,
                                  "6ec751cc9dbdef37d811b5ac5b1108f6f425cfb074e80933bdd165fdaafa1b65"),
    "z4-k2-sampled-workers3": ((4,), 2, (1, 2, 3), "sampled", 300, 5, 3, 300, 2,
                               "2d7cfe98b6ad32808cdc58f49a569396d0fd60742e07d79e6aff6482ea1a37c2"),
}

# The other scan configurations of the benchmark, weights 1..n-1:
# name: (orders, k, mode, sample_size, seed, checked, counterexamples, digest)
SCANS = {
    "z4-k3": ((4,), 3, "exhaustive", 0, 0, 6804, 0,
              "4b3bdf96a5a3aa7f20e3e626ea7c8f69ca5b0671bf0e90d29d3bb0d3b6409c87"),
    "z4-k4": ((4,), 4, "exhaustive", 0, 0, 20736, 0,
              "0ef6753417a2eb268a20249fa78ade4ddb742375bc704c98260fe75f130713df"),
    "z2xz2-k3": ((2, 2), 3, "exhaustive", 0, 0, 6804, 0,
                 "160f7bd1d186916ac2c1f183ca1508142c63bcb8a3479190b0624859bef72989"),
    "z5-k2": ((5,), 2, "exhaustive", 0, 0, 35520, 0,
              "fae381e3cb257ee1d3f2c537bf82a1d141b4add42d03784f7e4b64613f6cfd83"),
    "z6-k2-sampled": ((6,), 2, "sampled", 2000, 1, 2000, 0,
                      "b08a2a57841ec601b22f2ba317d31913dfd0a6a99d7b52174fe7607479eda779"),
}


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


@pytest.mark.parametrize("name", sorted(SCANS))
def test_benchmark_scan_report_bytes_are_pinned(name):
    orders, k, mode, sample_size, seed, checked, failures, expected = SCANS[name]
    n = canonicalize(orders).order
    report = conjecture_scan(ScanConfig(
        orders=orders, k=k, weight_values=tuple(range(1, n)), mode=mode,
        sample_size=sample_size, seed=seed,
    ))
    assert (report.checked, report.counterexample_count) == (checked, failures)
    assert _digest(report.to_json()) == expected


@pytest.mark.parametrize("name", sorted(PARALLEL_SCANS))
def test_parallel_scan_report_bytes_are_pinned(name):
    orders, k, weights, mode, sample_size, seed, workers, checked, failures, expected = (
        PARALLEL_SCANS[name]
    )
    report = conjecture_scan(ScanConfig(
        orders=orders, k=k, weight_values=weights, mode=mode,
        sample_size=sample_size, seed=seed, workers=workers,
    ))
    assert (report.checked, report.counterexample_count) == (checked, failures)
    assert _digest(report.to_json()) == expected
