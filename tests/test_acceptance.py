"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Runtime limits are pinned per criterion; where the criterion text states no
limit, a conservative one is pinned here so regressions still surface.  Each
criterion's ``details`` line is pinned too: the battery is deterministic, so
a count that moves is a change of behaviour.
"""
from __future__ import annotations

import time

import pytest

import zsum.acceptance
import zsum.weighted
from zsum.acceptance import (
    criterion_corollary_exhaustive,
    criterion_davenport,
    criterion_determinism_roundtrip,
    criterion_egz,
    criterion_gao,
    criterion_oracle_agreement,
    criterion_scan_integrity,
    criterion_theorem_exhaustive,
    criterion_word0_totality,
)
from zsum.errors import TheoremViolation


def _run(criterion, number, name, limit_s, details):
    start = time.perf_counter()
    result = criterion()
    elapsed = time.perf_counter() - start
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} ({name}): {verdict} in {elapsed:.1f}s - {result.details}")
    assert result.passed, result.details
    assert elapsed <= limit_s, f"criterion {number} took {elapsed:.1f}s > {limit_s}s"
    assert result.details == details
    return result


def test_criterion_1_davenport_cross_check():
    _run(
        criterion_davenport, 1, "davenport-cross-check", 60,
        "25 groups checked",
    )


def test_criterion_2_bounded_zero_sum_totality():
    _run(
        criterion_word0_totality, 2, "bounded-zero-sum-totality", 60,
        "1535 (sequence, cap) pairs, 0 failures",
    )


def test_criterion_3_egz_reproduction():
    _run(
        criterion_egz, 3, "egz-reproduction", 120,
        "860 multisets, 0 failures",
    )


def test_criterion_4_gao_reproduction():
    _run(
        criterion_gao, 4, "gao-reproduction", 120,
        "84 multisets, 0 failures",
    )


def test_criterion_5_main_window_exhaustive():
    _run(
        criterion_theorem_exhaustive, 5, "main-window-exhaustive", 60,
        "664 instances, 0 failures",
    )


def test_criterion_6_barycentric_exhaustive():
    _run(
        criterion_corollary_exhaustive, 6, "barycentric-exhaustive", 120,
        "1944 solvable + 12 degenerate instances, 0 failures",
    )


def test_criterion_7_oracle_agreement():
    _run(
        criterion_oracle_agreement, 7, "oracle-agreement", 240,
        "2608 instances, 0 disagreements",
    )


def test_criterion_8_conjecture_scan_integrity():
    _run(
        criterion_scan_integrity, 8, "conjecture-scan-integrity", 300,
        "9 scan configurations, 24 counterexample findings outside proven subclasses",
    )


def test_criterion_9_determinism_and_roundtrip():
    _run(
        criterion_determinism_roundtrip, 9, "determinism-and-roundtrip", 120,
        "116 rerun comparisons, 1000 round-trips",
    )


@pytest.mark.parametrize("criterion, calls", [
    (criterion_theorem_exhaustive, 664),
    (criterion_corollary_exhaustive, 1944),
    (criterion_oracle_agreement, 2 * 2608),  # solver's own + the oracle's
])
def test_solved_certificates_are_verified_once(monkeypatch, criterion, calls):
    # a solve runs the verifier's selection checks once, and so does each
    # verify_certificate call
    counted = []
    check = zsum.weighted._check_selection

    def counting(*args, **kwargs):
        counted.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(zsum.weighted, "_check_selection", counting)
    assert criterion().passed
    assert len(counted) == calls


@pytest.mark.parametrize("criterion", [
    criterion_theorem_exhaustive, criterion_oracle_agreement,
])
def test_a_rejected_construction_raises_out_of_the_battery(monkeypatch, criterion):
    original = zsum.weighted._construct
    monkeypatch.setattr(zsum.weighted, "_construct", lambda *args: (original(*args)[0], ()))
    with pytest.raises(TheoremViolation, match="shelling partition"):
        criterion()
