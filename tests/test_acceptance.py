"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Runtime limits are pinned per criterion; where the criterion text states no
limit, a conservative one is pinned here so regressions still surface.  Each
criterion's ``details`` line is pinned too: the battery is deterministic, so
a count that moves is a change of behaviour.  The generator of the
battery's exhaustive spaces is checked against the solver's own statement
of the paper's hypotheses.
"""
from __future__ import annotations

import itertools
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
    instance_space,
    sequence_space,
)
from zsum.davenport import davenport_get
from zsum.errors import InvalidInstance, TheoremViolation, UnsatisfiableStatement
from zsum.groups import canonicalize, groups_up_to_order
from zsum.weighted import STATEMENTS, Instance


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


@pytest.mark.parametrize("w, indices, images, bad", [
    ((1, 1), [1, 2], [1, 3], 0),  # 1 + 3 = 0
    ((1, 2), [2, 2], [1, 2], 1),  # a repeated index: 2 + 2 = 0
    ((1, 2), [0, 2], [1, 2], 1),  # index 0 would read w[-1] = 2
    ((1, 1), [2, 1], [1, 3], 1),  # indices not increasing
    ((1, 1), [1, 3], [1, 3], 1),  # an index past |w|
    ((1, 1), [1, 2], [1, 3, 2], 1),  # more images than indices
    ((1, 1), [1, 2], [0, 1], 1),  # image 0 would read x[-1] = 3
    ((1, 1), [1], [5], 1),  # an image past |x|
    ((1, 1), [], [], 1),
], ids=["zero-selection", "repeated-index", "index-0", "decreasing", "index-past-w",
        "length-mismatch", "image-0", "image-past-x", "empty"])
def test_a_scan_witness_must_be_a_well_formed_zero_selection(w, indices, images, bad):
    # x = (1, 1, 3, 3), w = (1, 2) over Z_4 has no zero selection; read as
    # a plain sum, every malformed witness that stays inside x and w is zero
    report = {"witness_sample": [{
        "instance": {"x": [[1], [1], [3], [3]], "w": list(w)},
        "selection": {"indices": indices, "images": images},
    }]}
    assert zsum.acceptance._verify_scan_witnesses(canonicalize([4]), report) == bad


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


def _meets_hypotheses(inst, statement, d):
    """True unless weighted._check_hypotheses calls ``inst`` invalid; an
    unsatisfiable corollary (ell >= D) meets them."""
    try:
        zsum.weighted._check_hypotheses(inst, statement, d)
    except InvalidInstance:
        return False
    except UnsatisfiableStatement:
        pass
    return True


def test_instance_space_keeps_what_the_solver_accepts():
    # the battery states the hypotheses in its own code; on every group of
    # order <= 4, an x in G^m must pass the solver's check exactly when the
    # generator yields it, so a drift in either statement of them fails here
    checks = 0
    for g in groups_up_to_order(4):
        orders, n, d = list(g.invariant_factors), g.order, davenport_get(g).value
        for statement in STATEMENTS:
            for ell in range(1, n + 2):
                r = min(d, ell)
                m, k = {"word1": (n, n), "theorem1": (n + d - r - 1, n + d - r - 1),
                        "corollary": (n + d - 1, n + d - 1 - r)}[statement]
                kept = set(sequence_space(orders, statement, ell))
                first = next(instance_space(orders, statement, ell), None)
                assert (first is None) == (not kept)
                assert first is None or (first.x in kept and len(first.w) == k)
                for x in itertools.product(g.elements(), repeat=m):
                    checks += 1
                    inst = Instance(group=g, x=x, w=(0,) * k, ell=ell)
                    assert _meets_hypotheses(inst, statement, d) == (x in kept), (
                        g, statement, ell, x,
                    )
    assert checks == 113_192
