"""The acceptance suite: nine desk-scale criteria, each a pure function.

Each criterion returns a CriterionResult with a deterministic details
string (counts, never timings), so repeated runs produce identical
machine-readable summaries.  The CLI ``selftest`` subcommand and the
acceptance tests both drive `run_all`.  Criterion 1 also sweeps exact
Davenport computation against the closed forms for every group of order up
to 16.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator

from .conjecture import ScanConfig, conjecture_scan, enumerate_zero_selection
from .davenport import davenport_exact, davenport_formula, davenport_get, zero_sum_free_check
from .errors import UnsatisfiableStatement
from .groups import AbelianGroup, Element, canonicalize, groups_up_to_order, rho
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps_stable,
    instance_from_json,
    instance_to_json,
)
from .weighted import (
    Certificate,
    Instance,
    Selection,
    STATEMENT_COROLLARY,
    STATEMENT_THEOREM1,
    fallback_search,
    instance_digest,
    solve,
    verify_certificate,
)
from .zerosum import find_zero_sum_bounded, find_zero_sum_exact_length

@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str


def _cyclic(n: int) -> AbelianGroup:
    return canonicalize([n])


def _all_sequences(g: AbelianGroup, length: int) -> Iterator[tuple[Element, ...]]:
    return itertools.product(g.elements(), repeat=length)


def criterion_davenport() -> CriterionResult:
    """Exact search reproduces known Davenport constants with valid witnesses."""
    expected: list[tuple[list[int], int]] = [([n], n) for n in range(2, 11)]
    expected += [([2, 2], 3), ([2, 4], 5), ([3, 3], 5), ([2, 2, 2], 4), ([2, 6], 7)]
    failures: list[str] = []
    for orders, value in expected:
        g = canonicalize(orders)
        rec = davenport_exact(g)
        if rec.value != value:
            failures.append(f"D({orders}) = {rec.value}, expected {value}")
            continue
        if len(rec.witness) != value - 1 or not zero_sum_free_check(g, rec.witness):
            failures.append(f"witness for {orders} invalid")
    checked = len(expected)
    for g in groups_up_to_order(16):
        formula = davenport_formula(g)
        exact = davenport_exact(g)
        checked += 1
        if not zero_sum_free_check(g, exact.witness):
            failures.append(f"witness for {g.invariant_factors} not zero-sum-free")
        if formula is not None and formula != exact.value:
            failures.append(f"formula {formula} != exact {exact.value} for {g.invariant_factors}")
    details = f"{checked} groups checked" + (f"; failures: {failures}" if failures else "")
    return CriterionResult(1, "davenport-cross-check", not failures, details)


def criterion_word0_totality() -> CriterionResult:
    """Bounded zero-sum solver succeeds on all length-n sequences, all legal caps."""
    failures = 0
    checked = 0
    for orders in ([2], [3], [4], [2, 2]):
        g = canonicalize(orders)
        n = g.order
        for x in _all_sequences(g, n):
            for k in range(rho(x), n + 1):
                checked += 1
                wit = find_zero_sum_bounded(g, x, k)
                if not 1 <= len(wit) <= k or g.sum(x[i - 1] for i in wit) != g.zero():
                    failures += 1
    details = f"{checked} (sequence, cap) pairs, {failures} failures"
    return CriterionResult(2, "bounded-zero-sum-totality", failures == 0, details)


def _exact_length_sweep(g: AbelianGroup, length: int) -> tuple[int, int]:
    """(multisets checked, failures): every length-``length`` multiset over
    G must have a zero sum of exactly |G| terms."""
    n = g.order
    failures = 0
    checked = 0
    for combo in itertools.combinations_with_replacement(list(g.elements()), length):
        checked += 1
        wit = find_zero_sum_exact_length(g, combo, n)
        if wit is None or len(wit) != n or g.sum(combo[i - 1] for i in wit) != g.zero():
            failures += 1
    return checked, failures


def criterion_egz() -> CriterionResult:
    """Every length-(2n-1) multiset over Z_n has an exact-length-n zero sum
    (EGZ: the cyclic case of Gao's n + D - 1 theorem)."""
    sweeps = [_exact_length_sweep(_cyclic(n), 2 * n - 1) for n in (2, 3, 4, 5)]
    checked = sum(c for c, _ in sweeps)
    failures = sum(f for _, f in sweeps)
    details = f"{checked} multisets, {failures} failures"
    return CriterionResult(3, "egz-reproduction", failures == 0, details)


def criterion_gao() -> CriterionResult:
    """Every length-6 multiset over Z_2+Z_2 has an exact-length-4 zero sum."""
    checked, failures = _exact_length_sweep(canonicalize([2, 2]), 6)
    details = f"{checked} multisets, {failures} failures"
    return CriterionResult(4, "gao-reproduction", failures == 0, details)


def _theorem1_suite() -> Iterator[Instance]:
    # Z_2, ell = 1 (m = 2) and ell in {2, 3} (m = 1); Z_3, ell = 2 (m = 3)
    z2 = _cyclic(2)
    for x in _all_sequences(z2, 2):
        if rho(x) > 1:
            continue
        for w in itertools.product(range(2), repeat=2):
            yield Instance(group=z2, x=x, w=w, ell=1)
    for ell in (2, 3):
        for x in _all_sequences(z2, 1):
            for w in itertools.product(range(2), repeat=1):
                yield Instance(group=z2, x=x, w=w, ell=ell)
    z3 = _cyclic(3)
    for x in _all_sequences(z3, 3):
        if rho(x) > 2:
            continue
        for w in itertools.product(range(3), repeat=3):
            yield Instance(group=z3, x=x, w=w, ell=2)


def _corollary_suite() -> Iterator[Instance]:
    # Z_3, m = 5: maximal repetition 2 attained by position 5; w over {0,1,2}^3
    z3 = _cyclic(3)
    for x in _all_sequences(z3, 5):
        if rho(x) != 2 or x.count(x[-1]) != 2:
            continue
        for w in itertools.product(range(3), repeat=3):
            yield Instance(group=z3, x=x, w=w, ell=2)


def _corollary_unsat_suite() -> Iterator[Instance]:
    # Z_2, m = 3: maximal repetition >= D = 2 attained by position 3
    z2 = _cyclic(2)
    for x in _all_sequences(z2, 3):
        ell = rho(x)
        if ell < 2 or x.count(x[-1]) != ell:
            continue
        for w in itertools.product(range(2), repeat=1):
            yield Instance(group=z2, x=x, w=w, ell=ell)


def _degenerate_corollary_check() -> tuple[int, int]:
    """(instances checked, failures): on every instance of the degenerate
    corollary family the solver must report it unsatisfiable and the oracle
    must find nothing."""
    failures = 0
    checked = 0
    for inst in _corollary_unsat_suite():
        checked += 1
        try:
            solve(inst, STATEMENT_COROLLARY)
            failures += 1
        except UnsatisfiableStatement:
            if fallback_search(inst, STATEMENT_COROLLARY) is not None:
                failures += 1
    return checked, failures


def criterion_theorem_exhaustive() -> CriterionResult:
    """Main-window solver: 100% verified certificates on the stated suites.

    ``solve`` runs the verifier's selection checks (size window included)
    on every construction and raises TheoremViolation on a rejected one, so
    a certificate it returns is counted without a second check.
    """
    failures = 0
    checked = 0
    for inst in _theorem1_suite():
        checked += 1
        failures += not solve(inst, STATEMENT_THEOREM1).verified
    details = f"{checked} instances, {failures} failures"
    return CriterionResult(5, "main-window-exhaustive", failures == 0, details)


def criterion_corollary_exhaustive() -> CriterionResult:
    """Barycentric solver: verified certificates (size n, anchor included,
    checked by ``solve``'s selection checks); degenerate family
    unsatisfiable."""
    failures = 0
    checked = 0
    for inst in _corollary_suite():
        checked += 1
        failures += not solve(inst, STATEMENT_COROLLARY).verified
    unsat_checked, unsat_failures = _degenerate_corollary_check()
    failures += unsat_failures
    details = f"{checked} solvable + {unsat_checked} degenerate instances, {failures} failures"
    return CriterionResult(6, "barycentric-exhaustive", failures == 0, details)


def criterion_oracle_agreement() -> CriterionResult:
    """Constructive and exhaustive routes agree on suites 5-6; both verify.

    Each instance is solved here again, because the agreement is stated per
    instance; the solver's certificate carries ``solve``'s selection checks
    and the oracle's is verified here.
    """
    failures = 0
    checked = 0
    for statement, suite in (
        (STATEMENT_THEOREM1, _theorem1_suite), (STATEMENT_COROLLARY, _corollary_suite)
    ):
        for inst in suite():
            checked += 1
            cert = solve(inst, statement)
            oracle = fallback_search(inst, statement)
            if oracle is None:
                failures += 1
                continue
            oracle_cert = Certificate(
                statement=statement,
                instance_digest=instance_digest(inst),
                selection=oracle,
                shelling=None,
                solve_path="fallback",
                verified=False,
            )
            ok_oracle, _ = verify_certificate(inst, oracle_cert)
            if not (cert.verified and ok_oracle):
                failures += 1
    unsat_checked, unsat_failures = _degenerate_corollary_check()
    checked += unsat_checked
    failures += unsat_failures
    details = f"{checked} instances, {failures} disagreements"
    return CriterionResult(7, "oracle-agreement", failures == 0, details)


def _verify_scan_witnesses(g: AbelianGroup, report_json: dict) -> int:
    bad = 0
    for item in report_json["witness_sample"]:
        x = [tuple(e) for e in item["instance"]["x"]]
        w = item["instance"]["w"]
        indices = item["selection"]["indices"]
        images = item["selection"]["images"]
        total = g.zero()
        for i, j in zip(indices, images):
            total = g.add(total, g.scalar_mul(w[i - 1], x[j - 1]))
        if total != g.zero() or len(set(images)) != len(images) or not indices:
            bad += 1
    return bad


def criterion_scan_integrity() -> CriterionResult:
    """Exhaustive scans complete; witnesses verify; zero violations inside
    the proven subclasses; reports byte-identical across 1/2/8 workers and
    across reruns.

    Counterexamples outside the proven subclasses are findings, not
    failures (the conjecture's truth is open); each one is re-checked here
    by a second independent enumeration before being accepted as genuine.
    """
    import math as _math

    failures: list[str] = []
    scans = 0
    findings = 0
    for n in (2, 3, 4):
        g = _cyclic(n)
        values = tuple(range(1, n))
        d = davenport_get(g).value
        for k in range(1, n + 1):
            scans += 1
            reports = {}
            for workers in (1, 2, 8):
                config = ScanConfig(orders=(n,), k=k, weight_values=values, workers=workers)
                # a subclass violation raises TheoremViolation out of here
                reports[workers] = dumps_stable(conjecture_scan(config).to_json())
            if len(set(reports.values())) != 1:
                failures.append(f"n={n} k={k}: reports differ across worker counts")
            if n <= 3:
                rerun = dumps_stable(
                    conjecture_scan(
                        ScanConfig(orders=(n,), k=k, weight_values=values, workers=1)
                    ).to_json()
                )
                if rerun != reports[1]:
                    failures.append(f"n={n} k={k}: rerun differs")
            payload = json.loads(reports[1])
            findings += payload["counterexample_count"]
            for ce in payload["counterexamples"]:
                w = ce["w"]
                if k >= d or all(_math.gcd(n, wi) == 1 for wi in w):
                    failures.append(f"n={n} k={k}: counterexample inside a proven subclass")
                x = [tuple(e) for e in ce["x"]]
                if enumerate_zero_selection(g, x, w) is not None:
                    failures.append(f"n={n} k={k}: recorded counterexample is solvable")
            if _verify_scan_witnesses(g, payload):
                failures.append(f"n={n} k={k}: witness sample failed verification")
    details = (
        f"{scans} scan configurations, {findings} counterexample findings outside "
        f"proven subclasses"
        + (f"; failures: {failures}" if failures else "")
    )
    return CriterionResult(8, "conjecture-scan-integrity", not failures, details)


def criterion_determinism_roundtrip() -> CriterionResult:
    """Byte-identical certificates on reruns; lossless JSON round-trips."""
    import random

    failures: list[str] = []
    rerun_checked = 0
    for statement, suite, step, failure in (
        (STATEMENT_THEOREM1, _theorem1_suite, 7, "certificate rerun differs"),
        (STATEMENT_COROLLARY, _corollary_suite, 97, "corollary certificate rerun differs"),
    ):
        for inst in itertools.islice(suite(), 0, None, step):
            rerun_checked += 1
            a, b = [
                dumps_stable(certificate_to_json(inst.group, solve(inst, statement)))
                for _ in range(2)
            ]
            if a != b:
                failures.append(failure)
                break

    rng = random.Random(20260814)
    order_pool = ([2], [3], [4], [5], [2, 2], [2, 4], [3, 3], [6], [2, 2, 2], [12])
    roundtrips = 0
    for _ in range(500):
        g = canonicalize(rng.choice(order_pool))
        m = rng.randint(1, 6)
        x = tuple(tuple(rng.randrange(d) for d in g.invariant_factors) for _ in range(m))
        w = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, m)))
        ell = rng.randint(1, m)
        statement = rng.choice(("theorem1", "corollary", "word1"))
        inst = Instance(group=g, x=x, w=w, ell=ell)
        blob = dumps_stable(instance_to_json(statement, inst))
        statement2, inst2 = instance_from_json(json.loads(blob))
        roundtrips += 1
        if statement2 != statement or inst2 != inst:
            failures.append("instance round-trip not lossless")
            break
    for _ in range(500):
        g = canonicalize(rng.choice(order_pool))
        m = rng.randint(1, 8)
        size = rng.randint(0, m)
        indices = tuple(sorted(rng.sample(range(1, m + 1), size)))
        images = tuple(rng.sample(range(1, m + 1), size))
        value = tuple(rng.randrange(d) for d in g.invariant_factors)
        cert = Certificate(
            statement=rng.choice(("theorem1", "corollary", "word1")),
            instance_digest="%064x" % rng.getrandbits(256),
            selection=Selection(indices=indices, images=images, value=value),
            shelling=None if rng.random() < 0.5 else (indices,),
            solve_path=rng.choice(("constructive", "fallback")),
            verified=bool(rng.getrandbits(1)),
        )
        blob = dumps_stable(certificate_to_json(g, cert))
        g2, cert2 = certificate_from_json(json.loads(blob))
        roundtrips += 1
        if g2 != g or cert2 != cert:
            failures.append("certificate round-trip not lossless")
            break
    details = (
        f"{rerun_checked} rerun comparisons, {roundtrips} round-trips"
        + (f"; failures: {failures}" if failures else "")
    )
    return CriterionResult(9, "determinism-and-roundtrip", not failures, details)


CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_davenport,
    criterion_word0_totality,
    criterion_egz,
    criterion_gao,
    criterion_theorem_exhaustive,
    criterion_corollary_exhaustive,
    criterion_oracle_agreement,
    criterion_scan_integrity,
    criterion_determinism_roundtrip,
)


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in CRITERIA]


def summary_json(results: list[CriterionResult]) -> dict:
    return {
        "all_passed": all(r.passed for r in results),
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
