"""The acceptance suite: nine desk-scale criteria, each a pure function.

Each criterion returns a CriterionResult with a deterministic details
string (counts, never timings), so repeated runs produce identical
machine-readable summaries.  The CLI ``selftest`` subcommand and the
acceptance tests both drive `run_all`.  Criterion 1 sweeps exact Davenport
computation against the closed forms and known values for every group of
order up to 16.

Criteria 2, 5, 6, 7 and 9 read their exhaustive spaces from `instance_space`,
through the (orders, ell) cells of `CELLS` and `DEGENERATE_CELLS`.  It states
the paper's hypotheses in its own code, not through
``weighted._check_hypotheses``, so the battery stays a reference independent
of the solver; a test checks that the two agree.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Callable, Iterator

from .classes import _classes, _word
from .conjecture import ScanConfig, conjecture_scan
from .davenport import davenport_exact, davenport_formula, davenport_get, zero_sum_free_check
from .errors import UnsatisfiableStatement
from .groups import AbelianGroup, Element, Record, canonicalize, groups_up_to_order, rho
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
    STATEMENT_WORD1,
    fallback_search,
    instance_digest,
    solve,
    verify_certificate,
)
from .zerosum import find_zero_sum_bounded, find_zero_sum_exact_length


class CriterionResult(Record):
    number: int
    name: str
    passed: bool
    details: str


def sequence_space(orders: list[int], statement: str, ell: int) -> Iterator[tuple[Element, ...]]:
    """The x part of `instance_space`: every x in G^m, in ``itertools.product``
    order over ``g.elements()``, whose maximal repetition is at most ``ell``;
    for the corollary, exactly ``ell`` and attained by x_m."""
    g = canonicalize(orders)
    m = g.order
    if statement != STATEMENT_WORD1:  # word1 does not mention D
        d = davenport_get(g).value
        m += d - 1 - (min(d, ell) if statement == STATEMENT_THEOREM1 else 0)
    for x in itertools.product(g.elements(), repeat=m):
        if statement == STATEMENT_COROLLARY:
            if rho(x) == ell and x.count(x[-1]) == ell:
                yield x
        elif not x or rho(x) <= ell:  # theorem1 on the trivial group has m = 0
            yield x


def instance_space(orders: list[int], statement: str, ell: int) -> Iterator[Instance]:
    """Every Instance of ``statement`` on the group with invariant factors
    ``orders`` at repetition bound ``ell``.  word1 has |x| = |w| = n, theorem1
    m = |w| = n + D - min(D, ell) - 1, the corollary m = n + D - 1 and |w| =
    m - min(D, ell).  x runs over `sequence_space` as the outer loop, w over
    [0, exp(G))^|w| in product order.  Degenerate corollary instances (ell >=
    D) belong to the space: whether the statement holds is for ``solve``."""
    g = canonicalize(orders)
    r = min(davenport_get(g).value, ell) if statement == STATEMENT_COROLLARY else 0
    for x in sequence_space(orders, statement, ell):
        for w in itertools.product(range(g.exponent), repeat=len(x) - r):
            yield Instance(group=g, x=x, w=w, ell=ell)


# the battery's exhaustive spaces, as (orders, ell) cells per statement
CELLS = {
    STATEMENT_THEOREM1: (([2], 1), ([2], 2), ([2], 3), ([3], 2)),
    STATEMENT_COROLLARY: (([3], 2),),
}
DEGENERATE_CELLS = (([2], 2), ([2], 3))  # the corollary at ell >= D: no selection exists


def _battery(statement: str, cells: tuple | None = None) -> Iterator[Instance]:
    """``statement``'s instances on ``cells`` (default: its `CELLS` row), cell by cell."""
    cells = CELLS[statement] if cells is None else cells
    return itertools.chain.from_iterable(instance_space(o, statement, ell) for o, ell in cells)


def criterion_davenport() -> CriterionResult:
    """Exact search on every group of order up to 16: a zero-sum-free witness
    of length D - 1, agreement with the closed form where there is one, and
    the known values of fourteen groups."""
    expected = {(n,): n for n in range(2, 11)}
    expected.update({(2, 2): 3, (2, 4): 5, (3, 3): 5, (2, 2, 2): 4, (2, 6): 7})
    failures: list[str] = []
    checked = 0
    for g in groups_up_to_order(16):
        factors = g.invariant_factors
        exact = davenport_exact(g)
        formula = davenport_formula(g)
        checked += 1
        if factors in expected and expected[factors] != exact.value:
            failures.append(f"D({list(factors)}) = {exact.value}, expected {expected[factors]}")
        if len(exact.witness) != exact.value - 1 or not zero_sum_free_check(g, exact.witness):
            failures.append(f"witness for {factors} invalid")
        if formula is not None and formula != exact.value:
            failures.append(f"formula {formula} != exact {exact.value} for {factors}")
    details = f"{checked} groups checked" + (f"; failures: {failures}" if failures else "")
    return CriterionResult(1, "davenport-cross-check", not failures, details)


def criterion_word0_totality() -> CriterionResult:
    """Bounded zero-sum solver succeeds on all length-n sequences, all legal caps."""
    failures = 0
    checked = 0
    for orders in ([2], [3], [4], [2, 2]):
        g = canonicalize(orders)
        for k in range(1, g.order + 1):
            for x in sequence_space(orders, STATEMENT_WORD1, k):
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
    elements = g.elements()
    failures = 0
    checked = 0
    for counts in _classes(n, length, length):
        combo = [elements[r] for r in _word(counts)]
        checked += 1
        wit = find_zero_sum_exact_length(g, combo, n)
        if wit is None or len(wit) != n or g.sum(combo[i - 1] for i in wit) != g.zero():
            failures += 1
    return checked, failures


def criterion_egz() -> CriterionResult:
    """Every length-(2n-1) multiset over Z_n has an exact-length-n zero sum
    (EGZ: the cyclic case of Gao's n + D - 1 theorem)."""
    sweeps = [_exact_length_sweep(canonicalize([n]), 2 * n - 1) for n in (2, 3, 4, 5)]
    checked = sum(c for c, _ in sweeps)
    failures = sum(f for _, f in sweeps)
    details = f"{checked} multisets, {failures} failures"
    return CriterionResult(3, "egz-reproduction", failures == 0, details)


def criterion_gao() -> CriterionResult:
    """Every length-6 multiset over Z_2+Z_2 has an exact-length-4 zero sum."""
    checked, failures = _exact_length_sweep(canonicalize([2, 2]), 6)
    details = f"{checked} multisets, {failures} failures"
    return CriterionResult(4, "gao-reproduction", failures == 0, details)


def criterion_theorem_exhaustive() -> CriterionResult:
    """Main-window solver: 100% verified certificates on the stated suites.

    ``solve`` runs the verifier's selection checks (size window included)
    on every construction and raises TheoremViolation on a rejected one, so
    a certificate it returns is counted without a second check.
    """
    failures = 0
    checked = 0
    for inst in _battery(STATEMENT_THEOREM1):
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
    for inst in _battery(STATEMENT_COROLLARY):
        checked += 1
        failures += not solve(inst, STATEMENT_COROLLARY).verified
    # the degenerate family: the solver must report each instance
    # unsatisfiable and the oracle must find nothing
    unsat_checked = 0
    for inst in _battery(STATEMENT_COROLLARY, DEGENERATE_CELLS):
        unsat_checked += 1
        try:
            solve(inst, STATEMENT_COROLLARY)
            failures += 1
        except UnsatisfiableStatement:
            failures += fallback_search(inst, STATEMENT_COROLLARY) is not None
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
    for statement in (STATEMENT_THEOREM1, STATEMENT_COROLLARY):
        for inst in _battery(statement):
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
    details = f"{checked} instances, {failures} disagreements"
    return CriterionResult(7, "oracle-agreement", failures == 0, details)


def _has_zero_selection(g: AbelianGroup, x: list[Element], w: list[int]) -> bool:
    """Brute force, apart from the scan's code: whether some nonempty I and
    injective f have sum_{i in I} w_i * x_f(i) = 0, valued with the group's
    own operations."""
    return any(
        g.sum([g.scalar_mul(w[i], x[j]) for i, j in zip(indices, images)]) == g.zero()
        for size in range(1, len(w) + 1)
        for indices in itertools.combinations(range(len(w)), size)
        for images in itertools.permutations(range(len(x)), size)
    )


def _verify_scan_witnesses(g: AbelianGroup, report_json: dict) -> int:
    bad = 0
    for item in report_json["witness_sample"]:
        x = [tuple(e) for e in item["instance"]["x"]]
        w = item["instance"]["w"]
        indices = item["selection"]["indices"]
        images = item["selection"]["images"]
        total = g.sum([g.scalar_mul(w[i - 1], x[j - 1]) for i, j in zip(indices, images)])
        if total != g.zero() or len(set(images)) != len(images) or not indices:
            bad += 1
    return bad


def criterion_scan_integrity() -> CriterionResult:
    """Exhaustive scans complete; witnesses verify; zero violations inside
    the proven subclasses; reports byte-identical across reruns.

    Counterexamples outside the proven subclasses are findings, not
    failures (the conjecture's truth is open); each one is re-checked here
    by brute force over every (I, f), valued with the group's own
    operations and none of the scan's code, before being accepted as
    genuine.
    """
    failures: list[str] = []
    scans = 0
    findings = 0
    for n in (2, 3, 4):
        g = canonicalize([n])
        values = tuple(range(1, n))
        d = davenport_get(g).value
        for k in range(1, n + 1):
            scans += 1
            config = ScanConfig(orders=(n,), k=k, weight_values=values)
            # a subclass violation raises TheoremViolation out of here
            report = dumps_stable(conjecture_scan(config).to_json())
            if n <= 3 and dumps_stable(conjecture_scan(config).to_json()) != report:
                failures.append(f"n={n} k={k}: rerun differs")
            payload = json.loads(report)
            findings += payload["counterexample_count"]
            for ce in payload["counterexamples"]:
                w = ce["w"]
                if k >= d or all(math.gcd(n, wi) == 1 for wi in w):
                    failures.append(f"n={n} k={k}: counterexample inside a proven subclass")
                x = [tuple(e) for e in ce["x"]]
                if _has_zero_selection(g, x, w):
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
    failures: list[str] = []
    rerun_checked = 0
    for statement, step, failure in (
        (STATEMENT_THEOREM1, 7, "certificate rerun differs"),
        (STATEMENT_COROLLARY, 97, "corollary certificate rerun differs"),
    ):
        for inst in itertools.islice(_battery(statement), 0, None, step):
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
