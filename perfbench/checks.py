"""Output checks that do not trust the library.

Everything here is plain modular arithmetic on residue tuples against the
benchmark's own invariant factors and Davenport table (instances.py).  A
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import itertools
import json

from instances import closed_form_davenport, davenport, elements, order_of


def _add(factors, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, factors))


def _scale(factors, c, a):
    return tuple((c * x) % d for x, d in zip(a, factors))


def _zero(factors):
    return (0,) * len(factors)


def weighted_sum(factors, x, w, indices, images):
    total = _zero(factors)
    for i, j in zip(indices, images):
        total = _add(factors, total, _scale(factors, w[i - 1], tuple(x[j - 1])))
    return total


def check_selection(inst: dict, indices, images, value) -> list[str]:
    """Re-derive a certificate's postconditions from the raw instance.

    Window, injectivity and the corollary anchor at position m, then the
    weighted sum re-added from scratch and compared with both the target
    and the value the certificate carries.
    """
    factors = tuple(inst["group"]["orders"])
    x, w, ell = inst["x"], inst["w"], inst["ell"]
    n, d, m = order_of(factors), davenport(factors), len(x)
    indices, images = list(indices), list(images)
    problems = []
    if len(indices) != len(images):
        return ["domain and image lengths differ"]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        problems.append("domain not strictly increasing")
    if any(not 1 <= i <= len(w) for i in indices):
        problems.append("weight index out of range")
    if any(not 1 <= j <= m for j in images):
        problems.append("position out of range")
    if len(set(images)) != len(images):
        problems.append("map not injective")
    if problems:
        return problems

    statement = inst["statement"]
    if statement == "theorem1":
        lo, hi = n - min(d, ell), n - 1
        target = _zero(factors)
    elif statement == "corollary":
        lo = hi = n
        target = _scale(factors, sum(w[i - 1] for i in indices), tuple(x[-1]))
        if m not in images:
            problems.append("anchor position m not in the image")
    else:
        lo, hi = 1, ell
        target = _zero(factors)
    if not lo <= len(indices) <= hi:
        problems.append(f"size {len(indices)} outside [{lo}, {hi}]")
    total = weighted_sum(factors, x, w, indices, images)
    if total != target:
        problems.append("weighted sum misses the target")
    if tuple(value) != total:
        problems.append("certificate value differs from the re-computed sum")
    return problems


def check_cert_json(inst: dict, cert: dict) -> list[str]:
    """Check a certificate file as ``zsum solve`` writes it."""
    problems = []
    if cert.get("statement") != inst["statement"]:
        problems.append("statement mismatch")
    if cert.get("group") != inst["group"]:
        problems.append("group mismatch")
    if cert.get("verified") is not True:
        problems.append("certificate not marked verified")
    indices = cert.get("I", [])
    fmap = cert.get("f", {})
    if sorted(int(k) for k in fmap) != list(indices):
        problems.append("map domain differs from I")
        return problems
    images = [fmap[str(i)] for i in indices]
    return problems + check_selection(inst, indices, images, cert.get("value", []))


def zero_sum_free(factors, seq) -> bool:
    """No nonempty subsequence sums to zero: reachable sums, re-added."""
    zero = _zero(factors)
    sums: set = set()
    for e in seq:
        e = tuple(e)
        neg = tuple((-r) % d for r, d in zip(e, factors))
        if e == zero or neg in sums:
            return False
        sums |= {_add(factors, s, e) for s in sums} | {e}
    return True


def check_davenport(factors: tuple[int, ...], value: int, witness) -> list[str]:
    """D against the closed form (or the pinned value), and a witness of
    length D - 1 that is zero-sum-free."""
    problems = []
    expected = closed_form_davenport(factors)
    if expected is None:
        expected = davenport(factors)
    if value != expected:
        problems.append(f"D = {value}, expected {expected}")
    if len(witness) != value - 1:
        problems.append(f"witness length {len(witness)} != D - 1")
    if any(len(e) != len(factors) or any(not 0 <= r < dd for r, dd in zip(e, factors))
           for e in witness):
        problems.append("witness element out of range")
    elif not zero_sum_free(factors, witness):
        problems.append("witness has a zero-sum subsequence")
    return problems


def has_zero_selection(factors, x, w) -> bool:
    """Brute force over every nonempty I and injection f."""
    zero = _zero(factors)
    k = len(w)
    for size in range(1, k + 1):
        for idx in itertools.combinations(range(1, k + 1), size):
            for img in itertools.permutations(range(1, len(x) + 1), size):
                if weighted_sum(factors, x, w, idx, img) == zero:
                    return True
    return False


def admissible_count(factors, k: int) -> int:
    """Number of x in G^n with maximal repetition <= k."""
    n = order_of(factors)
    count = 0
    for x in itertools.product(elements(factors), repeat=n):
        if max(x.count(e) for e in set(x)) <= k:
            count += 1
    return count


# Pinned scan results, independent of the library: the README's n = 4, k = 2
# finding.
PINNED_SCAN = {((4,), 2): (1836, 24)}


def check_scan(config, report_json: dict, expected_checked: int, first_bytes: bytes | None,
               ) -> tuple[list[str], bytes]:
    """Counts, pinned results, counterexamples re-decided by brute force,
    witnesses re-summed, and canonical bytes stable across passes."""
    factors, k = config[0], config[1]
    problems = []
    if tuple(report_json["group"]["orders"]) != factors:
        problems.append(f"report group {report_json['group']['orders']} is not {list(factors)}")
    blob = json.dumps(report_json, sort_keys=True).encode()
    if first_bytes is not None and blob != first_bytes:
        problems.append("canonical report bytes differ from the first pass")
    if report_json["checked"] != expected_checked:
        problems.append(f"checked {report_json['checked']}, expected {expected_checked}")
    pinned = PINNED_SCAN.get((factors, k))
    if pinned is not None and (report_json["checked"], report_json["counterexample_count"]) != pinned:
        problems.append(f"pinned result {pinned} not reproduced")
    listed = report_json["counterexamples"]
    if report_json["counterexample_count"] < len(listed):
        problems.append("more counterexamples listed than counted")
    for ce in listed:
        if has_zero_selection(factors, ce["x"], ce["w"]):
            problems.append(f"listed counterexample has a zero selection: {ce}")
    for item in report_json["witness_sample"]:
        inst, sel = item["instance"], item["selection"]
        if len(set(sel["images"])) != len(sel["images"]) or not sel["indices"] or (
            weighted_sum(factors, inst["x"], inst["w"], sel["indices"], sel["images"])
            != _zero(factors)
        ):
            problems.append("witness selection is not a zero selection")
    return problems, blob
