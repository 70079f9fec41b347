"""Exact Davenport constants with zero-sum-free witnesses.

D(G) is 1 + (length of the longest zero-sum-free sequence over G).  The
exact search walks non-decreasing element sequences depth-first (killing
permutation symmetry) and prunes with the set of sums reachable from the
prefix, kept as a bit-vector indexed by lexicographic element rank:
appending e is legal iff e != 0 and -e is not already reachable, and the
new sums are one :meth:`AbelianGroup.translate` of the old ones by e.

Closed forms (cyclic, rank two, p-groups) serve as cross-checks and as the
fast path in :func:`davenport_get`; everything lands in a cache keyed by
the canonical invariant factors, optionally persisted to a JSON file.
A closed-form witness (d_i - 1 copies of each generator) is zero-sum-free
by construction and is not re-checked at run time; the tests check it.
Cache-file entries come from outside the program, so each is checked when
first read.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .errors import BudgetExceeded, InvalidArgument, InvalidElement
from .groups import AbelianGroup, Element, _factorint

DEFAULT_NODE_BUDGET = 10**8

METHOD_EXACT = "exact_search"
METHOD_FORMULA = "formula"
METHOD_CACHE = "cache"


@dataclass(frozen=True)
class DavenportRecord:
    group: AbelianGroup
    value: int
    witness: tuple[Element, ...]
    method: str


def zero_sum_free_check(g: AbelianGroup, seq: Sequence[Element]) -> bool:
    """True iff no nonempty subset of seq sums to zero.

    Incremental reachable-sum set: zero first appears exactly when some new
    element e is itself zero or hits -e among the sums so far.
    """
    zero = g.zero()
    sums: set[Element] = set()
    for e in seq:
        g.check_element(e)
        if e == zero or g.neg(e) in sums:
            return False
        sums = sums | {g.add(s, e) for s in sums} | {e}
    return True


def davenport_exact(g: AbelianGroup, node_budget: int = DEFAULT_NODE_BUDGET) -> DavenportRecord:
    """D(G) by exhaustive search; the witness is the lexicographically first
    zero-sum-free sequence of maximal length (as a non-decreasing tuple)."""
    n = g.order
    if n == 1:
        return DavenportRecord(group=g, value=1, witness=(), method=METHOD_EXACT)

    elements = g.elements()  # rank 0 is the zero element
    neg_rank = [g.element_rank(g.neg(e)) for e in elements]
    translate = g.translate

    best_len = 0
    best_witness: tuple[int, ...] = ()
    stack: list[int] = []
    nodes = 0

    def dfs(min_rank: int, sums_mask: int) -> None:
        nonlocal best_len, best_witness, nodes
        for e in range(min_rank, n):
            if sums_mask >> neg_rank[e] & 1:
                continue  # appending e would close a zero-sum subset
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(
                    f"davenport_exact exhausted {node_budget} nodes on {g.describe()}",
                    lower_bound=best_len + 1,
                    witness=tuple([elements[r] for r in best_witness]),
                )
            # the old sums, plus e added to each of them and to the empty sum
            new_mask = sums_mask | translate(sums_mask | 1, elements[e])
            stack.append(e)
            if len(stack) > best_len:
                best_len = len(stack)
                best_witness = tuple(stack)
            dfs(e, new_mask)
            stack.pop()

    dfs(1, 0)
    witness = tuple([elements[r] for r in best_witness])
    return DavenportRecord(group=g, value=best_len + 1, witness=witness, method=METHOD_EXACT)


def davenport_formula(g: AbelianGroup) -> int | None:
    """Closed forms where they are known exactly; None otherwise.

    Cyclic: n.  Rank two d1 | d2: d1 + d2 - 1.  p-groups: 1 + sum (q_i - 1).
    """
    factors = g.invariant_factors
    if len(factors) <= 1:
        return g.order
    if len(factors) == 2:
        return factors[0] + factors[1] - 1
    primes = set()
    for d in factors:
        primes.update(_factorint(d))
    if len(primes) == 1:
        return 1 + sum(d - 1 for d in factors)
    return None


def generator_repeat_witness(g: AbelianGroup) -> tuple[Element, ...]:
    """d_i - 1 copies of each canonical generator, sorted lexicographically."""
    witness = []
    for i, d in enumerate(g.invariant_factors):
        gen = tuple([1 if j == i else 0 for j in range(g.rank)])
        witness.extend([gen] * (d - 1))
    return tuple(sorted(witness))


def davenport_formula_record(g: AbelianGroup) -> DavenportRecord | None:
    """The closed-form record with its generator-repeat witness; None when
    no closed form applies.

    The witness is zero-sum-free by construction, so it is not re-checked:
    a nonempty subsequence of d_i - 1 copies of each generator e_i sums to
    (c_1, ..., c_r) with 0 <= c_i < d_i and not all c_i zero.  Its length,
    sum (d_i - 1), is D - 1 for each of the closed forms.
    """
    value = davenport_formula(g)
    if value is None:
        return None
    return DavenportRecord(
        group=g, value=value, witness=generator_repeat_witness(g), method=METHOD_FORMULA
    )


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _read_cache_file(path: Path) -> dict[str, dict]:
    """The stored entries of a cache file, checked for shape only: a JSON
    object whose entries each hold an integer ``value`` and a ``witness``
    list of residue lists.  Anything else raises InvalidArgument."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise InvalidArgument(f"Davenport cache {path} is unreadable: {err}") from None
    if not isinstance(data, dict):
        raise InvalidArgument(
            f"Davenport cache {path} must hold a JSON object, got {type(data).__name__}"
        )
    for key, entry in data.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        witness = entry.get("witness") if isinstance(entry, dict) else None
        if not (
            _is_int(value)
            and isinstance(witness, list)
            and all(isinstance(e, list) and all(_is_int(r) for r in e) for e in witness)
        ):
            raise InvalidArgument(
                f"Davenport cache {path}: entry {key!r} needs an integer 'value' "
                f"and a 'witness' list of residue lists"
            )
    return data


class DavenportCache:
    """Map from canonical factor key ("d1xd2x...": "1" for the trivial group)
    to records; single-writer, optionally persisted as JSON.  A file that is
    not JSON, or whose entries lack an integer value or a witness list, is
    rejected with InvalidArgument when the cache is opened; so is an entry
    whose value or witness is wrong, when it is first decoded, and a file
    that cannot be written, when persisting.

    Records are decoded once and served as they are; ``put`` also keeps the
    entry in its JSON shape, which is what persisting writes.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._stored: dict[str, dict] = {}  # the file's entries, as JSON: read or put
        self._records: dict[str, DavenportRecord] = {}  # decoded, method "cache"
        if self.path is not None and self.path.exists():
            self._stored = _read_cache_file(self.path)

    @staticmethod
    def key_for(g: AbelianGroup) -> str:
        if not g.invariant_factors:
            return "1"
        return "x".join(str(d) for d in g.invariant_factors)

    def get(self, g: AbelianGroup) -> DavenportRecord | None:
        key = self.key_for(g)
        with self._lock:
            hit = self._records.get(key)
            if hit is None:
                entry = self._stored.get(key)
                if entry is None:
                    return None
                witness = tuple([tuple(e) for e in entry["witness"]])
                hit = DavenportRecord(group=g, value=entry["value"], witness=witness, method=METHOD_CACHE)
                self._check_entry(key, hit)
                self._records[key] = hit
        return hit

    def _check_entry(self, key: str, rec: DavenportRecord) -> None:
        """InvalidArgument unless a stored entry's value matches the closed
        form where one applies and its witness is value - 1 zero-sum-free
        elements of the group."""
        where = f"Davenport cache {self.path}: entry {key!r}"
        formula = davenport_formula(rec.group)
        if formula is not None and rec.value != formula:
            raise InvalidArgument(f"{where} has value {rec.value}, the closed form gives {formula}")
        try:
            free = len(rec.witness) == rec.value - 1 and zero_sum_free_check(rec.group, rec.witness)
        except InvalidElement:
            free = False
        if not free:
            raise InvalidArgument(
                f"{where} needs a witness of {rec.value - 1} zero-sum-free group elements"
            )

    def put(self, record: DavenportRecord) -> None:
        key = self.key_for(record.group)
        with self._lock:
            self._stored[key] = {
                "value": record.value,
                "witness": [list(e) for e in record.witness],
                "method": record.method,
            }
            self._records[key] = replace(record, method=METHOD_CACHE)
            if self.path is not None:
                self._persist()

    def _persist(self) -> None:
        from .serialize import atomic_write_text  # serialize imports this module

        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(str(self.path), json.dumps(self._stored, sort_keys=True, indent=2))
        except OSError as err:
            raise InvalidArgument(f"Davenport cache {self.path} cannot be written: {err}") from None


_default_cache = DavenportCache()


def davenport_get(
    g: AbelianGroup,
    cache: DavenportCache | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DavenportRecord:
    """Cache hit, else closed form, else exact search."""
    cache = cache if cache is not None else _default_cache
    hit = cache.get(g)
    if hit is not None:
        return hit
    record = davenport_formula_record(g)
    if record is None:
        record = davenport_exact(g, node_budget=node_budget)
    cache.put(record)
    return record
