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
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .errors import BudgetExceeded, InvalidInstance
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


class DavenportCache:
    """Map from canonical factor key ("d1xd2x...": "1" for the trivial group)
    to records; single-writer, optionally persisted as JSON.

    Records are decoded once and served as they are; JSON is written only
    when persisting.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._stored: dict[str, dict] = {}  # entries read from the file, verbatim
        self._records: dict[str, DavenportRecord] = {}  # decoded, method "cache"
        self._new: dict[str, DavenportRecord] = {}  # put since loading, method as found
        if self.path is not None and self.path.exists():
            self._stored = json.loads(self.path.read_text(encoding="utf-8"))

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
                self._records[key] = hit
        return hit

    def put(self, record: DavenportRecord) -> None:
        key = self.key_for(record.group)
        with self._lock:
            self._new[key] = record
            self._records[key] = replace(record, method=METHOD_CACHE)
            if self.path is not None:
                self._persist()

    def _persist(self) -> None:
        # temp file + rename so readers never see a torn write
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            data = dict(self._stored)
            for key, rec in self._new.items():
                data[key] = {
                    "value": rec.value,
                    "witness": [list(e) for e in rec.witness],
                    "method": rec.method,
                }
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True, indent=2)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


_default_cache = DavenportCache()


def davenport_get(
    g: AbelianGroup,
    cache: DavenportCache | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DavenportRecord:
    """Cache hit, else closed form with a validated witness, else exact search."""
    cache = cache if cache is not None else _default_cache
    hit = cache.get(g)
    if hit is not None:
        return hit
    value = davenport_formula(g)
    if value is not None:
        witness = generator_repeat_witness(g)
        if len(witness) + 1 != value or not zero_sum_free_check(g, witness):
            raise InvalidInstance(
                f"formula witness failed validation for {g.describe()}"
            )  # pragma: no cover - guards formula table corruption
        record = DavenportRecord(group=g, value=value, witness=witness, method=METHOD_FORMULA)
    else:
        record = davenport_exact(g, node_budget=node_budget)
    cache.put(record)
    return record
