"""Exact Davenport constants with zero-sum-free witnesses.

D(G) is 1 + (length of the longest zero-sum-free sequence over G).  The
exact search walks non-decreasing element sequences depth-first (killing
permutation symmetry) and prunes with the set of sums reachable from the
prefix, kept as a bit-vector indexed by lexicographic element rank:
appending e is legal iff e != 0 and -e is not already reachable, and the
new sums are one :meth:`AbelianGroup.translate` of the old ones by e.

The search is branch-and-bound.  A legal append adds at least one new
nonzero sum: sigma(S) + e is a sum of S.e but not of S, since
sigma(S) + e = sigma(T) for some T in S would make e + sigma(S - T) = 0.
So a prefix with s reachable sums grows by at most n - 1 - s more
elements, and a subtree that cannot outgrow the best sequence found so far
is skipped.  The best only moves on a strict increase and the walk is in
lexicographic preorder, so the witness is still the lexicographically
first zero-sum-free sequence of maximal length.

The first element ranges only over the nonzero ranks that are the smallest
in their orbit under a subgroup H of Aut(G) (``AbelianGroup._orbit_minima``).
An automorphism maps a zero-sum-free sequence to one of the same length, so
D is unchanged; and were phi(S_0) below the first element S_0 of the witness
S, sorted(phi(S)) would be a maximal sequence before S, so S is still found.

The same argument runs below the root.  While the prefix holds one distinct
element S_0, a new element must be the smallest in its orbit under
Stab_H(S_0); while it holds two, S_0 < S_1, under the pointwise stabilizer
Stab_H(S_0, S_1) (``AbelianGroup._minima_fixing``, by Schreier's lemma).
Such a phi fixes the prefix S_0 ... S_{j-1} of the witness S, so were
phi(S_j) < S_j, sorted(phi(S)) would again be a maximal sequence before S.
The walk visits a subset of the nodes it would visit otherwise, in the same
order, and finds the same witness.  A prefix with three distinct elements,
or one whose stabilizer is trivial, tries every candidate.

Closed forms (cyclic, rank two, p-groups) serve as cross-checks and as the
fast path in :func:`davenport_get`; everything lands in a cache keyed by
the canonical invariant factors, optionally persisted to a JSON file.
A closed-form witness (d_i - 1 copies of each generator) is zero-sum-free
by construction and is not re-checked at run time; the tests check it.
Cache-file entries come from outside the program, so each is checked when
first read; one that equals the closed-form record is accepted as it is.
"""

from __future__ import annotations

import json
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
    zero-sum-free sequence of maximal length (as a non-decreasing tuple).
    The walk keeps its own frames, so no recursion limit caps D(G).
    InvalidArgument for a node budget below 1."""
    if node_budget < 1:
        raise InvalidArgument(f"node budget {node_budget} must be >= 1")
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
    # (candidates still to try, sums of the prefix, symmetry left): first
    # elements are Aut(G)-orbit minima, as above, and later ones never fall
    # below the last.  The symmetry left is (distinct prefix elements,
    # minima of their stabilizer) while those are at most two and fix
    # something; every other frame tries all of range(e, n)
    frames = [(iter(g._orbit_minima), 0, ((), 0))]
    minima_fixing = g._minima_fixing
    while frames:
        candidates, sums_mask, symmetry = frames[-1]
        size = len(stack) + 1  # of the prefix with one candidate appended
        for e in candidates:
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
            if size > best_len:
                best_len = size
                best_witness = (*stack, e)
            # each further append adds a new nonzero sum: skip the subtree
            # unless that room can carry it past the best length
            if size + n - 1 - new_mask.bit_count() > best_len:
                stack.append(e)
                if symmetry is None:
                    frames.append((iter(range(e, n)), new_mask, None))
                    break  # descend; this frame resumes after e
                points, minima = symmetry
                if not points or points[-1] != e:
                    points = (*points, e)
                    minima = minima_fixing(points) if len(points) <= 2 else 0
                if minima:
                    kept = [r for r in range(e, n) if minima >> r & 1]
                    frames.append((iter(kept), new_mask, (points, minima)))
                else:
                    frames.append((iter(range(e, n)), new_mask, None))
                break  # as above
        else:  # every candidate tried: back up to the parent frame
            frames.pop()
            if stack:
                stack.pop()

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
    except RecursionError:
        raise InvalidArgument(f"Davenport cache {path} is nested too deeply to read") from None
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
        elements of the group.  The closed-form record's own witness is
        zero-sum-free by construction (see ``davenport_formula_record``), so
        an entry that carries it is accepted without the subset check."""
        where = f"Davenport cache {self.path}: entry {key!r}"
        formula = davenport_formula(rec.group)
        if formula is not None and rec.value != formula:
            raise InvalidArgument(f"{where} has value {rec.value}, the closed form gives {formula}")
        if formula is not None and rec.witness == generator_repeat_witness(rec.group):
            return
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
