"""Unweighted zero-sum subsequence solvers.

Three entry points share one engine.  The sequence is validated once at
entry; after that a set of group elements is a bitmask over element ranks
(:meth:`AbelianGroup.element_rank`) and adding an element to every member
of a set is one :meth:`AbelianGroup.translate`.  A suffix table records,
per start position and subset size, the bitmask of sums reachable from the
tail; when every nonempty size is allowed the size axis collapses to one
"nonempty" mask per position.  A greedy forward pass over the table then
emits the witness whose sorted index list is lexicographically smallest,
which pins down golden outputs.

The bounded solver realizes the classical fact that a length-n sequence
over a group of order n with maximal repetition <= k contains a nonempty
zero-sum subsequence of length <= k; the Davenport solver realizes the
defining property of D(G).  Both are guaranteed to succeed under their
preconditions, so an empty-handed search raises TheoremViolation instead
of returning "absent".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .davenport import davenport_get
from .errors import InvalidInstance, TheoremViolation
from .groups import AbelianGroup, Element, rho


@dataclass(frozen=True)
class ZeroSumWitness:
    """Sorted 1-based positions whose elements sum to the group zero."""

    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def _suffix_reach(g: AbelianGroup, x: Sequence[Element], cap: int) -> list[list[int]]:
    """tables[p][c] = bitmask (over element ranks) of the sums of the
    c-element subsets of positions p..m-1, for c <= cap; positions are
    0-based and tables[m] is the empty tail, whose only sum is zero (rank 0)."""
    m = len(x)
    translate = g.translate
    tail = [1] + [0] * cap
    tables = [tail]
    for p in range(m - 1, -1, -1):
        e = x[p]
        cur = tail.copy()
        for c in range(min(cap, m - p), 0, -1):
            if tail[c - 1]:
                cur[c] |= translate(tail[c - 1], e)
        tables.append(cur)
        tail = cur
    tables.reverse()
    return tables


def _nonempty_reach(g: AbelianGroup, x: Sequence[Element]) -> list[int]:
    """reach[p] = bitmask of the sums of the nonempty subsets of positions
    p..m-1: the suffix table with its size axis collapsed."""
    translate = g.translate
    reach = [0]
    mask = 0
    for p in range(len(x) - 1, -1, -1):
        mask |= translate(mask | 1, x[p])  # bit 0: the empty sum
        reach.append(mask)
    reach.reverse()
    return reach


def _lex_smallest_subset(
    g: AbelianGroup,
    x: Sequence[Element],
    lo: int,
    hi: int,
) -> tuple[int, ...] | None:
    """Lexicographically smallest sorted index tuple with size in [lo, hi]
    (lo >= 1) summing to zero, or None."""
    m = len(x)
    for e in x:
        g.check_element(e)
    if lo > hi:
        return None
    factors = g.invariant_factors
    neg = [tuple([-r % d for r, d in zip(e, factors)]) for e in x]

    # completes(p, need, count): some subset of positions p..m-1 sums to the
    # single-bit mask `need` and brings a prefix of `count` picks into [lo, hi]
    if lo <= 1 and hi >= m:
        reach = _nonempty_reach(g, x)

        def completes(p: int, need: int, count: int) -> bool:
            return bool(reach[p] & need)

    else:
        tables = _suffix_reach(g, x, hi)

        def completes(p: int, need: int, count: int) -> bool:
            row = tables[p]
            return any(row[c] & need for c in range(max(lo - count, 1), hi - count + 1))

    # `need` is the bit of minus the sum picked so far; bit 0 is zero
    need = 1
    if not completes(0, need, 0):
        return None

    chosen: list[int] = []
    for q in range(m):
        need2 = g.translate(need, neg[q])
        c2 = len(chosen) + 1
        if need2 & 1 and lo <= c2 <= hi:
            chosen.append(q + 1)
            return tuple(chosen)
        if completes(q + 1, need2, c2):
            chosen.append(q + 1)
            need = need2
    raise AssertionError(  # pragma: no cover - unreachable once the feasibility gate passed
        "suffix tables promised a completion that does not exist"
    )


def find_zero_sum_bounded(g: AbelianGroup, x: Sequence[Element], k: int) -> ZeroSumWitness:
    """Nonempty zero-sum subsequence of length <= k from a full-length
    sequence (|x| = |G|) with maximal repetition <= k."""
    n = g.order
    if len(x) != n:
        raise InvalidInstance(f"need a sequence of length |G| = {n}, got {len(x)}")
    if not 1 <= k <= n:
        raise InvalidInstance(f"length cap k = {k} outside [1, {n}]")
    if rho(x) > k:
        raise InvalidInstance(f"maximal repetition {rho(x)} exceeds cap {k}")
    indices = _lex_smallest_subset(g, x, 1, k)
    if indices is None:
        raise TheoremViolation(
            f"no zero-sum subsequence of length <= {k} in {x!r} over {g.describe()}"
        )
    return ZeroSumWitness(indices=indices)


def find_zero_sum_davenport(
    g: AbelianGroup,
    x: Sequence[Element],
    davenport_value: int | None = None,
) -> ZeroSumWitness:
    """Nonempty zero-sum subsequence from any sequence of length >= D(G)."""
    d = davenport_value if davenport_value is not None else davenport_get(g).value
    if len(x) < d:
        raise InvalidInstance(f"need length >= D = {d}, got {len(x)}")
    indices = _lex_smallest_subset(g, x, 1, len(x))
    if indices is None:
        raise TheoremViolation(
            f"length-{len(x)} sequence over {g.describe()} (D = {d}) has no zero-sum subsequence"
        )
    return ZeroSumWitness(indices=indices)


def find_zero_sum_exact_length(
    g: AbelianGroup, x: Sequence[Element], length: int
) -> ZeroSumWitness | None:
    """Zero-sum subsequence of exactly the given length, or None."""
    if not 1 <= length <= len(x):
        raise InvalidInstance(f"length {length} outside [1, {len(x)}]")
    indices = _lex_smallest_subset(g, x, length, length)
    if indices is None:
        return None
    return ZeroSumWitness(indices=indices)
