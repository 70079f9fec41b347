"""Unweighted zero-sum subsequence solvers.

Three entry points share one engine and answer with sorted tuples of
1-based positions.  Each validates its sequence once, every entry before
the maximal repetition (which hashes them); the engine,
``_lex_smallest_subset``, trusts its input, so the weighted constructions
reach it directly on sequences built from a validated Instance.  A set of
group elements is a bitmask over element ranks
(:meth:`AbelianGroup.element_rank`); a search maps its sequence to ranks
once, and adding an element to every member of a set is one
:meth:`AbelianGroup.translate` by the element's rank.  A suffix table
records, per start position and subset size, the bitmask of sums reachable
from the tail; when every nonempty size is allowed the size axis collapses
to one "nonempty" mask per position.  A greedy forward pass over the table
then emits the witness whose sorted index list is lexicographically
smallest, which pins down golden outputs.

Searches of length at most 3 (the word1 blocks of theorem1's narrow phase)
skip the table: a kernel finds the same witness from a last-position map
of the values, at a cost of about the length of the scan to the answer.
Its inner scan has an allowance of cap * |x| steps; a sequence that uses
it up (long runs with no short zero-sum, such as 1, 1, 1, 2, 2, 2, ... in
Z_1024) goes to the table, so the worst case stays within a constant of
the table's.

The bounded solver realizes the classical fact that a length-n sequence
over a group of order n with maximal repetition <= k contains a nonempty
zero-sum subsequence of length <= k; the Davenport solver realizes the
defining property of D(G).  Both, and the weighted constructions built on
these two facts, search through ``_zero_sum``: their preconditions
guarantee success, so an empty-handed search raises TheoremViolation,
never "absent".
"""

from __future__ import annotations

from typing import Sequence

from .davenport import davenport_get
from .errors import InvalidInstance, TheoremViolation
from .groups import AbelianGroup, Element, rho


def _suffix_reach(g: AbelianGroup, ranks: Sequence[int], cap: int) -> list[list[int]]:
    """tables[p][c] = bitmask (over element ranks) of the sums of the
    c-element subsets of positions p..m-1 of the sequence with element ranks
    ``ranks``, for c <= cap; positions are 0-based and tables[m] is the
    empty tail, whose only sum is zero (rank 0)."""
    m = len(ranks)
    translate = g.translate
    tail = [1] + [0] * cap
    tables = [tail]
    for p in range(m - 1, -1, -1):
        e = ranks[p]
        cur = tail.copy()
        for c in range(min(cap, m - p), 0, -1):
            if tail[c - 1]:
                cur[c] |= translate(tail[c - 1], e)
        tables.append(cur)
        tail = cur
    tables.reverse()
    return tables


def _nonempty_reach(g: AbelianGroup, ranks: Sequence[int]) -> list[int]:
    """reach[p] = bitmask of the sums of the nonempty subsets of positions
    p..m-1: the suffix table with its size axis collapsed."""
    translate = g.translate
    reach = [0]
    mask = 0
    for p in range(len(ranks) - 1, -1, -1):
        mask |= translate(mask | 1, ranks[p])  # bit 0: the empty sum
        reach.append(mask)
    reach.reverse()
    return reach


_GAVE_UP = object()  # the kernel's allowance ran out; the table decides


def _short_zero_sum(
    g: AbelianGroup, x: Sequence[Element], hi: int, allowance: int
) -> object:
    """The kernel for lo = 1 and hi <= 3: the lexicographically smallest
    sorted index tuple of size <= hi summing to zero, None when there is
    none, or _GAVE_UP once its inner scan has taken ``allowance`` steps.

    One pass records the last position of every value.  Then positions p
    are tried in order; the first that closes starts the answer.  p closes
    when x_p = 0, or (hi >= 2) when -x_p occurs after p, or (hi = 3) when
    some q > p has x_q = -x_p or has -x_p - x_q at a position after q.  A
    tuple sorts before its extensions, so the answer is the first closing p,
    alone if x_p = 0, then its first q, then the first r > q.  For hi <= 2 a
    position costs one lookup; for hi = 3 each q scanned is one step of the
    allowance.
    """
    factors = g.invariant_factors
    zero = g.zero()
    m = len(x)
    last = dict(zip(x, range(m)))  # later positions overwrite earlier ones
    for p, e in enumerate(x):
        if e == zero:
            return (p + 1,)
        if hi == 1:
            continue
        need = tuple([-r % d for r, d in zip(e, factors)])
        if hi == 2:
            if last.get(need, -1) > p:
                return (p + 1, x.index(need, p + 1) + 1)
            continue
        stop = min(m, p + 1 + allowance)
        for q in range(p + 1, stop):
            f = x[q]
            if f == need:
                return (p + 1, q + 1)
            rest = tuple([(a - b) % d for a, b, d in zip(need, f, factors)])
            if last.get(rest, -1) > q:
                return (p + 1, q + 1, x.index(rest, q + 1) + 1)
        if stop < m:
            return _GAVE_UP
        allowance -= stop - p - 1
    return None


def _table_walk(
    g: AbelianGroup,
    x: Sequence[Element],
    lo: int,
    hi: int,
) -> tuple[int, ...] | None:
    """The suffix-table walk behind _lex_smallest_subset."""
    m = len(x)
    factors = g.invariant_factors
    index = g.rank_index
    ranks = [index[e] for e in x]
    neg = [index[tuple([-r % d for r, d in zip(e, factors)])] for e in x]

    # completes(p, need, count): some subset of positions p..m-1 sums to the
    # single-bit mask `need` and brings a prefix of `count` picks into [lo, hi]
    if lo <= 1 and hi >= m:
        reach = _nonempty_reach(g, ranks)

        def completes(p: int, need: int, count: int) -> bool:
            return bool(reach[p] & need)

    else:
        tables = _suffix_reach(g, ranks, hi)

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


def _lex_smallest_subset(
    g: AbelianGroup,
    x: Sequence[Element],
    lo: int,
    hi: int,
) -> tuple[int, ...] | None:
    """Lexicographically smallest sorted index tuple with size in [lo, hi]
    (lo >= 1) summing to zero, or None.  The entries of x are trusted.

    Searches of length at most 3 from lo = 1 go to the kernel, with an
    allowance of hi * |x| inner steps; past it, and for every other window,
    the suffix-table walk decides.
    """
    if lo > hi:
        return None
    if lo == 1 and hi <= 3:
        found = _short_zero_sum(g, x, hi, hi * len(x))
        if found is not _GAVE_UP:
            return found
    return _table_walk(g, x, lo, hi)


def _zero_sum(g: AbelianGroup, x: Sequence[Element], hi: int) -> tuple[int, ...]:
    """The lexicographically smallest nonempty zero-sum of length <= hi in
    x, for a caller whose hypotheses guarantee one: the bounded fact, or the
    Davenport property.  The entries of x are trusted."""
    indices = _lex_smallest_subset(g, x, 1, hi)
    if indices is None:
        raise TheoremViolation(
            f"no zero-sum subsequence of length <= {hi} in a length-{len(x)} "
            f"sequence over {g.describe()}"
        )
    return indices


def _check_elements(g: AbelianGroup, x: Sequence[Element]) -> None:
    for e in x:
        g.check_element(e)


def find_zero_sum_bounded(g: AbelianGroup, x: Sequence[Element], k: int) -> tuple[int, ...]:
    """Nonempty zero-sum subsequence of length <= k from a full-length
    sequence (|x| = |G|) with maximal repetition <= k."""
    n = g.order
    if len(x) != n:
        raise InvalidInstance(f"need a sequence of length |G| = {n}, got {len(x)}")
    if type(k) is not int:
        raise InvalidInstance(f"length cap k = {k!r} is not an integer")
    if not 1 <= k <= n:
        raise InvalidInstance(f"length cap k = {k} outside [1, {n}]")
    _check_elements(g, x)
    if rho(x) > k:
        raise InvalidInstance(f"maximal repetition {rho(x)} exceeds cap {k}")
    return _zero_sum(g, x, k)


def find_zero_sum_davenport(g: AbelianGroup, x: Sequence[Element]) -> tuple[int, ...]:
    """Nonempty zero-sum subsequence from any sequence of length >= D(G)."""
    d = davenport_get(g).value
    if len(x) < d:
        raise InvalidInstance(f"need length >= D = {d}, got {len(x)}")
    _check_elements(g, x)
    return _zero_sum(g, x, len(x))


def find_zero_sum_exact_length(
    g: AbelianGroup, x: Sequence[Element], length: int
) -> tuple[int, ...] | None:
    """Zero-sum subsequence of exactly the given length, or None."""
    if type(length) is not int:
        raise InvalidInstance(f"length {length!r} is not an integer")
    if not 1 <= length <= len(x):
        raise InvalidInstance(f"length {length} outside [1, {len(x)}]")
    _check_elements(g, x)
    return _lex_smallest_subset(g, x, length, length)
