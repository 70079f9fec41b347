"""Unweighted zero-sum subsequence solvers.

Three entry points share one engine and answer with sorted tuples of
1-based positions.  Each checks x first (``check_elements``), then its
length, k (an int) and the maximal repetition, which hashes the entries;
``_check_full_length`` is the bounded finder's, shared with
``conjecture_check_instance``.  The engine,
``_lex_smallest_subset``, trusts its input, so the weighted constructions
reach it directly on sequences built from a validated Instance.  A set of
group elements is a bitmask over element ranks
(:meth:`AbelianGroup.element_rank`); a search maps its sequence to ranks
once, and adding an element to every member of a set is one
:meth:`AbelianGroup.translate` by the element's rank.  A suffix table
records, per subset size and start position, the bitmask of sums reachable
from the tail; when every nonempty size is allowed the size axis collapses
to one "nonempty" mask per position.  A greedy forward pass over the table
then emits the witness whose sorted index list is lexicographically
smallest, which pins down golden outputs; its last pick, which must close
the sum, is a lookup of the one value that does.

Saturation: reach only grows toward the start of the sequence, so once a
mask is full (every element of G a sum), every earlier mask of that size
is full too.  The tables fill those in without a translate, which is exact,
not a heuristic; size 1 needs no translate at all, since it only gains x_p.

Searches of length at most 3 (the word1 blocks of theorem1's narrow phase)
skip the table: a kernel finds the same witness from an index of where
each value occurs, at a cost of about the length of the scan to the
answer.  A standalone search builds that index once per call; theorem1's
sliding windows keep their own, so a block costs no pass over the window.
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

from bisect import bisect_left, bisect_right
from typing import Sequence

from .davenport import davenport_get
from .errors import InvalidInstance, TheoremViolation
from .groups import AbelianGroup, Element, _checked_int, rho


def _suffix_reach(g: AbelianGroup, ranks: Sequence[int], cap: int) -> list[list[int]]:
    """columns[c][p] = bitmask (over element ranks) of the sums of the
    c-element subsets of positions p..m-1 of the sequence with element ranks
    ``ranks``, for 0 <= c <= cap; positions are 0-based and p = m is the
    empty tail, whose only sum is zero (rank 0).

    Column c at p is column c at p + 1 plus x_p added to column c - 1 at
    p + 1.  So columns only grow toward the start: once one is full (every
    element a sum), its earlier entries are all full and are filled in
    without a translate.  Column 1 needs none either: it gains x_p's bit.
    """
    m = len(ranks)
    full = (1 << g.order) - 1
    translate = g.translate
    columns = [[1] * (m + 1)]
    for c in range(1, cap + 1):
        prev = columns[-1]
        column = [0] * (m + 1)
        mask = 0
        for p in range(m - c, -1, -1):  # past m - c, fewer than c positions are left
            if mask == full:
                column[:p + 1] = [full] * (p + 1)
                break
            mask |= 1 << ranks[p] if c == 1 else translate(prev[p + 1], ranks[p])
            column[p] = mask
        columns.append(column)
    return columns


def _nonempty_reach(g: AbelianGroup, ranks: Sequence[int]) -> list[int]:
    """reach[p] = bitmask of the sums of the nonempty subsets of positions
    p..m-1: the suffix table with its size axis collapsed.  Once a mask is
    full, every earlier one is too, and the walk stops translating."""
    full = (1 << g.order) - 1
    translate = g.translate
    reach = [0]
    mask = 0
    for p in range(len(ranks) - 1, -1, -1):
        if mask == full:
            reach.extend([full] * (p + 1))
            break
        mask |= translate(mask | 1, ranks[p])  # bit 0: the empty sum
        reach.append(mask)
    reach.reverse()
    return reach


_GAVE_UP = object()  # the kernel's allowance ran out; the table decides

# (labels, labels_of) of a sequence, as _short_zero_sum reads it
Index = tuple[Sequence[int], dict[Element, list[int]]]


def _index(x: Sequence[Element]) -> Index:
    """The kernel's view of a plain sequence: its labels are its 0-based
    positions, and each value maps to the positions holding it, ascending."""
    labels_of: dict[Element, list[int]] = {}
    for p, e in enumerate(x):
        labels_of.setdefault(e, []).append(p)
    return range(len(x)), labels_of


def _short_zero_sum(
    g: AbelianGroup, x: Sequence[Element], hi: int, allowance: int, index: Index | None = None
) -> object:
    """The kernel for lo = 1 and hi <= 3: the lexicographically smallest
    sorted index tuple of size <= hi summing to zero, None when there is
    none, or _GAVE_UP once its inner scan has taken ``allowance`` steps.

    ``index`` is x's (labels, labels_of), a ``weighted._Window``'s own, or
    else ``_index(x)``, built once here: ``labels[p]`` increases with the
    0-based position p, and ``labels_of[v]`` lists the labels of the
    positions holding v, ascending.  So "v occurs after p" is one comparison
    with v's last label, and the first such position one bisection.

    Positions p are tried in order; the first that closes starts the
    answer.  p closes when x_p = 0, or (hi >= 2) when -x_p occurs after p,
    or (hi = 3) when some q > p has x_q = -x_p or has -x_p - x_q at a
    position after q.  A tuple sorts before its extensions, so the answer is
    the first closing p, alone if x_p = 0, then its first q, then the first
    r > q.  For hi <= 2 a position costs one lookup; for hi = 3 each q
    scanned is one step of the allowance.
    """
    labels, labels_of = index or _index(x)
    factors = g.invariant_factors
    zero = g.zero()
    m = len(x)

    def first_after(at: list[int], label: int) -> int:
        """1-based position of the first label of ``at`` past ``label``."""
        return bisect_left(labels, at[bisect_right(at, label)]) + 1

    for p, e in enumerate(x):
        if e == zero:
            return (p + 1,)
        if hi == 1:
            continue
        need = tuple([-r % d for r, d in zip(e, factors)])
        if hi == 2:
            at = labels_of.get(need)
            if at and at[-1] > labels[p]:
                return (p + 1, first_after(at, labels[p]))
            continue
        stop = min(m, p + 1 + allowance)
        for q in range(p + 1, stop):
            f = x[q]
            if f == need:
                return (p + 1, q + 1)
            rest = tuple([(a - b) % d for a, b, d in zip(need, f, factors)])
            at = labels_of.get(rest)
            if at and at[-1] > labels[q]:
                return (p + 1, q + 1, first_after(at, labels[q]))
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
    index = g.rank_index
    ranks = [index[e] for e in x]
    neg = g.neg_ranks

    # completes(p, need, count): some subset of positions p..m-1 sums to the
    # single-bit mask `need` and brings a prefix of `count` picks into [lo, hi]
    if lo <= 1 and hi >= m:
        reach = _nonempty_reach(g, ranks)

        def completes(p: int, need: int, count: int) -> bool:
            return bool(reach[p] & need)

    else:
        columns = _suffix_reach(g, ranks, hi)

        def completes(p: int, need: int, count: int) -> bool:
            return any(columns[c][p] & need for c in range(max(lo - count, 1), hi - count + 1))

    # `need` is the bit of minus the sum picked so far; bit 0 is zero
    need = 1
    if not completes(0, need, 0):
        return None

    chosen: list[int] = []
    for q in range(m):
        if len(chosen) == hi - 1:  # one pick left: the first x_q that closes
            chosen.append(ranks.index(need.bit_length() - 1, q) + 1)
            return tuple(chosen)
        need2 = g.translate(need, neg[ranks[q]])
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
    index: Index | None = None,
) -> tuple[int, ...] | None:
    """Lexicographically smallest sorted index tuple with size in [lo, hi]
    (lo >= 1) summing to zero, or None.  The entries of x are trusted.

    Searches of length at most 3 from lo = 1 go to the kernel, with an
    allowance of hi * |x| inner steps; past it, and for every other window,
    the suffix-table walk decides.  The kernel reads ``index`` (see
    ``_short_zero_sum``).
    """
    if lo > hi:
        return None
    if lo == 1 and hi <= 3:
        found = _short_zero_sum(g, x, hi, hi * len(x), index)
        if found is not _GAVE_UP:
            return found
    return _table_walk(g, x, lo, hi)


def _zero_sum(
    g: AbelianGroup,
    x: Sequence[Element],
    hi: int,
    index: Index | None = None,
) -> tuple[int, ...]:
    """The lexicographically smallest nonempty zero-sum of length <= hi in
    x, for a caller whose hypotheses guarantee one: the bounded fact, or the
    Davenport property.  The entries of x, and ``index`` when given (see
    ``_lex_smallest_subset``), are trusted."""
    indices = _lex_smallest_subset(g, x, 1, hi, index)
    if indices is None:
        raise TheoremViolation(
            f"no zero-sum subsequence of length <= {hi} in a length-{len(x)} "
            f"sequence over {g.describe()}"
        )
    return indices


def _check_full_length(g: AbelianGroup, x: Sequence[Element], k: int) -> None:
    """The bounded fact's hypotheses, in order: x passes ``check_elements``,
    |x| = |G|, k is an int in [1, |G|] and rho(x) <= k (InvalidInstance)."""
    g.check_elements(x)
    n = g.order
    if len(x) != n:
        raise InvalidInstance(f"need |x| = |G| = {n}, got {len(x)}")
    if not 1 <= _checked_int(k, "k =", InvalidInstance) <= n:
        raise InvalidInstance(f"k = {k} outside [1, {n}]")
    if rho(x) > k:
        raise InvalidInstance(f"maximal repetition {rho(x)} exceeds k = {k}")


def find_zero_sum_bounded(g: AbelianGroup, x: Sequence[Element], k: int) -> tuple[int, ...]:
    """Nonempty zero-sum subsequence of length <= k from a full-length
    sequence (|x| = |G|) with maximal repetition <= k."""
    _check_full_length(g, x, k)
    return _zero_sum(g, x, k)


def find_zero_sum_davenport(g: AbelianGroup, x: Sequence[Element]) -> tuple[int, ...]:
    """Nonempty zero-sum subsequence from any sequence of length >= D(G)."""
    g.check_elements(x)
    d = davenport_get(g).value
    if len(x) < d:
        raise InvalidInstance(f"need length >= D = {d}, got {len(x)}")
    return _zero_sum(g, x, len(x))


def find_zero_sum_exact_length(
    g: AbelianGroup, x: Sequence[Element], length: int
) -> tuple[int, ...] | None:
    """Zero-sum subsequence of exactly the given length, or None."""
    g.check_elements(x)
    if not 1 <= _checked_int(length, "length", InvalidInstance) <= len(x):
        raise InvalidInstance(f"length {length} outside [1, {len(x)}]")
    return _lex_smallest_subset(g, x, length, length)
