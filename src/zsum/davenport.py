"""Exact Davenport constants with zero-sum-free witnesses.

D(G) is 1 + (length of the longest zero-sum-free sequence over G).  The
exact search walks non-decreasing element sequences depth-first (killing
permutation symmetry) and prunes with the set of sums reachable from the
prefix, kept as a bit-vector indexed by lexicographic element rank:
appending e is legal iff e != 0 and -e is not already reachable, and the
new sums are one :meth:`AbelianGroup.translate` of the old ones by the rank
of e.

The search is branch-and-bound.  A legal append adds at least one new
nonzero sum: sigma(S) + e is a sum of S.e but not of S, since
sigma(S) + e = sigma(T) for some T in S would make e + sigma(S - T) = 0.
So a prefix with s reachable sums grows by at most n - 1 - s more
elements, and a subtree that cannot outgrow the best sequence found so far
is skipped.  The best only moves on a strict increase and the walk is in
lexicographic preorder, so the witness is still the lexicographically
first zero-sum-free sequence of maximal length.

The first element ranges only over the nonzero ranks that are the smallest
in their orbit under a subgroup H of Aut(G) (``_minima_fixing`` of no point;
the generators of H are ``AbelianGroup._automorphism_maps``).
An automorphism maps a zero-sum-free sequence to one of the same length, so
D is unchanged; and were phi(S_0) below the first element S_0 of the witness
S, sorted(phi(S)) would be a maximal sequence before S, so S is still found.

The same argument runs below the root.  While the prefix holds one distinct
element S_0, a new element must be the smallest in its orbit under
Stab_H(S_0); while it holds two, S_0 < S_1, under the pointwise stabilizer
Stab_H(S_0, S_1) (the same entry, by Schreier's lemma).
Such a phi fixes the prefix S_0 ... S_{j-1} of the witness S, so were
phi(S_j) < S_j, sorted(phi(S)) would again be a maximal sequence before S.
The walk visits a subset of the nodes it would visit otherwise, in the same
order, and finds the same witness.  A prefix with three distinct elements,
or one whose stabilizer is trivial, tries every candidate.  A frame
carries only its fixed points; ``_minima_fixing`` is cached by group value.

The walk also remembers, by their sums, prefixes it has finished.  Whether
T extends a zero-sum-free prefix S depends on S only through its set of
sums M: S.T is zero-sum-free iff T is and no sum of T is the negative of
one in M, since a zero-sum subset of S.T is a subset of S plus one of T.
So a frame with sums M and last element e has the continuations C(M, e),
and C(M, e) only shrinks as e grows.  When a frame that tried every
candidate in range(e, n) pops, no continuation carried S past best_len,
so every one in C(M, e) has at most best_len - |S| elements.  The
per-call memo keeps that room and e, as one int, under the key M (a
later frame on the same sums overwrites it).  A child with sums M and an
element e' >= e can then reach at most size + room elements, and it is
skipped when that is at most best_len.  Like the room bound above, this
skips only subtrees that cannot strictly beat the best, so the value and
the witness are those of the walk without the memo; a skipped child is
still a counted node, so the budget rule is unchanged.  Only a frame with
no fixed points writes an entry, because a frame reduced to stabilizer
minima may miss continuations; every frame reads.  A frame also writes
nothing when its room is not below n - 1 - |M|, the room its sum count
already leaves, since such an entry could skip no child the count bound
keeps.  The memo holds at most ``_SUMS_MEMO_CAP`` entries, two ints each
(the key is a mask the walk made anyway), and is cleared when a write
passes that.  On Z_2^2 x Z_14 (CPython 3.11, shared 2-core container)
the search peaks at 35 MB of RSS with the cap and 80 MB without it, in
5.5 s and 4.8 s; without the memo it peaks at 19 MB in about 13 s.

One closed form, Olson's D* = 1 + sum (d_i - 1), is D(G) at rank <= 2 and
on p-groups; it is a cross-check and the fast path of :func:`davenport_get`
after an earlier lookup in the same process.  The groups of order <= 64 it
misses are served from SEARCHED_FACTORS, and any other group is searched.
Nothing is read from or written to a file.  The D* witness (d_i - 1 copies
of each generator) is zero-sum-free by construction and is not re-checked
at run time; the tests check it.  ``davenport_exact``, ``davenport_get``
and the CLI check a node budget first, searched or not, with one rule,
``_check_budget``.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, Sequence

from .errors import BudgetExceeded, InvalidArgument
from .groups import AbelianGroup, Element, Record, _checked_int, _factorint, _orbit_roots

DEFAULT_NODE_BUDGET = 10**8

# The most entries the sums memo of one davenport_exact call holds; one more
# clears it (see the module docstring for the memory this bounds)
_SUMS_MEMO_CAP = 1 << 17

METHOD_EXACT = "exact_search"
METHOD_FORMULA = "formula"
METHOD_CACHE = "cache"

# The invariant factors of every group of order <= 64 that no closed form
# covers.  On each, the exact search finds D = D* with
# generator_repeat_witness(g) as its witness (the tests re-derive both), so
# davenport_get serves that record without repeating the search, which takes
# up to about 5 s (Z_2^2 x Z_14).  D = D* on C_2 + C_2 + C_2n is also
# proven (Gao and Geroldinger, Zero-sum problems in finite abelian groups,
# 2006).
SEARCHED_FACTORS = frozenset({
    (2, 2, 6), (2, 2, 10), (2, 2, 12), (2, 2, 14), (2, 2, 2, 6), (3, 3, 6),
})


class DavenportRecord(Record):
    group: AbelianGroup
    value: int
    witness: tuple[Element, ...]
    method: str


def zero_sum_free_check(g: AbelianGroup, seq: Sequence[Element]) -> bool:
    """True iff no nonempty subset of seq sums to zero, once ``seq`` has
    passed ``check_elements`` (InvalidInstance or InvalidElement otherwise).

    Incremental reachable-sum set: zero first appears exactly when some new
    element e is itself zero or hits -e among the sums so far.
    """
    g.check_elements(seq)
    zero = g.zero()
    sums: set[Element] = set()
    for e in seq:
        if e == zero or g.neg(e) in sums:
            return False
        sums = sums | {g.add(s, e) for s in sums} | {e}
    return True


def _schreier_generators(
    n: int, maps: Sequence[Sequence[int]], point: int
) -> Iterator[tuple[int, ...]]:
    """Generators of the stabilizer of ``point`` in the group that the
    permutations ``maps`` of [0, n) generate (Schreier's lemma): u_c^-1 g u_b
    for each b in the orbit of ``point`` and each g, where c = g(b) and u_b
    is a product of generators carrying ``point`` to b.  Identities are left
    out; repeats are not."""
    identity = tuple(range(n))
    transversal = {point: identity}
    orbit = [point]
    for b in orbit:
        u = transversal[b]
        for g in maps:
            if g[b] not in transversal:
                transversal[g[b]] = tuple([g[x] for x in u])
                orbit.append(g[b])
    inverses: dict[int, list[int]] = {}
    for b in orbit:
        u = transversal[b]
        for g in maps:
            c = g[b]
            inverse = inverses.get(c)
            if inverse is None:
                inverse = inverses[c] = [0] * n
                for x, y in enumerate(transversal[c]):
                    inverse[y] = x
            s = tuple([inverse[g[x]] for x in u])
            if s != identity:
                yield s


@cache
def _stabilizer(g: AbelianGroup, a: int) -> tuple[tuple[int, ...], ...]:
    """Generators of Stab_H(a), for the H of ``AbelianGroup._automorphism_maps``
    and a rank a, repeats removed; cached by the group's value."""
    return tuple(set(_schreier_generators(g.order, g._automorphism_maps, a)))


@cache
def _minima_fixing(g: AbelianGroup, points: tuple[int, ...]) -> int:
    """Bit mask of the ranks that are the smallest in their orbit under the
    pointwise stabilizer in H of zero, one or two ranks ``points`` (H
    itself for none); 0 when that stabilizer is trivial.  Schreier's lemma
    gives generators of Stab_H(a, b) from those of Stab_H(a).  Cached by the
    group's value, so equal groups share their entries."""
    n = g.order
    gens = _stabilizer(g, points[0]) if points else g._automorphism_maps
    if len(points) == 2 and gens:
        gens = _schreier_generators(n, gens, points[1])
    mask = 0
    for r, root in enumerate(_orbit_roots(range(n), [image.__getitem__ for image in gens])):
        if root == r:
            mask |= 1 << r
    return 0 if mask == (1 << n) - 1 else mask


def _check_budget(node_budget: object) -> None:
    """InvalidArgument unless the node budget is an int >= 1 (bools refused)."""
    if _checked_int(node_budget, "node budget", InvalidArgument) < 1:
        raise InvalidArgument(f"node budget {node_budget} must be >= 1")


def davenport_exact(g: AbelianGroup, node_budget: int = DEFAULT_NODE_BUDGET) -> DavenportRecord:
    """D(G) by exhaustive search; the witness is the lexicographically first
    zero-sum-free sequence of maximal length (as a non-decreasing tuple).
    The walk keeps its own frames, so no recursion limit caps D(G).
    InvalidArgument unless the node budget passes ``_check_budget``."""
    _check_budget(node_budget)
    n = g.order
    elements = g.elements()  # rank 0 is the zero element
    neg_rank = g.neg_ranks
    translate = g.translate

    best_len = 0
    best_witness: tuple[int, ...] = ()
    stack: list[int] = []
    nodes = 0
    # sums mask of a finished frame -> room * n + last element (module docstring)
    memo: dict[int, int] = {}
    # (candidates still to try, sums of the prefix, fixed points): first
    # elements are nonzero H-orbit minima (none on Z_1), as above, and later
    # ones never fall below the last.  The fixed points are the distinct
    # prefix elements while they are at most two and their stabilizer is
    # not trivial, else None; a frame with None tries all of range(e, n)
    root = _minima_fixing(g, ())
    frames = [(iter([r for r in range(1, n) if not root or root >> r & 1]), 0, ())]
    while frames:
        candidates, sums_mask, points = frames[-1]
        size = len(stack) + 1  # of the prefix with one candidate appended
        for e in candidates:
            if sums_mask >> neg_rank[e] & 1:
                continue  # appending e would close a zero-sum subset
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(
                    f"davenport_exact exhausted {node_budget} nodes on {g.describe()}: "
                    f"D >= {best_len + 1}",
                    lower_bound=best_len + 1,
                    witness=tuple([elements[r] for r in best_witness]),
                )
            # the old sums, plus e added to each of them and to the empty sum
            new_mask = sums_mask | translate(sums_mask | 1, e)
            if size > best_len:
                best_len = size
                best_witness = (*stack, e)
            # each further append adds a new nonzero sum: skip the subtree
            # unless that room can carry it past the best length
            if size + n - 1 - new_mask.bit_count() > best_len:
                # a finished walk from these sums, from an element <= e,
                # bounds what can still follow them
                known = memo.get(new_mask)
                if known is not None and known % n <= e and size + known // n <= best_len:
                    continue
                stack.append(e)
                fixed = points
                if fixed is not None and fixed[-1:] != (e,):
                    fixed = (*fixed, e) if len(fixed) < 2 else None
                minima = fixed is not None and _minima_fixing(g, fixed)
                if minima:
                    kept = [r for r in range(e, n) if minima >> r & 1]
                    frames.append((iter(kept), new_mask, fixed))
                else:
                    frames.append((iter(range(e, n)), new_mask, None))
                break  # descend; this frame resumes after e
        else:  # every candidate tried: back up to the parent frame
            frames.pop()
            # an unreduced frame records the room left after it and its last
            # element under its sums, where that room is below the one its
            # sum count leaves
            if points is None and len(stack) + n - 1 - sums_mask.bit_count() > best_len:
                memo[sums_mask] = (best_len - len(stack)) * n + stack[-1]
                if len(memo) > _SUMS_MEMO_CAP:
                    memo.clear()
            if stack:
                stack.pop()

    witness = tuple([elements[r] for r in best_witness])
    return DavenportRecord(group=g, value=best_len + 1, witness=witness, method=METHOD_EXACT)


def davenport_formula(g: AbelianGroup) -> int | None:
    """D* = 1 + sum (d_i - 1) where it is known to be D(G): rank at most
    two, or exp(G) a prime power (every d_i divides exp(G), so G is then a
    p-group); None otherwise."""
    if g.rank <= 2 or len(_factorint(g.exponent)) == 1:
        return 1 + sum(d - 1 for d in g.invariant_factors)
    return None


def generator_repeat_witness(g: AbelianGroup) -> tuple[Element, ...]:
    """d_i - 1 copies of each canonical generator, sorted lexicographically."""
    witness = []
    for i, d in enumerate(g.invariant_factors):
        gen = tuple([1 if j == i else 0 for j in range(g.rank)])
        witness.extend([gen] * (d - 1))
    return tuple(sorted(witness))


def _d_star_record(g: AbelianGroup, method: str) -> DavenportRecord:
    """D* = 1 + |witness| with the generator-repeat witness, unchecked: a
    nonempty subsequence of d_i - 1 copies of each generator e_i sums to
    (c_1, ..., c_r) with 0 <= c_i < d_i and not all c_i zero."""
    witness = generator_repeat_witness(g)
    return DavenportRecord(group=g, value=len(witness) + 1, witness=witness, method=method)


def davenport_formula_record(g: AbelianGroup) -> DavenportRecord | None:
    """The D* record, method "formula", where D* = D(G); None otherwise."""
    if davenport_formula(g) is None:
        return None
    return _d_star_record(g, METHOD_FORMULA)


_memo: dict[tuple[int, ...], DavenportRecord] = {}  # by invariant factors, method "cache"


def davenport_get(g: AbelianGroup, node_budget: int = DEFAULT_NODE_BUDGET) -> DavenportRecord:
    """D(G) from, in order: an earlier lookup in this process (method
    "cache"), the closed form, the record of a group in SEARCHED_FACTORS,
    else the exact search; the node budget is checked first."""
    _check_budget(node_budget)
    key = g.invariant_factors
    hit = _memo.get(key)
    if hit is not None:
        return hit
    record = davenport_formula_record(g)
    if record is None and key in SEARCHED_FACTORS:
        record = _d_star_record(g, METHOD_EXACT)
    elif record is None:
        record = davenport_exact(g, node_budget=node_budget)
    _memo[key] = record.replace(method=METHOD_CACHE)
    return record
