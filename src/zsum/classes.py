"""Classes of words, made, counted and walked by one engine.

A class is a multiset of ``total`` letters over ``kinds`` kinds, each kind
at most ``cap`` times, kept as its count vector (c_0, ..., c_{kinds-1}).
The conjecture scan has two shapes of it: an x-class is (n, k, n), the
ranks of the group's n elements, each at most k times, n in all; a
w-class is (residues, k, k), the scan's weight residues mod exp(G), k in
all.  An exhaustive scan generates both directly as count vectors; the
budget caps the product of their numbers, which is worked out before
anything is generated.  Instances are then counted, not visited: a class
of counts c holds total! / prod(c_r!) words, and a w-class, whose residue
j has v_j weight values, prod(v_j ** c_j) times as many weight vectors.
The listed counterexamples and witnesses, and the first instance of a
proven regime that fails, come from one depth-first walk, lazily: x walks
the words over the ranks in lexicographic order, dropping a prefix whose
rank counts no chosen x-class contains, and for each x a nested walk of the
weight values in product order drops a prefix whose residue counts no
chosen weight class of x's class contains.  That is the canonical order,
and a listed instance costs at most 2n^2 + k * (|values| + residues) steps,
not a walk of the n^n sequences or the |values|^k weight product.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Sequence

from .groups import AbelianGroup, _orbit_roots


def _classes(kinds: int, cap: int, total: int) -> Iterator[tuple[int, ...]]:
    """Every count vector of ``kinds`` counts, each in [0, cap], summing to
    ``total``.  In descending lexicographic order, so the sorted words
    ascend; each step lowers the last count that can give one to the kinds
    after it, and refills those kinds greedily."""
    if total > kinds * cap:
        return
    counts = [0] * kinds

    def fill(start: int, left: int) -> None:
        for r in range(start, kinds):
            counts[r] = min(cap, left)
            left -= counts[r]

    fill(0, total)
    while True:
        yield tuple(counts)
        later = 0  # what the kinds after i hold
        for i in range(kinds - 2, -1, -1):
            later += counts[i + 1]
            if counts[i] and later < (kinds - 1 - i) * cap:
                counts[i] -= 1
                fill(i + 1, later + 1)
                break
        else:
            return


def _class_count(kinds: int, cap: int, total: int) -> int:
    """How many count vectors ``_classes`` yields: stars and bars, with
    inclusion-exclusion over the kinds that would take more than ``cap``."""
    return sum(
        (-1) ** j * math.comb(kinds, j) * math.comb(total - j * (cap + 1) + kinds - 1, kinds - 1)
        for j in range(total // (cap + 1) + 1)
    )


def _multinomial(counts: Sequence[int]) -> int:
    """How many words have these counts: sum(c)! / prod(c_r!)."""
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def _word(counts: Sequence[int]) -> tuple[int, ...]:
    """The sorted word of a count vector: each kind r, c_r times."""
    return tuple([r for r, c in enumerate(counts) for _ in range(c)])


def _orbits(
    g: AbelianGroup, x_classes: Sequence[tuple[int, ...]], w_classes: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[int]]:
    """The orbit roots (``groups._orbit_roots``) of a scan's x-classes, as
    count vectors of ranks, under the generators of the group's H <= Aut(G);
    and of its w-classes, as sorted residues mod exp(G), under multiplication
    by every unit mod exp(G).  Neither action changes whether a selection
    exists.  A generator phi moves count c_phi(r) to rank r: that is phi^-1
    moving c_r to rank phi^-1(r), and it links the same pairs of classes as
    phi does."""
    exponent = g.exponent
    units = [u for u in range(2, exponent) if math.gcd(u, exponent) == 1]
    return (
        _orbit_roots(x_classes, [lambda c, image=image: tuple(map(c.__getitem__, image))
                                 for image in g._automorphism_maps]),
        _orbit_roots(w_classes, [lambda w, u=u: tuple(sorted([u * r % exponent for r in w]))
                                 for u in units]),
    )


def _walk(
    letters: Sequence[int], kinds: Sequence[int], length: int,
    fits: Callable[[tuple[int, ...]], object],
) -> Iterator[tuple[int, ...]]:
    """The words of ``length`` letters whose counts per kind (``kinds[i]``
    is the kind of ``letters[i]``) ``fits`` accepts, in product order.
    ``fits`` takes the counts of a prefix and must be true exactly when some
    wanted class contains them, so a dead prefix is dropped at once and a
    word costs at most length * (len(letters) + kinds) steps.  One explicit
    stack holds the open positions, so a word is yielded from this frame,
    not through one generator frame per position."""
    word: list[int] = []
    # The open position: the counts of the prefix before it, the next letter
    # to try there, and, per kind, the counts with one more of it if fits
    # accepts them, else None, tested when the kind is first met.
    counts: tuple[int, ...] = (0,) * (max(kinds) + 1)
    at = 0
    live: dict[int, tuple[int, ...] | None] = {}
    stack: list[tuple[tuple[int, ...], int, dict[int, tuple[int, ...] | None]]] = []
    last = length - 1
    while True:
        if at == len(letters):
            if not stack:
                return
            counts, at, live = stack.pop()
            word.pop()
            continue
        letter, r = letters[at], kinds[at]
        at += 1
        if r not in live:
            more = counts[:r] + (counts[r] + 1,) + counts[r + 1:]
            live[r] = more if fits(more) else None
        more = live[r]
        if more is None:
            continue
        if len(word) == last:
            yield (*word, letter)
        else:
            stack.append((counts, at, live))
            word.append(letter)
            counts, at, live = more, 0, {}


def _containing(
    classes: list[tuple[int, ...]]
) -> Callable[[tuple[int, ...]], list[tuple[int, ...]]]:
    """``_walk``'s test for these classes' count vectors: the classes that
    contain the counts of a prefix, empty when none does.  Memoized, and
    read off the classes containing the counts with their last nonzero
    count lowered by one."""
    @functools.cache
    def holding(counts: tuple[int, ...]) -> list[tuple[int, ...]]:
        if not any(counts):
            return classes
        r = max([i for i, c in enumerate(counts) if c])
        lowered = counts[:r] + (counts[r] - 1,) + counts[r + 1:]
        return [c for c in holding(lowered) if c[r] >= counts[r]]

    return holding
