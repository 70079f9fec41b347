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
chosen weight class of x's class contains.  That is the canonical order.
Each open position keeps the chosen classes that contain its prefix and
filters them once per kind it meets, so a listed instance costs at most
2n^2 + k * (|values| + residues) steps, each a letter tried or one filter
over the classes still alive, not a walk of the n^n sequences or the
|values|^k weight product.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

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
    letters: Sequence[int], kinds: Sequence[int], length: int, classes: list[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The words of ``length`` letters whose counts per kind (``kinds[i]``
    is the kind of ``letters[i]``) some count vector of ``classes``
    contains, in product order.  Each open position keeps the classes that
    contain its prefix's counts, and narrows them with one filter
    (c[r] > counts[r]) when it first meets kind r, so a dead prefix is
    dropped at once and a word costs at most length * (len(letters) + kinds)
    steps, each a letter tried or one filter over the classes still alive.
    One explicit stack holds the open positions, so a word is yielded from
    this frame, not through one generator frame per position."""
    word: list[int] = []
    # The prefix's counts, and for the open position: the next letter to try
    # there, the classes containing the prefix, and, per kind met so far,
    # those of them that hold one more of it.
    counts = [0] * (max(kinds) + 1)
    at, alive, narrowed = 0, classes, {}
    stack: list[tuple[int, list[tuple[int, ...]], dict[int, list[tuple[int, ...]]]]] = []
    last = length - 1
    while True:
        if at == len(letters):
            if not stack:
                return
            at, alive, narrowed = stack.pop()
            counts[kinds[at - 1]] -= 1
            word.pop()
            continue
        letter, r = letters[at], kinds[at]
        at += 1
        more = narrowed.get(r)
        if more is None:
            held = counts[r]
            more = narrowed[r] = [c for c in alive if c[r] > held]
        if not more:
            continue
        if len(word) == last:
            yield (*word, letter)
        else:
            stack.append((at, alive, narrowed))
            word.append(letter)
            counts[r] += 1
            at, alive, narrowed = 0, more, {}
