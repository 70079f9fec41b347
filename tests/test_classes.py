from __future__ import annotations

import itertools
from collections import Counter

import pytest

from zsum.classes import _class_count, _classes, _multinomial, _word
from zsum.davenport import davenport_get
from zsum.groups import groups_of_order


def _totals(kinds):
    """The totals checked for this many kinds: one below and at the number
    of kinds, kinds + D - 2 for every group of that order, and 1..6."""
    d_values = {davenport_get(g).value for g in groups_of_order(kinds)}
    return sorted({kinds - 1, kinds, *[kinds + d - 2 for d in d_values], *range(1, 7)})


@pytest.mark.parametrize("kinds", range(1, 7))
def test_the_engine_matches_a_filtered_product(kinds):
    # every cap from 1 to the total (the x shape is (n, k, n), the w shape
    # total = cap); the brute force is every count vector in the product,
    # kept when its sum is the total and no count passes the cap
    for total in _totals(kinds):
        summing = [c for c in itertools.product(range(total + 1), repeat=kinds)
                   if sum(c) == total]
        # how many words of this length have each count vector, when the
        # words are few enough to list
        if kinds ** total <= 100_000:
            words = Counter([tuple(map(word.count, range(kinds)))
                             for word in itertools.product(range(kinds), repeat=total)])
        else:
            words = None
        for cap in range(1, max(total, 1) + 1):
            expected = sorted([c for c in summing if max(c) <= cap], reverse=True)
            made = list(_classes(kinds, cap, total))
            assert made == expected, (kinds, cap, total)
            assert len(set(made)) == len(made)
            assert _class_count(kinds, cap, total) == len(made), (kinds, cap, total)
            for counts in made:
                word = _word(counts)
                assert list(word) == sorted(word)
                assert tuple(map(word.count, range(kinds))) == counts
                if words is not None:
                    assert _multinomial(counts) == words[counts], counts


def test_the_engine_covers_the_scan_shapes():
    # an x-class of Z_4 at k = 2: 19 count vectors, the first (2, 2, 0, 0);
    # the w-classes of 3 residues at k = 2: combinations_with_replacement's
    # order, as count vectors
    x = list(_classes(4, 2, 4))
    assert (len(x), x[0], x[-1]) == (19, (2, 2, 0, 0), (0, 0, 2, 2))
    w = [_word(c) for c in _classes(3, 2, 2)]
    assert w == list(itertools.combinations_with_replacement(range(3), 2))
    assert _class_count(4, 2, 4) * _class_count(3, 2, 2) == 114  # the Z_4 k=2 scan's classes
    assert _multinomial((2, 1, 1, 0)) == 12 and _multinomial(()) == 1
    assert list(_classes(3, 1, 4)) == [] and _class_count(3, 1, 4) == 0
