from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zsum import zerosum
from zsum.davenport import davenport_get
from zsum.errors import InvalidElement, InvalidInstance, TheoremViolation
from zsum.groups import canonicalize, groups_up_to_order, rho
from zsum.weighted import Instance, solve
from zsum.zerosum import (
    find_zero_sum_bounded,
    find_zero_sum_davenport,
    find_zero_sum_exact_length,
)


def _oracle_bounded(g, x, k):
    """Smallest (as a sorted index tuple) nonempty zero-sum set of size <= k.

    The contract orders witnesses lexicographically as index tuples, so e.g.
    (1, 3) beats (2,); plain smallest-size-first enumeration would not match.
    """
    best = None
    for r in range(1, k + 1):
        for idx in itertools.combinations(range(1, len(x) + 1), r):
            if g.sum(x[i - 1] for i in idx) == g.zero():
                if best is None or idx < best:
                    best = idx
    return best


def _oracle_exact(g, x, length):
    for idx in itertools.combinations(range(1, len(x) + 1), length):
        if g.sum(x[i - 1] for i in idx) == g.zero():
            return idx
    return None


def _all_sequences(g, n):
    return itertools.product(g.elements(), repeat=n)


def test_bounded_worked_example():
    g = canonicalize([4])
    wit = find_zero_sum_bounded(g, ((1,), (3,), (2,), (2,)), 2)
    assert wit == (1, 2)


def test_bounded_rank_two_example():
    g = canonicalize([2, 2])
    x = ((1, 0), (1, 0), (0, 1), (1, 1))
    wit = find_zero_sum_bounded(g, x, 2)
    assert wit == (1, 2)


def test_bounded_matches_oracle_exhaustively():
    # full agreement, including the lexicographic tie-break
    for orders in ([2], [3], [4], [2, 2]):
        g = canonicalize(orders)
        n = g.order
        for x in _all_sequences(g, n):
            for k in range(rho(x), n + 1):
                expected = _oracle_bounded(g, x, k)
                assert expected is not None, "word0 guarantee broken in oracle"
                wit = find_zero_sum_bounded(g, x, k)
                assert wit == expected, (orders, x, k)


def test_bounded_preconditions():
    g = canonicalize([3])
    x = ((1,), (1,), (2,))
    with pytest.raises(InvalidInstance):
        find_zero_sum_bounded(g, x, 0)
    with pytest.raises(InvalidInstance):
        find_zero_sum_bounded(g, x, 4)  # k > n
    with pytest.raises(InvalidInstance):
        find_zero_sum_bounded(g, x, 1)  # rho(x) = 2 > k
    with pytest.raises(InvalidInstance):
        find_zero_sum_bounded(g, ((1,), (1,)), 2)  # |x| != n


def test_davenport_route_examples():
    g = canonicalize([3])
    assert find_zero_sum_davenport(g, ((1,), (1,), (1,))) == (1, 2, 3)
    g22 = canonicalize([2, 2])
    wit = find_zero_sum_davenport(g22, ((1, 1), (1, 1), (0, 1)))
    assert wit == (1, 2)
    # index-tuple order, not smallest-size-first: (1,2,3) beats the zero at (2,)
    wit = find_zero_sum_davenport(g, ((1,), (0,), (2,)))
    assert wit == (1, 2, 3)
    wit = find_zero_sum_davenport(g, ((0,), (1,), (1,)))
    assert wit == (1,)


def test_davenport_route_requires_length_at_least_d():
    g = canonicalize([3])
    with pytest.raises(InvalidInstance):
        find_zero_sum_davenport(g, ((1,), (1,)))  # D(Z_3) = 3


def test_davenport_route_reads_d_from_davenport_get():
    # a zero-sum-free sequence one short of D(Z_2^2 x Z_6) = 8 (no closed
    # form: the searched record) is refused as too short, not searched
    g = canonicalize([2, 2, 6])
    x = ((0, 0, 1),) * 5 + ((0, 1, 0), (1, 0, 0))
    with pytest.raises(InvalidInstance, match=r"^need length >= D = 8, got 7$"):
        find_zero_sum_davenport(g, x)


def test_davenport_route_exhaustive_small():
    for orders in ([2], [3], [2, 2]):
        g = canonicalize(orders)
        d = davenport_get(g).value
        for x in _all_sequences(g, d):
            wit = find_zero_sum_davenport(g, x)
            assert wit == _oracle_bounded(g, x, d), (orders, x)
            assert g.sum(x[i - 1] for i in wit) == g.zero()


def test_exact_length_examples():
    g = canonicalize([2])
    wit = find_zero_sum_exact_length(g, ((0,), (0,), (1,)), 2)
    assert wit is not None and wit == (1, 2)
    g3 = canonicalize([3])
    wit = find_zero_sum_exact_length(g3, ((1,), (1,), (1,), (2,), (2,)), 3)
    assert wit is not None and wit == (1, 2, 3)
    assert find_zero_sum_exact_length(g3, ((1,), (1,)), 2) is None


def test_exact_length_matches_oracle():
    g = canonicalize([3])
    for n in range(1, 5):
        for x in _all_sequences(g, n):
            for length in range(1, n + 1):
                expected = _oracle_exact(g, x, length)
                wit = find_zero_sum_exact_length(g, x, length)
                if expected is None:
                    assert wit is None, (x, length)
                else:
                    assert wit is not None and wit == expected, (x, length)


def test_exact_length_full_sequence_of_identical_elements():
    g = canonicalize([5])
    x = (((2,),) * 5)
    wit = find_zero_sum_exact_length(g, x, 5)
    assert wit is not None and wit == (1, 2, 3, 4, 5)


def test_exact_length_preconditions():
    g = canonicalize([3])
    with pytest.raises(InvalidInstance):
        find_zero_sum_exact_length(g, ((1,), (2,)), 0)
    with pytest.raises(InvalidInstance):
        find_zero_sum_exact_length(g, ((1,), (2,)), 3)


@pytest.mark.parametrize("finder", [find_zero_sum_bounded, find_zero_sum_exact_length])
@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_finders_refuse_lengths_that_are_not_ints(finder, bad):
    x = ((1,), (2,), (3,), (0,))
    with pytest.raises(InvalidInstance, match="is not an integer"):
        finder(canonicalize([4]), x, bad)


def test_erdos_ginzburg_ziv_small():
    # any 2n-1 elements of Z_n contain an n-subset summing to zero
    for n in (2, 3, 4):
        g = canonicalize([n])
        for x in _all_sequences(g, 2 * n - 1):
            wit = find_zero_sum_exact_length(g, x, n)
            assert wit is not None, (n, x)


def test_bounded_at_group_order_always_succeeds():
    # with k = |G| the existence guarantee has no repetition constraint to bite
    for g in groups_up_to_order(6):
        n = g.order
        sample = itertools.islice(_all_sequences(g, n), 0, None, 11)
        for x in sample:
            wit = find_zero_sum_bounded(g, x, n)
            assert 1 <= len(wit) <= n
            assert g.sum(x[i - 1] for i in wit) == g.zero()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2,), (3,), (4,), (5,), (2, 2)]).flatmap(
        lambda factors: st.lists(
            st.tuples(*(st.integers(min_value=0, max_value=d - 1) for d in factors)),
            min_size=1,
            max_size=6,
        ).map(lambda x: (factors, tuple(x)))
    )
)
def test_exact_length_property(data):
    factors, x = data
    g = canonicalize(factors)
    for length in range(1, len(x) + 1):
        wit = find_zero_sum_exact_length(g, x, length)
        expected = _oracle_exact(g, x, length)
        assert wit == expected


# ------------------------------------------------------------ bitset kernel


@pytest.mark.parametrize("orders", [[1], [7], [2, 4, 8], [3, 3, 9], [6, 12]])
def test_translate_agrees_with_add(orders):
    g = canonicalize(orders)
    elements = g.elements()
    rng = random.Random(len(elements))
    for e in elements:
        for a in elements:
            moved = g.translate(1 << g.element_rank(a), g.element_rank(e))
            assert moved == 1 << g.element_rank(g.add(a, e)), (orders, a, e)
        # a many-element set moves as a whole
        subset = [a for a in elements if rng.random() < 0.5]
        mask = sum(1 << g.element_rank(a) for a in subset)
        expected = sum(1 << g.element_rank(g.add(a, e)) for a in subset)
        assert g.translate(mask, g.element_rank(e)) == expected, (orders, e)


def test_translate_moves_each_rank_by_the_rank_addition_table():
    for g in groups_up_to_order(32):
        add = g.rank_add_table
        for a in range(g.order):
            for r in range(g.order):
                assert g.translate(1 << a, r) == 1 << add[a][r], (g.invariant_factors, a, r)


def _is_zero_sum(g, x, idx):
    # plain residue arithmetic, independent of the group methods under test
    return all(
        sum(x[i - 1][c] for i in idx) % d == 0 for c, d in enumerate(g.invariant_factors)
    )


def _first_combination(g, x, sizes):
    """The lexicographically first index tuple, over all the given sizes,
    that itertools.combinations yields with a zero sum."""
    hits = []
    for r in sizes:
        for idx in itertools.combinations(range(1, len(x) + 1), r):
            if _is_zero_sum(g, x, idx):
                hits.append(idx)
                break  # combinations of one size come in lexicographic order
    return min(hits, default=None)


@pytest.mark.parametrize("g", groups_up_to_order(12), ids=lambda g: g.describe())
def test_solvers_return_first_combination_hit(g):
    rng = random.Random(g.order * 100 + g.rank)
    elements = g.elements()
    n = g.order
    d = davenport_get(g).value
    for _ in range(6):
        x = [rng.choice(elements) for _ in range(n)]
        k = rng.randint(rho(x), n)
        assert find_zero_sum_bounded(g, x, k) == _first_combination(g, x, range(1, k + 1))

        y = [rng.choice(elements) for _ in range(rng.randint(d, d + 2))]
        wit = find_zero_sum_davenport(g, y)
        assert wit == _first_combination(g, y, range(1, len(y) + 1))

        z = [rng.choice(elements) for _ in range(rng.randint(1, min(2 * n - 1, 12)))]
        length = rng.randint(1, len(z))
        wit = find_zero_sum_exact_length(g, z, length)
        assert wit == _first_combination(g, z, [length])


@pytest.mark.parametrize("bad", [(1, 0), (), (3,), (-1,)])
def test_solvers_reject_invalid_elements(bad):
    g = canonicalize([3])
    x = ((1,), bad, (2,))
    with pytest.raises(InvalidElement):
        find_zero_sum_bounded(g, x, 3)
    with pytest.raises(InvalidElement):
        find_zero_sum_davenport(g, x)
    with pytest.raises(InvalidElement):
        find_zero_sum_exact_length(g, x, 2)


@pytest.mark.parametrize("bad", [[1], (1.0,), (True,)], ids=["list", "float", "bool"])
@pytest.mark.parametrize("finder", [
    lambda g, x: find_zero_sum_bounded(g, x, 3),
    find_zero_sum_davenport,
    lambda g, x: find_zero_sum_exact_length(g, x, 2),
], ids=["bounded", "davenport", "exact-length"])
def test_finders_refuse_entries_that_are_not_tuples_of_ints(finder, bad):
    # entries are checked before the maximal repetition, which hashes them
    with pytest.raises(InvalidElement):
        finder(canonicalize([3]), ((0,), bad, (2,)))


# ------------------------------------------------------------ reach tables

REACH_GROUPS = [(1,), (7,), (2, 4), (3, 3, 9)]


def _naive_reach_rows(g, ranks, cap):
    """rows[p][c]: the ranks of the sums of the c-element subsets of
    positions p..m-1, as sets, every row built from the one after it."""
    add = g.rank_add_table
    rows = [[{0}] + [set() for _ in range(cap)]]
    for e in reversed(ranks):
        tail = rows[-1]
        rows.append([{0}] + [tail[c] | {add[s][e] for s in tail[c - 1]} for c in range(1, cap + 1)])
    rows.reverse()
    return rows


def _mask(ranks):
    return sum(1 << r for r in ranks)


@st.composite
def _reach_cases(draw):
    """A group and a rank sequence long enough, at times, to fill rows:
    up to 2|G| + 4 entries, at most 60, half of them from a few ranks."""
    g = canonicalize(draw(st.sampled_from(REACH_GROUPS)))
    ranks = st.integers(0, g.order - 1)
    few = st.sampled_from(draw(st.lists(ranks, min_size=1, max_size=3)))
    return g, draw(st.lists(st.one_of(ranks, few), max_size=min(2 * g.order + 4, 60)))


@settings(max_examples=200, deadline=None)
@given(_reach_cases(), st.integers(min_value=1, max_value=5))
def test_suffix_reach_matches_a_table_that_builds_every_row(case, cap):
    g, ranks = case
    rows = _naive_reach_rows(g, ranks, cap)
    columns = zerosum._suffix_reach(g, ranks, cap)
    assert len(columns) == cap + 1
    for c in range(cap + 1):
        assert columns[c] == [_mask(row[c]) for row in rows], c


@settings(max_examples=200, deadline=None)
@given(_reach_cases())
def test_nonempty_reach_matches_a_table_that_builds_every_row(case):
    g, ranks = case
    rows = _naive_reach_rows(g, ranks, len(ranks))
    expected = [_mask(set().union(*row[1:])) for row in rows]
    assert zerosum._nonempty_reach(g, ranks) == expected


# ------------------------------------------------------- short-search kernel

KERNEL_GROUPS = [(5,), (8,), (12,), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4)]


@st.composite
def _short_search_cases(draw):
    """A group, a sequence over it and a cap in 1..3.  Half the sequences
    draw from a few elements only, so many have no short zero-sum."""
    g = canonicalize(draw(st.sampled_from(KERNEL_GROUPS)))
    elements = g.elements()
    pool = draw(st.one_of(
        st.just(elements),
        st.lists(st.sampled_from(elements[1:]), min_size=1, max_size=3, unique=True),
    ))
    x = draw(st.lists(st.sampled_from(pool), max_size=14))
    return g, x, draw(st.integers(min_value=1, max_value=3))


@settings(max_examples=400, deadline=None)
@given(_short_search_cases(), st.integers(min_value=0, max_value=40))
def test_short_kernel_matches_the_suffix_table_walk(case, allowance):
    g, x, cap = case
    expected = zerosum._table_walk(g, x, 1, cap)
    assert zerosum._lex_smallest_subset(g, x, 1, cap) == expected
    assert zerosum._short_zero_sum(g, x, cap, len(x) ** 2) == expected
    # any allowance either gives up or gives the same answer
    found = zerosum._short_zero_sum(g, x, cap, allowance)
    assert found is zerosum._GAVE_UP or found == expected


@pytest.mark.parametrize("orders, x", [
    ((12,), [(1,)] * 11),  # sums of at most three ones are 1, 2, 3
    ((2, 2, 2), [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]),  # only the 4-sum is zero
    ((3, 3), [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1)]),  # only the 5-sum is zero
])
def test_short_kernel_reports_no_short_zero_sum(orders, x):
    g = canonicalize(orders)
    assert zerosum._table_walk(g, x, 1, 3) is None
    assert zerosum._short_zero_sum(g, x, 3, len(x) ** 2) is None
    assert zerosum._lex_smallest_subset(g, x, 1, 3) is None


def test_short_kernel_hands_the_ascending_triples_of_z1024_to_the_table(monkeypatch):
    # 1, 1, 1, 2, 2, 2, ..., 342: three entries sum to at most 1026, so the
    # first zero-sum starts at position 1021, and every earlier p costs the
    # kernel a full scan over the later positions
    g = canonicalize([1024])
    x = [(p // 3 + 1,) for p in range(1024)]
    kernel_calls, table_calls = [], []
    kernel, walk = zerosum._short_zero_sum, zerosum._table_walk

    def counted_kernel(g, x, hi, allowance, *index):
        found = kernel(g, x, hi, allowance, *index)
        kernel_calls.append((hi, allowance, found is zerosum._GAVE_UP))
        return found

    def counted_walk(*args):
        table_calls.append(args[2:])
        return walk(*args)

    monkeypatch.setattr(zerosum, "_short_zero_sum", counted_kernel)
    monkeypatch.setattr(zerosum, "_table_walk", counted_walk)
    assert zerosum._lex_smallest_subset(g, x, 1, 3) == (1021, 1022, 1024)
    # the allowance is 3 * 1024 inner steps: it runs out and the table decides
    assert kernel_calls == [(3, 3072, True)] and table_calls == [(1, 3)]


def test_short_kernel_step_count_on_ascending_triples():
    # the same shape on Z_64: the first zero-sum is (61, 62, 64); ruling out
    # p = 1..60 scans the 63 + 62 + ... + 4 later positions, and p = 61
    # closes at its first q, so the kernel needs exactly 2011 steps
    g = canonicalize([64])
    x = [(p // 3 + 1,) for p in range(64)]
    assert sum(range(4, 64)) + 1 == 2011
    assert zerosum._short_zero_sum(g, x, 3, 2011) == (61, 62, 64)
    assert zerosum._short_zero_sum(g, x, 3, 2010) is zerosum._GAVE_UP
    assert zerosum._lex_smallest_subset(g, x, 1, 3) == (61, 62, 64)  # via the table


def test_the_finders_and_word1_share_one_cannot_miss_check(monkeypatch):
    # with the engine stubbed to find nothing, the two finders whose
    # hypotheses guarantee a zero-sum and the word1 construction all fail
    # through zerosum._zero_sum, with its one message
    monkeypatch.setattr(zerosum, "_lex_smallest_subset", lambda *args: None)
    g = canonicalize([3])
    x = ((1,), (1,), (1,))
    message = "no zero-sum subsequence of length <= 3 in a length-3 sequence over Z_3"
    calls = (
        lambda: find_zero_sum_bounded(g, x, 3),
        lambda: find_zero_sum_davenport(g, x),
        lambda: solve(Instance(group=g, x=x, w=(1, 1, 1), ell=3), "word1"),
    )
    for call in calls:
        with pytest.raises(TheoremViolation) as raised:
            call()
        assert str(raised.value) == message
