from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from zsum.davenport import (
    METHOD_CACHE,
    METHOD_EXACT,
    METHOD_FORMULA,
    DavenportCache,
    DavenportRecord,
    davenport_exact,
    davenport_formula,
    davenport_get,
    generator_repeat_witness,
    zero_sum_free_check,
)
from zsum.errors import BudgetExceeded, InvalidElement
from zsum.groups import canonicalize, groups_up_to_order


def _oracle_zero_sum_free(g, seq) -> bool:
    """Subset-enumeration oracle: no nonempty subset sums to zero."""
    for r in range(1, len(seq) + 1):
        for idx in itertools.combinations(range(len(seq)), r):
            if g.sum(seq[i] for i in idx) == g.zero():
                return False
    return True


def _oracle_davenport(g) -> int:
    """1 + length of the longest zero-sum-free multiset, found by level-wise
    enumeration; independent of the solver's DFS with reachable-sum pruning."""
    elems = list(g.elements())
    longest = 0
    while True:
        length = longest + 1
        if any(
            _oracle_zero_sum_free(g, seq)
            for seq in itertools.combinations_with_replacement(elems, length)
        ):
            longest = length
        else:
            return longest + 1


def test_zero_sum_free_check_agrees_with_oracle_exhaustively():
    for g in groups_up_to_order(6):
        elems = list(g.elements())
        for r in range(0, 4):
            for seq in itertools.product(elems, repeat=r):
                assert zero_sum_free_check(g, seq) == _oracle_zero_sum_free(g, seq), (
                    g.invariant_factors,
                    seq,
                )


def test_exact_values_match_oracle_for_small_groups():
    for orders in ([1], [2], [3], [4], [5], [6], [2, 2], [3, 3], [2, 4]):
        g = canonicalize(orders)
        assert davenport_exact(g).value == _oracle_davenport(g), orders


def test_exact_frozen_values():
    # classical values: cyclic n -> n, rank-2 (d1, d2) -> d1 + d2 - 1
    expected = {
        (): 1,
        (2,): 2,
        (5,): 5,
        (12,): 12,
        (2, 2): 3,
        (3, 3): 5,
        (2, 4): 5,
        (2, 2, 2): 4,
        (2, 2, 4): 6,
    }
    for factors, value in expected.items():
        rec = davenport_exact(canonicalize(list(factors) or [1]))
        assert rec.value == value, factors
        assert rec.method == METHOD_EXACT


def test_exact_witness_is_maximal_zero_sum_free():
    for g in groups_up_to_order(9):
        rec = davenport_exact(g)
        assert len(rec.witness) == rec.value - 1
        assert zero_sum_free_check(g, rec.witness)
        for extra in g.elements():
            assert not zero_sum_free_check(g, rec.witness + (extra,))


def test_formula_agrees_with_exact_up_to_16():
    for g in groups_up_to_order(16):
        by_formula = davenport_formula(g)
        if by_formula is not None:
            assert by_formula == davenport_exact(g).value, g.invariant_factors


def test_formula_coverage():
    assert davenport_formula(canonicalize([1])) == 1
    assert davenport_formula(canonicalize([7])) == 7
    assert davenport_formula(canonicalize([6, 12])) == 17
    assert davenport_formula(canonicalize([2, 4, 8])) == 12  # 2-group: 1 + sum(d_i - 1)
    assert davenport_formula(canonicalize([2, 2, 6])) is None  # rank 3, not a p-group


def test_generator_repeat_witness_examples():
    assert generator_repeat_witness(canonicalize([5])) == ((1,), (1,), (1,), (1,))
    assert generator_repeat_witness(canonicalize([2, 2])) == ((0, 1), (1, 0))
    assert generator_repeat_witness(canonicalize([1])) == ()


def test_generator_repeat_witness_is_zero_sum_free_when_formula_applies():
    for g in groups_up_to_order(16):
        if davenport_formula(g) is None:
            continue
        wit = generator_repeat_witness(g)
        assert len(wit) == davenport_formula(g) - 1
        assert zero_sum_free_check(g, wit)


def test_davenport_get_prefers_formula_then_caches(tmp_path):
    cache = DavenportCache(tmp_path / "dav.json")
    g = canonicalize([3, 6])
    first = davenport_get(g, cache)
    assert first.value == 8
    assert first.method == METHOD_FORMULA
    second = davenport_get(g, cache)
    assert second.value == 8
    assert second.method == METHOD_CACHE


def test_cache_round_trip_and_key_schema(tmp_path):
    path = tmp_path / "dav.json"
    cache = DavenportCache(path)
    g = canonicalize([2, 2, 6])  # no closed form: exact route
    rec = davenport_get(g, cache)
    assert rec.method == METHOD_EXACT
    raw = json.loads(path.read_text())
    assert "2x2x6" in raw
    trivial = davenport_get(canonicalize([1]), cache)
    assert trivial.value == 1
    raw = json.loads(path.read_text())
    assert "1" in raw
    # a fresh handle on the same file must serve from cache
    reloaded = DavenportCache(path)
    assert davenport_get(g, reloaded).method == METHOD_CACHE


def test_cache_in_memory_when_no_path():
    cache = DavenportCache()
    g = canonicalize([4])
    davenport_get(g, cache)
    assert davenport_get(g, cache).method == METHOD_CACHE


def test_cache_hits_are_decoded_once(tmp_path):
    path = tmp_path / "dav.json"
    g = canonicalize([3, 6])
    first = davenport_get(g, DavenportCache(path))
    written = path.read_text()
    for cache in (DavenportCache(), DavenportCache(path)):  # put, then loaded from file
        davenport_get(g, cache)
        hit = cache.get(g)
        assert hit.method == METHOD_CACHE
        assert (hit.value, hit.witness) == (first.value, first.witness)
        assert cache.get(g) is hit
    # the file keeps the method that found the value
    assert json.loads(written)["3x6"]["method"] == METHOD_FORMULA
    DavenportCache(path).put(first)
    assert path.read_text() == written


def test_node_budget_exhaustion_raises():
    g = canonicalize([11])
    with pytest.raises(BudgetExceeded) as err:
        davenport_exact(g, node_budget=3)
    assert err.value.lower_bound is not None
    assert err.value.lower_bound >= 1


def test_witness_rejects_foreign_elements():
    g = canonicalize([4])
    with pytest.raises(InvalidElement):
        zero_sum_free_check(g, [(1, 1)])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(2,), (3,), (4,), (2, 2), (5,), (6,)]).flatmap(
        lambda factors: st.tuples(
            st.just(factors),
            st.lists(
                st.tuples(*(st.integers(min_value=0, max_value=d - 1) for d in factors)),
                min_size=0,
                max_size=5,
            ),
        )
    )
)
def test_zero_sum_free_check_property(data):
    factors, seq = data
    g = canonicalize(factors)
    assert zero_sum_free_check(g, seq) == _oracle_zero_sum_free(g, seq)


def test_record_carries_group_identity():
    g = canonicalize([4, 6])
    rec = davenport_get(g)
    assert rec.group == canonicalize([2, 12])
    assert isinstance(rec, DavenportRecord)
