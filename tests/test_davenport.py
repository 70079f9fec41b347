from __future__ import annotations

import hashlib
import itertools
import json
import os

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
    davenport_formula_record,
    davenport_get,
    generator_repeat_witness,
    zero_sum_free_check,
)
from zsum.errors import BudgetExceeded, InvalidArgument, InvalidElement
from zsum.groups import canonicalize, groups_of_order, groups_up_to_order


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
    # davenport_formula_record serves this witness unchecked
    closed_forms = 0
    for g in [*groups_up_to_order(64), canonicalize([128])]:
        if davenport_formula(g) is None:
            continue
        closed_forms += 1
        wit = generator_repeat_witness(g)
        assert len(wit) == davenport_formula(g) - 1
        assert zero_sum_free_check(g, wit)
    assert closed_forms == 112


def test_formula_record_is_not_rechecked_at_run_time(monkeypatch):
    import zsum.davenport

    def refuse(*args):
        raise AssertionError("closed-form witness re-checked")

    monkeypatch.setattr(zsum.davenport, "zero_sum_free_check", refuse)
    g = canonicalize([1024])
    rec = davenport_get(g, cache=DavenportCache())
    assert (rec.value, rec.method) == (1024, METHOD_FORMULA)
    assert rec.witness == generator_repeat_witness(g)


def test_formula_record_matches_the_closed_form():
    for g in groups_up_to_order(16):
        rec = davenport_formula_record(g)
        if davenport_formula(g) is None:
            assert rec is None
            continue
        assert (rec.value, rec.method) == (davenport_formula(g), METHOD_FORMULA)
        assert rec.witness == generator_repeat_witness(g)


def test_cache_entries_are_checked_when_first_read(tmp_path):
    path = tmp_path / "dav.json"
    path.write_text(json.dumps({
        "2x2": {"value": 4, "witness": [[0, 1], [1, 0], [1, 1]]},  # D is 3
        "2x2x6": {"value": 8, "witness": [[0, 0, 1]] * 7},  # seven copies are not zero-sum-free
        "3": {"value": 3, "witness": [[1], [1]]},
    }))
    cache = DavenportCache(path)  # opening reads shapes only
    assert davenport_get(canonicalize([3]), cache).method == METHOD_CACHE
    for orders in ([2, 2], [2, 2, 6]):
        with pytest.raises(InvalidArgument, match="Davenport cache"):
            cache.get(canonicalize(orders))


def test_closed_form_cache_entry_is_served_without_a_recheck(tmp_path, monkeypatch):
    import zsum.davenport

    path = tmp_path / "dav.json"
    g = canonicalize([1024])
    davenport_get(g, DavenportCache(path))

    def refuse(*args):
        raise AssertionError("closed-form cache entry re-checked")

    monkeypatch.setattr(zsum.davenport, "zero_sum_free_check", refuse)
    rec = davenport_get(g, DavenportCache(path))
    assert (rec.value, rec.method) == (1024, METHOD_CACHE)
    assert rec.witness == generator_repeat_witness(g)


def test_other_cache_witnesses_are_still_checked(tmp_path, monkeypatch):
    import zsum.davenport

    path = tmp_path / "dav.json"
    path.write_text(json.dumps({"4": {"value": 4, "witness": [[3], [3], [3]]}}))
    checked = []
    original = zsum.davenport.zero_sum_free_check

    def counted(g, seq):
        checked.append(seq)
        return original(g, seq)

    monkeypatch.setattr(zsum.davenport, "zero_sum_free_check", counted)
    rec = davenport_get(canonicalize([4]), DavenportCache(path))
    assert (rec.value, rec.witness, rec.method) == (4, ((3,), (3,), (3,)), METHOD_CACHE)
    assert checked == [((3,), (3,), (3,))]


def test_failed_cache_write_raises_invalid_argument_and_leaves_no_temp(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(InvalidArgument, match="cannot be written"):
        davenport_get(canonicalize([6]), DavenportCache(tmp_path / "dav.json"))
    assert list(tmp_path.iterdir()) == []


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


def test_exact_records_up_to_order_26_are_pinned():
    # (invariant factors, value, witness) of every group of order <= 26: the
    # bound on the remaining room may skip subtrees, never change the answer
    rows = []
    for g in groups_up_to_order(26):
        rec = davenport_exact(g)
        rows.append([list(g.invariant_factors), rec.value, [list(e) for e in rec.witness]])
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    assert len(rows) == 40
    assert hashlib.sha256(blob).hexdigest() == (
        "8f6a8581e9837874565e1721e247915e375b7757ff940ce57ad5561c3d9a0c95"
    )


def test_exact_records_of_orders_27_to_30_are_pinned():
    # recorded before the search started only at Aut(G)-orbit minima: the
    # skipped roots may change the effort, never the answer
    rows = []
    for q in range(27, 31):
        for g in groups_of_order(q):
            rec = davenport_exact(g)
            rows.append([list(g.invariant_factors), rec.value, [list(e) for e in rec.witness]])
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    assert len(rows) == 7
    assert hashlib.sha256(blob).hexdigest() == (
        "2acbd82da7f466339c48867ce7e44763202b16ff3f7852026d1c4261c02b15da"
    )


def test_exact_records_of_orders_31_and_32_are_pinned():
    # recorded before the search broke symmetry below the root: the
    # stabilizer minima may change the effort, never the answer
    rows = []
    for q in range(31, 33):
        for g in groups_of_order(q):
            rec = davenport_exact(g)
            rows.append([list(g.invariant_factors), rec.value, [list(e) for e in rec.witness]])
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    assert len(rows) == 8
    assert hashlib.sha256(blob).hexdigest() == (
        "8cb318caa6e225a2a0b6d2bc8c8eceb8bc2c8cb71e07f2e2ee815f8c4775898c"
    )


def test_exact_search_skips_roots_an_automorphism_moves():
    # a search from every first element takes 129,159 and 56,975 nodes
    assert davenport_exact(canonicalize([5, 5]), node_budget=30_000).value == 9
    assert davenport_exact(canonicalize([2, 2, 6]), node_budget=30_000).value == 8


def test_exact_search_skips_candidates_the_prefix_stabilizer_moves():
    # minima under the stabilizers of the first two distinct elements; the
    # search from root orbit minima alone takes 21,265 and 23,545 nodes
    assert davenport_exact(canonicalize([5, 5]), node_budget=3_100).value == 9
    assert davenport_exact(canonicalize([2, 2, 6]), node_budget=5_100).value == 8


def test_exact_davenport_of_z2_z2_z2_z6():
    # D* = 1 + 1 + 1 + 1 + 5 = 9; the search takes 477,882 nodes
    rec = davenport_exact(canonicalize([2, 2, 2, 6]), node_budget=600_000)
    assert rec.value == 9
    assert rec.witness == ((0, 0, 0, 1),) * 5 + ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def test_exact_witness_is_the_first_zero_sum_free_combination():
    # combinations_with_replacement yields non-decreasing tuples in
    # lexicographic order, independently of the pruned search
    for g in groups_up_to_order(8):
        rec = davenport_exact(g)
        first = next(
            seq
            for seq in itertools.combinations_with_replacement(g.elements(), rec.value - 1)
            if zero_sum_free_check(g, seq)
        )
        assert rec.witness == first, g.invariant_factors


def test_exact_search_stops_growing_once_no_prefix_can_beat_the_witness():
    assert davenport_exact(canonicalize([26]), node_budget=400).value == 26


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
