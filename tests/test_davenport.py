from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import zsum.davenport
from zsum.davenport import (
    METHOD_CACHE,
    METHOD_EXACT,
    METHOD_FORMULA,
    SEARCHED_FACTORS,
    DavenportRecord,
    davenport_exact,
    davenport_formula,
    davenport_formula_record,
    davenport_get,
    generator_repeat_witness,
    zero_sum_free_check,
)
from zsum.errors import BudgetExceeded, InvalidArgument, InvalidElement, InvalidInstance
from zsum.groups import canonicalize, groups_of_order, groups_up_to_order
from zsum.serialize import davenport_record_to_json, dumps_stable


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
    def refuse(*args):
        raise AssertionError("closed-form witness re-checked")

    monkeypatch.setattr(zsum.davenport, "_memo", {})
    monkeypatch.setattr(zsum.davenport, "zero_sum_free_check", refuse)
    g = canonicalize([1024])
    rec = davenport_get(g)
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


def test_davenport_get_prefers_formula_then_caches(monkeypatch):
    monkeypatch.setattr(zsum.davenport, "_memo", {})
    g = canonicalize([3, 6])
    first = davenport_get(g)
    assert first.value == 8
    assert first.method == METHOD_FORMULA
    second = davenport_get(canonicalize([6, 3]))  # the memo is keyed by invariant factors
    assert second.value == 8
    assert second.method == METHOD_CACHE
    assert second.witness == first.witness


def test_cache_in_memory_when_no_path(monkeypatch):
    monkeypatch.setattr(zsum.davenport, "_memo", {})
    g = canonicalize([4])
    davenport_get(g)
    hit = davenport_get(g)
    assert hit.method == METHOD_CACHE
    assert davenport_get(g) is hit  # one record per group and process


# D(G) of each group in SEARCHED_FACTORS, as the exact search finds it
SEARCHED_VALUES = {(2, 2, 6): 8, (2, 2, 10): 12, (2, 2, 2, 6): 9, (2, 2, 12): 14,
                   (3, 3, 6): 10, (2, 2, 14): 16}


def test_searched_groups_are_the_groups_to_order_64_without_a_closed_form():
    missing = {g.invariant_factors for g in groups_up_to_order(64) if davenport_formula(g) is None}
    assert missing == SEARCHED_FACTORS == set(SEARCHED_VALUES)


def test_searched_records_are_served_without_a_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("searched record searched again")

    monkeypatch.setattr(zsum.davenport, "_memo", {})
    monkeypatch.setattr(zsum.davenport, "davenport_exact", refuse)
    for factors, value in SEARCHED_VALUES.items():
        g = canonicalize(factors)
        rec = davenport_get(g, node_budget=1)
        assert (rec.group, rec.value, rec.method) == (g, value, METHOD_EXACT)
        assert len(rec.witness) == value - 1
        assert zero_sum_free_check(g, rec.witness)


@pytest.mark.parametrize("factors", [
    (2, 2, 6),  # (2, 2, 2, 6) is test_exact_davenport_of_z2_z2_z2_z6
    (2, 2, 10),
    (2, 2, 12),  # about 1.5 s each
    (3, 3, 6),
    pytest.param((2, 2, 14), marks=pytest.mark.slow),  # about 5 s
], ids=lambda factors: "x".join(map(str, factors)))
def test_searched_record_is_the_exact_search_record(monkeypatch, factors):
    monkeypatch.setattr(zsum.davenport, "_memo", {})
    g = canonicalize(factors)
    served, searched = davenport_get(g), davenport_exact(g)
    assert dumps_stable(davenport_record_to_json(served)) == (
        dumps_stable(davenport_record_to_json(searched))
    )


# A zero-sum-free sequence of length 10 over Z_2^4 x Z_6, so D >= 11 > D* = 10
# (Geroldinger and Schneider proved D > D* for C_2^4 + C_2k with k odd, 1992).
# It is the witness of the BudgetExceeded that davenport_exact raises on this
# group with node_budget=3_000_000, after about 5 s.
Z2_4_Z6_WITNESS = (
    (0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 1, 0, 2),
    (0, 1, 0, 0, 2), (0, 1, 1, 1, 2), (1, 0, 0, 0, 2), (1, 0, 1, 1, 2), (1, 1, 0, 1, 2),
)


def test_z2_4_z6_has_a_zero_sum_free_sequence_longer_than_olsons_bound():
    g = canonicalize([2, 2, 2, 2, 6])
    assert len(Z2_4_Z6_WITNESS) == 10 == sum(d - 1 for d in g.invariant_factors) + 1
    assert zero_sum_free_check(g, Z2_4_Z6_WITNESS)


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


def test_exact_search_skips_roots_an_automorphism_moves(monkeypatch):
    # a search from every first element takes 129,159 and 56,975 nodes; the
    # sums memo is off, so these budgets hold for the symmetry alone
    monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", 0)
    assert davenport_exact(canonicalize([5, 5]), node_budget=30_000).value == 9
    assert davenport_exact(canonicalize([2, 2, 6]), node_budget=30_000).value == 8


def test_exact_search_skips_candidates_the_prefix_stabilizer_moves(monkeypatch):
    # minima under the stabilizers of the first two distinct elements; the
    # search from root orbit minima alone takes 21,265 and 23,545 nodes
    # (both without the sums memo, as here)
    monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", 0)
    assert davenport_exact(canonicalize([5, 5]), node_budget=3_100).value == 9
    assert davenport_exact(canonicalize([2, 2, 6]), node_budget=5_100).value == 8


def test_exact_davenport_of_z2_z2_z2_z6(monkeypatch):
    # D* = 1 + 1 + 1 + 1 + 5 = 9; the search takes 85,818 nodes (477,882
    # without the sums memo)
    rec = davenport_exact(canonicalize([2, 2, 2, 6]), node_budget=100_000)
    assert rec.value == 9
    assert rec.witness == ((0, 0, 0, 1),) * 5 + ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    monkeypatch.setattr(zsum.davenport, "_memo", {})
    assert davenport_get(canonicalize([2, 2, 2, 6])) == rec  # served as SEARCHED_FACTORS


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


# (nodes, D) of the exact search on each group: a budget of exactly that many
# nodes completes the search with its record, one fewer stops it on the last
# node.  A faster kernel may change the time a search takes, never its walk.
# These are the walk without the sums memo (a cap of 0 keeps no entry);
# SEARCH_NODES_WITH_MEMO are the same searches with it.
SEARCH_NODES = {
    (2, 12): (13_606, 13), (2, 2, 6): (5_055, 8), (2, 10): (3_584, 11), (5, 5): (3_085, 9),
}
SEARCH_NODES_WITH_MEMO = {
    (2, 12): (7_617, 13), (2, 2, 6): (2_164, 8), (2, 10): (2_187, 11), (5, 5): (2_019, 9),
}


def _check_pinned_nodes(g, nodes, value):
    rec = davenport_exact(g, node_budget=nodes)
    assert (rec.value, rec.witness) == (value, generator_repeat_witness(g))
    with pytest.raises(BudgetExceeded) as err:
        davenport_exact(g, node_budget=nodes - 1)
    assert err.value.lower_bound == rec.value
    assert err.value.witness == rec.witness


@pytest.mark.parametrize("factors", SEARCH_NODES, ids=lambda factors: "x".join(map(str, factors)))
def test_exact_search_takes_a_pinned_number_of_nodes(monkeypatch, factors):
    monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", 0)
    _check_pinned_nodes(canonicalize(factors), *SEARCH_NODES[factors])


@pytest.mark.parametrize(
    "factors", SEARCH_NODES_WITH_MEMO, ids=lambda factors: "x".join(map(str, factors))
)
def test_the_sums_memo_takes_a_pinned_number_of_nodes(factors):
    _check_pinned_nodes(canonicalize(factors), *SEARCH_NODES_WITH_MEMO[factors])


@pytest.mark.parametrize("pinned", [
    test_exact_records_up_to_order_26_are_pinned,
    test_exact_records_of_orders_27_to_30_are_pinned,
    test_exact_records_of_orders_31_and_32_are_pinned,
], ids=lambda test: test.__name__[5:])
def test_a_memo_cleared_every_third_write_keeps_the_pinned_records(monkeypatch, pinned):
    monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", 2)
    pinned()


@pytest.mark.parametrize("factors", [(2, 2, 6), (2, 2, 10)], ids=["2x2x6", "2x2x10"])
def test_a_memo_cleared_every_third_write_keeps_the_searched_records(monkeypatch, factors):
    monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", 2)
    test_searched_record_is_the_exact_search_record(monkeypatch, factors)


def test_a_memo_cleared_every_third_write_skips_fewer_nodes(monkeypatch):
    # cleared, the memo forgets entries the full one skips with, but what
    # it still holds skips some of the walk without it
    monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", 2)
    g = canonicalize([2, 12])
    with pytest.raises(BudgetExceeded):
        davenport_exact(g, node_budget=SEARCH_NODES_WITH_MEMO[(2, 12)][0])
    without_memo, value = SEARCH_NODES[(2, 12)]
    assert davenport_exact(g, node_budget=without_memo - 1).value == value


@pytest.mark.parametrize("factors, cap", [
    ((2, 12), 64),  # 1,724 writes
    pytest.param((2, 2, 10), 1 << 12, marks=pytest.mark.slow),  # 33,496 entries; about 6 s traced
], ids=["2x12", "2x2x10"])
def test_the_memo_cap_bounds_the_search_memory(monkeypatch, factors, cap):
    g = canonicalize(factors)
    davenport_exact(g)  # fill the stabilizer caches before anything is traced
    peaks = []
    for patched in (False, True):  # the default cap holds every entry
        if patched:
            monkeypatch.setattr(zsum.davenport, "_SUMS_MEMO_CAP", cap)
        tracemalloc.start()
        try:
            davenport_exact(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    unbounded, capped = peaks
    assert 4 * capped < unbounded, peaks


def test_node_budget_exhaustion_raises():
    g = canonicalize([11])
    with pytest.raises(BudgetExceeded) as err:
        davenport_exact(g, node_budget=3)
    assert err.value.lower_bound is not None
    assert err.value.lower_bound >= 1


@pytest.mark.parametrize("budget", ["x", True, 2.5, None])
def test_node_budget_must_be_an_int(budget):
    with pytest.raises(InvalidArgument, match="is not an integer"):
        davenport_exact(canonicalize([3]), node_budget=budget)


@pytest.mark.parametrize("budget", ["x", -5, True])
def test_davenport_get_checks_the_node_budget_without_a_search(budget):
    # D(Z_3) needs no search, and these budgets once returned D = 3
    with pytest.raises(InvalidArgument) as exact:
        davenport_exact(canonicalize([3]), node_budget=budget)
    with pytest.raises(InvalidArgument) as get:
        davenport_get(canonicalize([3]), node_budget=budget)
    assert str(get.value) == str(exact.value)


def test_zero_sum_free_check_refuses_a_one_shot_iterable():
    # checking the entries once used up the iterator, so (2,), (2,) in Z_4
    # answered True
    with pytest.raises(InvalidInstance, match="^elements must come as a list or tuple"):
        zero_sum_free_check(canonicalize([4]), iter([(2,), (2,)]))


def test_witness_rejects_foreign_elements():
    g = canonicalize([4])
    with pytest.raises(InvalidElement):
        zero_sum_free_check(g, [(1, 1)])


@pytest.mark.parametrize("bad", [[1], (1.0,), (True,)], ids=["list", "float", "bool"])
def test_zero_sum_free_check_refuses_entries_that_are_not_tuples_of_ints(bad):
    with pytest.raises(InvalidElement):
        zero_sum_free_check(canonicalize([4]), [(2,), bad])


@pytest.mark.parametrize("seq", [[(0,), (5,)], [(1,), (1,), [7]]])
def test_zero_sum_free_check_checks_every_entry_before_it_answers(seq):
    # a zero-sum closes before the malformed entry, which is refused anyway
    with pytest.raises(InvalidElement):
        zero_sum_free_check(canonicalize([2]), seq)


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
