from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import zsum.groups
from zsum.davenport import _minima_fixing, _schreier_generators, _stabilizer, davenport_exact
from zsum.errors import InvalidElement, InvalidGroup, InvalidInstance
from zsum.groups import (
    MAX_FACTORED_ORDER,
    AbelianGroup,
    _orbit_roots,
    canonicalize,
    groups_of_order,
    groups_up_to_order,
    invariant_factors_of,
    rho,
)


def _census(orders: list[int]) -> Counter:
    """Element-order census of Z_orders[0] x ... computed without canonicalizing.

    Independent oracle: works directly on the given presentation, so it can
    confirm that canonicalization preserves the isomorphism class.
    """
    census: Counter = Counter()
    for elem in itertools.product(*(range(d) for d in orders)):
        k = 1
        acc = elem
        while any(acc):
            acc = tuple((a + e) % d for a, e, d in zip(acc, elem, orders))
            k += 1
        census[k] += 1
    return census


def _presentations_up_to(product_cap: int) -> list[list[int]]:
    """All order lists (entries >= 2, non-decreasing) with product <= cap."""
    out: list[list[int]] = [[]]
    frontier: list[list[int]] = [[]]
    while frontier:
        nxt: list[list[int]] = []
        for pres in frontier:
            prod = 1
            for d in pres:
                prod *= d
            lo = pres[-1] if pres else 2
            for d in range(lo, product_cap // prod + 1):
                cand = pres + [d]
                nxt.append(cand)
                out.append(cand)
        frontier = nxt
    return [p for p in out if p]


def test_canonicalize_worked_examples():
    assert canonicalize([12]).invariant_factors == (12,)
    assert canonicalize([2, 2]).invariant_factors == (2, 2)
    assert canonicalize([4, 6]).invariant_factors == (2, 12)
    assert canonicalize([2, 3]).invariant_factors == (6,)
    assert canonicalize([1]).invariant_factors == ()
    assert canonicalize([]).invariant_factors == ()
    assert canonicalize([1, 5, 1]).invariant_factors == (5,)


def test_canonicalize_rejects_bad_orders():
    with pytest.raises(InvalidGroup):
        canonicalize([0])
    with pytest.raises(InvalidGroup):
        canonicalize([-3])
    with pytest.raises(InvalidGroup):
        canonicalize([4, 0, 6])


@pytest.mark.parametrize("orders", [[True, 2], [2.0], ["4"], [4, None]])
def test_canonicalize_refuses_orders_that_are_not_ints(orders):
    with pytest.raises(InvalidGroup, match="is not an integer"):
        canonicalize(orders)


@pytest.mark.parametrize("factors, message", [
    ((2, 3), "^invariant factor 2 does not divide 3$"),
    ((4, 2), "^invariant factor 4 does not divide 2$"),
    ((6, 2), "^invariant factor 6 does not divide 2$"),
    ((2, 4, 6), "^invariant factor 4 does not divide 6$"),
    ((1,), "^invariant factor 1 must be >= 2$"),
    ((1, 2), "^invariant factor 1 must be >= 2$"),
    ((0,), "^invariant factor 0 must be >= 2$"),
    ((-2,), "^invariant factor -2 must be >= 2$"),
    (("a",), "^invariant factor 'a' is not an integer$"),
    ((True, 2), "^invariant factor True is not an integer$"),
    ((2.0,), "^invariant factor 2.0 is not an integer$"),
    ([2, 4], "^invariant factors must come as a tuple, not list$"),
    (6, "^invariant factors must come as a tuple, not int$"),
])
def test_the_constructor_takes_only_a_chain(factors, message):
    # (2, 3) once built a group whose D read 4, not D(Z_6) = 6, so solve
    # certified theorem1 instances sized for the wrong D; ("a",) ended in a
    # bare TypeError
    with pytest.raises(InvalidGroup, match=message):
        AbelianGroup(invariant_factors=factors)
    with pytest.raises(InvalidGroup, match=message):
        canonicalize([2]).replace(invariant_factors=factors)


def test_the_constructor_builds_each_chain_canonicalize_builds():
    for g in groups_up_to_order(48):
        assert AbelianGroup(invariant_factors=g.invariant_factors) == g
    assert AbelianGroup(invariant_factors=()) == canonicalize([1])


def test_canonicalize_returns_one_object_per_chain():
    # the cached tables of a group are then built once per process
    assert canonicalize([4, 6]) is canonicalize([2, 12])
    assert canonicalize([2, 12]) is canonicalize((12, 2))
    assert canonicalize([8]) is not canonicalize([2, 4])


def test_canonicalize_bounds_the_orders_it_factors():
    assert canonicalize([MAX_FACTORED_ORDER]).invariant_factors == (2**32,)
    assert canonicalize([4294967291]).order == 4294967291  # the largest prime below 2^32
    with pytest.raises(InvalidGroup, match="exceeds 4294967296"):
        canonicalize([3, MAX_FACTORED_ORDER + 1])


def test_invariant_factor_chain_divisibility():
    for pres in _presentations_up_to(60):
        chain = invariant_factors_of(pres)
        assert all(d >= 2 for d in chain)
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0, (pres, chain)


def test_canonicalize_idempotent_up_to_100():
    for pres in _presentations_up_to(100):
        g = canonicalize(pres)
        again = canonicalize(g.invariant_factors)
        assert again.invariant_factors == g.invariant_factors


def test_census_matches_canonical_form_up_to_48():
    # Isomorphic presentations must collapse to the same canonical chain,
    # and the canonical chain must describe the same group (same census).
    for pres in _presentations_up_to(48):
        g = canonicalize(pres)
        assert _census(pres) == _census(list(g.invariant_factors) or [1]), pres


def test_equality_is_up_to_isomorphism():
    # a group is its invariant factors: the orders it was given are not kept
    assert AbelianGroup._fields == ("invariant_factors",)
    assert canonicalize([4, 6]) == canonicalize([2, 12])
    assert canonicalize([4, 6]) == canonicalize([12, 2])
    assert hash(canonicalize([4, 6])) == hash(canonicalize([2, 12]))
    assert canonicalize([8]) != canonicalize([2, 4])
    assert canonicalize([2, 2]) != canonicalize([4])


def test_order_exponent_rank():
    g = canonicalize([4, 6])
    assert g.order == 24
    assert g.exponent == 12
    assert g.rank == 2
    t = canonicalize([1])
    assert t.order == 1
    assert t.exponent == 1
    assert t.rank == 0


def test_group_laws_exhaustive_up_to_16():
    for g in groups_up_to_order(16):
        elems = list(g.elements())
        assert len(elems) == g.order
        assert len(set(elems)) == g.order
        zero = g.zero()
        for a in elems:
            assert g.add(a, zero) == a
            assert g.add(a, g.neg(a)) == zero
            assert g.scalar_mul(g.exponent, a) == zero
        for a, b in itertools.product(elems, repeat=2):
            assert g.add(a, b) == g.add(b, a)
        # associativity on a deterministic slice to keep order-16 groups quick
        for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 0, None, 7):
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_elements_enumerated_in_lexicographic_order():
    g = canonicalize([2, 4])
    elems = list(g.elements())
    assert elems == sorted(elems)
    assert elems[0] == (0, 0)
    assert elems[-1] == (1, 3)


def test_element_orders_divide_the_exponent():
    for g in groups_up_to_order(12):
        for a in g.elements():
            k = 1
            acc = a
            while acc != g.zero():
                acc = g.add(acc, a)
                k += 1
            assert g.exponent % k == 0


def test_check_element_rejects_out_of_range():
    g = canonicalize([2, 4])
    with pytest.raises(InvalidElement):
        g.check_element((2, 0))
    with pytest.raises(InvalidElement):
        g.check_element((0,))
    with pytest.raises(InvalidElement):
        g.check_element((0, -1))


@pytest.mark.parametrize("bad", [[1, 0], 1, (1.0, 0), (True, 0), (0, False)],
                         ids=["list", "int", "float", "bool", "bool-last"])
def test_check_element_refuses_what_is_not_a_tuple_of_ints(bad):
    with pytest.raises(InvalidElement):
        canonicalize([2, 4]).check_element(bad)


def test_rho_examples():
    assert rho([(1,), (1,), (2,)]) == 2
    assert rho([(0, 0)]) == 1
    assert rho([(1,), (2,), (3,)]) == 1
    with pytest.raises(InvalidInstance):
        rho([])


@pytest.mark.parametrize("orders", [[1], [7], [2, 4], [3, 3, 9], [2, 2, 6]])
def test_neg_ranks_negate_element_ranks(orders):
    g = canonicalize(orders)
    elements = g.elements()
    assert len(g.neg_ranks) == g.order
    for r, e in enumerate(elements):
        assert g.neg_ranks[r] == g.element_rank(g.neg(e))


def test_groups_of_order_census():
    # number of abelian groups of order q = product of partition counts of
    # the prime exponents; spot values are classical
    assert len(groups_of_order(1)) == 1
    assert len(groups_of_order(8)) == 3
    assert len(groups_of_order(12)) == 2
    assert len(groups_of_order(16)) == 5
    assert len(groups_of_order(36)) == 4
    for q in range(1, 20):
        for g in groups_of_order(q):
            assert g.order == q


def test_groups_up_to_order_sorted_and_complete():
    gs = groups_up_to_order(10)
    orders = [g.order for g in gs]
    assert orders == sorted(orders)
    assert sum(1 for g in gs if g.order == 8) == 3
    assert len({g.invariant_factors for g in gs}) == len(gs)


@pytest.mark.parametrize("census, bad", [
    (groups_of_order, 2.0), (groups_of_order, True), (groups_of_order, "8"),
    (groups_up_to_order, 2.5), (groups_up_to_order, True), (groups_up_to_order, None),
])
def test_census_helpers_refuse_orders_that_are_not_ints(census, bad):
    with pytest.raises(InvalidGroup, match="is not an integer"):
        census(bad)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=4))
def test_canonicalize_total_on_valid_orders(orders):
    g = canonicalize(orders)
    prod = 1
    for d in orders:
        prod *= d
    assert g.order == prod
    for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
        assert b % a == 0


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3).flatmap(
        lambda orders: st.tuples(
            st.just(orders),
            st.lists(
                st.tuples(*(st.integers(min_value=0, max_value=d - 1) for d in invariant_factors_of(orders))),
                min_size=2,
                max_size=2,
            ),
        )
    )
)
def test_add_commutes_and_sub_inverts(data):
    orders, (a, b) = data
    g = canonicalize(orders)
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), g.neg(b)) == a


def test_sum_and_element_rank():
    g = canonicalize([2, 4])
    assert g.sum([(1, 1), (1, 2), (0, 1)]) == (0, 0)
    assert g.sum([]) == g.zero()
    assert g.element_rank((0, 0)) == 0
    assert g.element_rank((1, 2)) > 0


def test_rank_tables_agree_with_checked_arithmetic():
    for g in groups_up_to_order(12):
        elements = g.elements()
        assert g.rank_index == {e: g.element_rank(e) for e in elements}
        assert g.element_rank(g.zero()) == 0
        for a, b in itertools.product(range(g.order), repeat=2):
            assert elements[g.rank_add_table[a][b]] == g.add(elements[a], elements[b])
        assert len(g.rank_scale_table) == g.exponent
        for c in (0, 1, -1, g.exponent, -g.exponent - 1, 7, 10**12 + 5, -(10**15) + 2):
            row = g.rank_scale_table[c % g.exponent]
            for a in range(g.order):
                assert elements[row[a]] == g.scalar_mul(c, elements[a]), (g, c, a)


def test_rank_tables_are_cached_per_group():
    g = canonicalize([2, 4])
    assert g.rank_add_table is g.rank_add_table
    assert g.rank_scale_table is g.rank_scale_table
    assert canonicalize([1]).rank_add_table == ((0,),)
    assert canonicalize([1]).rank_scale_table == ((0,),)


def test_orbit_roots_are_the_first_item_of_each_orbit_linked_through_the_list():
    # x -> 3x mod 7 is one 6-cycle on the units, 1 -> 3 -> 2 -> 6 -> 4 -> 5;
    # the maps' images outside the list link nothing
    triple = [lambda x: 3 * x % 7]
    assert _orbit_roots([2, 1, 3, 6, 4, 5], triple) == [0] * 6
    assert _orbit_roots([2, 1], triple) == [0, 1]  # 2 -> 6 and 1 -> 3 are not listed
    assert _orbit_roots([2, 1, 3], triple) == [0, 0, 0]  # 1 -> 3 -> 2
    # x -> -x and x -> 2x mod 9 on the residues: {0}, the units and {3, 6}
    moves = [lambda x: -x % 9, lambda x: 2 * x % 9]
    assert _orbit_roots(range(9), moves) == [0, 1, 1, 3, 1, 1, 3, 1, 1]
    assert _orbit_roots([6, 5, 3, 0], moves) == [0, 1, 0, 3]
    assert _orbit_roots([], moves) == []


def test_orbit_maps_are_automorphisms_and_minima_match_their_closure():
    # exact Davenport search starts only at these minima (the stabilizer of
    # no point is H itself), which is sound because every map is an
    # automorphism
    for g in groups_up_to_order(64):
        n, add = g.order, g.rank_add_table
        maps = g._automorphism_maps
        for image in maps:
            assert sorted(image) == list(range(n)), g
            for a, b in itertools.product(range(n), repeat=2):
                assert image[add[a][b]] == add[image[a]][image[b]], (g, a, b)
        minima = []
        seen: set[int] = set()
        for r in range(1, n):  # each new r is the smallest of its orbit
            if r in seen:
                continue
            minima.append(r)
            orbit, frontier = {r}, [r]
            while frontier:
                a = frontier.pop()
                for image in maps:
                    if image[a] not in orbit:
                        orbit.add(image[a])
                        frontier.append(image[a])
            seen |= orbit
        assert _nonzero_ranks(_minima_fixing(g, ()), n) == minima, g


@pytest.mark.parametrize("orders", [(2, 2, 6), (2, 12)])
def test_one_search_builds_the_automorphism_maps_once(monkeypatch, orders):
    # each build scales every coordinate by its unit generators once; the
    # stabilizers of every first point then reuse the cached maps
    calls = []
    original = zsum.groups._unit_generators
    monkeypatch.setattr(zsum.groups, "_unit_generators", lambda d: calls.append(d) or original(d))
    g = AbelianGroup(invariant_factors=orders)  # not the interned object
    _stabilizer.cache_clear()
    _minima_fixing.cache_clear()
    davenport_exact(g)
    assert calls == list(g.invariant_factors)
    assert g._automorphism_maps is g._automorphism_maps


def _nonzero_ranks(mask, n):
    """The nonzero ranks a stabilizer-minima mask keeps; 0 keeps them all."""
    return [r for r in range(1, n) if not mask or mask >> r & 1]


def test_orbit_minima_examples():
    assert _minima_fixing(canonicalize([5, 5]), ()) == 0b11  # GL(2, 5) is transitive
    # in Z_6 the orbits are the elements of each order
    assert _minima_fixing(canonicalize([6]), ()) == 0b1111
    assert _nonzero_ranks(_minima_fixing(canonicalize([1]), ()), 1) == []
    g = canonicalize([2, 4])
    mask = _minima_fixing(g, ())
    assert _minima_fixing(g, ()) is mask


def test_equal_groups_share_their_stabilizer_minima():
    # the cache is keyed by the group's value: a group built outside
    # canonicalize reads the interned group's entry and builds no maps
    interned = canonicalize([3, 9])
    mask = _minima_fixing(interned, (1,))
    assert mask > 256  # a fresh int object, so `is` shows the shared entry
    other = AbelianGroup(invariant_factors=(3, 9))
    assert other is not interned
    assert _minima_fixing(other, (1,)) is mask
    assert "_automorphism_maps" not in vars(other)


def _closure(n, maps):
    """Every element of the group the rank permutations generate."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for image in maps:
            q = tuple([image[a] for a in p])
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def _fixing_minima(n, group, points):
    """Brute-force mask of the stabilizer's orbit minima; 0 if it is trivial."""
    stab = [p for p in group if all(p[a] == a for a in points)]
    mask = sum(1 << r for r in range(n) if all(p[r] >= r for p in stab))
    return 0 if len(stab) == 1 else mask


def _is_automorphism_fixing(g, perm, points):
    add, n = g.rank_add_table, g.order
    return (
        sorted(perm) == list(range(n))
        and all(perm[a] == a for a in points)
        and all(perm[add[a][b]] == add[perm[a]][perm[b]]
                for a, b in itertools.product(range(n), repeat=2))
    )


def test_stabilizer_minima_match_the_closed_stabilizers():
    # exact Davenport search keeps only these minima while its prefix holds
    # one or two distinct elements; each must be the closure's orbit minima
    for g in groups_up_to_order(16):
        n = g.order
        group = _closure(n, g._automorphism_maps)
        assert _minima_fixing(g, ()) == _fixing_minima(n, group, ())
        for a in _nonzero_ranks(_minima_fixing(g, ()), n):
            one = _minima_fixing(g, (a,))
            assert one == _fixing_minima(n, group, (a,)), (g, a)
            gens = _stabilizer(g, a)
            assert all(_is_automorphism_fixing(g, p, (a,)) for p in gens), (g, a)
            for b in range(a + 1, n):
                if one and not one >> b & 1:
                    continue  # the search never appends b after a
                assert _minima_fixing(g, (a, b)) == _fixing_minima(n, group, (a, b)), (g, a, b)
                for p in _schreier_generators(n, gens, b):
                    assert _is_automorphism_fixing(g, p, (a, b)), (g, a, b)


def test_stabilizer_minima_examples():
    assert _minima_fixing(canonicalize([7]), (1,)) == 0  # only 1 fixes 1 in Z_7
    assert _minima_fixing(canonicalize([2, 2]), (1,)) == 0b0111  # swaps 2 and 3
    g = canonicalize([3, 3])
    assert _minima_fixing(g, (1, 3)) == 0  # fixing a basis fixes everything
    assert _minima_fixing(g, (1,)) is _minima_fixing(g, (1,))
