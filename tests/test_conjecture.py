from __future__ import annotations

import gc
import itertools
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from zsum.conjecture import (
    ScanConfig,
    ScanReport,
    _walk,
    _zero_selection_dfs,
    conjecture_check_instance,
    conjecture_scan,
    enumerate_zero_selection,
)
from zsum.errors import (
    BudgetExceeded,
    InvalidArgument,
    InvalidElement,
    InvalidGroup,
    InvalidInstance,
    TheoremViolation,
)
from zsum.groups import canonicalize, groups_up_to_order, rho

from test_determinism import EXHAUSTIVE_SCANS, SCAN_Z4_K2_DIGEST, SCANS, _digest

Z2 = canonicalize([2])
Z3 = canonicalize([3])
Z4 = canonicalize([4])


def test_check_zero_weight_gives_singleton():
    sel = conjecture_check_instance(Z4, ((1,), (2,), (3,), (0,)), (4, 1))
    assert sel is not None
    assert sel.indices == (1,)
    assert sel.images == (1,)


def test_check_agrees_with_enumeration_on_small_grid():
    # the dual-route assertion inside the check makes this a cross-validation
    for x in itertools.product(Z3.elements(), repeat=3):
        for k in (1, 2):
            if rho(x) > k:
                continue
            for w in itertools.product((1, 2), repeat=k):
                sel = conjecture_check_instance(Z3, x, w)
                oracle = enumerate_zero_selection(Z3, x, w)
                assert (sel is None) == (oracle is None)
                if sel is not None:
                    assert sel == oracle


def test_check_preconditions():
    with pytest.raises(InvalidInstance):
        conjecture_check_instance(Z3, ((1,), (2,)), (1,))  # |x| != n
    with pytest.raises(InvalidInstance):
        conjecture_check_instance(Z3, ((1,), (2,), (0,)), ())  # k = 0
    with pytest.raises(InvalidInstance):
        conjecture_check_instance(Z3, ((1,), (2,), (0,)), (1, 1, 1, 1))  # k > n
    with pytest.raises(InvalidInstance):
        conjecture_check_instance(Z3, ((1,), (1,), (1,)), (1,))  # rho > k


def test_counterexample_regression_z4():
    # the search space contains genuine failures of the unrestricted statement
    assert conjecture_check_instance(Z4, ((1,), (1,), (3,), (3,)), (1, 2)) is None
    assert conjecture_check_instance(Z4, ((3,), (1,), (3,), (1,)), (2, 3)) is None
    # flipping one value restores solvability
    assert conjecture_check_instance(Z4, ((1,), (1,), (3,), (2,)), (1, 2)) is not None


def test_scan_z2_k1_is_clean():
    report = conjecture_scan(ScanConfig(orders=(2,), k=1, weight_values=(1,)))
    assert report.checked == 2
    assert report.counterexample_count == 0
    assert report.counterexamples == ()
    assert report.authoritative


def test_scan_z3_k2_is_clean_and_witnessed():
    report = conjecture_scan(ScanConfig(orders=(3,), k=2, weight_values=(1, 2)))
    assert report.checked == 96
    assert report.counterexample_count == 0
    assert len(report.witness_sample) == 5


def test_scan_z4_k2_counterexample_census():
    report = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3)))
    assert report.checked == 1836
    assert report.counterexample_count == 24
    weights = Counter(tuple(c["w"]) for c in report.counterexamples)
    assert weights == {(1, 2): 6, (2, 1): 6, (2, 3): 6, (3, 2): 6}
    value_multisets = {tuple(sorted(e[0] for e in c["x"])) for c in report.counterexamples}
    assert value_multisets == {(1, 1, 3, 3)}
    # every reported failure re-fails an independent exhaustive pass
    for c in report.counterexamples:
        x = tuple(tuple(e) for e in c["x"])
        assert enumerate_zero_selection(Z4, x, tuple(c["w"])) is None
        assert "recheck" in c


def test_scan_counterexamples_lie_outside_proven_regimes():
    import math

    report = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3)))
    for c in report.counterexamples:
        w = tuple(c["w"])
        assert any(math.gcd(4, wi) > 1 for wi in w)  # not the coprime regime
        assert len(w) < 4  # not the k >= D regime


def test_the_scan_runs_in_one_process(capsys):
    from zsum.cli import EXIT_INVALID, main

    with pytest.raises(InvalidArgument, match="workers = 2 must be 1"):
        ScanConfig(orders=(3,), k=2, weight_values=(1, 2), workers=2)
    with pytest.raises(SystemExit) as exited:
        main(["scan-conjecture", "--orders", "3", "--k", "2", "--workers", "2"])
    assert exited.value.code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


@pytest.mark.parametrize("workers", ["1", True, 1.0, None])
def test_workers_must_be_the_int_1(workers):
    # workers="1" once failed with "workers = 1 must be 1", and True and 1.0
    # were accepted
    with pytest.raises(InvalidArgument, match=f"^workers = {workers!r} is not an integer$"):
        ScanConfig(orders=(3,), k=2, weight_values=(1, 2), workers=workers)
    config = ScanConfig(orders=(3,), k=2, weight_values=(1, 2), workers=1)
    with pytest.raises(InvalidArgument, match=f"^workers = {workers!r} is not an integer$"):
        config.replace(workers=workers)


def test_scan_rerun_is_identical():
    cfg = ScanConfig(orders=(2, 2), k=2, weight_values=(1, 2))
    assert conjecture_scan(cfg).to_json() == conjecture_scan(cfg).to_json()


def test_scan_report_json_schema():
    report = conjecture_scan(ScanConfig(orders=(2,), k=1, weight_values=(1,)))
    obj = report.to_json()
    assert "wall_time" not in obj
    assert "workers" not in str(obj.get("config", obj))
    assert obj["counterexample_count"] == 0
    assert isinstance(report, ScanReport)
    assert report.wall_time >= 0.0


def test_sampled_mode_is_seed_deterministic():
    cfg = ScanConfig(
        orders=(4,), k=2, weight_values=(1, 2, 3), mode="sampled", sample_size=50, seed=7
    )
    a = conjecture_scan(cfg)
    b = conjecture_scan(cfg)
    assert a.to_json() == b.to_json()
    assert a.checked == 50


def test_sampled_mode_respects_rho_constraint():
    cfg = ScanConfig(
        orders=(4,), k=1, weight_values=(1, 3), mode="sampled", sample_size=30, seed=3
    )
    report = conjecture_scan(cfg)
    assert report.checked == 30


def test_budget_gate_raises_with_partial_report():
    cfg = ScanConfig(orders=(4,), k=4, weight_values=(1, 2, 3), budget=10)
    with pytest.raises(BudgetExceeded) as err:
        conjecture_scan(cfg)
    report = err.value.report
    assert report is not None
    assert not report.authoritative
    assert report.checked == 0


def test_scan_config_validation():
    with pytest.raises(InvalidArgument):
        conjecture_scan(ScanConfig(orders=(3,), k=0, weight_values=(1,)))
    with pytest.raises(InvalidArgument):
        conjecture_scan(ScanConfig(orders=(3,), k=4, weight_values=(1,)))
    with pytest.raises(InvalidArgument):
        conjecture_scan(ScanConfig(orders=(3,), k=1, weight_values=()))
    with pytest.raises(InvalidArgument):
        conjecture_scan(ScanConfig(orders=(3,), k=1, weight_values=(1,), mode="turbo"))
    with pytest.raises(InvalidArgument):
        conjecture_scan(ScanConfig(orders=(3,), k=1, weight_values=(1,), workers=0))


# (changes to a valid config, the error class, its message): one break of
# each rule a ScanConfig checks, in the order it checks them
SCAN_RULES = [
    ({"workers": 2}, InvalidArgument, "^workers = 2 must be 1: the scan decides in one process$"),
    ({"k": "x"}, InvalidArgument, "^k = 'x' is not an integer$"),
    ({"sample_size": 2.5}, InvalidArgument, "^sample_size = 2.5 is not an integer$"),
    ({"budget": True}, InvalidArgument, "^budget = True is not an integer$"),
    ({"seed": None}, InvalidArgument, "^seed = None is not an integer$"),
    ({"orders": (0,)}, InvalidGroup, "^cyclic order must be >= 1, got 0$"),
    ({"orders": ("4",)}, InvalidGroup, "^cyclic order '4' is not an integer$"),
    ({"orders": 4}, InvalidGroup, "^cyclic orders must come as a list or tuple, not int$"),
    ({"k": 0}, InvalidArgument, r"^k = 0 must lie in \[1, 4\]$"),
    ({"k": 5}, InvalidArgument, r"^k = 5 must lie in \[1, 4\]$"),
    ({"weight_values": {1, 2}}, InvalidArgument,
     "^weight values must come as a list or tuple, not set$"),
    ({"weight_values": (1, 2.0)}, InvalidArgument, "^weight value 2.0 is not an integer$"),
    ({"weight_values": ()}, InvalidArgument, "^weight value set is empty$"),
    ({"mode": "turbo"}, InvalidArgument, "^unknown mode 'turbo'$"),
    ({"mode": "sampled"}, InvalidArgument, "^sample_size = 0 must be >= 1$"),
    ({"mode": "sampled", "sample_size": -3}, InvalidArgument, "^sample_size = -3 must be >= 1$"),
    ({"budget": 0}, InvalidArgument, "^budget = 0 must be >= 1$"),
    # two breaks: the rule checked first names its field
    ({"k": "x", "orders": (0,)}, InvalidArgument, "^k = 'x' is not an integer$"),
    ({"mode": "turbo", "budget": -1}, InvalidArgument, "^unknown mode 'turbo'$"),
    # an exhaustive scan draws nothing, but a negative sample size is still
    # refused, before the budget
    ({"sample_size": -3}, InvalidArgument, "^sample_size = -3 must be >= 0$"),
    ({"sample_size": -1, "budget": 0}, InvalidArgument, "^sample_size = -1 must be >= 0$"),
]


@pytest.mark.parametrize("changes, error, message", SCAN_RULES)
def test_a_scan_config_is_checked_when_it_is_built(changes, error, message):
    # each rule once ran only when conjecture_scan did, so such a config
    # built, and replace on a valid one succeeded
    fields = {"orders": (4,), "k": 2, "weight_values": (1, 2, 3), **changes}
    with pytest.raises(error, match=message):
        ScanConfig(**fields)
    config = ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3))
    with pytest.raises(error, match=message):
        config.replace(**changes)


def test_enumeration_oracle_agreement_random():
    rng = random.Random(4242)
    for _ in range(300):
        g = rng.choice([Z2, Z3, Z4])
        n = g.order
        elems = list(g.elements())
        k = rng.randint(1, n)
        pool = [e for e in elems for _ in range(k)]
        rng.shuffle(pool)
        x = tuple(pool[:n])
        w = tuple(rng.randint(1, n) for _ in range(k))
        # conjecture_check_instance asserts dual-route agreement internally
        sel = conjecture_check_instance(g, x, w)
        if sel is not None:
            total = g.zero()
            for i, j in zip(sel.indices, sel.images):
                total = g.add(total, g.scalar_mul(w[i - 1], x[j - 1]))
            assert total == g.zero()
            assert len(set(sel.images)) == len(sel.images)


def _brute_zero_selection(factors, x, w) -> bool:
    """Some nonempty I and injection f with sum w_i * x_f(i) = 0, by trying
    every (I, f) with plain per-coordinate modular arithmetic."""
    for size in range(1, len(w) + 1):
        for indices in itertools.combinations(range(len(w)), size):
            for images in itertools.permutations(range(len(x)), size):
                if all(
                    sum(w[i] * x[j][c] for i, j in zip(indices, images)) % d == 0
                    for c, d in enumerate(factors)
                ):
                    return True
    return False


def _dfs_has_selection(g, x, w):
    """The rank DFS alone, which also takes an x shorter than |G|."""
    from zsum.conjecture import _rank_rows, _zero_selection_dfs

    rows = _rank_rows(g, [g.rank_index[e] for e in x], w)
    return _zero_selection_dfs(g.rank_add_table, [rows[v] for v in w], len(x)) is not None


def test_rank_dfs_matches_brute_force_on_small_groups():
    rng = random.Random(20240518)
    outcomes = Counter()
    for g in groups_up_to_order(8):
        n = g.order
        elems = g.elements()
        weight_pool = [0, -1, -n, n, 2 * n, 10**12 + 3, -(10**13) - 1, *range(-n, 2 * n)]
        for _ in range(40):
            k = rng.randint(1, min(n, 3 if n >= 7 else 4))
            pool = [e for e in elems for _ in range(k)]
            rng.shuffle(pool)
            x = tuple(pool[:n])
            assert rho(x) <= k
            w = tuple(rng.choice(weight_pool) for _ in range(k))
            expected = _brute_zero_selection(g.invariant_factors, x, w)
            assert (conjecture_check_instance(g, x, w) is not None) == expected, (
                g.invariant_factors, x, w)
            outcomes[expected] += 1
        # short x over the nonzero elements, where no selection is common
        for _ in range(20):
            x = tuple(rng.choice(elems[1:] or elems) for _ in range(rng.randint(1, 3)))
            w = tuple(rng.choice(weight_pool) for _ in range(rng.randint(1, 3)))
            expected = _brute_zero_selection(g.invariant_factors, x, w)
            assert _dfs_has_selection(g, x, w) == expected, (g.invariant_factors, x, w)
            outcomes[expected] += 1
    # known failures of the unrestricted statement, plus huge and negative
    # weights that reduce to the same residues
    z4 = canonicalize([4])
    for x, w in [
        (((1,), (1,), (3,), (3,)), (1, 2)),
        (((3,), (1,), (3,), (1,)), (2, 3)),
        (((1,), (1,), (3,), (3,)), (-3, 10**12 + 2)),
        (((1,), (1,), (3,), (3,)), (-(10**15) + 1, 6)),
    ]:
        assert not _brute_zero_selection(z4.invariant_factors, x, w)
        assert conjecture_check_instance(z4, x, w) is None
        outcomes[False] += 1
    assert outcomes[True] > 100 and outcomes[False] > 50


def test_check_rejects_elements_outside_the_group():
    with pytest.raises(InvalidElement):
        conjecture_check_instance(Z4, ((1,), (2,), (4,), (0,)), (1, 2))  # residue out of range
    with pytest.raises(InvalidElement):
        conjecture_check_instance(Z4, ((1,), (2,), (-1,), (0,)), (1, 2))
    with pytest.raises(InvalidElement):
        conjecture_check_instance(Z4, ((1,), (2,), (3, 0), (0,)), (1, 2))  # wrong arity


NOT_TUPLES_OF_INTS = {
    "list": [[1], [2], [3], [0]],  # rho used to hash them first: a bare TypeError
    "float": ((1,), (2.0,), (3,), (0,)),
    "bool": ((True,), (2,), (3,), (0,)),
}


@pytest.mark.parametrize("name", sorted(NOT_TUPLES_OF_INTS))
@pytest.mark.parametrize("edge", [conjecture_check_instance, enumerate_zero_selection],
                         ids=["check", "enumerate"])
def test_the_public_edge_refuses_entries_that_are_not_tuples_of_ints(edge, name):
    with pytest.raises(InvalidElement):
        edge(Z4, NOT_TUPLES_OF_INTS[name], (1, 2))


@pytest.mark.parametrize("w", [(1.5, 2), ("a", 1), (True, 2)], ids=["float", "str", "bool"])
@pytest.mark.parametrize("edge", [conjecture_check_instance, enumerate_zero_selection],
                         ids=["check", "enumerate"])
def test_the_public_edge_refuses_weights_that_are_not_ints(edge, w):
    # a float or a string once ended in a bare TypeError, and True was taken
    with pytest.raises(InvalidInstance, match="is not an integer"):
        edge(Z4, ((1,), (2,), (3,), (0,)), w)


@pytest.mark.parametrize("values", [(1.5, 2), ("a", 1), (True, 2)], ids=["float", "str", "bool"])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_a_scan_refuses_weight_values_that_are_not_ints(mode, values):
    with pytest.raises(InvalidArgument, match=f"^weight value {values[0]!r} is not an integer$"):
        conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=values, mode=mode,
                                   sample_size=10))


@pytest.mark.parametrize("field, value", [
    ("k", 2.0), ("k", True), ("sample_size", 2.5), ("sample_size", True),
    ("budget", 10**9 + 0.5), ("budget", True), ("seed", 1.5), ("seed", False),
])
def test_a_scan_refuses_counts_and_seeds_that_are_not_ints(field, value):
    # k=2.0 once ended in a bare TypeError, k=True ran as k = 1, and
    # sample_size=2.5 drew 3 instances
    config = ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3), mode="sampled",
                        sample_size=10)
    with pytest.raises(InvalidArgument, match=f"^{field} = {value!r} is not an integer$"):
        conjecture_scan(config.replace(**{field: value}))


def _scan_runs(g, k, values, mode, sample_size=0, seed=0):
    """The instances of a scan of this configuration, as runs of equal x."""
    import zsum.conjecture as conjecture

    config = ScanConfig(orders=g.invariant_factors, k=k, weight_values=values, mode=mode,
                        sample_size=sample_size, seed=seed)
    elements = g.elements()
    if mode == "sampled":
        return [(tuple(elements[r] for r in x), [w])
                for x, w in conjecture._sample_draws(g.order, config)]
    ws = list(itertools.product(values, repeat=k))
    return [(x, ws) for x in itertools.product(elements, repeat=g.order) if rho(x) <= k]


@pytest.mark.parametrize("orders, k, values, mode, sample_size, expected", [
    ((4,), 2, (1, 2, 3), "exhaustive", 0, 1836),
    ((2, 2), 2, (0, 1, 2, 3, -1, 10**12 + 1), "exhaustive", 0, 7344),
    ((6,), 2, (1, 2, 3, 4, 5), "sampled", 300, 300),
])
def test_batched_decisions_equal_the_single_instance_check(orders, k, values, mode,
                                                           sample_size, expected):
    from zsum.conjecture import _decide

    g = canonicalize(orders)
    elements, index = g.elements(), g.rank_index
    checked = 0
    for x, ws in _scan_runs(g, k, values, mode, sample_size, seed=11):
        for w, sel in zip(ws, _decide(g, elements, [index[e] for e in x], ws)):
            assert (sel is None) == (conjecture_check_instance(g, x, w) is None), (x, w)
            assert (sel is None) == (not _brute_zero_selection(g.invariant_factors, x, w))
            checked += 1
    assert checked == expected


def _moved_image(add, derived, n):
    """A DFS that claims a wrong selection: its own, with the first image
    moved to a position where that weight's term has another value."""
    found = _zero_selection_dfs(add, derived, n)
    if found is None:
        return None
    indices, images = found
    row = derived[indices[0] - 1]
    moved = next(j for j in range(n) if row[j] != row[images[0] - 1])
    return indices, (moved + 1,) + images[1:]


def _says_none(add, derived, n):
    """A DFS that finds no selection, whatever the instance."""
    return None


ROUTE_DISAGREEMENTS = [
    (_moved_image, r"^route disagreement, the DFS lost: its selection, indices \[1\] and "
                   r"images \[\d\], is not a zero selection: x=\[\[0\], "),
    (_says_none, r"^route disagreement, the DFS lost: it found no zero selection, the "
                 r"enumeration found indices \[1\] and images \[\d\]: x=\[\[0\], "),
]


@pytest.mark.parametrize("dfs, message", ROUTE_DISAGREEMENTS, ids=["wrong-selection", "none"])
def test_route_disagreement_aborts_the_scan(monkeypatch, dfs, message):
    # a "yes" is the DFS's selection, checked by the oracle's arithmetic; a
    # "no" is the oracle's enumeration run to exhaustion
    import zsum.conjecture as conjecture

    monkeypatch.setattr(conjecture, "_zero_selection_dfs", dfs)
    with pytest.raises(TheoremViolation, match=message):
        conjecture_scan(ScanConfig(orders=(3,), k=2, weight_values=(1, 2)))


@pytest.mark.parametrize("dfs, message", ROUTE_DISAGREEMENTS, ids=["wrong-selection", "none"])
def test_a_route_disagreement_exits_4_through_the_cli(monkeypatch, capsys, dfs, message):
    import zsum.conjecture as conjecture
    from zsum.cli import EXIT_THEOREM_VIOLATION, main

    monkeypatch.setattr(conjecture, "_zero_selection_dfs", dfs)
    assert main(["scan-conjecture", "--orders", "3", "--k", "2"]) == EXIT_THEOREM_VIOLATION == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "THEOREM VIOLATION: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert re.match(message, captured.err[len(prefix):])
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("indices, images, expected", [
    ((1, 2), (1, 2), True),
    ((3,), (4,), True),
    ((), (), False),  # I empty
    ((2, 1), (2, 1), False),  # I not increasing
    ((1, 1), (1, 2), False),  # an index repeated
    ((0,), (3,), False),  # index 0, which w[-1] would read as 2
    ((4,), (4,), False),  # index above k
    ((1, 2), (3, 3), False),  # an image repeated
    ((1,), (0,), False),  # image 0, the unused slot of each column
    ((1,), (5,), False),  # image above n
    ((1, 2), (4,), False),  # fewer images than indices
    ((1,), (1,), False),  # value 1
])
def test_the_check_of_a_yes_refuses_each_malformed_selection(indices, images, expected):
    # x = (1, 3, 2, 0) and w = (1, 1, 2) on Z_4: each refused selection but
    # the last breaks one rule only
    from zsum.conjecture import _is_zero_selection
    from zsum.weighted import _coordinate_columns

    columns = _coordinate_columns(Z4, [(1,), (3,), (2,), (0,)])
    assert _is_zero_selection(columns, 4, (1, 1, 2), indices, images) is expected


def _is_zero_by_hand(factors, x, w, indices, images):
    """A nonempty I, strictly increasing inside [1, |w|], with as many
    distinct images inside [1, |x|], of value zero by plain per-coordinate
    modular arithmetic."""
    return (
        0 < len(indices) == len(images)
        and list(indices) == sorted(set(indices))
        and 1 <= indices[0] and indices[-1] <= len(w)
        and len(set(images)) == len(images) and all(1 <= j <= len(x) for j in images)
        and all(sum(w[i - 1] * x[j - 1][c] for i, j in zip(indices, images)) % d == 0
                for c, d in enumerate(factors))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_dfs_selection_is_a_zero_selection_exactly_when_one_exists(data):
    from zsum.conjecture import _rank_rows

    g = data.draw(st.sampled_from(groups_up_to_order(6)))  # the trivial group too
    factors, n = g.invariant_factors, g.order
    x = data.draw(st.lists(st.sampled_from(g.elements()), min_size=1, max_size=n))
    w = data.draw(st.lists(st.one_of(st.integers(-12, 12), st.integers(-2**71, 2**71)),
                           min_size=1, max_size=3))
    rows = _rank_rows(g, [g.rank_index[e] for e in x], w)
    found = _zero_selection_dfs(g.rank_add_table, [rows[v] for v in w], len(x))
    if found is None:
        assert not _brute_zero_selection(factors, x, w), (factors, x, w)
    else:
        assert _is_zero_by_hand(factors, x, w, *found), (factors, x, w, found)


def test_a_scan_leaves_no_reference_cycles():
    # the DFS and the class walk free their state by reference counting, so
    # nothing a scan or a check made waits for the cyclic collector
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        conjecture_scan(ScanConfig(orders=(4,), k=3, weight_values=(1, 2, 3)))
        conjecture_scan(ScanConfig(orders=(6,), k=2, weight_values=(1, 2, 3, 4, 5),
                                   mode="sampled", sample_size=200, seed=1))
        conjecture_check_instance(Z4, [(0,), (1,), (2,), (3,)], (2, 2))
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == 0


def test_in_process_scan_builds_the_admissible_list_once(monkeypatch):
    # the admissible x-classes (each rank at most k times), not the
    # admissible x: one x-class list (n, k, n) for Z_2 x Z_2
    import zsum.conjecture as conjecture

    calls = []
    build = conjecture._classes

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(conjecture, "_classes", counted)
    report = conjecture_scan(ScanConfig(orders=(2, 2), k=2, weight_values=(1, 2)))
    assert report.checked == 816
    assert [args for args in calls if args == (4, 2, 4)] == [(4, 2, 4)]


@pytest.mark.parametrize("mode, make", [
    # the exhaustive scan's admissible classes come from the class engine
    pytest.param("exhaustive", "_classes", id="exhaustive-_admissible_classes"),
    pytest.param("sampled", "_sample_draws", id="sampled-_sample_draws"),
])
def test_scan_builds_its_instances_once_in_the_calling_process(monkeypatch, mode, make):
    # the classes, not the instances: one x-class list (n, k, n) and one
    # w-class list (residues, k, k) for an exhaustive scan, one list of
    # draws for a sampled one
    import zsum.conjecture as conjecture

    calls = []
    build = getattr(conjecture, make)

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(conjecture, make, counted)
    report = conjecture_scan(ScanConfig(orders=(3,), k=2, weight_values=(1, 2), mode=mode,
                                        sample_size=40))
    assert report.checked == (96 if mode == "exhaustive" else 40)
    if mode == "exhaustive":
        assert calls == [(3, 2, 3), (2, 2, 2)]
    else:
        assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_class_key_changes_keep_the_existence_of_a_selection(data):
    # the scan decides one instance per key (sorted ranks of x, sorted w_i
    # mod exp(G)); every change that keeps the key keeps the answer
    g = data.draw(st.sampled_from(groups_up_to_order(6)))
    factors, n = g.invariant_factors, g.order
    x = data.draw(st.lists(st.sampled_from(g.elements()), min_size=n, max_size=n))
    w = data.draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=3))
    expected = _brute_zero_selection(factors, x, w)
    x_order = data.draw(st.permutations(range(n)))
    assert _brute_zero_selection(factors, [x[j] for j in x_order], w) == expected
    w_order = data.draw(st.permutations(range(len(w))))
    assert _brute_zero_selection(factors, x, [w[i] for i in w_order]) == expected
    shifted = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    w_shifted = [wi + g.exponent * (i == shifted) for i, wi in enumerate(w)]
    assert _brute_zero_selection(factors, x, w_shifted) == expected


def test_scan_decides_each_class_once_per_route(monkeypatch):
    # exhaustive Z_4 with k = 4: 20,736 instances in 525 classes, which fall
    # into 198 orbit pairs (22 x-orbits of 35 x-classes under x -> 3x, 9
    # w-orbits of 15 w-classes under w -> 3w); each pair is decided once by
    # the DFS, the oracle runs once per pair without a selection (none here)
    # and once per reported witness
    import zsum.conjecture as conjecture

    calls = Counter()
    dfs, oracle = conjecture._zero_selection_dfs, conjecture._first_selection

    def counted_dfs(*args):
        calls["dfs"] += 1
        return dfs(*args)

    def counted_oracle(*args):
        calls["oracle"] += 1
        return oracle(*args)

    monkeypatch.setattr(conjecture, "_zero_selection_dfs", counted_dfs)
    monkeypatch.setattr(conjecture, "_first_selection", counted_oracle)
    report = conjecture_scan(ScanConfig(orders=(4,), k=4, weight_values=(1, 2, 3)))
    assert report.checked == 20736
    assert report.decided == 198
    assert calls["dfs"] == 198
    assert len(report.witness_sample) == 5
    assert calls["oracle"] == 0 + 5
    assert _digest(report.to_json()) == SCANS["z4-k4"][-1]


def test_the_scan_validates_nothing_it_generated(monkeypatch):
    # every x the scan decides is a rank tuple it generated or drew, so no
    # entry is checked again; only the public edge checks elements
    from zsum.groups import AbelianGroup

    calls = Counter()
    check = AbelianGroup.check_element

    def counted(self, a):
        calls["check_element"] += 1
        return check(self, a)

    monkeypatch.setattr(AbelianGroup, "check_element", counted)
    exhaustive = conjecture_scan(ScanConfig(orders=(4,), k=4, weight_values=(1, 2, 3)))
    sampled = conjecture_scan(ScanConfig(orders=(6,), k=2, weight_values=(1, 2, 3, 4, 5),
                                         mode="sampled", sample_size=2000, seed=1))
    assert (exhaustive.checked, sampled.checked) == (20736, 2000)
    assert calls["check_element"] == 0
    conjecture_check_instance(Z4, ((1,), (2,), (3,), (0,)), (1, 2))
    assert calls["check_element"] == 4


def _benchmark_scans():
    """The scan configurations of the benchmark and the pinned sampled Z_4
    scan, weights 1..n-1."""
    configs = [((4,), 2, "exhaustive", 0, 0)] + [spec[:5] for spec in SCANS.values()]
    for orders, k, mode, sample_size, seed in configs:
        n = canonicalize(orders).order
        yield ScanConfig(orders=orders, k=k, weight_values=tuple(range(1, n)), mode=mode,
                         sample_size=sample_size, seed=seed)


@pytest.mark.parametrize("config", list(_benchmark_scans()),
                         ids=lambda c: f"{'x'.join(map(str, c.orders))}-k{c.k}-{c.mode}")
def test_witnesses_are_their_own_instances_first_selections(config):
    # a witness comes from its exact instance, not from its class's
    # representative
    g = canonicalize(config.orders)
    report = conjecture_scan(config)
    assert len(report.witness_sample) == 5
    for item in report.witness_sample:
        x = tuple(tuple(e) for e in item["instance"]["x"])
        sel = enumerate_zero_selection(g, x, tuple(item["instance"]["w"]))
        assert item["selection"] == {"indices": list(sel.indices), "images": list(sel.images)}



def test_a_witness_of_an_already_decided_class_is_its_own_instances_selection(monkeypatch):
    # three instances of one class, x2 a permutation of x1 and (2, 1) of
    # (1, 2), with three different first selections
    import zsum.conjecture as conjecture

    x1, x2 = (1, 3, 2, 2), (2, 1, 2, 3)  # ranks, which on Z_4 are the residues
    drawn = [(x1, (1, 2)), (x1, (2, 1)), (x2, (1, 2))]
    monkeypatch.setattr(conjecture, "_sample_draws", lambda n, config: drawn)
    report = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2),
                                        mode="sampled", sample_size=3))
    assert (report.checked, report.decided) == (3, 1)
    expected = [enumerate_zero_selection(Z4, tuple((r,) for r in x), w) for x, w in drawn]
    assert len({(sel.indices, sel.images) for sel in expected}) == 3
    assert [item["selection"] for item in report.witness_sample] == [
        {"indices": list(sel.indices), "images": list(sel.images)} for sel in expected
    ]


def test_decided_count_stays_off_the_wire():
    config = ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3))
    report = conjecture_scan(config)
    assert report.decided == 48  # 12 x-orbits times 4 w-orbits
    payload = report.to_json()
    assert sorted(payload) == [
        "authoritative", "checked", "config", "counterexample_count", "counterexamples",
        "davenport", "group", "proven_subclass", "witness_sample",
    ]
    assert _digest(payload) == SCAN_Z4_K2_DIGEST


def _choice_sample(g, config):
    """A sample drawn as the scan always drew it: ``random.Random(seed).choice``
    on the group's elements, then, for an x that repeats nothing more than k
    times, on the weight values; and how many x it drew, kept or not."""
    rng = random.Random(config.seed)
    elements = g.elements()
    out, drawn = [], 0
    while len(out) < config.sample_size:
        x = tuple(rng.choice(elements) for _ in range(g.order))
        drawn += 1
        if rho(x) > config.k:
            continue
        out.append((x, tuple(rng.choice(config.weight_values) for _ in range(config.k))))
    return out, drawn


def _choice_draws(g, config):
    return _choice_sample(g, config)[0]


@pytest.mark.parametrize("order", [3, 5, 6, 7])
def test_sampled_draws_are_random_choice_draws(order):
    import zsum.conjecture as conjecture

    g = canonicalize([order])
    elements = g.elements()
    for seed in range(21):
        for size in range(1, 6):
            values = tuple(range(-2, 3 * size - 2, 3))  # sorted, as a validated scan has them
            config = ScanConfig(orders=(order,), k=1 + seed % 3, weight_values=values,
                                mode="sampled", sample_size=8, seed=seed)
            drawn = [(tuple(elements[r] for r in x), w)
                     for x, w in conjecture._sample_draws(order, config)]
            assert drawn == _choice_draws(g, config), (order, seed, size)


def _nothing_has_a_selection(monkeypatch):
    import zsum.conjecture as conjecture

    monkeypatch.setattr(conjecture, "_zero_selection_dfs", lambda *args: None)
    monkeypatch.setattr(conjecture, "_first_selection", lambda *args: None)


@pytest.mark.parametrize("orders, k, values, x, w", [
    ((5,), 2, (1, 2), [[0], [0], [1], [1], [2]], [1, 1]),  # every weight coprime to 5
    ((4,), 2, (2, 3), [[0], [0], [1], [1]], [3, 3]),  # (3, 3) is the only coprime class
    ((2,), 2, (2,), [[0], [0]], [2, 2]),  # k >= D(Z_2) = 2
])
def test_an_exhaustive_failure_in_a_proven_regime_names_the_first_instance(
        monkeypatch, orders, k, values, x, w):
    # both routes patched to find nothing, so every class fails; the error
    # names the first failing instance of a proven regime in canonical order
    _nothing_has_a_selection(monkeypatch)
    with pytest.raises(TheoremViolation) as err:
        conjecture_scan(ScanConfig(orders=orders, k=k, weight_values=values))
    assert str(err.value) == (  # D(Z_n) = n
        f"instance in a proven regime has no zero selection: x={x}, w={w}, "
        f"group orders {list(orders)}, k={k}, D={orders[0]}"
    )


@pytest.mark.parametrize("orders, values", [((5,), (1, 2)), ((4,), (2, 3))])
def test_a_sampled_failure_in_a_proven_regime_names_the_first_drawn(monkeypatch, orders,
                                                                    values):
    import math

    _nothing_has_a_selection(monkeypatch)
    g = canonicalize(orders)
    config = ScanConfig(orders=orders, k=2, weight_values=values, mode="sampled",
                        sample_size=30, seed=3)
    x, w = next((x, w) for x, w in _choice_draws(g, config)
                if all(math.gcd(g.order, v) == 1 for v in w))
    with pytest.raises(TheoremViolation) as err:
        conjecture_scan(config)
    assert f"x={[list(e) for e in x]}, w={list(w)}, " in str(err.value)


def _components(items, moves):
    """A label per item: the items linked through ``items`` by the maps
    ``moves`` (an edge from a to move(a) when both are items) share one."""
    linked = {a: set() for a in items}
    for a in items:
        for move in moves:
            b = move(a)
            if b in linked:
                linked[a].add(b)
                linked[b].add(a)
    label = {}
    for a in items:
        if a not in label:
            label[a], todo = a, [a]
            while todo:
                for b in linked[todo.pop()]:
                    if b not in label:
                        label[b] = a
                        todo.append(b)
    return label


def _orbit_labels(g, classes):
    """The orbits of the x-classes and of the w-classes of the (sorted x,
    sorted residues of w) classes, as two labellings: x-classes linked by
    the group's automorphism generators, w-classes by multiplication by the
    units mod exp(G), each only through the given classes."""
    elements, index, exponent = g.elements(), g.rank_index, g.exponent
    x_moves = [lambda x, image=image: tuple(sorted(elements[image[index[e]]] for e in x))
               for image in g._automorphism_maps]
    w_moves = [lambda w, u=u: tuple(sorted(u * r % exponent for r in w))
               for u in range(1, exponent) if math.gcd(u, exponent) == 1]
    return (_components({x for x, _ in classes}, x_moves),
            _components({w for _, w in classes}, w_moves))


def _per_instance_report(g, config):
    """The report of a scan, and its classes, by deciding every instance on
    its own, in canonical order."""
    values, k = tuple(sorted(set(config.weight_values))), config.k
    if config.mode == "sampled":
        instances = _choice_draws(g, config.replace(weight_values=values))
    else:
        instances = [(x, w) for x in itertools.product(g.elements(), repeat=g.order)
                     if rho(x) <= k for w in itertools.product(values, repeat=k)]
    failing, witnesses, classes = [], [], set()
    for x, w in instances:
        classes.add((tuple(sorted(x)), tuple(sorted(v % g.exponent for v in w))))
        sel = enumerate_zero_selection(g, x, w)
        item = {"x": [list(e) for e in x], "w": list(w)}
        if sel is None:
            failing.append(dict(item, recheck="full enumeration of (I, f) exhausted"))
        elif len(witnesses) < 5:
            witnesses.append({"instance": item, "selection": {
                "indices": list(sel.indices), "images": list(sel.images)}})
    return (len(instances), len(failing), failing[:100], witnesses), classes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_by_class_scan_matches_a_per_instance_walk(data):
    g = data.draw(st.sampled_from(groups_up_to_order(4)))
    k = data.draw(st.integers(min_value=1, max_value=min(3, g.order)))
    values = tuple(data.draw(st.sets(st.integers(min_value=-6, max_value=6),
                                     min_size=1, max_size=4)))
    mode = data.draw(st.sampled_from(["exhaustive", "sampled"]))
    config = ScanConfig(orders=g.invariant_factors, k=k, weight_values=values, mode=mode,
                        sample_size=data.draw(st.integers(min_value=1, max_value=40)),
                        seed=data.draw(st.integers(min_value=0, max_value=10**6)))
    expected, classes = _per_instance_report(g, config)
    # an exhaustive budget counts classes, a sampled one x draws, kept or not
    if mode == "exhaustive":
        size = len(classes)
    else:
        size = _choice_sample(g, config.replace(weight_values=tuple(sorted(values))))[1]
    budget = data.draw(st.integers(min_value=max(size - 2, 1), max_value=size + 2))
    if size > budget:
        with pytest.raises(BudgetExceeded):
            conjecture_scan(config.replace(budget=budget))
        return
    report = conjecture_scan(config.replace(budget=budget))
    assert (report.checked, report.counterexample_count, list(report.counterexamples),
            list(report.witness_sample)) == expected
    # one decision per orbit pair among the scan's classes
    x_label, w_label = _orbit_labels(g, classes)
    assert report.decided == len({(x_label[x], w_label[w]) for x, w in classes})


def test_a_long_list_of_multiples_of_the_exponent_lists_its_failures_at_once():
    # a weight of residue 0 always has a selection, so the 10**4 multiples of
    # 4 add no failure; listing the failures of weights 1, 2, 3 must not walk
    # the 10**8 weight vectors of every failing arrangement
    small = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3)))
    started = time.perf_counter()
    big = conjecture_scan(ScanConfig(orders=(4,), k=2,
                                     weight_values=(1, 2, 3) + tuple(range(4, 40_001, 4))))
    assert time.perf_counter() - started < 5.0
    assert big.checked == small.checked // 3**2 * 10_003**2
    assert (big.counterexample_count, big.counterexamples) == (24, small.counterexamples)
    assert [item["instance"]["w"] for item in big.witness_sample] == [
        [1, 1], [1, 2], [1, 3], [1, 4], [1, 8],
    ]


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_each_class_is_decided_on_weights_of_the_scan(monkeypatch, mode):
    # the oracle's integer arithmetic meets the scan's own negative and huge
    # weights, not their residues: each orbit pair is decided once, on the
    # first vector in product order, or the first draw, ordered by residue,
    # of one of its classes
    import zsum.conjecture as conjecture

    seen = []
    decide = conjecture._decide

    def recorded(g, elements, x, ws):
        seen.extend((tuple(sorted(elements[r] for r in x)), tuple(w)) for w in ws)
        return decide(g, elements, x, ws)

    monkeypatch.setattr(conjecture, "_decide", recorded)
    values = (-7, -2, 3, 10**12 + 1)  # residues 1, 2, 3, 1 mod 4
    config = ScanConfig(orders=(4,), k=2, weight_values=values, mode=mode,
                        sample_size=60, seed=5)
    report = conjecture_scan(config)
    if mode == "sampled":
        instances = _choice_draws(Z4, config)
    else:
        instances = [(x, w) for x in itertools.product(Z4.elements(), repeat=4)
                     if rho(x) <= 2 for w in itertools.product(values, repeat=2)]
    classes, first_w = set(), {}
    for x, w in instances:
        residues = tuple(sorted(v % 4 for v in w))
        classes.add((tuple(sorted(x)), residues))
        first_w.setdefault(residues, tuple(sorted(w, key=lambda v: v % 4)))
    x_label, w_label = _orbit_labels(Z4, classes)
    decided = []
    for x, w in seen:
        residues = tuple(sorted(v % 4 for v in w))
        assert w == first_w[residues]
        decided.append((x_label[x], w_label[residues]))
    assert len(set(decided)) == len(seen) == report.decided
    assert set(decided) == {(x_label[x], w_label[w]) for x, w in classes}
    assert report.decided == {"exhaustive": 48, "sampled": 32}[mode]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_walk_lists_the_product_words_whose_counts_fit_in_product_order(data):
    letters = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4, unique=True))
    kinds = data.draw(st.lists(st.integers(0, 2), min_size=len(letters),
                               max_size=len(letters)))
    length = data.draw(st.integers(1, 4))
    kind_count = max(kinds) + 1
    wanted = data.draw(st.lists(st.lists(st.integers(0, length), min_size=kind_count,
                                         max_size=kind_count).map(tuple), max_size=4))

    def counts(word):
        return tuple(sum(kinds[letters.index(a)] == r for a in word) for r in range(kind_count))

    def fits(prefix):
        return any(all(p <= c for p, c in zip(prefix, cls)) for cls in wanted)

    expected = [word for word in itertools.product(letters, repeat=length)
                if fits(counts(word))]
    assert list(_walk(letters, kinds, length, wanted)) == expected


@pytest.mark.parametrize("kinds, length", [(1, 4), (3, 4), (4, 3), (6, 2)])
def test_the_walk_finds_a_first_word_in_length_times_kinds_tests(kinds, length):
    # whichever count vector is the only wanted class (the first and the
    # last in lexicographic order among them), each position tests each
    # kind at most once and no prefix is a dead end; a test is a read of
    # the wanted class
    calls = []

    class Counted(tuple):
        def __getitem__(self, r):
            calls.append(r)
            return tuple.__getitem__(self, r)

    letters = list(range(2 * kinds))  # two letters of each kind
    for wanted in itertools.product(range(length + 1), repeat=kinds):
        if sum(wanted) != length:
            continue
        calls.clear()
        first = next(_walk(letters, [a // 2 for a in letters], length, [Counted(wanted)]))
        assert first == tuple(2 * r for r, c in enumerate(wanted) for _ in range(c))
        assert len(calls) <= length * kinds, wanted


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_automorphisms_and_units_keep_whether_a_selection_exists(data):
    # the scan decides one class per orbit pair; the independent oracle must
    # answer every image (phi(x), u * w) of an instance as it answers (x, w)
    g = data.draw(st.sampled_from(groups_up_to_order(12)))
    n, exponent, elements, index = g.order, g.exponent, g.elements(), g.rank_index
    k = data.draw(st.integers(min_value=1, max_value=min(3, n)))
    x = tuple(data.draw(st.permutations(elements * k))[:n])  # rho(x) <= k
    w = tuple(data.draw(st.lists(st.integers(min_value=-30, max_value=30),
                                 min_size=k, max_size=k)))
    none = enumerate_zero_selection(g, x, w) is None
    units = [u for u in range(1, exponent + 1) if math.gcd(u, exponent) == 1]
    for image in [list(range(n))] + g._automorphism_maps:
        moved = tuple(elements[image[index[e]]] for e in x)
        for u in units:
            scaled = tuple(u * v for v in w)
            assert (enumerate_zero_selection(g, moved, scaled) is None) == none, (moved, scaled)


def _multinomial(counts):
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def _arrangements(x):
    """The distinct arrangements of the sorted tuple x, in lexicographic
    order (next permutation)."""
    x = list(x)
    while True:
        yield tuple(x)
        i = len(x) - 2
        while i >= 0 and x[i] >= x[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(x) - 1
        while x[j] <= x[i]:
            j -= 1
        x[i], x[j] = x[j], x[i]
        x[i + 1:] = reversed(x[i + 1:])


# every exhaustive scan pinned in tier-1, as (orders, k, weights)
PINNED_EXHAUSTIVE = (
    [((3,), 2, (1, 2)), ((4,), 2, (1, 2, 3))]
    + [(spec[0], spec[1], None) for spec in SCANS.values() if spec[2] == "exhaustive"]
    + [spec[:3] for spec in EXHAUSTIVE_SCANS.values()]
)


@pytest.mark.parametrize("orders, k, weights", PINNED_EXHAUSTIVE,
                         ids=[f"{'x'.join(map(str, o))}-k{k}" + (f"-w{w[0]}..{w[-1]}" if w else "")
                              for o, k, w in PINNED_EXHAUSTIVE])
def test_orbit_decisions_match_one_decision_per_class(orders, k, weights):
    # every (x-class, w-class) pair decided on its own, one _decide per
    # x-class over every w-class, gives the orbit scan's counterexamples
    from zsum.conjecture import RECHECK_TAG, _decide

    g = canonicalize(orders)
    n, exponent, elements = g.order, g.exponent, g.elements()
    values = tuple(sorted(weights or range(1, n)))
    smallest = {}
    for v in values:
        smallest.setdefault(v % exponent, v)
    w_classes = list(itertools.combinations_with_replacement(sorted(smallest), k))
    firsts = [tuple(smallest[r] for r in w) for w in w_classes]
    failing = set()
    for x in itertools.combinations_with_replacement(range(n), n):
        if rho(x) <= k:
            for w, sel in zip(w_classes, _decide(g, elements, x, firsts)):
                if sel is None:
                    failing.add((x, w))
    per_residue = Counter(v % exponent for v in values)
    count = sum(_multinomial(Counter(x).values()) * _multinomial(Counter(w).values())
                * math.prod(per_residue[r] ** c for r, c in Counter(w).items())
                for x, w in failing)
    # every failing x lists at least one instance, so the first 100 listed
    # come from the first 100 arrangements of the failing x-classes
    listed = []
    for x in sorted(itertools.chain.from_iterable(
            itertools.islice(_arrangements(x), 100) for x in {x for x, _ in failing})):
        for w in itertools.product(values, repeat=k):
            if (tuple(sorted(x)), tuple(sorted(v % exponent for v in w))) in failing:
                listed.append({"x": [list(elements[r]) for r in x], "w": list(w),
                               "recheck": RECHECK_TAG})
        if len(listed) >= 100:
            break
    report = conjecture_scan(ScanConfig(orders=orders, k=k, weight_values=values,
                                        budget=10**9))
    assert report.counterexample_count == count
    assert list(report.counterexamples) == listed[:100]
