from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import zsum.davenport
import zsum.weighted
from zsum.davenport import davenport_get
from zsum.errors import (
    InvalidArgument,
    InvalidElement,
    InvalidInstance,
    OracleTooLarge,
    TheoremViolation,
    UnsatisfiableStatement,
)
from zsum.groups import canonicalize, groups_up_to_order, rho
from zsum.serialize import certificate_to_json, dumps_stable
from zsum.weighted import (
    Certificate,
    Instance,
    Selection,
    fallback_search,
    instance_digest,
    solve,
    solve_corollary,
    solve_theorem1,
    solve_word1,
    verify_certificate,
    weighted_value,
)

Z2 = canonicalize([2])
Z3 = canonicalize([3])
Z4 = canonicalize([4])


def _sel(inst, pairs):
    """The selection of ``pairs`` (i, f(i)), sorted by index and valued."""
    indices, images = zip(*sorted(pairs))
    value = weighted_value(inst.group, inst.w, inst.x, indices, images)
    return Selection(indices=indices, images=images, value=value)


def _theorem1_instance(g, x, w, ell):
    return Instance(group=g, x=tuple(x), w=tuple(w), ell=ell)


# ---------------------------------------------------------------- selection


def test_selection_value_examples():
    x, w = [(1,), (2,)], [2, 2]
    assert weighted_value(Z3, w, x, (1, 2), (1, 2)) == (0,)  # 2*1 + 2*2 = 6 = 0 mod 3
    assert weighted_value(Z3, w, x, (1, 2), (2, 2)) == (2,)  # 2*2 + 2*2 = 8 = 2 mod 3
    assert weighted_value(Z3, w, x, (), ()) == (0,)


def test_selection_value_weight_two_kills_order_two_elements():
    g = canonicalize([2, 2])
    for e in g.elements():
        assert weighted_value(g, (2,), (e,), (1,), (1,)) == g.zero()


def test_solve_sorts_the_constructed_map_and_stamps_its_checked_value(monkeypatch):
    # a word1 construction that lists its pairs out of index order
    inst = Instance(group=Z3, x=((1,), (2,), (0,)), w=(1, 1, 1), ell=2)
    monkeypatch.setattr(zsum.weighted, "_word1_constructive", lambda *args: [(2, 1), (1, 2)])
    cert = solve(inst, "word1")
    assert cert.selection == Selection(indices=(1, 2), images=(2, 1), value=(0,))  # 2 + 1
    assert cert.shelling == ((1, 2),)


# ------------------------------------------------------------------- word1


def test_word1_zero_weight_shortcut():
    sh, path = solve_word1(Z2, ((0,), (1,)), (2, 1), 1)
    assert sh.selection.indices == (1,)
    assert sh.selection.images == (1,)
    assert path == "constructive"


def test_word1_weight_class_route():
    # all weights = 5 = 2 mod 3: a zero-sum among x itself drives case 2
    sh, _ = solve_word1(Z3, ((0,), (1,), (2,)), (5, 5, 5), 1)
    assert sh.selection.indices == (1,)
    assert sh.selection.images == (1,)
    assert sh.selection.value == (0,)


def test_word1_repeated_element_route():
    sh, _ = solve_word1(Z2, ((1,), (1,)), (1, 1), 2)
    assert sh.selection.indices == (1, 2)
    assert sh.selection.images == (1, 2)
    assert sh.selection.value == (0,)


def test_word1_single_block_shelling():
    for x in itertools.product(Z3.elements(), repeat=3):
        for ell in range(max(rho(x), 1), 4):
            sh, _ = solve_word1(Z3, x, (1, 2, 1), ell)
            assert sh.blocks == (sh.selection.indices,)
            assert all(len(block) <= ell for block in sh.blocks)


def test_word1_exhaustive_small():
    for g in (Z2, Z3):
        n = g.order
        for x in itertools.product(g.elements(), repeat=n):
            for w in itertools.product(range(n), repeat=n):
                for ell in range(max(rho(x), 1), n + 1):
                    sh, _ = solve_word1(g, x, w, ell)
                    sel = sh.selection
                    assert 1 <= len(sel) <= ell, (x, w, ell)
                    assert weighted_value(g, w, x, sel.indices, sel.images) == g.zero()


def test_word1_preconditions():
    with pytest.raises(InvalidInstance):
        solve_word1(Z3, ((1,), (2,)), (1, 1), 1)  # |x| != n
    with pytest.raises(InvalidInstance):
        solve_word1(Z2, ((1,), (1,)), (1, 1), 0)  # ell < 1
    with pytest.raises(InvalidInstance):
        solve_word1(Z2, ((1,), (1,)), (1, 1), 1)  # rho > ell


# ------------------------------------------------------ theorem1 shellings


def _check_theorem1_pairs(g, x, w, ell, d):
    """_theorem1_pairs's answer, checked for the lemma's properties.  Each
    zero-sum search up to length D adds one wide block (width D), since
    narrow ones search up to rho <= ell < D, and the narrow blocks (width
    ell) follow the wide ones."""
    wide_calls = []
    original = zsum.weighted._zero_sum

    def counted(g, x, k, *index):
        if k == d:
            wide_calls.append(x)
        return original(g, x, k, *index)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zsum.weighted, "_zero_sum", counted)
        pairs, blocks = zsum.weighted._theorem1_pairs(g, x, w, ell, d)
    n = g.order
    indices = [i for i, _ in pairs]
    images = [j for _, j in pairs]
    assert sorted(i for b in blocks for i in b) == sorted(indices)  # blocks partition I
    assert len(set(indices)) == len(indices) and len(set(images)) == len(images)
    assert set(indices) | set(images) <= set(range(1, len(x) + 1))
    fmap = dict(pairs)
    for t, block in enumerate(blocks):
        assert 1 <= len(block) <= (d if t < len(wide_calls) else ell)
        assert weighted_value(g, w, x, block, [fmap[i] for i in block]) == g.zero()
    assert weighted_value(g, w, x, indices, images) == g.zero()
    assert n - min(d, ell) <= len(pairs) <= n - 1
    return pairs, blocks


def _patched_theorem1_pairs(monkeypatch, orders, ell, narrow_size, wide_size):
    """_theorem1_pairs on zero weights, with each narrow block the first
    ``narrow_size`` free weights and each wide block the first
    ``wide_size``, so that only the cut decides the answer."""
    g = canonicalize(orders)
    d = davenport_get(g).value
    m = g.order + d - min(d, ell) - 1
    monkeypatch.setattr(
        zsum.weighted, "_word1_constructive",
        lambda ws, xs: [(t, t) for t in range(1, narrow_size + 1)],
    )
    monkeypatch.setattr(
        zsum.weighted, "_zero_sum", lambda g, x, k: tuple(range(1, wide_size + 1))
    )
    x = [g.zero()] * m
    return g, d, zsum.weighted._theorem1_pairs(g, x, [0] * m, ell, d)


def test_shelling_trim_takes_block_prefix(monkeypatch):
    # Z_2^4, ell = 2, m = 18: narrow (1, 2), (3, 4); wide blocks of four on
    # 5..16 until two weights are left; the cut at n - 1 = 15 drops (3, 4)
    _, _, (pairs, blocks) = _patched_theorem1_pairs(monkeypatch, [2, 2, 2, 2], 2, 2, 4)
    assert blocks == ((5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16), (1, 2))
    assert pairs == [(i, i) for block in blocks for i in block]


def test_shelling_trim_width_one_is_exact(monkeypatch):
    # Z_2 x Z_8 (D = 9), ell = 2, m = 22: seven width-one narrow blocks and
    # one wide block 8..16; the cut fills n - 1 = 15 exactly
    _, _, (pairs, blocks) = _patched_theorem1_pairs(monkeypatch, [2, 8], 2, 1, 9)
    assert blocks == (tuple(range(8, 17)), (1,), (2,), (3,), (4,), (5,), (6,))
    assert len(pairs) == 15


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_shelling_trim_size_window_property(data):
    # whatever the block sizes within their widths, the cut lands in
    # [n - min(D, ell), n - 1] and keeps a block prefix, wide blocks first
    orders = data.draw(st.sampled_from([[2, 2, 2, 2], [2, 8], [4, 4], [3, 3], [7]]))
    d = davenport_get(canonicalize(orders)).value
    ell = data.draw(st.integers(min_value=1, max_value=d + 1))
    narrow_size = data.draw(st.integers(min_value=1, max_value=min(ell, d)))
    wide_size = data.draw(st.integers(min_value=1, max_value=d))
    with pytest.MonkeyPatch.context() as mp:
        g, d, (pairs, blocks) = _patched_theorem1_pairs(mp, orders, ell, narrow_size, wide_size)
    n = g.order
    assert n - min(d, ell) <= len(pairs) <= n - 1
    # narrow blocks start within the first D - ell weights, wide ones after
    is_wide = [b[0] > d - ell for b in blocks]
    assert is_wide == sorted(is_wide, reverse=True)
    assert all(len(b) == (wide_size if wide else narrow_size) for b, wide in zip(blocks, is_wide))
    narrow = [i for b, wide in zip(blocks, is_wide) if not wide for i in b]
    assert narrow == list(range(1, len(narrow) + 1))


def test_extend_shellable_pairs_smallest_indices():
    # ell >= D on Z_2 x Z_2: one wide block from the D = 3 smallest weights
    # and positions, the lexicographically smallest zero-sum block
    g = canonicalize([2, 2])
    pairs, blocks = zsum.weighted._theorem1_pairs(g, [(0, 1)] * 3, [1, 1, 1], 3, 3)
    assert pairs == [(1, 1), (2, 2)]
    assert blocks == ((1, 2),)


def test_extend_shellable_empty_when_pool_short():
    # ell >= D with m = n - 1 < D: no wide block fits
    assert zsum.weighted._theorem1_pairs(Z2, [(1,)], [1], 2, 2) == ([], ())


def test_extend_shellable_domain_bound():
    # ell >= D: the wide blocks leave fewer than D weights, so |I| >= n - D
    rng = random.Random(11)
    groups = [canonicalize(orders) for orders in ([2, 2], [2, 2, 2], [2, 4], [3, 3], [2, 2, 2, 2])]
    for _ in range(60):
        g = rng.choice(groups)
        d = davenport_get(g).value
        ell = rng.randint(d, d + 2)
        m = g.order - 1
        elems = list(g.elements())
        x = tuple(rng.choice(elems) for _ in range(m))
        w = tuple(rng.randint(0, g.order) for _ in range(m))
        _check_theorem1_pairs(g, x, w, ell, d)


def test_narrow_shelling_examples():
    assert zsum.weighted._theorem1_pairs(Z2, [(0,), (1,)], [1, 1], 1, 2) == ([(1, 1)], ((1,),))
    pairs, _ = _check_theorem1_pairs(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2, 3)
    assert len(pairs) >= 1  # D - ell = 1


def test_narrow_shelling_block_invariants():
    for x in itertools.product(Z3.elements(), repeat=3):
        if rho(x) > 2:
            continue
        _check_theorem1_pairs(Z3, x, (1, 2, 1), 2, 3)  # m = n - ell + D - 1 = 3


def test_theorem1_pairs_lemma_properties():
    rng = random.Random(20261018)
    groups = [Z2, Z3, Z4, canonicalize([2, 2]), canonicalize([2, 4]), canonicalize([2, 2, 2, 2]),
              canonicalize([3, 3]), canonicalize([2, 8])]
    for _ in range(300):
        inst = _random_theorem1_instance(rng, groups)
        d = davenport_get(inst.group).value
        _check_theorem1_pairs(inst.group, inst.x, inst.w, inst.ell, d)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=8),
    st.lists(st.lists(st.integers(min_value=1, max_value=8), max_size=3), max_size=8),
)
def test_window_tallies_follow_takes_and_refills(source, size, takes):
    # after every take and refill: the window is the smallest untaken labels,
    # its index maps each value to the labels holding it, ascending, the
    # tiers group the values by multiplicity, rho is the largest one and the
    # most-repeated slots hold the smallest value of that multiplicity,
    # recomputed from scratch
    win = zsum.weighted._Window(Z2, source, size)
    taken = set()
    for slots in takes:
        slots = sorted({s for s in slots if s <= len(win.labels)})
        taken.update(win.take(slots))
        win.refill(size)
        untaken = [i for i in range(1, len(source) + 1) if i not in taken]
        assert win.labels == untaken[:size]
        assert win.values == [source[i - 1] for i in win.labels]
        recount = {}
        for label, v in zip(win.labels, win.values):
            recount.setdefault(v, []).append(label)
        assert win.labels_of == recount
        for c, tier in enumerate(win.tiers):
            assert tier == {v for v, at in recount.items() if len(at) == c}, c
        if win.values:
            assert win.rho == rho(win.values)
            top = min(v for v in win.values if win.values.count(v) == win.rho)
            slots_top = win.slots_of_most_repeated(win.rho)
            assert slots_top == [s for s, v in enumerate(win.values, 1) if v == top]
        else:
            assert win.rho == 0


# ---------------------------------------------------------------- theorem1


def test_theorem1_narrow_branch_example():
    inst = _theorem1_instance(Z2, [(0,), (1,)], [1, 1], 1)
    cert = solve_theorem1(inst)
    assert cert.selection.indices == (1,)
    assert cert.selection.images == (1,)
    assert cert.verified
    assert cert.solve_path == "constructive"
    ok, diags = verify_certificate(inst, cert)
    assert ok and diags == []


def test_theorem1_wide_branch_allows_empty_selection():
    # ell >= D makes the window [0, n-1]; m = 1 leaves no usable pool
    inst = _theorem1_instance(Z2, [(1,)], [1], 2)
    cert = solve_theorem1(inst)
    assert cert.selection.indices == ()
    ok, _ = verify_certificate(inst, cert)
    assert ok


def test_theorem1_size_window_both_branches():
    for x in itertools.product(Z3.elements(), repeat=3):
        if rho(x) > 2:
            continue
        inst = Instance(group=Z3, x=x, w=(1, 2, 0), ell=2)
        cert = solve_theorem1(inst)
        assert 1 <= len(cert.selection) <= 2  # window [n - min(D,ell), n-1]
        assert cert.verified


def test_theorem1_rejects_wrong_arity():
    with pytest.raises(InvalidInstance):
        solve_theorem1(_theorem1_instance(Z3, [(1,), (2,)], [1, 1], 2))  # m != n+D-r-1


def test_theorem1_rejects_excess_repetition():
    with pytest.raises(InvalidInstance):
        solve_theorem1(_theorem1_instance(Z3, [(1,), (1,), (1,)], [1, 1, 1], 2))


def test_theorem1_certificates_survive_serialization():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [2, 1, 2], 2)
    cert = solve_theorem1(inst)
    blob = dumps_stable(certificate_to_json(inst.group, cert))
    again = dumps_stable(certificate_to_json(inst.group, solve_theorem1(inst)))
    assert blob == again


# --------------------------------------------------------------- corollary


def test_corollary_worked_example():
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    assert cert.selection.indices == (1, 2, 3)
    assert cert.selection.images == (1, 4, 5)
    assert inst.m in cert.selection.images
    ok, diags = verify_certificate(inst, cert)
    assert ok, diags


def _refuse(*args, **kwargs):
    raise AssertionError("called by a solve that should not need it")


def test_corollary_reads_davenport_through_the_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(zsum.davenport, "_memo", memo)
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    assert cert.solve_path == "constructive"
    assert list(memo) == [Z3.invariant_factors]
    # a second solve finds D in the memo, not in the closed form
    monkeypatch.setattr(zsum.davenport, "davenport_formula_record", _refuse)
    assert solve_corollary(inst) == cert


def test_corollary_window_is_exactly_n():
    for x_head in itertools.product(Z3.elements(), repeat=3):
        x = x_head + ((2,), (2,))
        if rho(x) != 2 or x.count(x[-1]) != 2:
            continue
        inst = Instance(group=Z3, x=x, w=(1, 2, 1), ell=2)
        cert = solve_corollary(inst)
        assert len(cert.selection) == 3
        assert inst.m in cert.selection.images
        assert cert.verified


def test_corollary_unit_weight_value_is_zero():
    # with all weights 1, the target n * x_m vanishes
    inst = Instance(group=Z3, x=((0,), (1,), (2,), (1,), (1,)), w=(1, 1), ell=3)
    with pytest.raises(UnsatisfiableStatement):
        solve_corollary(inst)  # ell = D leaves no room for an n-selection
    inst = Instance(group=Z3, x=((0,), (1,), (1,), (2,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    assert cert.selection.value == (0,)


def test_corollary_unsatisfiable_when_ell_reaches_davenport():
    inst = Instance(group=Z2, x=((0,), (0,), (0,)), w=(1,), ell=3)
    with pytest.raises(UnsatisfiableStatement):
        solve_corollary(inst)
    assert fallback_search(inst, "corollary") is None


def test_corollary_rejects_anchor_mismatch():
    # ell must equal both rho(x) and the multiplicity of the last element
    inst = Instance(group=Z3, x=((1,), (1,), (0,), (2,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)  # multiplicity of x_m = 2 = rho: fine
    assert cert.verified
    bad = Instance(group=Z3, x=((1,), (1,), (2,), (0,), (2,)), w=(1, 1, 1), ell=1)
    with pytest.raises(InvalidInstance):
        solve_corollary(bad)


def test_corollary_translation_identity():
    # sum of w_i * (x_{f(i)} - x_m) telescopes to zero for every certificate
    inst = Instance(group=Z3, x=((1,), (0,), (1,), (2,), (2,)), w=(2, 1, 2), ell=2)
    cert = solve_corollary(inst)
    g = inst.group
    anchor = inst.x[inst.m - 1]
    acc = g.zero()
    for i, j in zip(cert.selection.indices, cert.selection.images):
        acc = g.add(acc, g.scalar_mul(inst.w[i - 1], g.add(inst.x[j - 1], g.neg(anchor))))
    assert acc == g.zero()


# ------------------------------------------------------------- invariances


def test_weight_reduction_invariance():
    # adding n*c to any weight never changes a selection's value
    inst = Instance(group=Z4, x=((1,), (3,), (2,), (2,)), w=(1, 2, 3, 1), ell=2)
    bumped = Instance(group=Z4, x=inst.x, w=(5, 2, 3, 9), ell=2)
    pairs = [(1, 2), (3, 4)]
    assert _sel(inst, pairs).value == _sel(bumped, pairs).value


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-2, max_value=2),
)
def test_weight_reduction_invariance_property(n, shift_pos, c):
    g = canonicalize([n])
    x = tuple((i % n,) for i in range(4))
    w = [1, 2, 3, 1]
    inst = Instance(group=g, x=x, w=tuple(w), ell=2)
    pairs = [(1, 1), (2, 3)]
    base = _sel(inst, pairs).value
    w[shift_pos] += n * c
    bumped = Instance(group=g, x=x, w=tuple(w), ell=2)
    assert _sel(bumped, pairs).value == base


def test_instance_digest_presentation_invariant():
    a = Instance(group=canonicalize([4, 6]), x=((0, 0),), w=(1,), ell=1)
    b = Instance(group=canonicalize([2, 12]), x=((0, 0),), w=(1,), ell=1)
    assert instance_digest(a) == instance_digest(b)
    c = Instance(group=canonicalize([2, 12]), x=((0, 1),), w=(1,), ell=1)
    assert instance_digest(a) != instance_digest(c)


# ----------------------------------------------------------------- verify


def _valid_theorem1_pair():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    return inst, solve_theorem1(inst)


def test_verify_flags_duplicate_images():
    inst, cert = _valid_theorem1_pair()
    sel = cert.selection
    if len(sel) < 2:
        sel = Selection(indices=(1, 2), images=(1, 1), value=(0,))
        cert = cert.replace(selection=sel, shelling=None)
    ok, diags = verify_certificate(inst, cert)
    assert not ok
    assert "injectivity" in diags


def test_verify_flags_size_window():
    inst, cert = _valid_theorem1_pair()
    sel = _sel(inst, [(1, 1), (2, 2), (3, 3)])
    tampered = cert.replace(selection=sel, shelling=None)
    ok, diags = verify_certificate(inst, tampered)
    assert not ok
    assert "size window" in diags


def test_verify_flags_wrong_value():
    inst, cert = _valid_theorem1_pair()
    bad_sel = cert.selection.replace(value=(1,))
    ok, diags = verify_certificate(inst, cert.replace(selection=bad_sel))
    assert not ok
    assert "cached value" in diags


def test_verify_flags_stale_digest():
    inst, cert = _valid_theorem1_pair()
    other = Instance(group=Z3, x=((2,), (2,), (0,)), w=(1, 1, 1), ell=2)
    ok, diags = verify_certificate(other, cert)
    assert not ok
    assert "instance digest" in diags


def test_verify_flags_index_out_of_range():
    inst, cert = _valid_theorem1_pair()
    sel = Selection(indices=(9,), images=(1,), value=(0,))
    ok, diags = verify_certificate(inst, cert.replace(selection=sel, shelling=None))
    assert not ok
    assert "index range" in diags


def test_verify_flags_shelling_tampering():
    inst, cert = _valid_theorem1_pair()
    assert cert.shelling is not None
    # non-partition: foreign index in a block
    bad = cert.replace(shelling=((9,),) + cert.shelling)
    ok, diags = verify_certificate(inst, bad)
    assert not ok
    assert "shelling partition" in diags
    # oversized block
    wide = cert.replace(shelling=(tuple(range(1, 20)),))
    ok, diags = verify_certificate(inst, wide)
    assert not ok


def test_verify_flags_anchor_violation_for_corollary():
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    sel = _sel(inst, [(1, 1), (2, 2), (3, 3)])
    tampered = cert.replace(selection=sel, shelling=None)
    ok, diags = verify_certificate(inst, tampered)
    assert not ok
    assert "anchor position" in diags


def test_verify_checks_the_corollary_hypotheses():
    # a sound corollary selection, re-addressed to the same data with
    # ell = 1 != rho(x) = 2: every postcondition still holds
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    other = inst.replace(ell=1)
    ok, diags = verify_certificate(
        other, cert.replace(instance_digest=instance_digest(other))
    )
    assert not ok
    assert diags == ["hypotheses: ell = 1 but maximal repetition is 2"]


# --------------------------------------------------- certificate mutations

# A theorem1 certificate on Z_3 x Z_3 (n = 9, D = 5) at ell = 2: I has eight
# indices, shelled as one wide block and two narrow ones.
MUTATION_X = ((1, 0), (2, 2), (0, 2), (1, 2), (2, 1), (0, 1), (0, 0), (2, 1), (1, 1), (2, 2),
              (1, 0))
MUTATION_W = (-3, 13, 6, 8, 17, 8, 6, 3, 11, 18, -5)


def _with_selection(cert, indices, images):
    sel = cert.selection.replace(indices=tuple(indices), images=tuple(images))
    return cert.replace(selection=sel)


def _swap_first_two(cert):
    i, f = list(cert.selection.indices), list(cert.selection.images)
    i[0], i[1], f[0], f[1] = i[1], i[0], f[1], f[0]
    return _with_selection(cert, i, f)


def _set_last_image(cert, image):
    return _with_selection(cert, cert.selection.indices, cert.selection.images[:-1] + (image,))


# name: (mutation, the exact diagnostics it must draw)
CERTIFICATE_MUTANTS = {
    "arity": (
        lambda c: _with_selection(c, c.selection.indices, c.selection.images[:-1]),
        ["arity"],
    ),
    "domain-reordered": (_swap_first_two, ["domain order"]),
    "domain-repeated": (
        lambda c: _with_selection(c, (1, 1) + c.selection.indices[2:], c.selection.images),
        ["domain order"],
    ),
    "image-repeated": (
        lambda c: _set_last_image(c, c.selection.images[0]),
        ["injectivity"],
    ),
    "index-past-w": (
        lambda c: _with_selection(c, c.selection.indices[:-1] + (12,), c.selection.images),
        ["index range"],
    ),
    "image-zero": (lambda c: _set_last_image(c, 0), ["image range"]),
    "image-past-m": (lambda c: _set_last_image(c, 12), ["image range"]),
    "blocks-merged-past-width": (
        lambda c: c.replace(shelling=(c.selection.indices,)),
        ["shelling width"],
    ),
    "empty-block": (
        lambda c: c.replace(shelling=c.shelling + ((),)),
        ["shelling width"],
    ),
    # index 4 contributes (0, 1): both touched blocks become nonzero, the
    # total stays zero and every block stays within width D = 5
    "index-moved-between-blocks": (
        lambda c: c.replace(shelling=((6, 7, 8, 9), (1, 3, 4), (5,))),
        ["shelling block value"],
    ),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_MUTANTS))
def test_each_certificate_mutation_draws_exactly_its_diagnostic(name):
    inst = Instance(group=canonicalize([3, 3]), x=MUTATION_X, w=MUTATION_W, ell=2)
    cert = solve_theorem1(inst)
    assert cert.selection.indices == (1, 3, 4, 5, 6, 7, 8, 9)
    assert cert.shelling == ((6, 7, 8, 9), (1, 3), (4, 5))
    mutate, expected = CERTIFICATE_MUTANTS[name]
    assert verify_certificate(inst, mutate(cert)) == (False, expected)


def _replaced(cert, **fields):
    """``cert`` with its selection's ``fields`` replaced, values unconverted."""
    return cert.replace(selection=cert.selection.replace(**fields))


# Certificates built in Python with values of the wrong type: each once
# raised a bare TypeError from the verifier, or (the bool index, read as 1)
# verified.  name: (mutation, the exact diagnostics it must draw)
MALFORMED_CERTIFICATES = {
    "float-index": (lambda c: _replaced(c, indices=(1.0,) + c.selection.indices[1:]),
                    ["index range"]),
    "bool-index": (lambda c: _replaced(c, indices=(True,) + c.selection.indices[1:]),
                   ["index range"]),
    "str-image": (lambda c: _replaced(c, images=c.selection.images[:-1] + ("a",)),
                  ["image range"]),
    "list-image": (lambda c: _replaced(c, images=c.selection.images[:-1] + ([1],)),
                   ["image range"]),
    "int-indices": (lambda c: _replaced(c, indices=7), ["arity"]),
    "str-images": (lambda c: _replaced(c, images="12345678"), ["arity"]),
    "int-shelling": (lambda c: c.replace(shelling=7), ["shelling partition"]),
    "int-block": (lambda c: c.replace(shelling=c.shelling[:-1] + (5,)),
                  ["shelling partition"]),
    "float-in-block": (
        lambda c: c.replace(shelling=((6.0, 7, 8, 9), (1, 3), (4, 5))),
        ["shelling partition"],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CERTIFICATES))
def test_a_malformed_certificate_draws_diagnostics_not_a_type_error(name):
    inst = Instance(group=canonicalize([3, 3]), x=MUTATION_X, w=MUTATION_W, ell=2)
    cert = solve_theorem1(inst)
    mutate, expected = MALFORMED_CERTIFICATES[name]
    assert verify_certificate(inst, mutate(cert)) == (False, expected)


def _moved(cert, index, image, value):
    """``cert`` with f(index) moved to ``image`` and the cached value set."""
    sel = cert.selection
    images = tuple(image if i == index else j for i, j in zip(sel.indices, sel.images))
    return cert.replace(selection=sel.replace(images=images, value=value))


MULTI_X = tuple((v,) for v in (1, 2, 3, 4, 1, 2, 3))
COROLLARY_Z3 = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)

# name: (statement, instance solved, edit to its certificate, instance the
# edited certificate is checked against, the diagnostics in the order reported)
MULTI_FAILURES = {
    "theorem1-image-moved-and-cached-value": (
        "theorem1", Instance(group=canonicalize([5]), x=MULTI_X, w=(1, 2, 3, 4, 1, 2, 3), ell=2),
        lambda c: _moved(c, 1, 3, (1,)), None,
        ["cached value", "value", "shelling block value"],
    ),
    "corollary-anchor-moved-and-cached-value": (
        "corollary", COROLLARY_Z3, lambda c: _moved(c, 3, 3, (1,)), None,
        ["anchor position", "cached value", "value"],
    ),
    "corollary-hypotheses-digest-and-injectivity": (
        "corollary", COROLLARY_Z3,
        lambda c: _with_selection(c, c.selection.indices, (1, 1, 1)),
        COROLLARY_Z3.replace(ell=1),
        ["hypotheses: ell = 1 but maximal repetition is 2", "instance digest", "injectivity"],
    ),
}


@pytest.mark.parametrize("name", sorted(MULTI_FAILURES))
def test_a_certificate_failing_several_checks_names_them_in_check_order(name):
    # recorded on the verifier that sorted its findings by a fixed table
    statement, inst, edit, checked_against, expected = MULTI_FAILURES[name]
    cert = solve(inst, statement)
    if statement == "theorem1":
        assert cert.selection.images[0] == 1
    else:
        assert cert.selection.images[-1] == 5
    assert verify_certificate(checked_against or inst, edit(cert)) == (False, expected)


def test_a_corollary_certificate_carrying_a_shelling_is_refused():
    # the corollary defines no shelling, so no block width passes, even
    # when every block is narrow and zero-valued
    inst = Instance(group=Z3, x=((0,), (1,), (2,), (1,), (0,)), w=(1, 1, 1), ell=2)
    cert = solve(inst, "corollary")
    assert cert.shelling is None and cert.selection.images == (2, 3, 5)
    shelled = cert.replace(shelling=((1, 2), (3,)))
    assert verify_certificate(inst, shelled) == (False, ["shelling width"])


# ---------------------------------------------------------------- fallback


def test_fallback_matches_constructive_feasibility():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    sel = fallback_search(inst, "theorem1")
    assert sel is not None
    assert weighted_value(Z3, inst.w, inst.x, sel.indices, sel.images) == Z3.zero()
    assert 1 <= len(sel) <= 2


def test_fallback_returns_lex_smallest():
    inst = _theorem1_instance(Z3, [(0,), (0,), (0,)], [1, 1, 1], 2)
    sel = fallback_search(inst, "theorem1")
    assert sel is not None
    assert sel.indices == (1,)
    assert sel.images == (1,)


def test_fallback_empty_selection_only_at_zero_window():
    inst = _theorem1_instance(Z2, [(1,)], [1], 2)
    sel = fallback_search(inst, "theorem1")
    assert sel is not None
    assert sel.indices == ()


def test_fallback_oracle_cap():
    g = canonicalize([13])
    x = tuple((i % 13,) for i in range(13))
    inst = Instance(group=g, x=x, w=(1,) * 13, ell=13)
    with pytest.raises(OracleTooLarge):
        fallback_search(inst, "word1")


def test_fallback_corollary_requires_anchor_in_images():
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    sel = fallback_search(inst, "corollary")
    assert sel is not None
    assert inst.m in sel.images


# ------------------------------------------------------------ seeded fuzz


def _random_theorem1_instance(rng, groups):
    g = rng.choice(groups)
    d = davenport_get(g).value
    n = g.order
    # rho(x) <= ell is only satisfiable when m <= n * ell
    feasible = [e for e in range(1, n + 1) if n + d - min(d, e) - 1 <= n * e]
    ell = rng.choice(feasible)
    m = n + d - min(d, ell) - 1
    pool = [e for e in g.elements() for _ in range(ell)]
    rng.shuffle(pool)
    x = tuple(pool[:m])
    w = tuple(rng.randint(0, 2 * n) for _ in range(m))
    return Instance(group=g, x=x, w=w, ell=ell)


def test_theorem1_soundness_fuzz():
    rng = random.Random(20260814)
    groups = [Z2, Z3, Z4, canonicalize([2, 2]), canonicalize([5]), canonicalize([2, 4])]
    for _ in range(600):
        inst = _random_theorem1_instance(rng, groups)
        cert = solve_theorem1(inst)
        ok, diags = verify_certificate(inst, cert)
        assert ok, (inst, diags)


def _random_corollary_instance(rng, g):
    # x ends with exactly ell copies of the anchor; body values cycle through
    # the other elements so no value beats that multiplicity
    d = davenport_get(g).value
    n = g.order
    m = n + d - 1
    choices = [ell for ell in range(1, d) if m - ell <= (n - 1) * ell]
    if not choices:
        return None
    ell = rng.choice(choices)
    elems = list(g.elements())
    anchor = rng.choice(elems)
    rest = [e for e in elems if e != anchor]
    rng.shuffle(rest)
    body = [rest[i % len(rest)] for i in range(m - ell)]
    rng.shuffle(body)
    x = tuple(body) + (anchor,) * ell
    assert rho(x) == ell == x.count(x[-1])
    w = tuple(rng.randint(0, n) for _ in range(m - ell))
    return Instance(group=g, x=x, w=w, ell=ell)


def test_corollary_soundness_fuzz():
    rng = random.Random(97)
    for _ in range(300):
        g = rng.choice([Z3, Z4, canonicalize([2, 2]), canonicalize([5])])
        inst = _random_corollary_instance(rng, g)
        if inst is None:
            continue
        cert = solve_corollary(inst)
        ok, diags = verify_certificate(inst, cert)
        assert ok, (inst, diags)


# ------------------------------------------------------ kernel and entry point


def _checked_fold(g, w, x, indices, images):
    """Reference: the weighted sum as validated group operations."""
    total = g.zero()
    for i, j in zip(indices, images):
        total = g.add(total, g.scalar_mul(w[i - 1], x[j - 1]))
    return total


def test_weighted_value_matches_checked_fold():
    rng = random.Random(20261018)
    for g in groups_up_to_order(12):
        elems = g.elements()
        for _ in range(60):
            x = [rng.choice(elems) for _ in range(rng.randint(0, 7))]
            w = [
                rng.choice((rng.randint(-30, 30), rng.randint(-10**15, 10**15)))
                for _ in range(rng.randint(0, 7))
            ]
            size = rng.randint(0, min(len(x), len(w)))
            indices = rng.sample(range(1, len(w) + 1), size)
            images = rng.sample(range(1, len(x) + 1), size)
            assert weighted_value(g, w, x, indices, images) == _checked_fold(g, w, x, indices, images)


@pytest.mark.parametrize("orders, bad", [
    ([3], (1, 0)),  # arity
    ([3], (3,)),  # out of range
    ([3], (-1,)),
    ([2, 4], (1,)),
    ([2, 4], (0, 4)),
    ([1], (0,)),
])
def test_instance_rejects_invalid_elements(orders, bad):
    g = canonicalize(orders)
    with pytest.raises(InvalidElement):
        Instance(group=g, x=(g.zero(), bad), w=(1, 1), ell=1)


@pytest.mark.parametrize("bad", [[1], (1.0,), (True,)], ids=["list", "float", "bool"])
def test_instance_refuses_entries_that_are_not_tuples_of_ints(bad):
    with pytest.raises(InvalidElement):
        Instance(group=Z3, x=((0,), bad, (2,)), w=(1, 1, 1), ell=1)


@pytest.mark.parametrize("w, ell, message", [
    # a float weight once solved to a certificate valued (0.0,) that verified
    ((1.0, 1, 1), 2, "weight 1.0 is not an integer"),
    (("a", 1, 1), 2, "weight 'a' is not an integer"),  # once a bare TypeError
    ((True, 1, 1), 2, "weight True is not an integer"),
    ((1, 1, 1), 2.0, "ell = 2.0 is not an integer"),
    ((1, 1, 1), True, "ell = True is not an integer"),
], ids=["float-weight", "str-weight", "bool-weight", "float-ell", "bool-ell"])
def test_instance_refuses_weights_and_ell_that_are_not_ints(w, ell, message):
    with pytest.raises(InvalidInstance, match=f"^{message}$"):
        solve(Instance(group=Z3, x=((1,), (2,), (0,)), w=w, ell=ell), "theorem1")


def _word1_certificate(inst):
    sh, path = solve_word1(inst.group, inst.x, inst.w, inst.ell)
    cert = Certificate(
        statement="word1",
        instance_digest=instance_digest(inst),
        selection=sh.selection,
        shelling=sh.blocks,
        solve_path=path,
        verified=False,
    )
    ok, diags = verify_certificate(inst, cert)
    assert ok, diags
    return cert.replace(verified=True)


def test_solve_matches_the_per_statement_solvers():
    rng = random.Random(11)
    groups = [Z3, Z4, canonicalize([2, 2]), canonicalize([5]), canonicalize([2, 4])]
    for _ in range(40):
        inst = _random_theorem1_instance(rng, groups)
        assert solve(inst, "theorem1") == solve_theorem1(inst)
        g = rng.choice(groups)
        inst = _random_corollary_instance(rng, g)
        if inst is not None:
            assert solve(inst, "corollary") == solve_corollary(inst)
        n = g.order
        x = tuple(rng.choice(g.elements()) for _ in range(n))
        w = tuple(rng.randint(-n, 3 * n) for _ in range(n))
        inst = Instance(group=g, x=x, w=w, ell=rho(x))
        assert solve(inst, "word1") == _word1_certificate(inst)


def test_solve_rejects_unknown_statement():
    inst = Instance(group=Z3, x=((1,), (2,), (0,)), w=(1, 1, 1), ell=2)
    with pytest.raises(InvalidArgument):
        solve(inst, "theorem2")


def _raise_violation(*args, **kwargs):
    raise TheoremViolation("constructive step disabled by the test")


@pytest.mark.parametrize("statement, step", [
    ("theorem1", "_theorem1_pairs"),
    ("corollary", "_corollary_pairs"),
    ("word1", "_word1_constructive"),
])
def test_disabled_construction_reads_davenport_only_through_the_memo(
    monkeypatch, statement, step
):
    # a construction that misses is a bug: the solve raises TheoremViolation,
    # having looked D up once, or not at all for word1
    memo = {}
    monkeypatch.setattr(zsum.davenport, "_memo", memo)
    monkeypatch.setattr(zsum.weighted, step, _raise_violation)
    with pytest.raises(TheoremViolation):
        if statement == "theorem1":
            inst = Instance(group=Z4, x=((1,), (2,), (3,), (2,), (1,)), w=(0, 5, 1, 6, 2), ell=2)
            solve_theorem1(inst)
        elif statement == "corollary":
            inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
            solve_corollary(inst)
        else:
            solve_word1(Z4, ((1,), (2,), (3,), (3,)), (1, 2, 1, 3), 2)
    assert list(memo) == {"theorem1": [(4,)], "corollary": [(3,)], "word1": []}[statement]


# ------------------------------------------------------------ solve pipeline


def _counting(monkeypatch, name):
    """Replace weighted.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(zsum.weighted, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(zsum.weighted, name, counted)
    return calls


def test_corollary_solve_verifies_once(monkeypatch):
    calls = _counting(monkeypatch, "_check_selection")
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    assert cert.solve_path == "constructive"
    assert len(calls) == 1  # the corollary's own selection, no inner one


def test_corollary_solve_builds_one_selection_on_the_callers_instance(monkeypatch):
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    instances = []
    monkeypatch.setattr(Instance, "_validate", lambda self: instances.append(self))
    checks = _counting(monkeypatch, "_check_selection")
    cert = solve_corollary(inst)
    assert cert.selection.images == (1, 4, 5)
    assert instances == []
    assert len(checks) == 1 and checks[0][0] is inst


# statement: an instance to solve; theorem1's selection has more than one
# shelling block, so no block valuation is the selection's
COUNTED_SOLVES = {
    "theorem1": Instance(group=Z4, x=((1,), (2,), (3,), (2,), (1,)), w=(0, 5, 1, 6, 2), ell=2),
    "corollary": Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2),
    "word1": Instance(group=Z4, x=((1,), (2,), (3,), (3,)), w=(1, 2, 1, 3), ell=2),
}


@pytest.mark.parametrize("statement", sorted(COUNTED_SOLVES))
def test_a_solve_checks_each_fact_once(monkeypatch, statement):
    inst = COUNTED_SOLVES[statement]
    counted = {
        name: _counting(monkeypatch, name)
        for name in ("instance_digest", "_check_hypotheses", "davenport_get", "weighted_value")
    }
    cert = solve(inst, statement)
    assert len(counted["instance_digest"]) == 1
    assert len(counted["_check_hypotheses"]) == 1
    assert len(counted["davenport_get"]) == (statement != "word1")
    sel = cert.selection
    valuations = [
        args for args in counted["weighted_value"]
        if (tuple(args[3]), tuple(args[4])) == (sel.indices, sel.images)
    ]
    assert len(valuations) == 1


def test_theorem1_narrow_path_calls_no_word1_solver(monkeypatch):
    calls = _counting(monkeypatch, "solve_word1")
    inst = Instance(group=Z4, x=((1,), (2,), (3,), (2,), (1,)), w=(0, 5, 1, 6, 2), ell=2)
    cert = solve_theorem1(inst)  # ell = 2 < D = 4: the narrow shelling runs
    assert cert.solve_path == "constructive"
    assert cert.shelling and any(len(block) <= 2 for block in cert.shelling)
    assert calls == []


def test_corollary_construction_with_a_wrong_value_raises(monkeypatch):
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    wrong = [(1, 1), (2, 2), (3, 5)]  # size n, anchored
    assert _sel(inst, wrong).value != (0,)  # the target (1 + 1 + 1) * x_5 is zero
    monkeypatch.setattr(zsum.weighted, "_corollary_pairs", lambda *args: wrong)
    with pytest.raises(TheoremViolation, match=r"corollary .* window \[3, 3\]"):
        solve_corollary(inst)


def test_corollary_inner_construction_outside_its_window_raises(monkeypatch):
    # the corollary pads theorem1's selection on the shifted sequence from
    # its reserve; one outside [n - r, n - 1] cannot be padded to n
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    monkeypatch.setattr(zsum.weighted, "_theorem1_pairs", lambda *args: ([], ()))
    with pytest.raises(TheoremViolation, match=r"window \[1, 2\]"):
        solve_corollary(inst)


def test_theorem1_oracle_may_return_the_empty_selection(monkeypatch):
    # cyclic G with ell >= n: the window is [0, n - 1], so the oracle's empty
    # selection is a valid answer (only word1 needs |I| >= 1); the solve
    # itself, with its construction disabled, raises rather than return it
    monkeypatch.setattr(zsum.weighted, "_theorem1_pairs", _raise_violation)
    inst = Instance(group=Z4, x=((1,), (1,), (1,)), w=(1, 1, 1), ell=4)
    with pytest.raises(TheoremViolation):
        solve(inst, "theorem1")
    cert = Certificate(
        statement="theorem1",
        instance_digest=instance_digest(inst),
        selection=fallback_search(inst, "theorem1"),
        shelling=None,
        solve_path="fallback",
        verified=False,
    )
    assert cert.selection.indices == ()
    assert verify_certificate(inst, cert) == (True, [])
    cert = cert.replace(verified=True)
    blob = dumps_stable(certificate_to_json(inst.group, cert)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == (
        "ddde1a1db5afbb416ec3c4cbeb19ef0514cef8cc5c82e117893db2662918421f"
    )


def test_a_certificate_the_verifier_rejects_raises_theorem_violation(monkeypatch):
    # the verifier is the solve's only post-check: a construction whose
    # shelling blocks no longer partition the selection is caught there
    original = zsum.weighted._construct

    def drop_last_block(*args):
        sel, blocks = original(*args)
        assert len(blocks) >= 2
        return sel, blocks[:-1]

    monkeypatch.setattr(zsum.weighted, "_construct", drop_last_block)
    inst = Instance(group=Z4, x=((1,), (2,), (3,), (2,), (1,)), w=(0, 5, 1, 6, 2), ell=2)
    with pytest.raises(
        TheoremViolation, match=r"theorem1 construction .* window \[2, 3\] .*: shelling partition"
    ):
        solve_theorem1(inst)


def test_word1_solve_and_verify_read_no_davenport_constant(monkeypatch):
    # word1 does not mention D
    memo = {}
    monkeypatch.setattr(zsum.davenport, "_memo", memo)
    monkeypatch.setattr(zsum.weighted, "davenport_get", _refuse)
    g = canonicalize([2, 2, 6])
    elems = g.elements()
    x = tuple(elems[(5 * t) % 24] for t in range(24))  # every element once: rho(x) = 1
    inst = Instance(group=g, x=x, w=tuple(range(1, 25)), ell=1)
    cert = solve(inst, "word1")
    assert verify_certificate(inst, cert) == (True, [])
    # nor does the oracle's word1 window, on an instance within its cap
    small = Instance(group=Z4, x=((1,), (2,), (3,), (3,)), w=(1, 2, 1, 3), ell=2)
    assert fallback_search(small, "word1") is not None
    assert memo == {}


def test_solve_word1_verifies_once(monkeypatch):
    calls = _counting(monkeypatch, "_check_selection")
    sh, path = solve_word1(Z4, ((1,), (2,), (3,), (3,)), (1, 2, 1, 3), 2)
    assert path == "constructive" and sh.blocks == (sh.selection.indices,)
    assert len(calls) == 1


# One instance per statement, with the construction that answers it.
MALFORMED_CASES = {
    "theorem1": ("_theorem1_pairs", Instance(
        group=canonicalize([3, 3]),
        x=((1, 0), (2, 2), (0, 2), (1, 2), (2, 1), (0, 1), (0, 0), (2, 1), (1, 1), (2, 2), (1, 0)),
        w=(-3, 13, 6, 8, 17, 8, 6, 3, 11, 18, -5), ell=2,
    )),
    "corollary": ("_corollary_pairs", Instance(
        group=canonicalize([2, 4]),
        x=((1, 3), (0, 2), (0, 3), (1, 2), (0, 0), (0, 1), (0, 1), (1, 2), (0, 2), (0, 0),
           (1, 1), (1, 1)),
        w=(17, 18, -6, -9, 18, -6, 12, 6, 17, 13), ell=2,
    )),
    "word1": ("_word1_constructive", Instance(
        group=canonicalize([2, 4]),
        x=((1, 1), (0, 2), (0, 1), (0, 3), (0, 2), (0, 3), (1, 3), (1, 2)),
        w=(-1, 2, 10, 3, 2, 8, 4, -7), ell=2,
    )),
}


def _repeat_an_image(pairs, m):
    unused = min(set(range(1, m + 1)) - {i for i, _ in pairs})
    return pairs + [(unused, pairs[0][1])]


# name: (corruption of a construction's (i, f(i)) pairs on m positions, diagnostic)
MALFORMED_MAPS = {
    "repeated-image": (_repeat_an_image, "injectivity"),
    "image-0": (lambda pairs, m: [(pairs[0][0], 0)] + pairs[1:], "image range"),
    "image-m+1": (lambda pairs, m: [(pairs[0][0], m + 1)] + pairs[1:], "image range"),
}


def _malformed_construction(monkeypatch, statement, bad):
    """Patch the statement's construction to corrupt its map; the instance."""
    step, inst = MALFORMED_CASES[statement]
    corrupt, _ = MALFORMED_MAPS[bad]
    original = getattr(zsum.weighted, step)

    def malformed(*args):
        if statement == "theorem1":
            pairs, blocks = original(*args)
            return corrupt(pairs, inst.m), blocks
        return corrupt(original(*args), inst.m)

    monkeypatch.setattr(zsum.weighted, step, malformed)
    return inst


@pytest.mark.parametrize("bad", sorted(MALFORMED_MAPS))
@pytest.mark.parametrize("statement", sorted(MALFORMED_CASES))
def test_a_construction_with_a_malformed_map_raises_theorem_violation(monkeypatch, statement, bad):
    # the verifier, not Selection.build, rejects the map: no InvalidSelection
    # and no IndexError from valuing a position outside [1, m]
    inst = _malformed_construction(monkeypatch, statement, bad)
    diagnostic = MALFORMED_MAPS[bad][1]
    with pytest.raises(
        TheoremViolation, match=rf"the {statement} construction .* hypotheses: {diagnostic}$"
    ):
        solve(inst, statement)


def _corollary_with_inner_image(monkeypatch, image):
    """Patch the theorem1 construction inside a corollary solve on Z_2 x Z_4
    so that its first pair maps to ``image(len(y))``, y being the kept
    positions it runs on; the instance."""
    _, inst = MALFORMED_CASES["corollary"]
    original = zsum.weighted._theorem1_pairs

    def malformed(g, y, w, ell, d):
        pairs, blocks = original(g, y, w, ell, d)
        return [(pairs[0][0], image(len(y)))] + pairs[1:], blocks

    monkeypatch.setattr(zsum.weighted, "_theorem1_pairs", malformed)
    return inst


# name: inner image outside the kept positions [1, len(y)]
INNER_IMAGES_OUT_OF_RANGE = {"inner-0": lambda kept: 0, "inner-past-end": lambda kept: kept + 1}


@pytest.mark.parametrize("bad", sorted(INNER_IMAGES_OUT_OF_RANGE))
def test_a_corollary_inner_image_outside_the_kept_positions_raises_theorem_violation(
    monkeypatch, bad
):
    # no IndexError past the end, and 0 does not wrap to the last kept position
    inst = _corollary_with_inner_image(monkeypatch, INNER_IMAGES_OUT_OF_RANGE[bad])
    with pytest.raises(
        TheoremViolation, match=r"the corollary construction .* hypotheses: image range$"
    ):
        solve(inst, "corollary")
