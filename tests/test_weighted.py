from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import zsum.davenport
import zsum.weighted
from zsum.davenport import DavenportCache, davenport_get
from zsum.errors import (
    InvalidArgument,
    InvalidElement,
    InvalidInstance,
    InvalidSelection,
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
    Shelling,
    extend_shellable,
    fallback_search,
    instance_digest,
    narrow_shelling,
    selection_value,
    shelling_trim,
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
    return Selection.build(inst, pairs)


def _theorem1_instance(g, x, w, ell):
    return Instance(group=g, x=tuple(x), w=tuple(w), ell=ell)


# ---------------------------------------------------------------- selection


def test_selection_value_examples():
    inst = _theorem1_instance(Z3, [(1,), (2,)], [2, 2], 1)
    sel = _sel(inst, [(1, 1), (2, 2)])
    assert sel.value == (0,)  # 2*1 + 2*2 = 6 = 0 mod 3
    empty = Selection(indices=(), images=(), value=Z3.zero())
    assert selection_value(inst, empty) == (0,)


def test_selection_value_weight_two_kills_order_two_elements():
    g = canonicalize([2, 2])
    for x in itertools.product(g.elements(), repeat=1):
        inst = Instance(group=g, x=x, w=(2,), ell=1)
        sel = _sel(inst, [(1, 1)])
        assert sel.value == g.zero()


def test_selection_build_sorts_domain_and_recomputes_value():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    sel = Selection.build(inst, [(2, 1), (1, 2)])
    assert sel.indices == (1, 2)
    assert sel.images == (2, 1)
    assert sel.value == (0,)  # x_2 + x_1 = 2 + 1


def test_selection_rejects_duplicate_images():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    with pytest.raises(InvalidSelection):
        selection_value(inst, Selection(indices=(1, 2), images=(1, 1), value=(0,)))


def test_selection_rejects_out_of_range():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1], 2)
    with pytest.raises(InvalidSelection):
        selection_value(inst, Selection(indices=(3,), images=(1,), value=(0,)))
    with pytest.raises(InvalidSelection):
        selection_value(inst, Selection(indices=(1,), images=(4,), value=(0,)))
    with pytest.raises(InvalidSelection):
        selection_value(inst, Selection(indices=(2, 1), images=(1, 2), value=(0,)))


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
            assert sh.width <= ell


def test_word1_exhaustive_small():
    for g in (Z2, Z3):
        n = g.order
        for x in itertools.product(g.elements(), repeat=n):
            for w in itertools.product(range(n), repeat=n):
                for ell in range(max(rho(x), 1), n + 1):
                    sh, _ = solve_word1(g, x, w, ell)
                    sel = sh.selection
                    assert 1 <= len(sel) <= ell, (x, w, ell)
                    inst = Instance(group=g, x=x, w=w, ell=ell)
                    assert selection_value(inst, sel) == g.zero()


def test_word1_preconditions():
    with pytest.raises(InvalidInstance):
        solve_word1(Z3, ((1,), (2,)), (1, 1), 1)  # |x| != n
    with pytest.raises(InvalidInstance):
        solve_word1(Z2, ((1,), (1,)), (1, 1), 0)  # ell < 1
    with pytest.raises(InvalidInstance):
        solve_word1(Z2, ((1,), (1,)), (1, 1), 1)  # rho > ell


# ---------------------------------------------------------------- shelling


def _zero_weight_instance(g, m, ell):
    elems = list(g.elements())
    x = tuple(elems[i % len(elems)] for i in range(m))
    return Instance(group=g, x=x, w=(0,) * m, ell=ell)


def test_shelling_trim_takes_block_prefix():
    z5 = canonicalize([5])
    inst = _zero_weight_instance(z5, 5, 2)
    sel = _sel(inst, [(i, i) for i in range(1, 6)])
    sh = Shelling(selection=sel, blocks=((1, 2), (3, 4), (5,)), width=2)
    trimmed = shelling_trim(inst, sh, 3)
    assert trimmed.selection.indices == (1, 2)
    assert trimmed.blocks == ((1, 2),)
    assert shelling_trim(inst, sh, 5).selection.indices == (1, 2, 3, 4, 5)
    assert shelling_trim(inst, sh, 0).blocks == ()


def test_shelling_trim_width_one_is_exact():
    z5 = canonicalize([5])
    inst = _zero_weight_instance(z5, 4, 2)
    sel = _sel(inst, [(i, i) for i in range(1, 5)])
    sh = Shelling(selection=sel, blocks=((1,), (2,), (3,), (4,)), width=1)
    assert len(shelling_trim(inst, sh, 2).selection) == 2


def test_shelling_trim_rejects_bad_target():
    z5 = canonicalize([5])
    inst = _zero_weight_instance(z5, 4, 2)
    sel = _sel(inst, [(1, 1), (2, 2)])
    sh = Shelling(selection=sel, blocks=((1, 2),), width=2)
    with pytest.raises(InvalidArgument):
        shelling_trim(inst, sh, 3)
    with pytest.raises(InvalidArgument):
        shelling_trim(inst, sh, -1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_shelling_trim_size_window_property(data):
    # size of the trimmed domain always lands in [m0 - width + 1, m0]
    z7 = canonicalize([7])
    m = data.draw(st.integers(min_value=1, max_value=20))
    inst = _zero_weight_instance(z7, m, 3)
    cut_points = data.draw(
        st.lists(st.integers(min_value=1, max_value=m - 1), max_size=6, unique=True)
        if m > 1
        else st.just([])
    )
    bounds = [0, *sorted(cut_points), m]
    blocks = tuple(
        tuple(range(lo + 1, hi + 1)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    )
    width = max(len(b) for b in blocks)
    if width > 5:
        return
    sel = _sel(inst, [(i, i) for i in range(1, m + 1)])
    sh = Shelling(selection=sel, blocks=blocks, width=width)
    m0 = data.draw(st.integers(min_value=0, max_value=m))
    trimmed = shelling_trim(inst, sh, m0)
    assert max(m0 - width + 1, 0) <= len(trimmed.selection) <= m0
    assert selection_value(inst, trimmed.selection) == z7.zero()


# ----------------------------------------------------- extend / narrow


def test_extend_shellable_pairs_smallest_indices():
    inst = _theorem1_instance(Z2, [(1,), (1,)], [1, 1], 1)
    sh = extend_shellable(inst, [1, 2], [1, 2])
    assert sh.selection.indices == (1, 2)
    assert sh.selection.images == (1, 2)
    assert sh.blocks == ((1, 2),)


def test_extend_shellable_empty_when_pool_short():
    inst = _theorem1_instance(Z2, [(1,), (1,)], [1, 1], 1)
    sh = extend_shellable(inst, [1], [1, 2])
    assert sh.selection.indices == ()
    assert sh.blocks == ()


def test_extend_shellable_rejects_small_image_pool():
    inst = _theorem1_instance(Z2, [(1,), (1,)], [1, 1], 1)
    with pytest.raises(InvalidArgument):
        extend_shellable(inst, [1, 2], [1])


def test_extend_shellable_domain_bound():
    # |R| >= |A| - D + 1 whenever the loop can run at all
    rng = random.Random(11)
    for _ in range(60):
        g = rng.choice([Z2, Z3, canonicalize([2, 2])])
        d = davenport_get(g).value
        m = rng.randint(1, 7)
        elems = list(g.elements())
        x = tuple(rng.choice(elems) for _ in range(m))
        w = tuple(rng.randint(0, g.order) for _ in range(m))
        inst = Instance(group=g, x=x, w=w, ell=1)
        pool = list(range(1, m + 1))
        sh = extend_shellable(inst, pool, pool)
        assert len(sh.selection) >= len(pool) - d + 1
        for block in sh.blocks:
            assert len(block) <= d
        if sh.blocks:
            assert selection_value(inst, sh.selection) == g.zero()


def test_narrow_shelling_examples():
    inst = _theorem1_instance(Z2, [(0,), (1,)], [1, 1], 1)
    sh = narrow_shelling(inst)
    assert sh.selection.indices == (1,)
    assert sh.selection.images == (1,)
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    sh = narrow_shelling(inst)
    assert len(sh.selection) >= 1  # D - ell = 1
    assert sh.width <= 2
    assert selection_value(inst, sh.selection) == (0,)


def test_narrow_shelling_requires_ell_below_davenport():
    inst = _theorem1_instance(Z2, [(0,), (1,)], [1, 1], 2)  # ell = D = 2
    with pytest.raises(InvalidInstance):
        narrow_shelling(inst)


def test_narrow_shelling_block_invariants():
    for x in itertools.product(Z3.elements(), repeat=3):
        if rho(x) > 2:
            continue
        inst = Instance(group=Z3, x=x, w=(1, 2, 1), ell=2)
        sh = narrow_shelling(inst)  # m = n - ell + D - 1 = 3
        assert len(sh.selection) >= 1
        assert all(1 <= len(b) <= 2 for b in sh.blocks)
        flat = sorted(i for b in sh.blocks for i in b)
        assert flat == list(sh.selection.indices)
        assert selection_value(inst, sh.selection) == Z3.zero()


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


def test_corollary_uses_the_given_davenport_cache(monkeypatch):
    default = DavenportCache()
    monkeypatch.setattr(zsum.davenport, "_default_cache", default)
    own = DavenportCache()
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst, dav_cache=own)
    assert cert.solve_path == "constructive"
    assert own.get(Z3) is not None
    assert default.get(Z3) is None


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
    assert fallback_search(inst, "corollary", window=(2, 2)) is None


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
        acc = g.add(acc, g.scalar_mul(inst.w[i - 1], g.sub(inst.x[j - 1], anchor)))
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
        cert = dataclasses.replace(cert, selection=sel, shelling=None)
    ok, diags = verify_certificate(inst, cert)
    assert not ok
    assert "injectivity" in diags


def test_verify_flags_size_window():
    inst, cert = _valid_theorem1_pair()
    sel = Selection.build(inst, [(1, 1), (2, 2), (3, 3)])
    tampered = dataclasses.replace(cert, selection=sel, shelling=None)
    ok, diags = verify_certificate(inst, tampered)
    assert not ok
    assert "size window" in diags


def test_verify_flags_wrong_value():
    inst, cert = _valid_theorem1_pair()
    bad_sel = dataclasses.replace(cert.selection, value=(1,))
    ok, diags = verify_certificate(inst, dataclasses.replace(cert, selection=bad_sel))
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
    ok, diags = verify_certificate(inst, dataclasses.replace(cert, selection=sel, shelling=None))
    assert not ok
    assert "index range" in diags


def test_verify_flags_shelling_tampering():
    inst, cert = _valid_theorem1_pair()
    assert cert.shelling is not None
    # non-partition: foreign index in a block
    bad = dataclasses.replace(cert, shelling=((9,),) + cert.shelling)
    ok, diags = verify_certificate(inst, bad)
    assert not ok
    assert "shelling partition" in diags
    # oversized block
    wide = dataclasses.replace(cert, shelling=(tuple(range(1, 20)),))
    ok, diags = verify_certificate(inst, wide)
    assert not ok


def test_verify_flags_anchor_violation_for_corollary():
    inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
    cert = solve_corollary(inst)
    sel = Selection.build(inst, [(1, 1), (2, 2), (3, 3)])
    tampered = dataclasses.replace(cert, selection=sel, shelling=None)
    ok, diags = verify_certificate(inst, tampered)
    assert not ok
    assert "anchor position" in diags


# ---------------------------------------------------------------- fallback


def test_fallback_matches_constructive_feasibility():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    sel = fallback_search(inst, "theorem1")
    assert sel is not None
    assert selection_value(inst, sel) == Z3.zero()
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


def test_fallback_respects_explicit_window():
    inst = _theorem1_instance(Z3, [(1,), (2,), (0,)], [1, 1, 1], 2)
    sel = fallback_search(inst, "theorem1", window=(2, 2))
    assert sel is None or len(sel) == 2


def test_fallback_oracle_cap():
    g = canonicalize([13])
    x = tuple((i % 13,) for i in range(13))
    inst = Instance(group=g, x=x, w=(1,) * 13, ell=13)
    with pytest.raises(OracleTooLarge):
        fallback_search(inst, "word1")
    sel = fallback_search(inst, "word1", oracle_cap=13)
    assert sel is not None


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
    return dataclasses.replace(cert, verified=True)


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
    ("theorem1", "_combine_narrow_and_wide"),
    ("corollary", "_corollary_constructive"),
    ("word1", "_word1_constructive"),
])
def test_fallback_uses_the_given_davenport_cache(monkeypatch, statement, step):
    default = DavenportCache()
    monkeypatch.setattr(zsum.davenport, "_default_cache", default)
    monkeypatch.setattr(zsum.weighted, step, _raise_violation)
    own = DavenportCache()
    if statement == "theorem1":
        inst = Instance(group=Z4, x=((1,), (2,), (3,), (2,), (1,)), w=(0, 5, 1, 6, 2), ell=2)
        path = solve_theorem1(inst, dav_cache=own).solve_path
    elif statement == "corollary":
        inst = Instance(group=Z3, x=((1,), (2,), (1,), (0,), (2,)), w=(1, 1, 1), ell=2)
        path = solve_corollary(inst, dav_cache=own).solve_path
    else:
        _, path = solve_word1(Z4, ((1,), (2,), (3,), (3,)), (1, 2, 1, 3), 2)
    assert path == "fallback"
    assert default.get(Z4) is None and default.get(Z3) is None
