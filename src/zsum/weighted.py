"""Weighted zero-sum selections: solvers, shellings, verifier, oracle.

The objects here are selections (I, f): a set I of weight indices plus an
injection f into sequence positions, valued at sum_{i in I} w_i * x_{f(i)}.
A selection is k-shellable when I splits into blocks of size <= k whose
individual values are all zero; the whole value is then zero too.

Solvers, by statement tag:

* ``word1`` - given |x| = |w| = |G| and maximal repetition <= ell, a
  selection with 1 <= |I| <= ell and value zero.  The construction compares
  the repetition of x against the repetition of w reduced mod n and applies
  the bounded zero-sum solver to whichever sequence repeats less.
* ``theorem1`` - given m = n + D - min(D, ell) - 1, a selection with
  n - min(D, ell) <= |I| <= n - 1 and value zero, built from a width-D
  shelling grown over index pools, plus (when ell < D) a narrow width-ell
  shelling whose blocks absorb the shortfall.
* ``corollary`` - given m = n + D - 1 and maximal repetition ell attained
  by the final position, an n-subset of [1, m - ell] whose weighted sum is
  (sum of the picked weights) * x_m, with position m in the image.

``solve(inst, statement)`` is the single entry point over the three: it
returns a Certificate that the independent verifier has already accepted.
Every statement has an exhaustive oracle (``fallback_search``) used both as
a last-resort solve path and as the test-side ground truth.  All free
choices resolve to the lexicographically smallest option, so identical
instances yield byte-identical certificates.

Elements are validated once, when an Instance is built.  After that every
weighted value - of a selection, a shelling block, an oracle candidate or a
derived sequence entry - comes from one kernel, ``weighted_value``, which
trusts its operands.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .davenport import DavenportCache, davenport_get
from .errors import (
    InvalidArgument,
    InvalidInstance,
    InvalidSelection,
    OracleTooLarge,
    TheoremViolation,
    UnsatisfiableStatement,
)
from .groups import AbelianGroup, Element, canonicalize, rho
from .zerosum import find_zero_sum_bounded, find_zero_sum_davenport

STATEMENT_THEOREM1 = "theorem1"
STATEMENT_COROLLARY = "corollary"
STATEMENT_WORD1 = "word1"
STATEMENTS = (STATEMENT_THEOREM1, STATEMENT_COROLLARY, STATEMENT_WORD1)

SOLVE_CONSTRUCTIVE = "constructive"
SOLVE_FALLBACK = "fallback"

DEFAULT_ORACLE_CAP = 12


@dataclass(frozen=True)
class Instance:
    """A sequence over a group, integer weights, and a repetition bound.

    ``w`` may be shorter than ``x`` (the corollary drops the reserved tail),
    so length relations are checked per statement, not here.  Every entry of
    ``x`` is checked against the group on construction (InvalidElement), so
    the rest of this module trusts it.
    """

    group: AbelianGroup
    x: tuple[Element, ...]
    w: tuple[int, ...]
    ell: int

    def __post_init__(self) -> None:
        for e in self.x:
            self.group.check_element(e)

    @property
    def m(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class Selection:
    """Index set plus injection, with the weighted value cached."""

    indices: tuple[int, ...]  # sorted weight indices, 1-based
    images: tuple[int, ...]  # images[j] = f(indices[j]), 1-based positions
    value: Element

    @classmethod
    def build(cls, inst: Instance, pairs: Iterable[tuple[int, int]]) -> "Selection":
        pairs = sorted(pairs)
        indices = tuple([i for i, _ in pairs])
        images = tuple([j for _, j in pairs])
        sel = cls(indices=indices, images=images, value=inst.group.zero())
        return replace(sel, value=selection_value(inst, sel))

    def as_map(self) -> dict[int, int]:
        return dict(zip(self.indices, self.images))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Shelling:
    """Ordered partition of a selection's domain into zero-value blocks."""

    selection: Selection
    blocks: tuple[tuple[int, ...], ...]
    width: int


@dataclass(frozen=True)
class Certificate:
    statement: str
    instance_digest: str
    selection: Selection
    shelling: tuple[tuple[int, ...], ...] | None
    solve_path: str
    verified: bool


class _ConstructiveFailed(Exception):
    """Internal: constructive output missed a postcondition; try the oracle."""


def instance_digest(inst: Instance) -> str:
    """SHA-256 of the canonical instance data (group in canonical form, so
    presentations that name the same instance hash identically)."""
    payload = {
        "group": {"orders": list(inst.group.invariant_factors)},
        "x": [list(e) for e in inst.x],
        "w": list(inst.w),
        "ell": inst.ell,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def weighted_value(
    g: AbelianGroup,
    w: Sequence[int],
    x: Sequence[Element],
    indices: Sequence[int],
    images: Sequence[int],
) -> Element:
    """sum_j w_{indices[j]} * x_{images[j]} (1-based), coordinate by
    coordinate: (sum of w_i * x_{f(i)}[c]) mod d_c.

    The operands are trusted: x comes from a validated Instance and the
    positions from a checked selection or from the solvers' own pools.
    """
    return tuple([
        sum([w[i - 1] * x[j - 1][c] for i, j in zip(indices, images)]) % d
        for c, d in enumerate(g.invariant_factors)
    ])


def selection_value(inst: Instance, sel: Selection) -> Element:
    """Recompute sum w_i * x_{f(i)} from scratch, validating the selection."""
    if len(sel.indices) != len(sel.images):
        raise InvalidSelection("domain and image lists differ in length")
    if any(a >= b for a, b in zip(sel.indices, sel.indices[1:])):
        raise InvalidSelection(f"domain {sel.indices!r} is not strictly increasing")
    if len(set(sel.images)) != len(sel.images):
        raise InvalidSelection(f"map {sel.as_map()!r} is not injective")
    for i in sel.indices:
        if not 1 <= i <= len(inst.w):
            raise InvalidSelection(f"weight index {i} outside [1, {len(inst.w)}]")
    for j in sel.images:
        if not 1 <= j <= inst.m:
            raise InvalidSelection(f"position {j} outside [1, {inst.m}]")
    return weighted_value(inst.group, inst.w, inst.x, sel.indices, sel.images)


def _mod_n_sequence(g_n: AbelianGroup, w: Sequence[int]) -> list[Element]:
    """Weights reduced mod n as elements of Z_n (empty tuples if n = 1)."""
    if g_n.order == 1:
        return [()] * len(w)
    n = g_n.order
    return [(wi % n,) for wi in w]


def _positions_of(values: Sequence, target) -> list[int]:
    return [p + 1 for p, v in enumerate(values) if v == target]


def _most_repeated(values: Sequence):
    """Value of maximal multiplicity; ties break to the smallest value."""
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def solve_word1(
    g: AbelianGroup,
    x: Sequence[Element],
    w: Sequence[int],
    ell: int,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> tuple[Shelling, str]:
    """Selection with 1 <= |I| <= ell and value zero, as a one-block shelling.

    Requires |x| = |w| = |G| and maximal repetition of x at most ell.
    Returns (shelling, solve_path).
    """
    n = g.order
    if len(x) != n or len(w) != n:
        raise InvalidInstance(f"need |x| = |w| = |G| = {n}, got {len(x)}, {len(w)}")
    if ell < 1:
        raise InvalidInstance(f"repetition bound ell = {ell} must be >= 1")
    if rho(x) > ell:
        raise InvalidInstance(f"maximal repetition {rho(x)} exceeds ell = {ell}")
    inst = Instance(group=g, x=tuple(x), w=tuple(w), ell=ell)

    try:
        sel = _word1_constructive(inst)
        if not 1 <= len(sel) <= ell or sel.value != g.zero():
            raise _ConstructiveFailed
        return Shelling(selection=sel, blocks=(sel.indices,), width=ell), SOLVE_CONSTRUCTIVE
    except (TheoremViolation, _ConstructiveFailed):
        sel = fallback_search(inst, STATEMENT_WORD1, window=(1, ell), oracle_cap=oracle_cap)
        if sel is None or len(sel) == 0:
            raise TheoremViolation(
                f"no selection with |I| <= {ell} and value zero exists for x={x!r}, w={w!r}"
            ) from None
        return Shelling(selection=sel, blocks=(sel.indices,), width=ell), SOLVE_FALLBACK


def _word1_constructive(inst: Instance) -> Selection:
    g, x = inst.group, inst.x
    n = g.order
    z_n = canonicalize([n])
    w_mod = _mod_n_sequence(z_n, inst.w)
    r = rho(x)
    s = rho(w_mod)

    if s <= r:
        # a zero-sum subset of the weights mod n, all mapped to one repeated value
        wit = find_zero_sum_bounded(z_n, w_mod, s)
        a = _most_repeated(x)
        targets = _positions_of(x, a)
        pairs = list(zip(wit.indices, targets))
    else:
        # a short zero-sum subset of x, fed by positions of one repeated weight
        wit = find_zero_sum_bounded(g, x, r)
        b = _most_repeated(w_mod)
        sources = _positions_of(w_mod, b)[: len(wit.indices)]
        pairs = list(zip(sources, wit.indices))
    return Selection.build(inst, pairs)


def shelling_trim(inst: Instance, sh: Shelling, m0: int) -> Shelling:
    """Maximal block prefix of total size <= m0; the result keeps value zero
    and, when every block is nonempty and <= width, lands in
    [m0 - width + 1, m0]."""
    size = len(sh.selection)
    if m0 > size:
        raise InvalidArgument(f"m0 = {m0} exceeds selection size {size}")
    if m0 < 0:
        raise InvalidArgument(f"m0 = {m0} is negative")
    kept: list[tuple[int, ...]] = []
    total = 0
    for block in sh.blocks:
        if total + len(block) > m0:
            break
        kept.append(block)
        total += len(block)
    keep_set = {i for block in kept for i in block}
    fmap = sh.selection.as_map()
    sel = Selection.build(inst, [(i, fmap[i]) for i in sorted(keep_set)])
    return Shelling(selection=sel, blocks=tuple(kept), width=sh.width)


def extend_shellable(
    inst: Instance,
    domain_pool: Sequence[int],
    image_pool: Sequence[int],
    davenport_value: int | None = None,
) -> Shelling:
    """Grow a width-D shelling from index pools until fewer than D remain.

    Guarantees a domain R inside the pool with |R| >= |pool| - D + 1: each
    round pairs the D smallest unused domain indices with the D smallest
    unused image positions and extracts a zero-sum block from the derived
    sequence (w_i * x_{h(i)}), which the Davenport property always provides.
    """
    g = inst.group
    d = davenport_value if davenport_value is not None else davenport_get(g).value
    a_rem = sorted(set(domain_pool))
    b_rem = sorted(set(image_pool))
    if len(b_rem) < len(a_rem):
        raise InvalidArgument(f"image pool ({len(b_rem)}) smaller than domain pool ({len(a_rem)})")
    for i in a_rem:
        if not 1 <= i <= len(inst.w):
            raise InvalidArgument(f"domain index {i} outside [1, {len(inst.w)}]")
    for j in b_rem:
        if not 1 <= j <= inst.m:
            raise InvalidArgument(f"image position {j} outside [1, {inst.m}]")

    blocks: list[tuple[int, ...]] = []
    pairs: dict[int, int] = {}
    while len(a_rem) >= d and len(b_rem) >= d:
        a_win = a_rem[:d]
        b_win = b_rem[:d]
        derived = [weighted_value(g, inst.w, inst.x, (i,), (j,)) for i, j in zip(a_win, b_win)]
        wit = find_zero_sum_davenport(g, derived, davenport_value=d)
        block = tuple([a_win[t - 1] for t in wit.indices])
        used_images = set()
        for t in wit.indices:
            pairs[a_win[t - 1]] = b_win[t - 1]
            used_images.add(b_win[t - 1])
        blocks.append(block)
        block_set = set(block)
        a_rem = [i for i in a_rem if i not in block_set]
        b_rem = [j for j in b_rem if j not in used_images]
    sel = Selection.build(inst, pairs.items())
    return Shelling(selection=sel, blocks=tuple(blocks), width=d)


def narrow_shelling(inst: Instance, davenport_value: int | None = None) -> Shelling:
    """Width-ell shelling with domain size >= D - ell, for ell < D.

    While the domain is short, both unused pools still hold at least n
    indices, so the word1 solver on the n smallest of each yields another
    block of size <= ell.
    """
    g = inst.group
    n = g.order
    d = davenport_value if davenport_value is not None else davenport_get(g).value
    ell = inst.ell
    if ell >= d:
        raise InvalidInstance(f"narrow shelling needs ell < D, got ell = {ell}, D = {d}")
    if inst.m != n - ell + d - 1:
        raise InvalidInstance(f"need m = n - ell + D - 1 = {n - ell + d - 1}, got {inst.m}")
    if inst.m and rho(inst.x) > ell:
        raise InvalidInstance(f"maximal repetition {rho(inst.x)} exceeds ell = {ell}")

    blocks: list[tuple[int, ...]] = []
    pairs: dict[int, int] = {}
    domain: set[int] = set()
    images: set[int] = set()
    while len(domain) < d - ell:
        free_dom = [i for i in range(1, inst.m + 1) if i not in domain]
        free_img = [j for j in range(1, inst.m + 1) if j not in images]
        assert len(free_dom) >= n and len(free_img) >= n
        dom_win = free_dom[:n]
        img_win = free_img[:n]
        x_win = [inst.x[j - 1] for j in img_win]
        w_win = [inst.w[i - 1] for i in dom_win]
        sh, _ = solve_word1(g, x_win, w_win, ell)
        block_pairs = [
            (dom_win[i - 1], img_win[j - 1])
            for i, j in zip(sh.selection.indices, sh.selection.images)
        ]
        block = tuple(sorted([i for i, _ in block_pairs]))
        pairs.update(block_pairs)
        blocks.append(block)
        domain.update(block)
        images.update(j for _, j in block_pairs)
    sel = Selection.build(inst, pairs.items())
    return Shelling(selection=sel, blocks=tuple(blocks), width=ell)


def _validate_theorem1(inst: Instance, d: int) -> tuple[int, int]:
    n = inst.group.order
    r = min(d, inst.ell)
    if inst.ell < 1:
        raise InvalidInstance(f"repetition bound ell = {inst.ell} must be >= 1")
    if inst.m != n + d - r - 1:
        raise InvalidInstance(
            f"need m = n + D - min(D, ell) - 1 = {n + d - r - 1}, got {inst.m}"
        )
    if len(inst.w) != inst.m:
        raise InvalidInstance(f"need |w| = m = {inst.m}, got {len(inst.w)}")
    if inst.m and rho(inst.x) > inst.ell:
        raise InvalidInstance(f"maximal repetition {rho(inst.x)} exceeds ell = {inst.ell}")
    return n, r


def solve_theorem1(
    inst: Instance,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    dav_cache: DavenportCache | None = None,
) -> Certificate:
    """Certificate with n - min(D, ell) <= |I| <= n - 1 and value zero."""
    g = inst.group
    d = davenport_get(g, cache=dav_cache).value
    n, r = _validate_theorem1(inst, d)
    lo, hi = n - r, n - 1

    try:
        if d <= inst.ell:
            # m = n - 1: one width-D shelling over the whole index range
            sh = extend_shellable(inst, range(1, n), range(1, inst.m + 1), davenport_value=d)
            sel, blocks = sh.selection, sh.blocks
        else:
            sel, blocks = _combine_narrow_and_wide(inst, d)
        if not (lo <= len(sel) <= hi) or sel.value != g.zero():
            raise _ConstructiveFailed
        path = SOLVE_CONSTRUCTIVE
    except (TheoremViolation, _ConstructiveFailed):
        sel = fallback_search(inst, STATEMENT_THEOREM1, window=(lo, hi), oracle_cap=oracle_cap)
        if sel is None:
            raise TheoremViolation(
                f"no selection in window [{lo}, {hi}] with value zero exists"
            ) from None
        blocks, path = None, SOLVE_FALLBACK
    return _certify(inst, STATEMENT_THEOREM1, sel, blocks, path, dav_cache)


def _combine_narrow_and_wide(inst: Instance, d: int) -> tuple[Selection, tuple[tuple[int, ...], ...]]:
    """ell < D branch: narrow shelling T, wide shelling on the complement,
    then the maximal block prefix (wide blocks first) of total size <= n - 1."""
    g = inst.group
    n = g.order
    t_sh = narrow_shelling(inst, davenport_value=d)
    t_map = t_sh.selection.as_map()
    t_domain = set(t_sh.selection.indices)
    t_images = set(t_sh.selection.images)

    c_pool = [i for i in range(1, inst.m + 1) if i not in t_domain]
    img_pool = [j for j in range(1, inst.m + 1) if j not in t_images]
    e_sh = extend_shellable(inst, c_pool, img_pool, davenport_value=d)
    e_map = e_sh.selection.as_map()

    ordered = [(block, e_map) for block in e_sh.blocks] + [(block, t_map) for block in t_sh.blocks]
    pairs: list[tuple[int, int]] = []
    blocks: list[tuple[int, ...]] = []
    total = 0
    for block, fmap in ordered:
        if total + len(block) > n - 1:
            break
        blocks.append(block)
        total += len(block)
        pairs.extend((i, fmap[i]) for i in block)
    sel = Selection.build(inst, pairs)
    return sel, tuple(blocks)


def _validate_corollary(inst: Instance, d: int) -> tuple[int, int]:
    g = inst.group
    n = g.order
    if inst.m != n + d - 1:
        raise InvalidInstance(f"need m = n + D - 1 = {n + d - 1}, got {inst.m}")
    actual_rho = rho(inst.x)
    if inst.ell != actual_rho:
        raise InvalidInstance(f"ell = {inst.ell} but maximal repetition is {actual_rho}")
    last = inst.x[-1]
    if inst.x.count(last) != inst.ell:
        raise InvalidInstance(
            f"maximal repetition {inst.ell} not attained by the final position"
        )
    r = min(d, inst.ell)
    if len(inst.w) != inst.m - r:
        raise InvalidInstance(f"need |w| = m - r = {inst.m - r}, got {len(inst.w)}")
    return n, r


def solve_corollary(
    inst: Instance,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    dav_cache: DavenportCache | None = None,
) -> Certificate:
    """Certificate with |I| = n, image containing position m, and weighted
    sum equal to (sum of picked weights) * x_m.

    Raises UnsatisfiableStatement when ell >= D: then m - r = n - 1 and no
    n-subset of [1, m - r] exists.
    """
    g = inst.group
    d = davenport_get(g, cache=dav_cache).value
    n, r = _validate_corollary(inst, d)
    if inst.ell >= d:
        raise UnsatisfiableStatement(
            f"ell = {inst.ell} >= D = {d}: an n-subset of [1, {inst.m - r}] cannot exist (n = {n})"
        )

    try:
        sel, path = _corollary_constructive(inst, d, oracle_cap, dav_cache)
    except (TheoremViolation, _ConstructiveFailed):
        sel = fallback_search(inst, STATEMENT_COROLLARY, window=(n, n), oracle_cap=oracle_cap)
        if sel is None:
            raise TheoremViolation(
                f"no barycentric n-selection exists for {inst!r} despite ell < D"
            ) from None
        path = SOLVE_FALLBACK
    return _certify(inst, STATEMENT_COROLLARY, sel, None, path, dav_cache)


def _corollary_constructive(
    inst: Instance,
    d: int,
    oracle_cap: int,
    dav_cache: DavenportCache | None,
) -> tuple[Selection, str]:
    g = inst.group
    n = g.order
    r = min(d, inst.ell)
    anchor = inst.x[-1]
    # reserve the r highest positions carrying the anchor value (m included)
    anchor_positions = _positions_of(inst.x, anchor)
    reserve = sorted(anchor_positions[-r:])
    keep = [p for p in range(1, inst.m + 1) if p not in set(reserve)]
    y = tuple([g.sub(inst.x[p - 1], anchor) for p in keep])
    sub = Instance(group=g, x=y, w=inst.w, ell=inst.ell)
    inner = solve_theorem1(sub, oracle_cap=oracle_cap, dav_cache=dav_cache)

    pairs = [
        (i, keep[j - 1]) for i, j in zip(inner.selection.indices, inner.selection.images)
    ]
    picked = set(inner.selection.indices)
    free = [i for i in range(1, len(inst.w) + 1) if i not in picked]
    extra = free[: n - len(picked)]
    if len(extra) < n - len(picked):
        raise _ConstructiveFailed
    targets = sorted(reserve[: len(extra) - 1] + [inst.m])
    pairs.extend(zip(sorted(extra), targets))
    return Selection.build(inst, pairs), inner.solve_path


def _statement_window(inst: Instance, statement: str, d: int) -> tuple[int, int]:
    n = inst.group.order
    if statement == STATEMENT_THEOREM1:
        r = min(d, inst.ell)
        return n - r, n - 1
    if statement == STATEMENT_WORD1:
        return 1, inst.ell
    if statement == STATEMENT_COROLLARY:
        return n, n
    raise InvalidArgument(f"unknown statement {statement!r}")


def _statement_target(inst: Instance, statement: str, indices: Sequence[int]) -> Element:
    g = inst.group
    if statement == STATEMENT_COROLLARY:
        # (sum of the picked weights) * x_m: every picked weight placed on x_m
        return weighted_value(g, inst.w, inst.x, indices, [inst.m] * len(indices))
    return g.zero()


def fallback_search(
    inst: Instance,
    statement: str,
    window: tuple[int, int] | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> Selection | None:
    """Exhaustive search over (I, f) pairs; the independent oracle.

    Enumerates index sets in lexicographic order (as sorted tuples) and, per
    set, image tuples in lexicographic order, so the first hit is the
    lexicographically smallest solution.  Returns the empty selection when
    the window admits size 0 and no nonempty solution exists; returns None
    when there is no solution at all.
    """
    g = inst.group
    if inst.m > oracle_cap:
        raise OracleTooLarge(f"oracle cap is {oracle_cap}, instance has m = {inst.m}")
    if window is not None:
        lo, hi = window
    else:
        lo, hi = _statement_window(inst, statement, davenport_get(g).value)
    require_image = inst.m if statement == STATEMENT_COROLLARY else None

    index_range = range(1, len(inst.w) + 1)
    image_range = range(1, inst.m + 1)
    subsets: list[tuple[int, ...]] = []
    for size in range(max(lo, 1), hi + 1):
        subsets.extend(itertools.combinations(index_range, size))
    subsets.sort()

    for indices in subsets:
        target = _statement_target(inst, statement, indices)
        for images in itertools.permutations(image_range, len(indices)):
            if require_image is not None and require_image not in images:
                continue
            total = weighted_value(g, inst.w, inst.x, indices, images)
            if total == target:
                return Selection(indices=indices, images=images, value=total)
    if lo == 0:
        return Selection(indices=(), images=(), value=g.zero())
    return None


def verify_certificate(
    inst: Instance,
    cert: Certificate,
    dav_cache: DavenportCache | None = None,
) -> tuple[bool, list[str]]:
    """Re-derive every postcondition from raw instance data.

    Returns (ok, diagnostics); diagnostics name each failed check.
    """
    g = inst.group
    diagnostics: list[str] = []
    if cert.statement not in STATEMENTS:
        return False, [f"unknown statement {cert.statement!r}"]
    d = davenport_get(g, cache=dav_cache).value
    n = g.order
    sel = cert.selection

    if cert.instance_digest != instance_digest(inst):
        diagnostics.append("instance digest")

    if len(sel.indices) != len(sel.images):
        diagnostics.append("arity")
        return False, diagnostics
    if any(a >= b for a, b in zip(sel.indices, sel.indices[1:])):
        diagnostics.append("domain order")
    if len(set(sel.images)) != len(sel.images):
        diagnostics.append("injectivity")
    if any(not 1 <= i <= len(inst.w) for i in sel.indices):
        diagnostics.append("index range")
    if any(not 1 <= j <= inst.m for j in sel.images):
        diagnostics.append("image range")
    if diagnostics:
        return False, diagnostics

    lo, hi = _statement_window(inst, cert.statement, d)
    if not lo <= len(sel) <= hi:
        diagnostics.append("size window")
    if cert.statement == STATEMENT_COROLLARY and inst.m not in sel.images:
        diagnostics.append("anchor position")

    recomputed = weighted_value(g, inst.w, inst.x, sel.indices, sel.images)
    if recomputed != sel.value:
        diagnostics.append("cached value")
    if recomputed != _statement_target(inst, cert.statement, sel.indices):
        diagnostics.append("value")

    if cert.shelling is not None:
        width = d if cert.statement == STATEMENT_THEOREM1 else inst.ell
        flat = [i for block in cert.shelling for i in block]
        if sorted(flat) != list(sel.indices):
            diagnostics.append("shelling partition")
        if any(not 1 <= len(block) <= width for block in cert.shelling):
            diagnostics.append("shelling width")
        fmap = sel.as_map()
        for block in cert.shelling:
            if any(i not in fmap for i in block):
                continue  # partition diagnostic already covers this
            if weighted_value(g, inst.w, inst.x, block, [fmap[i] for i in block]) != g.zero():
                diagnostics.append("shelling block value")
                break

    return not diagnostics, diagnostics


def _certify(
    inst: Instance,
    statement: str,
    sel: Selection,
    shelling: tuple[tuple[int, ...], ...] | None,
    path: str,
    dav_cache: DavenportCache | None,
) -> Certificate:
    """The certificate for a solver's selection, accepted by the verifier."""
    cert = Certificate(
        statement=statement,
        instance_digest=instance_digest(inst),
        selection=sel,
        shelling=shelling,
        solve_path=path,
        verified=False,
    )
    ok, diagnostics = verify_certificate(inst, cert, dav_cache=dav_cache)
    if not ok:
        raise AssertionError(f"emitted certificate failed verification: {diagnostics}")
    return replace(cert, verified=True)


def solve(
    inst: Instance,
    statement: str,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    dav_cache: DavenportCache | None = None,
) -> Certificate:
    """Verified certificate for ``statement`` (one of STATEMENTS) on ``inst``."""
    if statement == STATEMENT_THEOREM1:
        return solve_theorem1(inst, oracle_cap=oracle_cap, dav_cache=dav_cache)
    if statement == STATEMENT_COROLLARY:
        return solve_corollary(inst, oracle_cap=oracle_cap, dav_cache=dav_cache)
    if statement == STATEMENT_WORD1:
        sh, path = solve_word1(inst.group, inst.x, inst.w, inst.ell, oracle_cap=oracle_cap)
        return _certify(inst, STATEMENT_WORD1, sh.selection, sh.blocks, path, dav_cache)
    raise InvalidArgument(f"unknown statement {statement!r}")
