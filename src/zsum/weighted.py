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
All three run through one path: check the hypotheses, run the
construction, and hand the certificate to ``verify_certificate``, the only
check of its size window, anchor and value.  The proofs are constructive,
so under the hypotheses a construction cannot miss; if the verifier rejects
one, that is a bug and it raises TheoremViolation.  D(G) is looked up for
theorem1 and the corollary only: the word1 statement does not mention it.
The answer rests on the verifier, not on a second solver: the exhaustive
oracle (``fallback_search``) is the test-side ground truth only, and no
solve calls it.  The constructions nest as the proofs do (the corollary
runs theorem1's on x shifted by x_m, theorem1's narrow shelling takes its
blocks from word1's) without calling a public solver.  All free
choices resolve to the lexicographically smallest option, so identical
instances yield byte-identical certificates.

Elements are validated once, when an Instance is built.  After that every
weighted value - of a selection, a shelling block or a derived sequence
entry, and every value the verifier recomputes - comes from one kernel,
``weighted_value``, which trusts its operands.  The oracle is the exception
on purpose: one private core, shared with the conjecture scanner, values
each candidate with its own per-coordinate arithmetic on the raw integers.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

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

ORACLE_CAP = 12


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


def _word1_constructive(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> list[tuple[int, int]]:
    """The word1 construction on raw sequences with |x| = |w| = |G|: the
    pairs (i, f(i)) of a selection with 1 <= |I| <= rho(x) and value zero."""
    n = g.order
    z_n = canonicalize([n])
    w_mod = _mod_n_sequence(z_n, w)
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
    return pairs


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
    indices, so the word1 construction on the n smallest of each yields
    another block of size <= ell.
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
        block_pairs = [
            (dom_win[i - 1], img_win[j - 1]) for i, j in _word1_constructive(g, x_win, w_win)
        ]
        block = tuple(sorted([i for i, _ in block_pairs]))
        pairs.update(block_pairs)
        blocks.append(block)
        domain.update(block)
        images.update(j for _, j in block_pairs)
    sel = Selection.build(inst, pairs.items())
    return Shelling(selection=sel, blocks=tuple(blocks), width=ell)


def _combine_narrow_and_wide(inst: Instance, d: int) -> Shelling:
    """ell < D branch of theorem1: narrow shelling T, wide shelling on the
    complement, then the maximal block prefix (wide blocks first) of total
    size <= n - 1."""
    n = inst.group.order
    t_sh = narrow_shelling(inst, davenport_value=d)
    t_domain = set(t_sh.selection.indices)
    t_images = set(t_sh.selection.images)

    c_pool = [i for i in range(1, inst.m + 1) if i not in t_domain]
    img_pool = [j for j in range(1, inst.m + 1) if j not in t_images]
    e_sh = extend_shellable(inst, c_pool, img_pool, davenport_value=d)

    pairs = [*e_sh.selection.as_map().items(), *t_sh.selection.as_map().items()]
    both = Shelling(
        selection=Selection.build(inst, pairs), blocks=e_sh.blocks + t_sh.blocks, width=d
    )
    return shelling_trim(inst, both, min(n - 1, len(pairs)))


def _corollary_constructive(inst: Instance, d: int) -> Selection:
    """Shift x by x_m, run the theorem1 construction on the positions left
    after reserving the r highest anchor positions, then pad the selection
    to n weights mapped onto reserved positions (m included)."""
    g = inst.group
    n = g.order
    r = min(d, inst.ell)
    anchor = inst.x[-1]
    # reserve the r highest positions carrying the anchor value (m included)
    anchor_positions = _positions_of(inst.x, anchor)
    reserve = sorted(anchor_positions[-r:])
    keep = [p for p in range(1, inst.m + 1) if p not in set(reserve)]
    y = tuple([g.sub(inst.x[p - 1], anchor) for p in keep])
    inner, _ = _construct(Instance(group=g, x=y, w=inst.w, ell=inst.ell), STATEMENT_THEOREM1, d)
    # outside theorem1's window [n - r, n - 1] the reserve cannot pad it to n
    if not n - r <= len(inner) <= n - 1:
        raise TheoremViolation(
            f"the theorem1 construction inside the corollary missed window [{n - r}, {n - 1}]"
        )

    pairs = [(i, keep[j - 1]) for i, j in zip(inner.indices, inner.images)]
    picked = set(inner.indices)
    free = [i for i in range(1, len(inst.w) + 1) if i not in picked]
    extra = free[: n - len(inner)]
    targets = sorted(reserve[: len(extra) - 1] + [inst.m])
    pairs.extend(zip(extra, targets))
    return Selection.build(inst, pairs)


def _statement_window(inst: Instance, statement: str, d: int | None) -> tuple[int, int]:
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


def _check_hypotheses(inst: Instance, statement: str, d: int | None) -> None:
    """InvalidInstance unless ``inst`` meets the hypotheses of ``statement``;
    UnsatisfiableStatement for a corollary with ell >= D.  Only word1 runs
    without D."""
    n = inst.group.order
    if statement == STATEMENT_COROLLARY:
        if inst.m != n + d - 1:
            raise InvalidInstance(f"need m = n + D - 1 = {n + d - 1}, got {inst.m}")
        actual_rho = rho(inst.x)
        if inst.ell != actual_rho:
            raise InvalidInstance(f"ell = {inst.ell} but maximal repetition is {actual_rho}")
        if inst.x.count(inst.x[-1]) != inst.ell:
            raise InvalidInstance(
                f"maximal repetition {inst.ell} not attained by the final position"
            )
        r = min(d, inst.ell)
        if len(inst.w) != inst.m - r:
            raise InvalidInstance(f"need |w| = m - r = {inst.m - r}, got {len(inst.w)}")
        if inst.ell >= d:
            raise UnsatisfiableStatement(
                f"ell = {inst.ell} >= D = {d}: an n-subset of [1, {inst.m - r}] "
                f"cannot exist (n = {n})"
            )
        return
    if statement == STATEMENT_WORD1 and (inst.m != n or len(inst.w) != n):
        raise InvalidInstance(f"need |x| = |w| = |G| = {n}, got {inst.m}, {len(inst.w)}")
    if inst.ell < 1:
        raise InvalidInstance(f"repetition bound ell = {inst.ell} must be >= 1")
    if statement == STATEMENT_THEOREM1:
        r = min(d, inst.ell)
        if inst.m != n + d - r - 1:
            raise InvalidInstance(
                f"need m = n + D - min(D, ell) - 1 = {n + d - r - 1}, got {inst.m}"
            )
        if len(inst.w) != inst.m:
            raise InvalidInstance(f"need |w| = m = {inst.m}, got {len(inst.w)}")
    if inst.m and rho(inst.x) > inst.ell:
        raise InvalidInstance(f"maximal repetition {rho(inst.x)} exceeds ell = {inst.ell}")


def _construct(
    inst: Instance, statement: str, d: int | None
) -> tuple[Selection, tuple[tuple[int, ...], ...] | None]:
    """The statement's construction: a selection and, for theorem1 and
    word1, its shelling blocks."""
    if statement == STATEMENT_THEOREM1:
        if d <= inst.ell:
            # m = n - 1: one width-D shelling over the whole index range
            pool = range(1, inst.m + 1)
            sh = extend_shellable(inst, pool, pool, davenport_value=d)
        else:
            sh = _combine_narrow_and_wide(inst, d)
        return sh.selection, sh.blocks
    if statement == STATEMENT_COROLLARY:
        return _corollary_constructive(inst, d), None
    sel = Selection.build(inst, _word1_constructive(inst.group, inst.x, inst.w))
    return sel, (sel.indices,)


def fallback_search(
    inst: Instance,
    statement: str,
    window: tuple[int, int] | None = None,
) -> Selection | None:
    """Exhaustive search over (I, f) pairs; the independent oracle.

    Enumerates index sets in lexicographic order (as sorted tuples) and, per
    set, image tuples in lexicographic order, so the first hit is the
    lexicographically smallest solution.  Returns the empty selection when
    the window admits size 0 and no nonempty solution exists; returns None
    when there is no solution at all.
    """
    g = inst.group
    if inst.m > ORACLE_CAP:
        raise OracleTooLarge(f"oracle cap is {ORACLE_CAP}, instance has m = {inst.m}")
    if window is not None:
        lo, hi = window
    else:
        lo, hi = _statement_window(inst, statement, davenport_get(g).value)
    sel = _first_selection(
        _coordinate_columns(g, inst.x), inst.m, inst.w, _index_sets(len(inst.w), lo, hi),
        statement == STATEMENT_COROLLARY,
    )
    if sel is None and lo == 0:
        return Selection(indices=(), images=(), value=g.zero())
    return sel


@functools.lru_cache(maxsize=32)
def _index_sets(k: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of {1..k} with max(lo, 1) to hi members, as sorted
    tuples in lexicographic order."""
    index_range = range(1, k + 1)
    return tuple(sorted(itertools.chain.from_iterable(
        itertools.combinations(index_range, size) for size in range(max(lo, 1), hi + 1)
    )))


def _coordinate_columns(g: AbelianGroup, x: Sequence[Element]) -> list[tuple[list[int], int]]:
    """Per coordinate c of G, (column, d_c) with column[j] = x_j[c] for the
    1-based positions j (column[0] is unused)."""
    return [([0] + [e[c] for e in x], d) for c, d in enumerate(g.invariant_factors)]


def _first_selection(
    columns: list[tuple[list[int], int]],
    m: int,
    w: Sequence[int],
    index_sets: Sequence[tuple[int, ...]],
    anchored: bool,
) -> Selection | None:
    """The oracle's core: the first (I, f), with I taken from ``index_sets``
    in order and f's image tuples over positions 1..m in lexicographic
    order, whose value is zero; when ``anchored`` (the corollary), whose
    image holds position m and whose value is (sum of the picked weights)
    * x_m.

    Each candidate is valued coordinate by coordinate, (sum of
    w_i * x_f(i)[c]) mod d_c, straight from the integers in w and in the
    ``columns`` of x.
    """
    positions = range(1, m + 1)
    target = [0] * len(columns)
    for indices in index_sets:
        picked = [w[i - 1] for i in indices]
        if anchored:
            total = sum(picked)
            target = [total * column[m] % d for column, d in columns]
        for images in itertools.permutations(positions, len(indices)):
            if anchored and m not in images:
                continue
            for (column, d), t in zip(columns, target):
                if sum([wi * column[j] for wi, j in zip(picked, images)]) % d != t:
                    break
            else:
                return Selection(indices=indices, images=images, value=tuple(target))
    return None


def _zero_selection_oracle(
    g: AbelianGroup, x: Sequence[Element]
) -> Callable[[Sequence[int]], Selection | None]:
    """The exhaustive oracle for the unrestricted statement against one x:
    checks every entry of x, then returns a function that gives, for a
    weight vector w, the lexicographically first nonempty (I, f) of value
    zero, or None.  x's columns are built once for all the w it is given.
    """
    for e in x:
        g.check_element(e)
    columns = _coordinate_columns(g, x)
    m = len(x)
    return lambda w: _first_selection(columns, m, w, _index_sets(len(w), 1, len(w)), False)


def verify_certificate(
    inst: Instance,
    cert: Certificate,
    dav_cache: DavenportCache | None = None,
) -> tuple[bool, list[str]]:
    """Re-check the statement's hypotheses and re-derive every postcondition
    from raw instance data.

    Returns (ok, diagnostics); diagnostics name each failed check.  D(G)
    is looked up for theorem1 and corollary certificates only.
    """
    g = inst.group
    diagnostics: list[str] = []
    if cert.statement not in STATEMENTS:
        return False, [f"unknown statement {cert.statement!r}"]
    d = None if cert.statement == STATEMENT_WORD1 else davenport_get(g, cache=dav_cache).value
    sel = cert.selection

    try:
        _check_hypotheses(inst, cert.statement, d)
    except (InvalidInstance, UnsatisfiableStatement) as err:
        diagnostics.append(f"hypotheses: {err}")

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


def solve(
    inst: Instance, statement: str, *, dav_cache: DavenportCache | None = None
) -> Certificate:
    """Verified certificate for ``statement`` (one of STATEMENTS) on ``inst``:
    hypotheses, construction, then ``verify_certificate``; a certificate the
    verifier rejects raises TheoremViolation naming the failed checks."""
    if statement not in STATEMENTS:
        raise InvalidArgument(f"unknown statement {statement!r}")
    d = None if statement == STATEMENT_WORD1 else davenport_get(inst.group, cache=dav_cache).value
    _check_hypotheses(inst, statement, d)
    sel, blocks = _construct(inst, statement, d)
    cert = Certificate(
        statement=statement,
        instance_digest=instance_digest(inst),
        selection=sel,
        shelling=blocks,
        solve_path=SOLVE_CONSTRUCTIVE,
        verified=False,
    )
    ok, diagnostics = verify_certificate(inst, cert, dav_cache=dav_cache)
    if not ok:
        lo, hi = _statement_window(inst, statement, d)
        raise TheoremViolation(
            f"the {statement} construction gave no valid selection in window "
            f"[{lo}, {hi}] despite its hypotheses: {'; '.join(diagnostics)}"
        )
    return replace(cert, verified=True)


def solve_theorem1(inst: Instance, *, dav_cache: DavenportCache | None = None) -> Certificate:
    """Certificate with n - min(D, ell) <= |I| <= n - 1 and value zero."""
    return solve(inst, STATEMENT_THEOREM1, dav_cache=dav_cache)


def solve_corollary(inst: Instance, *, dav_cache: DavenportCache | None = None) -> Certificate:
    """Certificate with |I| = n, image containing position m, and weighted
    sum equal to (sum of picked weights) * x_m.

    Raises UnsatisfiableStatement when ell >= D: then m - r = n - 1 and no
    n-subset of [1, m - r] exists.
    """
    return solve(inst, STATEMENT_COROLLARY, dav_cache=dav_cache)


def solve_word1(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int], ell: int
) -> tuple[Shelling, str]:
    """Selection with 1 <= |I| <= ell and value zero, as a one-block shelling.

    Requires |x| = |w| = |G| and maximal repetition of x at most ell.  The
    word1 ``solve`` wrapped as (shelling, solve_path): the selection has
    passed the verifier and the path is always SOLVE_CONSTRUCTIVE.
    """
    cert = solve(Instance(group=g, x=tuple(x), w=tuple(w), ell=ell), STATEMENT_WORD1)
    return Shelling(selection=cert.selection, blocks=cert.shelling, width=ell), cert.solve_path
