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
  n - min(D, ell) <= |I| <= n - 1 and value zero, built in one pass over
  one pair of sliding windows (the n smallest free weights and positions):
  narrow blocks (width ell) from the word1 construction until they hold
  D - ell indices (none when ell >= D), then wide blocks (width D) from the
  Davenport property on the windows' first D slots until fewer than D
  weights are free, then the longest block prefix, wide blocks first, of
  total size <= n - 1.  The windows index their values, and the wide
  phase's derived sequence w_i * x_h(i) slides with them: a block deletes
  the entries it took and values only the slots that enter the first D.
* ``corollary`` - given m = n + D - 1 and maximal repetition ell attained
  by the final position, an n-subset of [1, m - ell] whose weighted sum is
  (sum of the picked weights) * x_m, with position m in the image.

``solve(inst, statement)`` is the single entry point over the three.  What
a statement asks of a selection (D(G), the size window, the widest
shelling block) comes from one function, ``_rules``, read by the solver,
the verifier and the oracle.  A solve checks the hypotheses, runs the
construction and runs the verifier's selection checks (structure, size
window, anchor, value, shelling) once on its pairs; the certificate
carries the value they recompute.  ``verify_certificate`` adds the
hypotheses, the instance digest and the cached value, and names each
failure in the order it is checked.  The proofs are constructive, so under
the hypotheses a construction cannot miss; if a check rejects one, that is
a bug and it raises TheoremViolation, as ``zerosum._zero_sum`` does for a
zero-sum search inside one.  D(G) is looked up, through ``davenport_get``
and so at most once per group and process, for theorem1 and the corollary
only: word1 does not mention it.  The answer rests on the verifier, not
on a second solver: the exhaustive oracle (``fallback_search``) is the
test-side ground truth only, and no solve calls it.  The constructions
nest as the proofs do (the corollary runs theorem1's on x shifted by x_m,
theorem1's narrow blocks come from word1's) without calling a public
solver.  Each works on raw sequences and returns (i, f(i)) pairs; the
selection is checked and built once, against the caller's Instance.  All
free choices resolve to the lexicographically smallest option, so
identical instances yield byte-identical certificates.

Elements are validated once, when an Instance is built.  After that every
weighted value - of a selection, a shelling block or a derived sequence
entry, and every value the verifier recomputes - comes from one kernel,
``weighted_value``, which trusts its operands.  The oracle is the exception
on purpose: its private core, ``_first_selection``, which the conjecture
scanner also runs on the columns it builds from its own rank tuples, values
each candidate with its own per-coordinate arithmetic on the raw integers.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from bisect import bisect_left
from typing import Sequence

from .davenport import davenport_get
from .errors import (
    InvalidArgument,
    InvalidInstance,
    OracleTooLarge,
    TheoremViolation,
    UnsatisfiableStatement,
)
from .groups import (
    AbelianGroup,
    Element,
    Record,
    _checked_int,
    _checked_ints,
    _checked_record,
    _checked_sequence,
    canonicalize,
    rho,
)
from .zerosum import _zero_sum

STATEMENT_THEOREM1 = "theorem1"
STATEMENT_COROLLARY = "corollary"
STATEMENT_WORD1 = "word1"
STATEMENTS = (STATEMENT_THEOREM1, STATEMENT_COROLLARY, STATEMENT_WORD1)

SOLVE_CONSTRUCTIVE = "constructive"

ORACLE_CAP = 12


class Instance(Record):
    """A sequence over a group, integer weights, and a repetition bound.

    ``w`` may be shorter than ``x`` (the corollary drops the reserved tail),
    so length relations are checked per statement, not here.  ``group``
    must be an AbelianGroup, ``x`` must pass its ``check_elements`` and
    ``w`` and ``ell`` must be a list or tuple of ``int``s and an ``int``
    (InvalidInstance), so the rest trusts them.
    """

    group: AbelianGroup
    x: tuple[Element, ...]
    w: tuple[int, ...]
    ell: int

    def _validate(self) -> None:
        _checked_record(self.group, AbelianGroup, "group", InvalidInstance).check_elements(self.x)
        _checked_ints(self.w, "weight", InvalidInstance)
        _checked_int(self.ell, "ell =", InvalidInstance)

    @property
    def m(self) -> int:
        return len(self.x)


class Selection(Record):
    """Index set plus injection, with the weighted value cached."""

    indices: tuple[int, ...]  # sorted weight indices, 1-based
    images: tuple[int, ...]  # images[j] = f(indices[j]), 1-based positions
    value: Element

    def __len__(self) -> int:
        return len(self.indices)


class Shelling(Record):
    """Ordered partition of a selection's domain into zero-value blocks."""

    selection: Selection
    blocks: tuple[tuple[int, ...], ...]


class Certificate(Record):
    statement: str
    instance_digest: str
    selection: Selection
    shelling: tuple[tuple[int, ...], ...] | None
    solve_path: str
    verified: bool


def instance_digest(inst: Instance) -> str:
    """SHA-256 of the canonical instance data (group in canonical form, so
    presentations that name the same instance hash identically)."""
    _checked_record(inst, Instance, "instance", InvalidInstance)
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
    positions from a map whose structure ``_check_selection`` has passed or
    from the solvers' own pools.
    """
    return tuple([
        sum([w[i - 1] * x[j - 1][c] for i, j in zip(indices, images)]) % d
        for c, d in enumerate(g.invariant_factors)
    ])


class _Window:
    """The word1 construction's view of one pool: the ``size`` smallest
    labels (1-based indices into ``source``) not yet taken, in increasing
    order, with their values and an index of them.

    theorem1 slides one window over the weights (reduced mod n) and one
    over the positions through both of its phases: a block takes a few
    labels, and ``refill`` appends the next untaken ones from a cursor,
    since no label past the window has been taken.  So labels increase with
    the slot, and a label's slot is one bisection of ``labels``.  The index,
    ``labels_of[v]``, lists the labels holding the value v, ascending; its
    length is v's multiplicity.  ``rho``, the largest multiplicity, and
    ``tiers[c]``, the values of multiplicity c, follow every change, so a
    narrow block reads rho and the smallest most-repeated value, and the
    zero-sum kernel where a value occurs, without a pass over the window.
    """

    def __init__(self, group: AbelianGroup, source: Sequence, size: int) -> None:
        self.group = group
        self.source = source
        self.cursor = 0  # labels 1..cursor have entered the window
        self.labels: list[int] = []
        self.values: list = []
        self.labels_of: dict = {}
        self.tiers: list[set] = [set()]
        self.rho = 0
        self.refill(size)

    def refill(self, size: int) -> None:
        """Append untaken labels until the window holds ``size`` (or the
        pool runs out)."""
        start = self.cursor
        self.cursor = min(len(self.source), start + size - len(self.labels))
        added = self.source[start:self.cursor]
        self.labels.extend(range(start + 1, self.cursor + 1))
        self.values.extend(added)
        labels_of, tiers, rho = self.labels_of, self.tiers, self.rho
        for label, v in enumerate(added, start + 1):
            at = labels_of.setdefault(v, [])
            at.append(label)
            c = len(at)
            if c == len(tiers):
                tiers.append(set())
            tiers[c - 1].discard(v)
            tiers[c].add(v)
            if c > rho:
                rho = c
        self.rho = rho

    def take(self, slots: Sequence[int]) -> list[int]:
        """Remove the given 1-based slots; their labels, in slot order."""
        labels = [self.labels[s - 1] for s in slots]
        for s in sorted(slots, reverse=True):
            label = self.labels.pop(s - 1)
            v = self.values.pop(s - 1)
            at = self.labels_of[v]
            c = len(at)
            self.tiers[c].discard(v)
            if c == self.rho and not self.tiers[c]:
                self.rho -= 1
            if c > 1:
                at.remove(label)
                self.tiers[c - 1].add(v)
            else:
                del self.labels_of[v]
        return labels

    def slots_of_most_repeated(self, k: int) -> list[int]:
        """The first k slots holding the smallest value of multiplicity rho."""
        at = self.labels_of[min(self.tiers[self.rho])]
        return [bisect_left(self.labels, label) + 1 for label in at[:k]]

    def zero_sum(self, hi: int) -> tuple[int, ...]:
        """``zerosum._zero_sum`` on the window's values, read through its index."""
        return _zero_sum(self.group, self.values, hi, (self.labels, self.labels_of))


def _word_windows(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int], size: int
) -> tuple[_Window, _Window]:
    """The weights' window (w reduced mod n, over Z_n) and the positions'
    window (x, over g), each over its ``size`` smallest labels."""
    n = g.order
    w_mod_n = [()] * len(w) if n == 1 else [(wi % n,) for wi in w]
    return _Window(canonicalize([n]), w_mod_n, size), _Window(g, x, size)


def _word1_constructive(ws: _Window, xs: _Window) -> list[tuple[int, int]]:
    """The word1 construction on windows of n = |G| weights (mod n) and
    positions with rho(x) <= ell: the slot pairs (i, f(i)) of a selection
    with 1 <= |I| <= rho(x) and value zero."""
    if ws.rho <= xs.rho:
        # a zero-sum subset of the weights mod n, all mapped to one repeated value
        wit = ws.zero_sum(ws.rho)
        return list(zip(wit, xs.slots_of_most_repeated(len(wit))))
    # a short zero-sum subset of x, fed by positions of one repeated weight
    wit = xs.zero_sum(xs.rho)
    return list(zip(ws.slots_of_most_repeated(len(wit)), wit))


def _theorem1_pairs(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int], ell: int, d: int
) -> tuple[list[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """The theorem1 construction on raw sequences with |x| = |w| =
    n + D - min(D, ell) - 1 and maximal repetition of x at most ell: the
    pairs (i, f(i)) of a selection with n - min(D, ell) <= |I| <= n - 1 and
    value zero, and its shelling blocks, in one pass.

    Both phases take blocks from one pair of windows, the n smallest free
    weights and positions, and refill them.  Narrow blocks: while they hold
    fewer than D - ell indices, both windows are full, so the word1
    construction on them yields another block of size <= ell (none when
    ell >= D).  Wide blocks: while D weights are free, the derived sequence
    w_i * x_h(i) over the windows' first D slots (D <= n) has a zero-sum
    block of size <= D (the Davenport property).  Cut: the longest block
    prefix, wide blocks first, of total size <= n - 1; when ell >= D that
    keeps every block, since there are only m = n - 1 weights.
    """
    n = g.order
    ws, xs = _word_windows(g, x, w, n)
    fmap: dict[int, int] = {}
    narrow: list[tuple[int, ...]] = []
    wide: list[tuple[int, ...]] = []
    derived: list[Element] = []  # w_i * x_h(i) over the first D slot pairs
    while len(x) - len(fmap) >= d:
        if len(fmap) < d - ell:  # narrow: word1 on the two full windows
            assert len(ws.labels) == len(xs.labels) == n
            slot_pairs, phase = _word1_constructive(ws, xs), narrow
        else:  # wide: a Davenport zero-sum over the first D slot pairs
            # only the slots that entered the first D since the last block
            # are valued; the block's own slots leave ``derived`` below
            fresh = range(len(derived), d)
            derived += [
                weighted_value(g, w, x, (ws.labels[t],), (xs.labels[t],)) for t in fresh
            ]
            wit = _zero_sum(g, derived, d)
            for t in reversed(wit):
                del derived[t - 1]
            slot_pairs, phase = [(t, t) for t in wit], wide
        block_pairs = list(zip(
            ws.take([s for s, _ in slot_pairs]), xs.take([t for _, t in slot_pairs])
        ))
        fmap.update(block_pairs)
        ws.refill(n)
        xs.refill(n)
        phase.append(tuple([i for i, _ in block_pairs]))

    kept: list[tuple[int, ...]] = []
    total = 0
    for block in wide + narrow:
        if total + len(block) > n - 1:
            break
        kept.append(block)
        total += len(block)
    return [(i, fmap[i]) for block in kept for i in block], tuple(kept)


def _corollary_pairs(inst: Instance, d: int) -> list[tuple[int, int]]:
    """Shift x by x_m, run the theorem1 construction on the positions left
    after reserving the r highest anchor positions, then pad the selection
    to n weights mapped onto reserved positions (m included)."""
    g = inst.group
    n = g.order
    r = min(d, inst.ell)
    anchor = inst.x[-1]
    # reserve the r highest positions carrying the anchor value (m included)
    reserve = [p for p in range(1, inst.m + 1) if inst.x[p - 1] == anchor][-r:]
    reserved = set(reserve)
    keep = [p for p in range(1, inst.m + 1) if p not in reserved]
    # x is validated, so y = x - x_m is taken coordinate by coordinate
    y = [
        tuple([(a - b) % dc for a, b, dc in zip(inst.x[p - 1], anchor, g.invariant_factors)])
        for p in keep
    ]
    inner, _ = _theorem1_pairs(g, y, inst.w, inst.ell, d)
    # outside theorem1's window [n - r, n - 1] the reserve cannot pad it to n
    if not n - r <= len(inner) <= n - 1:
        raise TheoremViolation(
            f"the theorem1 construction inside the corollary missed window [{n - r}, {n - 1}]"
        )

    # an inner image outside [1, len(keep)] becomes position 0, which the
    # verifier rejects as out of range
    pairs = [(i, keep[j - 1] if 1 <= j <= len(keep) else 0) for i, j in inner]
    picked = {i for i, _ in inner}
    free = [i for i in range(1, len(inst.w) + 1) if i not in picked]
    extra = free[: n - len(inner)]
    targets = sorted(reserve[: len(extra) - 1] + [inst.m])
    pairs.extend(zip(extra, targets))
    return pairs


def _rules(inst: Instance, statement: str) -> tuple[int | None, int, int, int | None]:
    """What ``statement`` asks of a selection on ``inst``, as (D, lo, hi,
    width): D(G), None for word1, which does not mention it; the size window
    lo <= |I| <= hi; and the widest shelling block, None for the corollary,
    which has no shelling.  InvalidInstance unless ``inst`` is an Instance,
    InvalidArgument for an unknown statement."""
    n, ell = _checked_record(inst, Instance, "instance", InvalidInstance).group.order, inst.ell
    if statement == STATEMENT_WORD1:
        return None, 1, ell, ell
    if statement not in STATEMENTS:
        raise InvalidArgument(f"unknown statement {statement!r}")
    d = davenport_get(inst.group).value
    if statement == STATEMENT_THEOREM1:
        return d, n - min(d, ell), n - 1, d
    return d, n, n, None


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
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], ...] | None]:
    """The statement's construction on ``inst``: its map as (indices,
    images), sorted by index and not yet checked, and, for theorem1 and
    word1, its shelling blocks."""
    blocks = None
    if statement == STATEMENT_THEOREM1:
        pairs, blocks = _theorem1_pairs(inst.group, inst.x, inst.w, inst.ell, d)
    elif statement == STATEMENT_COROLLARY:
        pairs = _corollary_pairs(inst, d)
    else:
        pairs = _word1_constructive(*_word_windows(inst.group, inst.x, inst.w, inst.m))
    pairs = sorted(pairs)
    indices = tuple([i for i, _ in pairs])
    images = tuple([j for _, j in pairs])
    return (indices, images), (indices,) if statement == STATEMENT_WORD1 else blocks


def fallback_search(inst: Instance, statement: str) -> Selection | None:
    """Exhaustive search over (I, f) pairs; the independent oracle.

    Enumerates index sets in lexicographic order (as sorted tuples) and, per
    set, image tuples in lexicographic order, so the first hit is the
    lexicographically smallest solution.  Returns the empty selection when
    the statement's window admits size 0 and no nonempty solution exists;
    returns None when there is no solution at all.
    """
    g = _checked_record(inst, Instance, "instance", InvalidInstance).group
    if inst.m > ORACLE_CAP:
        raise OracleTooLarge(f"oracle cap is {ORACLE_CAP}, instance has m = {inst.m}")
    _, lo, hi, _ = _rules(inst, statement)
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


def _check_selection(
    inst: Instance, statement: str, rules: tuple[int | None, int, int, int | None],
    indices: Sequence[int], images: Sequence[int],
    shelling: tuple[tuple[int, ...], ...] | None, claimed: Element | None,
) -> tuple[list[str], Element | None]:
    """The checks of a selection (I, f) and its shelling against
    ``statement``'s ``rules`` (``_rules``), from raw instance data, each
    failure named in the order checked: the map's structure (arity, domain
    order, injectivity, index and image range), then the size window, the
    corollary's anchor, the ``claimed`` value (a certificate's; None skips
    it), the value against the statement's target, and the shelling's
    partition, block widths and block values.  I and f that are not lists
    or tuples fail arity, entries that are not ints their range, and a
    shelling that is not lists or tuples of ints its partition.

    Returns the names of the failed checks and the recomputed value, which
    is None when the map is malformed and so cannot be valued.
    """
    sequences = (list, tuple)
    if not isinstance(indices, sequences) or not isinstance(images, sequences) \
            or len(indices) != len(images):
        return ["arity"], None
    index_range = not all(type(i) is int and 1 <= i <= len(inst.w) for i in indices)
    image_range = not all(type(j) is int and 1 <= j <= inst.m for j in images)
    if index_range:  # order and injectivity compare the ints only
        indices = [i for i in indices if type(i) is int]
    if image_range:
        images = [j for j in images if type(j) is int]
    failed: list[str] = []
    if any(a >= b for a, b in zip(indices, indices[1:])):
        failed.append("domain order")
    if len(set(images)) != len(images):
        failed.append("injectivity")
    if index_range:
        failed.append("index range")
    if image_range:
        failed.append("image range")
    if failed:
        return failed, None

    _, lo, hi, width = rules
    if not lo <= len(indices) <= hi:
        failed.append("size window")
    g = inst.group
    target = g.zero()
    if statement == STATEMENT_COROLLARY:
        if inst.m not in images:
            failed.append("anchor position")
        # (sum of the picked weights) * x_m: every picked weight placed on x_m
        target = weighted_value(g, inst.w, inst.x, indices, [inst.m] * len(indices))
    value = weighted_value(g, inst.w, inst.x, indices, images)
    if claimed is not None and claimed != value:
        failed.append("cached value")
    if value != target:
        failed.append("value")

    if shelling is not None:
        blocks = shelling if isinstance(shelling, sequences) else [None]
        if not all(isinstance(b, sequences) and all(type(i) is int for i in b) for b in blocks):
            return failed + ["shelling partition"], value
        flat = [i for block in shelling for i in block]
        if sorted(flat) != list(indices):
            failed.append("shelling partition")
        # the corollary has no shelling, so no block width passes
        if any(width is None or not 1 <= len(block) <= width for block in shelling):
            failed.append("shelling width")
        fmap = dict(zip(indices, images))
        whole = tuple(indices)
        for block in shelling:
            if any(i not in fmap for i in block):
                continue  # partition diagnostic already covers this
            if tuple(block) == whole:  # word1's one block is I: valued above
                block_value = value
            else:
                block_value = weighted_value(g, inst.w, inst.x, block, [fmap[i] for i in block])
            if block_value != g.zero():
                failed.append("shelling block value")
                break
    return failed, value


def verify_certificate(inst: Instance, cert: Certificate) -> tuple[bool, list[str]]:
    """Re-check the statement's hypotheses, the certificate's own instance
    digest and its selection with its cached value (``_check_selection``),
    from raw instance data.

    Returns (ok, diagnostics), naming each failed check in the order made.
    Past failed hypotheses or a wrong digest, only the map's structure is
    reported.  D(G) is looked up for theorem1 and corollary certificates only.
    """
    statement = _checked_record(cert, Certificate, "certificate", InvalidInstance).statement
    sel = _checked_record(cert.selection, Selection, "certificate selection", InvalidInstance)
    try:
        rules = _rules(inst, statement)
    except InvalidArgument as err:
        return False, [str(err)]
    diagnostics: list[str] = []
    try:
        _check_hypotheses(inst, statement, rules[0])
    except (InvalidInstance, UnsatisfiableStatement) as err:
        diagnostics.append(f"hypotheses: {err}")
    if cert.instance_digest != instance_digest(inst):
        diagnostics.append("instance digest")
    failed, value = _check_selection(
        inst, statement, rules, sel.indices, sel.images, cert.shelling, sel.value
    )
    if value is None or not diagnostics:
        diagnostics += failed
    return not diagnostics, diagnostics


def solve(inst: Instance, statement: str) -> Certificate:
    """Verified certificate for ``statement`` (one of STATEMENTS) on ``inst``:
    hypotheses, construction, then the verifier's selection checks, whose
    recomputed value the certificate carries; a construction they reject
    raises TheoremViolation naming the failed checks."""
    d, lo, hi, _ = rules = _rules(inst, statement)
    _check_hypotheses(inst, statement, d)
    (indices, images), blocks = _construct(inst, statement, d)
    failed, value = _check_selection(inst, statement, rules, indices, images, blocks, None)
    if failed:
        raise TheoremViolation(
            f"the {statement} construction gave no valid selection in window "
            f"[{lo}, {hi}] despite its hypotheses: {'; '.join(failed)}"
        )
    return Certificate(
        statement=statement,
        instance_digest=instance_digest(inst),
        selection=Selection(indices=indices, images=images, value=value),
        shelling=blocks,
        solve_path=SOLVE_CONSTRUCTIVE,
        verified=True,
    )


def solve_theorem1(inst: Instance) -> Certificate:
    """Certificate with n - min(D, ell) <= |I| <= n - 1 and value zero."""
    return solve(inst, STATEMENT_THEOREM1)


def solve_corollary(inst: Instance) -> Certificate:
    """Certificate with |I| = n, image containing position m, and weighted
    sum equal to (sum of picked weights) * x_m.

    Raises UnsatisfiableStatement when ell >= D: then m - r = n - 1 and no
    n-subset of [1, m - r] exists.
    """
    return solve(inst, STATEMENT_COROLLARY)


def solve_word1(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int], ell: int
) -> tuple[Shelling, str]:
    """Selection with 1 <= |I| <= ell and value zero, as a one-block shelling.

    Requires |x| = |w| = |G| and maximal repetition of x at most ell; x and
    w must come as lists or tuples (InvalidInstance), as for ``Instance``.
    The word1 ``solve`` wrapped as (shelling, solve_path): the selection has
    passed the verifier and the path is always SOLVE_CONSTRUCTIVE.
    """
    x = tuple(_checked_sequence(x, "element", InvalidInstance))
    w = tuple(_checked_sequence(w, "weight", InvalidInstance))
    cert = solve(Instance(group=g, x=x, w=w, ell=ell), STATEMENT_WORD1)
    return Shelling(selection=cert.selection, blocks=cert.shelling), cert.solve_path
