"""Exhaustive and sampled counterexample scanning for the open conjecture.

The conjecture under test: for a finite abelian group G of order n, any
sequence x of n elements whose maximal repetition is at most k, and any k
integer weights, some nonempty subset I of the weight indices admits an
injection f into positions with sum_{i in I} w_i * x_{f(i)} = 0.

Two regimes are theorems, not conjecture: all weights coprime to n, and
k at least the Davenport constant.  A failing instance inside either regime
contradicts a proved statement, so the scan raises TheoremViolation instead
of recording a counterexample.

Whether a selection exists does not change if x is permuted, if w is
permuted, or if any w_i changes by a multiple of exp(G).  So instances fall
into classes keyed by (sorted ranks of x, sorted w_i mod exp(G)), and a
scan's unit of work is the class, from generation to the report.  Two
actions on classes keep the answer too.  An automorphism phi of G moves an
x-class (count c_r to rank phi(r)): phi(sum w_i * x_f(i)) =
sum w_i * phi(x_f(i)), and phi keeps the maximal repetition.  A unit u mod
exp(G) moves a w-class to u * w: sum (u * w_i) * x_f(i) =
u * sum w_i * x_f(i), which is zero exactly when the sum is.  So the scan
groups its x-classes into orbits under the generators of the group's
H <= Aut(G), and its w-classes into orbits under every unit whose image
class is in the scan, and decides one pair of classes per orbit pair, in
one call per x-orbit: the sorted representative of the x-orbit's first
class against the first class of every w-orbit, each on a vector of the
scan's own weights ordered by residue (the smallest weight of each
residue, or the class's first draw), so the oracle's integer arithmetic
meets the weights themselves, not their residues.  Every class reads its
orbit pair's verdict, in the calling process.

An exhaustive scan makes, counts and walks its x-classes and w-classes
with one engine, ``zsum.classes``.  A sampled scan draws its instances as
``random.Random(seed).choice`` would, keys each draw, groups the classes it
drew into orbits, decides the orbit pairs it drew, and reads the report
back in draw order; every x drawn, kept or not, counts against its budget.
Both modes end in one report builder, fed their counts and three lazy
instance streams.

The scan trusts what it generated: every x it decides is a rank tuple it
built or drew itself, so nothing is re-validated between generation and
decision.  The public edge checks with the rules of ``zsum.groups``:
``conjecture_check_instance`` the weights (a list or tuple of ints), then
x, |x|, k = |w| and the maximal repetition through the bounded finder's
``zerosum._check_full_length``; ``enumerate_zero_selection`` x and the
weights; a ScanConfig, when it is built, every rule of a scan, and it keeps
its ``orders`` and ``weight_values`` in canonical form.  Each pair is
decided by a memoized DFS on element ranks (rank 0 is the zero element)
over (weight index, used-position mask, running-sum rank) states: each
weight value's row of w_i * x_j ranks is read off the group's cached
scaling table (weights reduced mod the exponent, so negative, zero and huge
weights all work) once per x, and the running sum moves through the cached
rank addition table.  The DFS returns the first selection it meets, and
neither verdict is taken on its word.  A "yes" is that selection, checked
with the exhaustive oracle's arithmetic (the one ``fallback_search`` runs
on) on the raw integers: a nonempty I strictly increasing inside [1, k],
distinct images inside [1, n], and value zero in every coordinate.  A "no"
is the oracle's lexicographic enumeration of all (I, f) run to exhaustion.
So each verdict rests on nothing the DFS computed, and a selection that
fails the check, or one the enumeration finds after a "no", aborts the scan
with TheoremViolation.  Counterexamples are, by construction, instances
whose orbit pair's enumeration ran to exhaustion.  A reported witness is
the oracle's lexicographically first selection for its own instance, not
the DFS's, nor one for its class's or orbit's representative.

Reports are deterministic byte-for-byte for a fixed configuration: the
instance order is canonical (x in lexicographic order, weights varying
fastest in product order; a sample in draw order), and volatile data (wall
time, decided orbit pairs) never enters the serialized form.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random
import time
from typing import Callable, Iterable, Iterator, Sequence

from .classes import _class_count, _classes, _multinomial, _orbits, _walk, _word
from .davenport import davenport_get
from .errors import BudgetExceeded, InvalidArgument, InvalidInstance, TheoremViolation
from .groups import (
    AbelianGroup,
    Element,
    Record,
    _checked_int,
    _checked_ints,
    _checked_record,
    canonicalize,
)
from .weighted import Selection, _coordinate_columns, _first_selection, _index_sets
from .zerosum import _check_full_length

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"

DEFAULT_SCAN_BUDGET = 5_000_000
WITNESS_SAMPLE_SIZE = 5
COUNTEREXAMPLE_CAP = 100
RECHECK_TAG = "full enumeration of (I, f) exhausted"


class ScanConfig(Record):
    orders: tuple[int, ...]
    k: int
    weight_values: tuple[int, ...]
    mode: str = MODE_EXHAUSTIVE
    sample_size: int = 0
    seed: int = 0
    # Only the int 1 is accepted: the scan decides in process.  The field is
    # kept for callers that still pass workers=1; the benchmark change
    # (ROADMAP item 1) can drop it.
    workers: int = 1
    budget: int = DEFAULT_SCAN_BUDGET

    def _validate(self) -> None:
        """Every rule of a scan; then the canonical form is stored: ``orders``
        as a tuple, ``weight_values`` sorted without repeats."""
        if _checked_int(self.workers, "workers =", InvalidArgument) != 1:
            raise InvalidArgument(f"workers = {self.workers} must be 1: "
                                  "the scan decides in one process")
        for field in ("k", "sample_size", "budget", "seed"):
            _checked_int(getattr(self, field), f"{field} =", InvalidArgument)
        n = canonicalize(self.orders).order
        if not 1 <= self.k <= n:
            raise InvalidArgument(f"k = {self.k} must lie in [1, {n}]")
        values = tuple(sorted(set(_checked_ints(self.weight_values, "weight value",
                                                InvalidArgument))))
        if not values:
            raise InvalidArgument("weight value set is empty")
        if self.mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):
            raise InvalidArgument(f"unknown mode {self.mode!r}")
        least = 1 if self.mode == MODE_SAMPLED else 0
        if self.sample_size < least:
            raise InvalidArgument(f"sample_size = {self.sample_size} must be >= {least}")
        if self.budget < 1:
            raise InvalidArgument(f"budget = {self.budget} must be >= 1")
        self.__dict__.update(orders=tuple(self.orders), weight_values=values)


class ScanReport(Record):
    config: ScanConfig
    group_orders: tuple[int, ...]
    davenport: int
    subclass_coprime: bool
    subclass_davenport: bool
    checked: int
    counterexample_count: int
    counterexamples: tuple[dict, ...]
    witness_sample: tuple[dict, ...]
    wall_time: float
    authoritative: bool = True
    decided: int = 0  # orbit pairs decided

    def to_json(self) -> dict:
        """Canonical report payload.  Wall time and the decided orbit pairs
        are kept off the wire: the payload is a fact about the instance
        space, byte-identical across reruns.  Wall time and ``decided`` live
        only on the in-memory record.  An exhaustive scan reads no sample
        size or seed, so its payload writes 0 and null for them."""
        sampled = self.config.mode == MODE_SAMPLED
        return {
            "config": {
                "orders": list(self.config.orders),
                "k": self.config.k,
                "weight_values": list(self.config.weight_values),
                "mode": self.config.mode,
                "sample_size": self.config.sample_size if sampled else 0,
                "seed": self.config.seed if sampled else None,
                "budget": self.config.budget,
            },
            "group": {"orders": list(self.group_orders)},
            "davenport": self.davenport,
            "proven_subclass": {
                "all_weights_coprime": self.subclass_coprime,
                "k_at_least_davenport": self.subclass_davenport,
            },
            "authoritative": self.authoritative,
            "checked": self.checked,
            "counterexample_count": self.counterexample_count,
            "counterexamples": list(self.counterexamples),
            "witness_sample": list(self.witness_sample),
        }


def _rank_rows(
    g: AbelianGroup, ranks: Sequence[int], values: Iterable[int]
) -> dict[int, list[int]]:
    """Per weight value v, the ranks of v * x_j: one row of the group's
    scaling table, read at residue v mod the exponent."""
    scale = g.rank_scale_table
    exponent = g.exponent
    return {v: [scale[v % exponent][r] for r in ranks] for v in set(values)}


def _zero_selection_dfs(
    add: list[list[int]], derived: list[list[int]], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Memoized DFS on element ranks (rank 0 is zero) over the rows
    ``derived[i][j]`` = rank of w_i * x_j: the first nonempty I and
    injection f of value zero it meets, as 1-based (indices, images), or
    None.

    A state is (weight index, used-position mask, running-sum rank); the
    mask is nonzero exactly when I is nonempty.  A state is remembered only
    when it fails, since a success ends the search; the selection is read
    off the success path while the recursion unwinds.
    """
    for i, row in enumerate(derived):
        if 0 in row:
            return (i + 1,), (row.index(0) + 1,)
    k = len(derived)
    dead: set[tuple[int, int, int]] = set()

    def walk(i: int, used: int, total: int) -> list[tuple[int, int]] | None:
        """The (index, image) pairs after weight i, deepest first, that
        finish a zero selection from this state, or None."""
        if i == k:
            return [] if used and total == 0 else None
        key = (i, used, total)
        if key in dead:
            return None
        path = walk(i + 1, used, total)
        if path is not None:
            return path
        row = derived[i]
        plus = add[total]
        for j in range(n):
            bit = 1 << j
            if not used & bit:
                path = walk(i + 1, used | bit, plus[row[j]])
                if path is not None:
                    path.append((i + 1, j + 1))
                    return path
        dead.add(key)
        return None

    path, walk = walk(0, 0, 0), None  # walk's closure holds walk: a cycle
    if path is None:
        return None
    path.reverse()
    return tuple([i for i, _ in path]), tuple([j for _, j in path])


def _is_zero_selection(
    columns: list[tuple[list[int], int]], m: int, w: Sequence[int],
    indices: Sequence[int], images: Sequence[int],
) -> bool:
    """Whether (indices, images) is a zero selection for x (as its
    ``_coordinate_columns``, m positions) and w, by the oracle's arithmetic
    on the raw integers: a nonempty I strictly increasing inside [1, |w|],
    as many distinct images inside [1, m], and (sum of w_i * x_f(i)[c])
    mod d_c = 0 in every coordinate c."""
    return (
        0 < len(indices) == len(set(images)) == len(images)
        and 0 < indices[0] and indices[-1] <= len(w)
        and 0 < min(images) and max(images) <= m
        and all(map(operator.lt, indices, indices[1:]))
        and all([sum([w[i - 1] * column[j] for i, j in zip(indices, images)]) % d == 0
                 for column, d in columns])
    )


def _first_zero(
    columns: list[tuple[list[int], int]], m: int, w: Sequence[int]
) -> Selection | None:
    """The oracle on the unrestricted statement: the lexicographically first
    nonempty (I, f) of value zero, or None."""
    return _first_selection(columns, m, w, _index_sets(len(w), 1, len(w)), False)


def enumerate_zero_selection(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> Selection | None:
    """Independent route: lexicographic enumeration over all (I, f), after
    checking x (``check_elements``) and the weights (a list or tuple of
    ``int``)."""
    g.check_elements(x)
    _checked_ints(w, "weight", InvalidInstance)
    return _first_zero(_coordinate_columns(g, x), len(x), w)


def _decide(
    g: AbelianGroup, elements: list[Element], x: Sequence[int], ws: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Decide every weight vector in ``ws`` against one x, given as element
    ranks, which are trusted: per w, the DFS's zero selection as 1-based
    (indices, images), or None.  The DFS's rows are built once per distinct
    weight value and the oracle's columns once for x.  A "yes" is the DFS's
    selection, checked by ``_is_zero_selection``; a "no" is the
    lexicographic enumeration run to exhaustion.  A selection that fails
    the check, or one the enumeration finds after the DFS found none,
    raises TheoremViolation naming x, w and the route that lost."""
    xs = [elements[r] for r in x]
    rows = _rank_rows(g, x, itertools.chain.from_iterable(ws))
    columns = _coordinate_columns(g, xs)
    add = g.rank_add_table
    m = len(x)
    out: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = []
    for w in ws:
        found = _zero_selection_dfs(add, [rows[v] for v in w], m)
        if found is None:
            sel = _first_zero(columns, m, w)
            if sel is not None:
                raise TheoremViolation(
                    f"route disagreement, the DFS lost: it found no zero selection, the "
                    f"enumeration found indices {list(sel.indices)} and images "
                    f"{list(sel.images)}: x={[list(e) for e in xs]}, w={list(w)}")
        elif not _is_zero_selection(columns, m, w, *found):
            raise TheoremViolation(
                f"route disagreement, the DFS lost: its selection, indices {list(found[0])} "
                f"and images {list(found[1])}, is not a zero selection: "
                f"x={[list(e) for e in xs]}, w={list(w)}")
        out.append(found)
    return out


def conjecture_check_instance(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> Selection | None:
    """Verified zero-value selection, or None for a counterexample candidate.

    Checks w (a list or tuple of ints), then the bounded finder's
    hypotheses with k = |w| (``zerosum._check_full_length``).  Decides as
    the scan does (``_decide``), so a wrong DFS verdict raises
    TheoremViolation; a "yes" then returns the oracle's lexicographically
    first selection.
    """
    _check_full_length(g, x, len(_checked_ints(w, "weight", InvalidInstance)))
    index = g.rank_index
    if _decide(g, g.elements(), [index[e] for e in x], [w])[0] is None:
        return None
    return _first_zero(_coordinate_columns(g, x), len(x), w)


def _sample_draws(n: int, config: ScanConfig) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The sampled instances as (ranks of x, w), the draws of
    ``random.Random(seed).choice`` on the group's elements (in rank order)
    and on the weight values.  Each coordinate is drawn the way CPython's
    ``choice`` draws an index: ``getrandbits(size.bit_length())`` until it
    falls below the size; calling ``choice`` itself makes a 2,000-draw scan
    of Z_6 about a third slower.  An x repeating some rank more than k times
    is dropped before its weights are drawn, but counts against the budget
    like a kept one: BudgetExceeded once the budget's x are drawn short of
    the sample."""
    if config.sample_size > config.budget:
        raise BudgetExceeded(f"sample_size {config.sample_size} exceeds budget {config.budget}")
    bits = random.Random(config.seed).getrandbits
    values, k = config.weight_values, config.k
    x_bits, size, w_bits = n.bit_length(), len(values), len(values).bit_length()
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    drawn = 0
    while len(out) < config.sample_size:
        if drawn == config.budget:
            raise BudgetExceeded(f"budget of {drawn} x draws kept {len(out)} of a sample of "
                                 f"{config.sample_size}")
        drawn += 1
        x: list[int] = []
        while len(x) < n:
            r = bits(x_bits)
            if r < n:
                x.append(r)
        ordered = sorted(x)
        if any(map(operator.eq, ordered, ordered[k:])):
            continue  # some rank appears more than k times
        w: list[int] = []
        while len(w) < k:
            r = bits(w_bits)
            if r < size:
                w.append(values[r])
        out.append((tuple(x), tuple(w)))
    return out


def _instance_json(elements: list[Element], x: Sequence[int], w: Sequence[int]) -> dict:
    return {"x": [list(elements[r]) for r in x], "w": list(w)}


def _witness(g: AbelianGroup, elements: list[Element], x: Sequence[int], w: Sequence[int]) -> dict:
    """The oracle's selection for this exact instance, not for its class's
    representative."""
    sel = _first_zero(_coordinate_columns(g, [elements[r] for r in x]), len(x), w)
    return {
        "instance": _instance_json(elements, x, w),
        "selection": {"indices": list(sel.indices), "images": list(sel.images)},
    }


def _proven(residues: Sequence[int], n: int, k: int, d: int) -> bool:
    """A weight class lies in a proven regime: k >= D, or every weight
    coprime to n (which its residue mod exp(G) decides)."""
    return k >= d or all(math.gcd(n, r) == 1 for r in residues)


def _report(
    g: AbelianGroup, config: ScanConfig, d: int, checked: int, failed: int, decided: int,
    violations: Iterable[tuple[Sequence[int], Sequence[int]]],
    failures: Iterable[tuple[Sequence[int], Sequence[int]]],
    successes: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> ScanReport:
    """The report of ``checked`` instances in ``decided`` orbit pairs,
    ``failed`` of them without a selection, from three lazy streams of
    instances (x as ranks, w), each in scan order: the failures in a proven
    regime, the first of which raises TheoremViolation; the failures, the
    first COUNTEREXAMPLE_CAP of them listed; and the instances with a selection,
    the first WITNESS_SAMPLE_SIZE of them reported as witnesses."""
    elements = g.elements()
    first = next(iter(violations), None)
    if first is not None:
        x, w = first
        raise TheoremViolation(
            f"instance in a proven regime has no zero selection: "
            f"x={[list(elements[r]) for r in x]}, w={list(w)}, "
            f"group orders {list(g.invariant_factors)}, k={config.k}, D={d}"
        )
    return ScanReport(
        config=config,
        group_orders=g.invariant_factors,
        davenport=d,
        subclass_coprime=all(math.gcd(g.order, v) == 1 for v in config.weight_values),
        subclass_davenport=config.k >= d,
        checked=checked,
        counterexample_count=failed,
        counterexamples=tuple([
            dict(_instance_json(elements, x, w), recheck=RECHECK_TAG)
            for x, w in itertools.islice(failures, COUNTEREXAMPLE_CAP)
        ]),
        witness_sample=tuple([
            _witness(g, elements, x, w)
            for x, w in itertools.islice(successes, WITNESS_SAMPLE_SIZE)
        ]),
        wall_time=0.0,
        decided=decided,
    )


def _exhaustive(g: AbelianGroup, config: ScanConfig, d: int) -> ScanReport:
    n, k, values, exponent = g.order, config.k, config.weight_values, g.exponent
    residues, sizes = zip(*sorted(collections.Counter([v % exponent for v in values]).items()))
    classes = _class_count(n, k, n) * _class_count(len(residues), k, k)
    if classes > config.budget:
        raise BudgetExceeded(f"exhaustive space has {classes} classes, budget is {config.budget}")

    x_classes = list(_classes(n, k, n))
    # A w-class is decided on the scan's smallest weight of each residue
    # (the values ascend), so the oracle's arithmetic meets the weights
    # themselves; it holds prod(sizes[j] ** m_j) weight vectors per word.
    w_classes = list(_classes(len(residues), k, k))
    w_words = [tuple([residues[j] for j in _word(m)]) for m in w_classes]
    smallest = {v % exponent: v for v in reversed(values)}
    firsts = [tuple(map(smallest.__getitem__, w)) for w in w_words]
    vectors = [_multinomial(m) * math.prod(map(pow, sizes, m)) for m in w_classes]

    # One decision per orbit pair, one call per x-orbit: the sorted
    # representative of its first class against the first class of every
    # w-orbit.  Every class reads its orbit pair's verdict.
    x_roots, w_roots = _orbits(g, x_classes, w_words)
    w_firsts = [i for i, root in enumerate(w_roots) if root == i]
    # The x-classes, by their counts, under the w-classes they fail.
    rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    orbit_fails: dict[int, tuple[int, ...]] = {}  # per x-orbit, by its first class
    checked = failed = 0
    elements = g.elements()
    for i, (counts, root) in enumerate(zip(x_classes, x_roots)):
        if root == i:
            verdicts = _decide(g, elements, _word(counts), [firsts[j] for j in w_firsts])
            failing = {j for j, sel in zip(w_firsts, verdicts) if sel is None}
            orbit_fails[i] = tuple([j for j, w_root in enumerate(w_roots) if w_root in failing])
        fails = orbit_fails[root]
        rows.setdefault(fails, []).append(counts)
        arranged = _multinomial(counts)
        checked += arranged * len(values) ** k
        failed += arranged * sum([vectors[j] for j in fails])

    # The report's instances, in canonical order, lazily: x walks the ranks
    # while its counts fit an x-class with a chosen w-class, and then w
    # walks the weights while its residue counts fit a chosen w-class of
    # x's class.  x-classes with the same chosen w-classes share one list.
    ranks = range(n)
    residue_index = [residues.index(v % exponent) for v in values]

    def instances(
        choose: Callable[[tuple[int, ...]], Sequence[int]]
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        chosen_for: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for fails, members in rows.items():
            chosen = [w_classes[i] for i in choose(fails)]
            if chosen:
                chosen_for.update(dict.fromkeys(members, chosen))
        for x in _walk(ranks, ranks, n, list(chosen_for)):
            for w in _walk(values, residue_index, k, chosen_for[tuple(map(x.count, ranks))]):
                yield x, w

    proven = {i for i, w in enumerate(w_words) if _proven(w, n, k, d)}
    every = set(range(len(w_classes)))
    return _report(g, config, d, checked, failed, len(orbit_fails) * len(w_firsts),
                   instances(lambda fails: [i for i in fails if i in proven]),
                   instances(lambda fails: fails),
                   instances(lambda fails: sorted(every.difference(fails))))


def _sampled(g: AbelianGroup, config: ScanConfig, d: int) -> ScanReport:
    n, k, exponent = g.order, config.k, g.exponent
    draws = _sample_draws(n, config)

    # Key every draw, each distinct w once; a w-class keeps its first draw,
    # ordered by residue like an exhaustive scan's weights.  The drawn
    # classes fall into orbits, and each x-orbit is decided in one call, its
    # first class's sorted ranks against the first draw of every w-orbit
    # drawn with one of its classes.
    w_keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    first_w: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in dict.fromkeys([w for _, w in draws]):
        w_key = w_keys[w] = tuple(sorted([v % exponent for v in w]))
        first_w.setdefault(w_key, tuple(sorted(w, key=lambda v: v % exponent)))
    keys = [(tuple(sorted(x)), w_keys[w]) for x, w in draws]
    x_classes, w_classes = list(dict.fromkeys([x for x, _ in keys])), list(first_w)
    x_roots, w_roots = _orbits(g, [tuple(map(x.count, range(n))) for x in x_classes], w_classes)
    x_root = dict(zip(x_classes, [x_classes[i] for i in x_roots]))
    w_root = dict(zip(w_classes, [w_classes[i] for i in w_roots]))
    wanted: dict[tuple[int, ...], dict[tuple[int, ...], None]] = {}
    for x_key, w_key in dict.fromkeys(keys):
        wanted.setdefault(x_root[x_key], {})[w_root[w_key]] = None
    verdicts: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
    elements = g.elements()
    for x, ws in wanted.items():
        for w_key, sel in zip(ws, _decide(g, elements, x, [first_w[w] for w in ws])):
            verdicts[x, w_key] = sel is not None

    # Every draw reads its orbit pair's decision, in draw order.
    found = [verdicts[x_root[x_key], w_root[w_key]] for x_key, w_key in keys]
    failures = [(draw, w_key) for draw, (_, w_key), ok in zip(draws, keys, found) if not ok]
    return _report(g, config, d, len(draws), len(failures), len(verdicts),
                   (draw for draw, w_key in failures if _proven(w_key, n, k, d)),
                   (draw for draw, _ in failures),
                   itertools.compress(draws, found))


def conjecture_scan(config: ScanConfig) -> ScanReport:
    """Run the scan; returns a deterministic report.

    Raises BudgetExceeded (carrying an empty report flagged non-authoritative)
    when the scan exceeds the budget (classes for an exhaustive scan, x
    draws, kept or not, for a sampled one), and TheoremViolation if any failing
    instance lies in a proven regime or the DFS and the oracle disagree on an
    orbit pair.
    """
    started = time.perf_counter()
    _checked_record(config, ScanConfig, "scan config", InvalidArgument)
    g = canonicalize(config.orders)
    d = davenport_get(g).value
    scan = _exhaustive if config.mode == MODE_EXHAUSTIVE else _sampled
    try:
        report = scan(g, config, d)
    except BudgetExceeded as err:
        err.report = _report(g, config, d, 0, 0, 0, (), (), ()).replace(authoritative=False)
        raise
    return report.replace(wall_time=time.perf_counter() - started)
