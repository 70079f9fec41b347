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
into classes keyed by (sorted ranks of x, sorted w_i mod exp(G)), and a scan
keeps one table of classes, in the calling process: every class is decided
once, twice over by independent routes, and every other instance of the
class reads that decision.  A scan's unit of work is a run of equal x (an
exhaustive scan's weights vary fastest, so each admissible x heads a run of
up to |values|^k weight vectors, and its runs share one list, whose keys are
worked out once; a sampled instance is a run of its own).  The first pass
keys every run and collects each class the first time a run meets it,
grouped by x.  Those groups are decided in process, or as contiguous slices
on a pool of worker processes no larger than the machine; a worker only
decides.  The rank lookup that keys x checks its entries; when x heads a
group, it is validated once more for the group: its length, its maximal
repetition, and its entries again by the oracle's own ``check_element``.
The first route is a memoized DFS on element ranks (rank 0 is the zero
element) over (weight index, used-position mask, running-sum rank) states:
each weight value's row of w_i * x_j ranks is read off the group's cached
scaling table (weights reduced mod the exponent, so negative, zero and huge
weights all work) once per group, and the running sum moves through the
cached rank addition table.  The second route is an independent
lexicographic enumeration of all (I, f) pairs on the exhaustive oracle's
core (the one ``fallback_search`` runs on), which values every candidate
with its own per-coordinate arithmetic on the raw integers, so it trusts
nothing the DFS computed.  Disagreement aborts the scan.  The second pass
reads every instance's decision from the table, in canonical order.
Counterexamples are, by construction, instances whose class's enumeration
ran to exhaustion.  A reported witness is the oracle's selection for its
own instance, not for its class's representative.

Reports are deterministic byte-for-byte for a fixed configuration: the
instance order is canonical (weights vary fastest), and volatile data (wall
time, worker count, decided classes) never enters the serialized form.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .davenport import davenport_get
from .errors import (
    BudgetExceeded,
    InvalidArgument,
    InvalidElement,
    InvalidInstance,
    TheoremViolation,
)
from .groups import AbelianGroup, Element, canonicalize, rho
from .weighted import Selection, _zero_selection_oracle

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"

DEFAULT_SCAN_BUDGET = 5_000_000
WITNESS_SAMPLE_SIZE = 5
COUNTEREXAMPLE_CAP = 100
RECHECK_TAG = "full enumeration of (I, f) exhausted"


@dataclass(frozen=True)
class ScanConfig:
    orders: tuple[int, ...]
    k: int
    weight_values: tuple[int, ...]
    mode: str = MODE_EXHAUSTIVE
    sample_size: int = 0
    seed: int = 0
    workers: int = 1
    budget: int = DEFAULT_SCAN_BUDGET


@dataclass(frozen=True)
class ScanReport:
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
    decided: int = 0  # classes in the scan's table; the same for any worker count

    def to_json(self) -> dict:
        """Canonical report payload.  Wall time, worker count and the
        decided-class count are kept off the wire: the payload is a fact
        about the instance space, byte-identical across reruns and worker
        counts.  Wall time and ``decided`` live only on the in-memory
        record."""
        return {
            "config": {
                "orders": list(self.config.orders),
                "k": self.config.k,
                "weight_values": list(self.config.weight_values),
                "mode": self.config.mode,
                "sample_size": self.config.sample_size,
                "seed": self.config.seed if self.config.mode == MODE_SAMPLED else None,
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


def _ranks(g: AbelianGroup, x: Sequence[Element]) -> list[int]:
    index = g.rank_index
    try:
        return [index[e] for e in x]
    except KeyError:
        bad = next(e for e in x if e not in index)
        g.check_element(bad)  # names the wrong arity or residue
        raise InvalidElement(f"{bad!r} is not an element of {g.describe()}") from None


def _rank_rows(
    g: AbelianGroup, ranks: Sequence[int], values: Iterable[int]
) -> dict[int, list[int]]:
    """Per weight value v, the ranks of v * x_j: one row of the group's
    scaling table, read at residue v mod the exponent."""
    scale = g.rank_scale_table
    exponent = g.exponent
    return {v: [scale[v % exponent][r] for r in ranks] for v in set(values)}


def _zero_selection_dfs(add: list[list[int]], derived: list[list[int]], n: int) -> bool:
    """Memoized DFS on element ranks (rank 0 is zero) over the rows
    ``derived[i][j]`` = rank of w_i * x_j: does some nonempty I and
    injection f give value zero?

    A state is (weight index, used-position mask, running-sum rank); the
    mask is nonzero exactly when I is nonempty.
    """
    if any(0 in row for row in derived):
        return True
    k = len(derived)
    memo: dict[tuple[int, int, int], bool] = {}

    def walk(i: int, used: int, total: int) -> bool:
        if i == k:
            return used != 0 and total == 0
        key = (i, used, total)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = walk(i + 1, used, total)
        if not result:
            row = derived[i]
            plus = add[total]
            for j in range(n):
                bit = 1 << j
                if used & bit:
                    continue
                if walk(i + 1, used | bit, plus[row[j]]):
                    result = True
                    break
        memo[key] = result
        return result

    return walk(0, 0, 0)


def _has_zero_selection(g: AbelianGroup, x: Sequence[Element], w: Sequence[int]) -> bool:
    """The DFS route for one (x, w).  Looking up the ranks of x is its
    validation: an entry that is not an element of G raises InvalidElement."""
    rows = _rank_rows(g, _ranks(g, x), w)
    return _zero_selection_dfs(g.rank_add_table, [rows[v] for v in w], len(x))


def enumerate_zero_selection(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> Selection | None:
    """Independent route: lexicographic enumeration over all (I, f)."""
    return _zero_selection_oracle(g, x)(w)


def _check_sequence(
    g: AbelianGroup, x: Sequence[Element], ws: Sequence[Sequence[int]]
) -> list[Selection | None]:
    """Decide every weight vector in ``ws`` against one sequence x.

    x is validated once for all of them: its length, its maximal repetition
    against each |w|, and its entries, first by the oracle's own check and
    then by the DFS's rank lookup.  The DFS's weight rows are built once per
    distinct weight value.  Each w is then decided by the DFS and by the
    lexicographic enumeration; the two must agree or an AssertionError is
    raised.
    """
    n = g.order
    if len(x) != n:
        raise InvalidInstance(f"need |x| = |G| = {n}, got {len(x)}")
    repetition = rho(x)
    for w in ws:
        if not 1 <= len(w) <= n:
            raise InvalidInstance(f"need 1 <= k <= n = {n}, got k = {len(w)}")
        if repetition > len(w):
            raise InvalidInstance(f"maximal repetition {repetition} exceeds k = {len(w)}")
    oracle = _zero_selection_oracle(g, x)
    rows = _rank_rows(g, _ranks(g, x), itertools.chain.from_iterable(ws))
    add = g.rank_add_table
    out: list[Selection | None] = []
    for w in ws:
        fast = _zero_selection_dfs(add, [rows[v] for v in w], n)
        sel = oracle(w)
        if fast and sel is None:
            raise AssertionError(f"DFS found a selection but enumeration did not: x={x!r}, w={w!r}")
        if not fast and sel is not None:
            raise AssertionError(f"enumeration found {sel!r} but DFS said none: x={x!r}, w={w!r}")
        out.append(sel)
    return out


def conjecture_check_instance(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> Selection | None:
    """Verified zero-value selection, or None for a counterexample candidate.

    Requires |x| = |G|, 1 <= |w| <= |G|, maximal repetition of x at most
    |w|, and elements of G (InvalidElement otherwise).  Decides via the
    memoized DFS, then confirms by lexicographic enumeration; the two routes
    must agree or an AssertionError is raised.
    """
    return _check_sequence(g, x, [w])[0]


def _validated(config: ScanConfig) -> tuple[AbelianGroup, ScanConfig]:
    g = canonicalize(config.orders)
    n = g.order
    if not 1 <= config.k <= n:
        raise InvalidArgument(f"k = {config.k} must lie in [1, {n}]")
    values = tuple(sorted(set(config.weight_values)))
    if not values:
        raise InvalidArgument("weight value set is empty")
    if config.mode not in (MODE_EXHAUSTIVE, MODE_SAMPLED):
        raise InvalidArgument(f"unknown mode {config.mode!r}")
    if config.mode == MODE_SAMPLED and config.sample_size < 1:
        raise InvalidArgument(f"sample_size = {config.sample_size} must be >= 1")
    if config.workers < 1:
        raise InvalidArgument(f"workers = {config.workers} must be >= 1")
    if config.budget < 1:
        raise InvalidArgument(f"budget = {config.budget} must be >= 1")
    return g, replace(config, orders=tuple(config.orders), weight_values=values)


def _empty_report(g: AbelianGroup, config: ScanConfig, d: int) -> ScanReport:
    n = g.order
    return ScanReport(
        config=config,
        group_orders=g.invariant_factors,
        davenport=d,
        subclass_coprime=all(math.gcd(n, v) == 1 for v in config.weight_values),
        subclass_davenport=config.k >= d,
        checked=0,
        counterexample_count=0,
        counterexamples=(),
        witness_sample=(),
        wall_time=0.0,
        authoritative=False,
    )


def _admissible_x(g: AbelianGroup, k: int) -> list[tuple[Element, ...]]:
    return [
        x for x in itertools.product(g.elements(), repeat=g.order) if rho(x) <= k
    ]


Run = tuple[tuple[Element, ...], Sequence[tuple[int, ...]]]


def _sample_instances(
    g: AbelianGroup, config: ScanConfig
) -> list[tuple[tuple[Element, ...], tuple[int, ...]]]:
    rng = random.Random(config.seed)
    elements = list(g.elements())
    n = g.order
    out: list[tuple[tuple[Element, ...], tuple[int, ...]]] = []
    while len(out) < config.sample_size:
        x = tuple(rng.choice(elements) for _ in range(n))
        if rho(x) > config.k:
            continue
        w = tuple(rng.choice(config.weight_values) for _ in range(config.k))
        out.append((x, w))
    return out


def _instance_json(x: tuple[Element, ...], w: tuple[int, ...]) -> dict:
    return {"x": [list(e) for e in x], "w": list(w)}


def _weight_keys(ws: Sequence[Sequence[int]], exponent: int) -> list[tuple[int, ...]]:
    """Each w's part of its class key: sorted w_i mod exp(G)."""
    return [tuple(sorted([v % exponent for v in w])) for w in ws]


def _decide(orders: tuple[int, ...], groups: list[Run]) -> list[bool]:
    """Whether each w of each (x, ws) group, in order, has a zero selection,
    by ``_check_sequence``: all a worker process does."""
    g = canonicalize(orders)
    return [sel is not None for x, ws in groups for sel in _check_sequence(g, x, ws)]


def conjecture_scan(config: ScanConfig) -> ScanReport:
    """Run the scan; returns a deterministic report.

    Raises BudgetExceeded (carrying an empty report flagged non-authoritative)
    when the instance space exceeds the budget, and TheoremViolation if any
    failing instance lies in a proven regime.
    """
    started = time.perf_counter()
    g, config = _validated(config)
    n = g.order
    d = davenport_get(g).value

    if config.mode == MODE_EXHAUSTIVE:
        ceiling = (n**n) * (len(config.weight_values) ** config.k)
        if ceiling > config.budget:
            raise BudgetExceeded(
                f"exhaustive space has up to {ceiling} instances, budget is {config.budget}",
                report=_empty_report(g, config, d),
            )
        ws = list(itertools.product(config.weight_values, repeat=config.k))
        runs = [(x, ws) for x in _admissible_x(g, config.k)]
    else:
        if config.sample_size > config.budget:
            raise BudgetExceeded(
                f"sample_size {config.sample_size} exceeds budget {config.budget}",
                report=_empty_report(g, config, d),
            )
        runs = [(x, [w]) for x, w in _sample_instances(g, config)]

    # Pass 1: key every run, and collect each class the first time a run
    # meets it, grouped by x.  A class is None in the table until decided.
    exponent = g.exponent
    table: dict[tuple[int, ...], dict[tuple[int, ...], bool | None]] = {}
    rows = []  # per run, its x's row of the table
    groups: list[Run] = []  # (x, the first w of each class it is the first to meet)
    group_rows = []
    keyed = None
    for run in runs:
        x, ws = run
        if ws is not keyed:  # an exhaustive scan's runs share one ws list
            keyed, classes = ws, {}
            for key, w in zip(_weight_keys(ws, exponent), ws):
                classes.setdefault(key, w)  # each key's first weight vector
        known = table.setdefault(tuple(sorted(_ranks(g, x))), {})
        fresh = [key for key in classes if key not in known]
        if fresh:
            known.update(dict.fromkeys(fresh))
            # a run whose every w opens a class of its own is its own group
            groups.append(run if len(fresh) == len(ws) else (x, [classes[key] for key in fresh]))
            group_rows.append(known)
        rows.append(known)

    # Deciding: contiguous slices of the groups, in process or on a pool no
    # larger than the machine.
    parts = min(config.workers, os.cpu_count() or 1)
    chunk = max(math.ceil(len(groups) / parts), 1)
    slices = [groups[lo:lo + chunk] for lo in range(0, len(groups), chunk)]
    if len(slices) <= 1:
        verdicts = [_decide(config.orders, part) for part in slices]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            verdicts = list(pool.map(_decide, [config.orders] * len(slices), slices))
    found = itertools.chain.from_iterable(verdicts)
    for (_, ws), known in zip(groups, group_rows):
        known.update(zip(_weight_keys(ws, exponent), found))  # takes len(ws) verdicts

    # Pass 2: every instance reads its class's decision, in canonical order.
    checked = 0
    counterexamples: list[dict] = []
    witnesses: list[dict] = []
    keyed = None
    for (x, ws), known in zip(runs, rows):
        checked += len(ws)
        if len(witnesses) >= WITNESS_SAMPLE_SIZE and all(known.values()):
            continue  # nothing of this run is reported
        if ws is not keyed:
            keyed, keys = ws, _weight_keys(ws, exponent)
        for key, w in zip(keys, ws):
            if not known[key]:
                counterexamples.append(dict(_instance_json(x, w), recheck=RECHECK_TAG))
            elif len(witnesses) < WITNESS_SAMPLE_SIZE:
                sel = enumerate_zero_selection(g, x, w)
                witnesses.append(
                    {
                        "instance": _instance_json(x, w),
                        "selection": {
                            "indices": list(sel.indices),
                            "images": list(sel.images),
                        },
                    }
                )

    for ce in counterexamples:
        w = ce["w"]
        if config.k >= d or all(math.gcd(n, wi) == 1 for wi in w):
            raise TheoremViolation(
                f"instance in a proven regime has no zero selection: x={ce['x']}, w={w}, "
                f"group orders {list(g.invariant_factors)}, k={config.k}, D={d}"
            )

    return replace(
        _empty_report(g, config, d),
        checked=checked,
        counterexample_count=len(counterexamples),
        counterexamples=tuple(counterexamples[:COUNTEREXAMPLE_CAP]),
        witness_sample=tuple(witnesses),
        wall_time=time.perf_counter() - started,
        authoritative=True,
        decided=sum(len(ws) for _, ws in groups),
    )
