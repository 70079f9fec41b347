"""Exhaustive and sampled counterexample scanning for the open conjecture.

The conjecture under test: for a finite abelian group G of order n, any
sequence x of n elements whose maximal repetition is at most k, and any k
integer weights, some nonempty subset I of the weight indices admits an
injection f into positions with sum_{i in I} w_i * x_{f(i)} = 0.

Two regimes are theorems, not conjecture: all weights coprime to n, and
k at least the Davenport constant.  A failing instance inside either regime
contradicts a proved statement, so the scan raises TheoremViolation instead
of recording a counterexample.

Every instance is decided twice by independent routes.  The first is a
memoized DFS on element ranks (rank 0 is the zero element) over
(weight index, used-position mask, running-sum rank) states: each weight's
row of w_i * x_j ranks is read off the group's cached scaling table (weights
reduced mod the exponent, so negative, zero and huge weights all work), and
the running sum moves through the cached rank addition table.  Looking up
the ranks of x validates it, once per instance.  The second route is a
from-scratch lexicographic enumeration of all (I, f) pairs through
``fallback_search``, which builds its own ``Instance`` and computes every
candidate with its own arithmetic, so it trusts nothing the DFS computed.
Disagreement aborts the scan.  Counterexamples are, by construction,
instances whose enumeration ran to exhaustion.

Reports are deterministic byte-for-byte for a fixed configuration: the
instance order is canonical (weights vary fastest), shards are contiguous
index ranges mapped to workers in order and concatenated back in order, and
volatile data (wall time, worker count) never enters the serialized form.
The admissible x list of an exhaustive scan is built once per shard: once
in total when the shards run in process.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

from .davenport import davenport_get
from .errors import (
    BudgetExceeded,
    InvalidArgument,
    InvalidElement,
    InvalidInstance,
    TheoremViolation,
)
from .groups import AbelianGroup, Element, canonicalize, rho
from .weighted import Instance, Selection, STATEMENT_WORD1, fallback_search

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

    def to_json(self) -> dict:
        """Canonical report payload.  Wall time and worker count are kept
        off the wire so reruns and different parallelism stay byte-identical;
        wall time lives only on the in-memory record."""
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


def _has_zero_selection(g: AbelianGroup, x: Sequence[Element], w: Sequence[int]) -> bool:
    """Memoized DFS on element ranks (rank 0 is zero): does some nonempty I
    and injection f give value zero?

    A state is (weight index, used-position mask, running-sum rank); the
    mask is nonzero exactly when I is nonempty.  Looking up the ranks of x
    is its one validation: an entry that is not an element of G raises
    InvalidElement.
    """
    n = len(x)
    k = len(w)
    ranks = _ranks(g, x)
    add = g.rank_add_table
    scale = g.rank_scale_table
    exponent = g.exponent
    derived = [[scale[wi % exponent][r] for r in ranks] for wi in w]
    if any(0 in row for row in derived):
        return True

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


def enumerate_zero_selection(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> Selection | None:
    """Independent route: lexicographic enumeration over all (I, f)."""
    inst = Instance(group=g, x=tuple(x), w=tuple(w), ell=len(w))
    return fallback_search(
        inst, STATEMENT_WORD1, window=(1, len(w)), oracle_cap=max(len(x), 1)
    )


def conjecture_check_instance(
    g: AbelianGroup, x: Sequence[Element], w: Sequence[int]
) -> Selection | None:
    """Verified zero-value selection, or None for a counterexample candidate.

    Requires |x| = |G|, 1 <= |w| <= |G|, maximal repetition of x at most
    |w|, and elements of G (checked once, by the DFS's rank lookup;
    InvalidElement otherwise).  Decides via the memoized DFS, then confirms
    by lexicographic enumeration; the two routes must agree or an
    AssertionError is raised.
    """
    n = g.order
    k = len(w)
    if len(x) != n:
        raise InvalidInstance(f"need |x| = |G| = {n}, got {len(x)}")
    if not 1 <= k <= n:
        raise InvalidInstance(f"need 1 <= k <= n = {n}, got k = {k}")
    if rho(x) > k:
        raise InvalidInstance(f"maximal repetition {rho(x)} exceeds k = {k}")

    fast = _has_zero_selection(g, x, w)
    sel = enumerate_zero_selection(g, x, w)
    if fast and sel is None:
        raise AssertionError(f"DFS found a selection but enumeration did not: x={x!r}, w={w!r}")
    if not fast and sel is not None:
        raise AssertionError(f"enumeration found {sel!r} but DFS said none: x={x!r}, w={w!r}")
    return sel


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
    return g, ScanConfig(
        orders=tuple(config.orders),
        k=config.k,
        weight_values=values,
        mode=config.mode,
        sample_size=config.sample_size,
        seed=config.seed,
        workers=config.workers,
        budget=config.budget,
    )


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


def _exhaustive_slice(
    xs: list[tuple[Element, ...]], config: ScanConfig, start: int, end: int
) -> Iterator[tuple[tuple[Element, ...], tuple[int, ...]]]:
    ws = list(itertools.product(config.weight_values, repeat=config.k))
    w_count = len(ws)
    for flat in range(start, end):
        yield xs[flat // w_count], ws[flat % w_count]


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


def _scan_worker(payload: dict, xs: list[tuple[Element, ...]] | None = None) -> dict:
    """Check one contiguous shard; returns JSON-safe partial results.

    ``xs`` is the admissible x list of an exhaustive scan when the caller
    has built it already (shards checked in process); a worker process
    builds its own.
    """
    g = canonicalize(payload["orders"])
    config = ScanConfig(
        orders=tuple(payload["orders"]),
        k=payload["k"],
        weight_values=tuple(payload["values"]),
        mode=payload["mode"],
        sample_size=payload.get("sample_size", 0),
        seed=payload.get("seed", 0),
    )
    if payload["mode"] == MODE_EXHAUSTIVE:
        if xs is None:
            xs = _admissible_x(g, config.k)
        pairs: Iterator = _exhaustive_slice(xs, config, payload["start"], payload["end"])
    else:
        pairs = iter(_sample_instances(g, config)[payload["start"] : payload["end"]])
    checked = 0
    counterexamples: list[dict] = []
    witnesses: list[dict] = []
    for x, w in pairs:
        sel = conjecture_check_instance(g, x, w)
        checked += 1
        if sel is None:
            counterexamples.append(dict(_instance_json(x, w), recheck=RECHECK_TAG))
        elif len(witnesses) < WITNESS_SAMPLE_SIZE:
            witnesses.append(
                {
                    "instance": _instance_json(x, w),
                    "selection": {
                        "indices": list(sel.indices),
                        "images": list(sel.images),
                    },
                }
            )
    return {"checked": checked, "counterexamples": counterexamples, "witnesses": witnesses}


def _shards(total: int, workers: int) -> list[tuple[int, int]]:
    if total == 0:
        return []
    chunk = max(math.ceil(total / workers), 1)
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


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
        xs = _admissible_x(g, config.k)
        total = len(xs) * (len(config.weight_values) ** config.k)
    else:
        xs = None
        if config.sample_size > config.budget:
            raise BudgetExceeded(
                f"sample_size {config.sample_size} exceeds budget {config.budget}",
                report=_empty_report(g, config, d),
            )
        total = config.sample_size

    base = {
        "orders": list(config.orders),
        "k": config.k,
        "values": list(config.weight_values),
        "mode": config.mode,
        "sample_size": config.sample_size,
        "seed": config.seed,
    }
    payloads = [dict(base, start=lo, end=hi) for lo, hi in _shards(total, config.workers)]

    if config.workers == 1 or len(payloads) <= 1:
        results = [_scan_worker(p, xs) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_scan_worker, payloads))

    checked = sum(r["checked"] for r in results)
    counterexamples: list[dict] = []
    witnesses: list[dict] = []
    for r in results:
        counterexamples.extend(r["counterexamples"])
        for item in r["witnesses"]:
            if len(witnesses) < WITNESS_SAMPLE_SIZE:
                witnesses.append(item)

    for ce in counterexamples:
        w = ce["w"]
        if config.k >= d or all(math.gcd(n, wi) == 1 for wi in w):
            raise TheoremViolation(
                f"instance in a proven regime has no zero selection: x={ce['x']}, w={w}, "
                f"group orders {list(g.invariant_factors)}, k={config.k}, D={d}"
            )

    return ScanReport(
        config=config,
        group_orders=g.invariant_factors,
        davenport=d,
        subclass_coprime=all(math.gcd(n, v) == 1 for v in config.weight_values),
        subclass_davenport=config.k >= d,
        checked=checked,
        counterexample_count=len(counterexamples),
        counterexamples=tuple(counterexamples[:COUNTEREXAMPLE_CAP]),
        witness_sample=tuple(witnesses),
        wall_time=time.perf_counter() - started,
    )
