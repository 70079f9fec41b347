"""Seeded inputs for the benchmark workloads.

Every generator builds an instance that meets its statement's preconditions
by construction, from the benchmark's own group tables; nothing is drawn and
then filtered through the library.  The same seed always gives the same
inputs.  Instances are plain JSON-shaped dicts in the format that
``zsum solve --instance`` reads, so the in-process and the CLI workloads
share one generator.
"""

from __future__ import annotations

import itertools
import random

STATEMENTS = ("theorem1", "corollary", "word1")
ELLS = (2, 5)

# certify: cyclic Z_16..Z_128, rank 2 and rank 3.  Z_2xZ_2xZ_6 is the one
# group here without a closed form; its exact D takes about 0.15 s, so it
# stays in.  Z_2^3xZ_6 (about 100 s) is left out on purpose.
CERTIFY_GROUPS = (
    (16,), (24,), (32,), (48,), (64,), (128,),
    (4, 8), (8, 8), (6, 12),
    (2, 4, 8), (3, 3, 9), (2, 2, 6),
)
# Cells on Z_64 and Z_128 take 0.1-1 s each, so they get one instance per
# (statement, ell) cell and every other group gets two; on Z_128, theorem1
# and the corollary run at ell = 5 only (the ROADMAP's reference case).
CERTIFY_SINGLE = ((64,), (128,))
CERTIFY_Z128_ELLS = {"theorem1": (5,), "corollary": (5,), "word1": ELLS}

# cli-roundtrip: order <= 32, all with a closed form, so each CLI process
# spends its time on start-up, import and file I/O, not on a search.
CLI_GROUPS = ((8,), (16,), (32,), (4, 4), (2, 8), (2, 2, 8))

# davenport-census: every group of order <= CENSUS_MAX_ORDER.
CENSUS_MAX_ORDER = 26

# scan: (orders, k, mode, sample_size); weights are 1..n-1 as in the CLI.
SCAN_CONFIGS = (
    ((4,), 2, "exhaustive", 0),
    ((4,), 3, "exhaustive", 0),
    ((4,), 4, "exhaustive", 0),
    ((2, 2), 3, "exhaustive", 0),
    ((5,), 2, "exhaustive", 0),
    ((6,), 2, "sampled", 2000),
)

# The only group in the benchmark without a closed form for D.
PINNED_DAVENPORT = {(2, 2, 6): 8}


def factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_of(factors: tuple[int, ...]) -> int:
    n = 1
    for d in factors:
        n *= d
    return n


def closed_form_davenport(factors: tuple[int, ...]) -> int | None:
    """Cyclic: n.  Rank two: d1 + d2 - 1.  p-groups: 1 + sum(d_i - 1)."""
    if len(factors) <= 1:
        return order_of(factors)
    if len(factors) == 2:
        return factors[0] + factors[1] - 1
    primes = set()
    for d in factors:
        primes.update(factorint(d))
    if len(primes) == 1:
        return 1 + sum(d - 1 for d in factors)
    return None


def davenport(factors: tuple[int, ...]) -> int:
    value = closed_form_davenport(factors)
    return value if value is not None else PINNED_DAVENPORT[factors]


def elements(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(d) for d in factors)))


def invariant_chains(max_order: int) -> list[tuple[int, ...]]:
    """Every chain d_1 | d_2 | ... (each >= 2) of product <= max_order,
    i.e. one entry per abelian group; the trivial group is ()."""

    def chains(rem: int, prev: int):
        if rem == 1:
            yield ()
            return
        for d in range(2, rem + 1):
            if rem % d == 0 and d % prev == 0:
                for tail in chains(rem // d, d):
                    yield (d,) + tail

    return [c for q in range(1, max_order + 1) for c in chains(q, 1)]


def _capped(rng: random.Random, pool: list, length: int, cap: int) -> list:
    """``length`` draws from ``pool`` with no value drawn more than ``cap``
    times (the pool must hold enough room)."""
    counts: dict = {}
    out = []
    for _ in range(length):
        while True:
            e = rng.choice(pool)
            if counts.get(e, 0) < cap:
                break
        counts[e] = counts.get(e, 0) + 1
        out.append(e)
    return out


def make_instance(rng: random.Random, statement: str, factors: tuple[int, ...], ell: int) -> dict:
    """One valid instance.

    theorem1: m = n + D - min(D, ell) - 1 and rho(x) <= ell.
    corollary: m = n + D - 1, rho(x) = ell < D, attained by position m;
      the anchor is placed exactly ell times, the last copy at position m.
    word1: |x| = |w| = n and rho(x) <= ell.
    """
    n = order_of(factors)
    d = davenport(factors)
    elems = elements(factors)
    if statement == "theorem1":
        m = n + d - min(d, ell) - 1
        x = _capped(rng, elems, m, ell)
        w_len = m
    elif statement == "corollary":
        if ell >= d:
            raise ValueError(f"corollary needs ell < D, got ell={ell}, D={d}")
        m = n + d - 1
        anchor = rng.choice(elems)
        x = _capped(rng, [e for e in elems if e != anchor], m - ell, ell)
        for _ in range(ell - 1):
            x.insert(rng.randrange(len(x) + 1), anchor)
        x.append(anchor)
        w_len = m - ell
    elif statement == "word1":
        x = _capped(rng, elems, n, ell)
        w_len = n
    else:
        raise ValueError(f"unknown statement {statement!r}")
    w = [rng.randrange(1, 2 * n) for _ in range(w_len)]
    return {
        "statement": statement,
        "group": {"orders": list(factors)},
        "x": [list(e) for e in x],
        "w": w,
        "ell": ell,
    }


def certify_pool(seed: int) -> list[dict]:
    """130 instances over the (group, statement, ell) cells; the seed picks
    the contents and the order."""
    rng = random.Random(f"certify:{seed}")
    pool = [
        make_instance(rng, statement, factors, ell)
        for factors in CERTIFY_GROUPS
        for statement in STATEMENTS
        for ell in (CERTIFY_Z128_ELLS[statement] if factors == (128,) else ELLS)
        for _ in range(1 if factors in CERTIFY_SINGLE else 2)
    ]
    rng.shuffle(pool)
    return pool


def cli_pool(seed: int) -> list[dict]:
    """18 small instances (order <= 32), one per (group, statement) with ell
    alternating between 2 and 5: 36 CLI calls."""
    rng = random.Random(f"cli:{seed}")
    pool = [
        make_instance(rng, statement, factors, ELLS[(i + j) % len(ELLS)])
        for i, factors in enumerate(CLI_GROUPS)
        for j, statement in enumerate(STATEMENTS)
    ]
    rng.shuffle(pool)
    return pool


def probe_pool(seed: int) -> list[dict]:
    """One small instance per statement on Z_3xZ_3 (D = 5), for the traced
    run's layer probe.  theorem1 at ell = 5 >= D takes the wide-shelling
    path (find_zero_sum_davenport); the others take the narrow one."""
    rng = random.Random(f"probe:{seed}")
    return [make_instance(rng, statement, (3, 3), 5 if statement == "theorem1" else 2)
            for statement in STATEMENTS]


def census_groups(seed: int) -> list[tuple[int, ...]]:
    """Every group of order <= CENSUS_MAX_ORDER, in a seeded order."""
    chains = invariant_chains(CENSUS_MAX_ORDER)
    random.Random(f"census:{seed}").shuffle(chains)
    return chains


def scan_configs(seed: int) -> list[tuple[tuple[int, ...], int, str, int, int]]:
    """(orders, k, mode, sample_size, sample_seed); only the sampled
    configuration depends on the seed."""
    return [(orders, k, mode, size, seed) for orders, k, mode, size in SCAN_CONFIGS]
