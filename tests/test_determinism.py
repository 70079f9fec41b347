"""Golden outputs: certificate and scan-report bytes, pinned by SHA-256.

Each digest is of the canonical JSON text (``dumps_stable``) that ``zsum
solve`` and ``zsum scan-conjecture`` write.  Identical inputs must keep
giving these exact bytes; a digest that moves is a break of the
determinism contract, not a test to update.  The ``*-fallback`` cases pin
the exhaustive oracle's answer, certified the way the self-test battery
certifies it.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from zsum.acceptance import instance_space
from zsum.conjecture import ScanConfig, conjecture_scan
from zsum.davenport import SEARCHED_FACTORS, davenport_formula, davenport_get
from zsum.groups import canonicalize, groups_up_to_order
from zsum.serialize import certificate_to_json, dumps_stable
from zsum.weighted import (
    Certificate,
    Instance,
    fallback_search,
    instance_digest,
    solve,
    verify_certificate,
)

# name: (statement, orders, x, w, ell, route: "solve" or "oracle", digest)
CASES = {
    "theorem1-narrow": (
        "theorem1", [3, 3],
        [[1, 0], [2, 2], [0, 2], [1, 2], [2, 1], [0, 1], [0, 0], [2, 1], [1, 1], [2, 2], [1, 0]],
        [-3, 13, 6, 8, 17, 8, 6, 3, 11, 18, -5], 2, "solve",
        "3aed73ff467bb9ed80f49eaf72f81dc8ac14235e3153d9df2c35e2cb62910fe3",
    ),
    "theorem1-wide": (
        "theorem1", [3, 3],
        [[1, 0], [0, 2], [2, 2], [2, 0], [0, 0], [0, 1], [0, 2], [0, 0]],
        [0, 15, -9, 17, 18, -1, 6, 10], 5, "solve",
        "ef80569a62f00eb04159f2a05b78d35821074a53649d043c2258fe10ae5e96a1",
    ),
    "corollary": (
        "corollary", [2, 4],
        [[1, 3], [0, 2], [0, 3], [1, 2], [0, 0], [0, 1], [0, 1], [1, 2], [0, 2], [0, 0], [1, 1], [1, 1]],
        [17, 18, -6, -9, 18, -6, 12, 6, 17, 13], 2, "solve",
        "ebe0426244240a4ec42e8f342c54e8b8659d514af643a52084708466856726cb",
    ),
    "word1": (
        "word1", [2, 4],
        [[1, 1], [0, 2], [0, 1], [0, 3], [0, 2], [0, 3], [1, 3], [1, 2]],
        [-1, 2, 10, 3, 2, 8, 4, -7], 2, "solve",
        "c1fe7ce84a962357ec0e1157f7bef9274bb162dfb5698bdb3d53f80e3e41ef23",
    ),
    "theorem1-fallback": (
        "theorem1", [4], [[1], [2], [3], [2], [1]], [0, -9, -1, 6, 16], 2, "oracle",
        "5c582a77a582ff380679b7d4d7aabf233f1e4bfb3d5224024d6ca365d50d1447",
    ),
    "corollary-fallback": (
        "corollary", [4], [[3], [0], [1], [0], [3], [2], [2]], [-2, 13, 15, 7, 2], 2, "oracle",
        "cbc83cde1376ce92fa6a2a9c69c8a064f2440b79973a30b70c42308eb9bffdf5",
    ),
    "word1-fallback": (
        "word1", [2, 4],
        [[1, 1], [0, 2], [0, 1], [0, 3], [0, 2], [0, 3], [1, 3], [1, 2]],
        [-1, 2, 10, 3, 2, 8, 4, -7], 2, "oracle",
        "94b557a84c2edc2209bbc5a7def9b89ad7632abb3480afa76f4b09972a9e4ad3",
    ),
}

# One digest over a seeded batch of 495 theorem1 and corollary certificates:
# every closed-form group of order <= 24 plus Z_32, Z_4xZ_8, Z_2xZ_2xZ_8 and
# Z_64, each at up to seven seeded repetition bounds in [1, D + 1] that admit
# an instance (theorem1 always also at D and D + 1, the corollary at D - 1).
BATCH_EXTRA_GROUPS = ([32], [4, 8], [2, 2, 8], [64])
BATCH_BOUNDS_PER_GROUP = 7
BATCH_SEED = 2026
BATCH_SIZE = 495
BATCH_DIGEST = "4a537f365f3b8e91ea3a35a41e801f5d28cd2f4636383a5b9feb3ab3846eee06"

# One digest over 24 seeded theorem1 and corollary certificates on the six
# groups of SEARCHED_FACTORS, which no closed form covers, at ell = 2 and
# ell = D - 1; D comes from their searched records.
SEARCHED_ELLS_SEED = 2026
SEARCHED_DIGEST = "b3abadb7d860cb4f21ab664d65b3fe45d2c667e6ecdfd729b1df408efd6da3bc"

# One digest over 435 seeded theorem1 and corollary certificates on the 111
# groups of order <= 64 outside SEARCHED_FACTORS, at ell = 2 and ell = D - 1;
# D comes from closed forms, and a (group, ell, statement) cell that admits
# no instance (ell < 1, a corollary at ell >= D, or no x under the
# repetition bound) is skipped.
SMALL_GROUPS_SEED = 2026
SMALL_GROUPS_DIGEST = "a895cd56ef41cd06b566566fd68957c6666e26eed171e32f1c3be3d5cfd1078c"

# Every instance of a tiny exhaustive space, solved in instance_space order
# (weights in [0, exp(G))), as (statement, orders, ell, count, digest);
# recorded on hand-written loops before the battery shared the generator.
# Z_4's theorem1 space at ell = 3 takes about 7 s and runs under the slow mark.
SPACES = {
    "theorem1-z2xz2-ell2": ("theorem1", [2, 2], 2, 3264,
                            "b4e64e55ad7c99218aba62b82442154a2e173f68082a32b65f781721816159e6"),
    "corollary-z2xz2-ell2": ("corollary", [2, 2], 2, 17280,
                             "556b64a1b1eb6c82f78c2338e4ab6e395bc9ee88e7d37a81d70a50bd409a5bea"),
    "theorem1-z4-ell3": ("theorem1", [4], 3, 64512,
                         "8c4b4ec747139a7a241e63eb4805bc6386d0d2f62303e0a5c0b312c9ec01929d"),
}
SLOW_SPACES = {"theorem1-z4-ell3"}

# One digest over 18 seeded theorem1 and corollary certificates on groups of
# order 256, where theorem1's narrow phase runs hundreds of word1 blocks
# (recorded before that phase's sliding windows and short-search kernel).
LARGE_GROUPS = ([256], [16, 16], [2] * 8)
LARGE_ELLS = (2, 3, 4)
LARGE_SEED = 2026
LARGE_DIGEST = "1fd85316864c4d429df7d8479908904db7db5cd9834b5a1a9eac22209136f299"

# One digest over four seeded theorem1 and corollary certificates at ell = 2
# on Z_2^10 and Z_2^11 (D = 11, 12), where theorem1's wide phase runs
# hundreds of Davenport blocks (recorded before that phase slid its windows).
WIDE_GROUPS = ([2] * 10, [2] * 11)
WIDE_ELL = 2
WIDE_SEED = 2026
WIDE_DIGEST = "ce35874a68b8ddd0d019aa729ed12d9c57660087b176f878951a5ee51d2d7f9c"

# One digest over eight seeded theorem1 and corollary certificates at
# ell = 4 and 5 on Z_1024 and Z_2^10, where narrow blocks of cap 4 and more
# walk suffix tables (recorded before those tables skipped saturated rows).
TABLE_GROUPS = ([1024], [2] * 10)
TABLE_ELLS = (4, 5)
TABLE_SEED = 2026
TABLE_DIGEST = "9e47c6ac742366eb3f79be06fb4fd5607d3d6400453ed87c82869a3911d21d71"

# The same over Z_4096 and Z_2^12 at ell = 2 and 4, under the slow mark
# (recorded before the windows indexed their values and the derived sequence
# slid with them).
HUGE_GROUPS = ([4096], [2] * 12)
HUGE_ELLS = (2, 4)
HUGE_SEED = 2026
HUGE_DIGEST = "7f4939ff546ac4e01c42a5278bf78ba42fe380f1ba64d63f67741e7a5689d137"

SCAN_Z4_K2_DIGEST = "6ec751cc9dbdef37d811b5ac5b1108f6f425cfb074e80933bdd165fdaafa1b65"

# The other scan configurations of the benchmark, and a sampled scan with
# counterexamples, weights 1..n-1:
# name: (orders, k, mode, sample_size, seed, checked, counterexamples, digest)
SCANS = {
    "z4-k2-sampled": ((4,), 2, "sampled", 300, 5, 300, 2,
                      "2d7cfe98b6ad32808cdc58f49a569396d0fd60742e07d79e6aff6482ea1a37c2"),
    "z4-k3": ((4,), 3, "exhaustive", 0, 0, 6804, 0,
              "4b3bdf96a5a3aa7f20e3e626ea7c8f69ca5b0671bf0e90d29d3bb0d3b6409c87"),
    "z4-k4": ((4,), 4, "exhaustive", 0, 0, 20736, 0,
              "0ef6753417a2eb268a20249fa78ade4ddb742375bc704c98260fe75f130713df"),
    "z2xz2-k3": ((2, 2), 3, "exhaustive", 0, 0, 6804, 0,
                 "160f7bd1d186916ac2c1f183ca1508142c63bcb8a3479190b0624859bef72989"),
    "z5-k2": ((5,), 2, "exhaustive", 0, 0, 35520, 0,
              "fae381e3cb257ee1d3f2c537bf82a1d141b4add42d03784f7e4b64613f6cfd83"),
    "z6-k2-sampled": ((6,), 2, "sampled", 2000, 1, 2000, 0,
                      "b08a2a57841ec601b22f2ba317d31913dfd0a6a99d7b52174fe7607479eda779"),
}


# Larger exhaustive scans, budget 10**9, recorded on the scan that decided
# every instance in turn, before it counted instances by class; weights are
# 1..n-1 unless given (-6..6 repeats residues and lists 100 of 288 failures):
# name: (orders, k, weights, checked, counterexamples, decided orbit pairs, digest)
EXHAUSTIVE_SCANS = {
    "z6-k2": ((6,), 2, None, 738000, 0, 693,
              "7909697aac03d360f9b0eed04f12eb59c8d7089ac69f82b72f43712ba95378dc"),
    "z6-k3": ((6,), 3, None, 5527500, 0, 3382,
              "9ecf518c1e1f48f57d34a25a20c159228bed5c0c7bb877623770679e4899ecb9"),
    "z6-k4": ((6,), 4, None, 29043750, 0, 8588,
              "de7ef5d892cddd87bca3c76f87b62fed10cf1f874b1d9c9a833b8e2ed0b33972"),
    "z7-k2": ((7,), 2, None, 16692480, 0, 272,
              "95f7dba7abc44ebb8c024156ec66b643ebad67da33bb42d0a4a3560d6183b88a"),
    "z7-k3": ((7,), 3, None, 165246480, 0, 1920,
              "b0835959ce0b90cd5f1c0cf2a11d99ada7b1b50051e9222bf0654eaf6a386261"),
    "z2xz2-k4": ((2, 2), 4, None, 20736, 0, 55,
                 "730fd5c7ce9f086921798d1a88dc43e8ae378707907032ba662b4282097f57e0"),
    "z4-k2-weights-6..6": ((4,), 2, tuple(range(-6, 7)), 34476, 288, 84,
                           "1b025a14c8440bbb4edc5c3acdd7ccab6beead8401b61d137d755346be50161a"),
}

def _digest(payload: dict) -> str:
    return hashlib.sha256(dumps_stable(payload).encode("utf-8")).hexdigest()


def _oracle_certificate(inst: Instance, statement: str) -> Certificate:
    """The oracle's selection in the statement's window, as a verified
    certificate (word1's one block is the whole selection)."""
    sel = fallback_search(inst, statement)
    cert = Certificate(
        statement=statement,
        instance_digest=instance_digest(inst),
        selection=sel,
        shelling=(sel.indices,) if statement == "word1" else None,
        solve_path="fallback",
        verified=False,
    )
    ok, diagnostics = verify_certificate(inst, cert)
    assert ok, diagnostics
    return cert.replace(verified=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_are_pinned(name):
    statement, orders, x, w, ell, route, expected = CASES[name]
    g = canonicalize(orders)
    inst = Instance(group=g, x=tuple([tuple(e) for e in x]), w=tuple(w), ell=ell)
    if route == "solve":
        cert = solve(inst, statement)
        assert cert.solve_path == "constructive"
    else:
        cert = _oracle_certificate(inst, statement)
    assert _digest(certificate_to_json(g, cert)) == expected


def _batch_theorem1(rng, g, d, ell):
    # at most ell copies of each element, so rho(x) <= ell
    n = g.order
    m = n + d - min(d, ell) - 1
    pool = [e for e in g.elements() for _ in range(ell)]
    rng.shuffle(pool)
    w = tuple([rng.randint(-n, 3 * n) for _ in range(m)])
    return Instance(group=g, x=tuple(pool[:m]), w=w, ell=ell)


def _batch_corollary(rng, g, d, ell):
    # ell copies of the anchor at the end, at most ell of every other element
    n = g.order
    m = n + d - 1
    elems = g.elements()
    anchor = rng.choice(elems)
    pool = [e for e in elems if e != anchor for _ in range(ell)]
    rng.shuffle(pool)
    x = tuple(pool[: m - ell]) + (anchor,) * ell
    w = tuple([rng.randint(-n, 3 * n) for _ in range(m - ell)])
    return Instance(group=g, x=x, w=w, ell=ell)


# theorem1 needs m <= n * ell and the corollary m - ell <= (n - 1) * ell for
# x to exist under the repetition bound; the corollary also needs ell < D
def _theorem1_fits(n, d, ell):
    return n + d - min(d, ell) - 1 <= n * ell


def _corollary_fits(n, d, ell):
    return ell < d and n + d - 1 - ell <= (n - 1) * ell


def _batch_instances():
    rng = random.Random(BATCH_SEED)
    groups = [g for g in groups_up_to_order(24) if davenport_formula(g) is not None]
    groups += [canonicalize(orders) for orders in BATCH_EXTRA_GROUPS]
    for g in groups:
        n, d = g.order, davenport_formula(g)
        fit = [e for e in range(1, d + 2) if _theorem1_fits(n, d, e)]
        for ell in sorted(set(rng.sample(fit, min(BATCH_BOUNDS_PER_GROUP, len(fit)))) | {d, d + 1}):
            yield "theorem1", _batch_theorem1(rng, g, d, ell)
        fit = [e for e in range(1, d) if _corollary_fits(n, d, e)]
        extra = {d - 1} if d - 1 in fit else set()
        for ell in sorted(set(rng.sample(fit, min(BATCH_BOUNDS_PER_GROUP, len(fit)))) | extra):
            yield "corollary", _batch_corollary(rng, g, d, ell)


def test_seeded_batch_certificate_bytes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for statement, inst in _batch_instances():
        cert = solve(inst, statement)
        digest.update(dumps_stable(certificate_to_json(inst.group, cert)).encode("utf-8"))
        count += 1
    assert count == BATCH_SIZE
    assert digest.hexdigest() == BATCH_DIGEST


def test_searched_group_certificates_verify_and_are_pinned():
    rng = random.Random(SEARCHED_ELLS_SEED)
    digest = hashlib.sha256()
    count = 0
    for factors in sorted(SEARCHED_FACTORS):
        g = canonicalize(factors)
        d = davenport_get(g).value
        for ell in (2, d - 1):
            for statement, build in (("theorem1", _batch_theorem1), ("corollary", _batch_corollary)):
                inst = build(rng, g, d, ell)
                cert = solve(inst, statement)
                assert verify_certificate(inst, cert) == (True, []), (factors, ell, statement)
                digest.update(dumps_stable(certificate_to_json(g, cert)).encode("utf-8"))
                count += 1
    assert count == 24
    assert digest.hexdigest() == SEARCHED_DIGEST


def test_small_group_certificates_verify_and_are_pinned():
    rng = random.Random(SMALL_GROUPS_SEED)
    digest = hashlib.sha256()
    count = skipped = 0
    groups = [g for g in groups_up_to_order(64) if g.invariant_factors not in SEARCHED_FACTORS]
    assert len(groups) == 111
    for g in groups:
        n, d = g.order, davenport_formula(g)
        for ell in sorted({2, d - 1}):
            for statement, build, fits in (
                ("theorem1", _batch_theorem1, _theorem1_fits),
                ("corollary", _batch_corollary, _corollary_fits),
            ):
                if ell < 1 or not fits(n, d, ell):
                    skipped += 1
                    continue
                inst = build(rng, g, d, ell)
                cert = solve(inst, statement)
                assert verify_certificate(inst, cert) == (True, []), (g, ell, statement)
                digest.update(dumps_stable(certificate_to_json(g, cert)).encode("utf-8"))
                count += 1
    # the trivial group at ell = 0 (both statements) and at ell = 2, and Z_2
    # at ell = 1 and 2, skip the corollary
    assert (count, skipped) == (435, 5)
    assert digest.hexdigest() == SMALL_GROUPS_DIGEST


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW_SPACES else name
    for name in sorted(SPACES)
])
def test_exhaustive_space_certificate_bytes_are_pinned(name):
    statement, orders, ell, size, expected = SPACES[name]
    digest = hashlib.sha256()
    count = 0
    for inst in instance_space(orders, statement, ell):
        cert = solve(inst, statement)
        digest.update(dumps_stable(certificate_to_json(inst.group, cert)).encode("utf-8"))
        count += 1
    assert (count, digest.hexdigest()) == (size, expected)


def _seeded_certificates_digest(groups, ells, seed):
    """(count, SHA-256) over seeded theorem1 and corollary certificates,
    per group and repetition bound in order."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    count = 0
    for orders in groups:
        g = canonicalize(orders)
        d = davenport_formula(g)
        for ell in ells:
            for statement, build in (("theorem1", _batch_theorem1), ("corollary", _batch_corollary)):
                cert = solve(build(rng, g, d, ell), statement)
                digest.update(dumps_stable(certificate_to_json(g, cert)).encode("utf-8"))
                count += 1
    return count, digest.hexdigest()


def test_large_group_certificate_bytes_are_pinned():
    assert _seeded_certificates_digest(LARGE_GROUPS, LARGE_ELLS, LARGE_SEED) == (18, LARGE_DIGEST)


def test_table_walk_certificate_bytes_are_pinned():
    assert _seeded_certificates_digest(TABLE_GROUPS, TABLE_ELLS, TABLE_SEED) == (8, TABLE_DIGEST)


@pytest.mark.slow
def test_huge_group_certificate_bytes_are_pinned():
    assert _seeded_certificates_digest(HUGE_GROUPS, HUGE_ELLS, HUGE_SEED) == (8, HUGE_DIGEST)


def test_wide_heavy_certificate_bytes_are_pinned():
    rng = random.Random(WIDE_SEED)
    digest = hashlib.sha256()
    count = 0
    for orders in WIDE_GROUPS:
        g = canonicalize(orders)
        d = davenport_formula(g)
        for statement, build in (("theorem1", _batch_theorem1), ("corollary", _batch_corollary)):
            cert = solve(build(rng, g, d, WIDE_ELL), statement)
            if statement == "theorem1":
                # narrow blocks hold fewer than D indices, so most blocks are wide
                assert len(cert.shelling) >= 500
            digest.update(dumps_stable(certificate_to_json(g, cert)).encode("utf-8"))
            count += 1
    assert count == 4
    assert digest.hexdigest() == WIDE_DIGEST


def test_scan_report_bytes_are_pinned():
    report = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3)))
    assert (report.checked, report.counterexample_count) == (1836, 24)
    assert _digest(report.to_json()) == SCAN_Z4_K2_DIGEST


def test_scan_report_bytes_are_pinned_at_workers_1():
    # perfbench builds its scans with workers=1, the one value ScanConfig
    # still accepts; naming it must not change a byte of the report.
    report = conjecture_scan(ScanConfig(orders=(4,), k=2, weight_values=(1, 2, 3), workers=1))
    assert (report.checked, report.counterexample_count) == (1836, 24)
    assert _digest(report.to_json()) == SCAN_Z4_K2_DIGEST


# ScanConfig(orders=(4,), k=2, weight_values=(1, 3)): both weights are units
# mod 4, so the proven coprime regime holds and no instance fails
SCAN_Z4_K2_UNITS = (816, 0, "ddd0b4425089c8a0145d0b423b5ab3cc4d77bba0a0b12c3d4701beeb3b791579")


def test_a_scan_config_keeps_its_canonical_form():
    # a config of lists once built, failed to hash, and was made canonical
    # only inside the scan, as a second config
    given = ScanConfig(orders=[4], k=2, weight_values=[3, 1, 3])
    canonical = ScanConfig(orders=(4,), k=2, weight_values=(1, 3))
    assert given == canonical and hash(given) == hash(canonical)
    assert (given.orders, given.weight_values) == ((4,), (1, 3))
    assert canonical.replace(weight_values=[3, 3, 1]) == canonical
    report = conjecture_scan(given)
    assert report.config is given
    assert (report.checked, report.counterexample_count) == SCAN_Z4_K2_UNITS[:2]
    assert _digest(report.to_json()) == SCAN_Z4_K2_UNITS[2]


@pytest.mark.parametrize("name", sorted(SCANS))
def test_benchmark_scan_report_bytes_are_pinned(name):
    orders, k, mode, sample_size, seed, checked, failures, expected = SCANS[name]
    n = canonicalize(orders).order
    report = conjecture_scan(ScanConfig(
        orders=orders, k=k, weight_values=tuple(range(1, n)), mode=mode,
        sample_size=sample_size, seed=seed,
    ))
    assert (report.checked, report.counterexample_count) == (checked, failures)
    assert _digest(report.to_json()) == expected


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_SCANS))
def test_larger_exhaustive_scan_report_bytes_are_pinned(name):
    orders, k, weights, checked, failures, decided, expected = EXHAUSTIVE_SCANS[name]
    n = canonicalize(orders).order
    report = conjecture_scan(ScanConfig(
        orders=orders, k=k, weight_values=weights or tuple(range(1, n)), budget=10**9,
    ))
    assert (report.checked, report.counterexample_count, report.decided) == (
        checked, failures, decided,
    )
    assert _digest(report.to_json()) == expected


# zsum scan-conjecture --orders 2,6 --k 2 at the default budget: a group of
# squarefree exponent with counterexamples (479,001,600 = 12! of them), its
# 1,549,569 classes decided as 88,764 orbit pairs
SCAN_Z2XZ6_K2 = (337282659806400, 479001600, 88764,
                 "af0537c19d7e2061f533cf5c2ddace03027e286b441418a82c93604749150745")


def test_the_z2xz6_scan_report_bytes_are_pinned():
    report = conjecture_scan(ScanConfig(orders=(2, 6), k=2, weight_values=tuple(range(1, 12))))
    assert (report.checked, report.counterexample_count, report.decided) == SCAN_Z2XZ6_K2[:3]
    assert report.counterexamples[0]["x"] == [
        [0, 1], [0, 1], [0, 5], [0, 5], [1, 1], [1, 1], [1, 2], [1, 2], [1, 4], [1, 4],
        [1, 5], [1, 5],
    ]
    assert report.counterexamples[0]["w"] == [1, 2]
    assert _digest(report.to_json()) == SCAN_Z2XZ6_K2[3]
