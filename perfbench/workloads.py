"""The four benchmark workloads, the traced run's layer probe, and the
micro-measurements behind some per-layer metrics.

Every workload is a closed loop: one caller in one process issues the next
call only after the previous one returned.  A workload object does its
set-up in ``__init__`` (that is what ``setup_s`` times) and lists one round
of operations in ``items``; ``call`` runs and checks one of them.  The run
repeats the round.  Each operation is timed next to a reference operation of
the same kind, and times are reported at the reference's nominal speed (see
NOTES.md for why).  Library functions are always looked up on their module at
call time, so the traced run's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from zsum import cli as zcli
from zsum import conjecture as zc
from zsum import davenport as zd
from zsum import groups as zg
from zsum import weighted as zw
from zsum.errors import TheoremViolation

import checks
import instances

clock = time.perf_counter


class Tally:
    """Operations attempted and failed; failures are printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


class Op(NamedTuple):
    """One checked operation: seconds spent in library calls, work units
    done, and its named latencies (empty when the operation failed)."""

    busy_s: float
    units: int
    latency: dict


def _guard(fn):
    """Run one library call; a raised error (TheoremViolation included) is
    returned as a problem, never swallowed silently."""
    try:
        return fn(), []
    except (Exception, TheoremViolation) as err:  # noqa: BLE001 - counted as a failed op
        return None, [f"{type(err).__name__}: {err}"]


def _instance(raw: dict) -> zw.Instance:
    factors = tuple(raw["group"]["orders"])
    g = zg.canonicalize(list(factors))
    if g.invariant_factors != factors:
        raise ValueError(f"benchmark group {factors} is not in canonical form")
    return zw.Instance(
        group=g, x=tuple(tuple(e) for e in raw["x"]), w=tuple(raw["w"]), ell=raw["ell"]
    )


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def quantiles(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    if len(samples) < 2:
        return (samples[0],) * 2 if samples else (float("nan"),) * 2
    return statistics.median(samples), statistics.quantiles(samples, n=10, method="inclusive")[8]


_REF_GROUP = (3, 3, 9)
_REF_ELEMENTS = [tuple(random.Random(i).randrange(d) for d in _REF_GROUP) for i in range(64)]
REFERENCE_LOOP_S = 1e-3  # nominal duration of reference_loop
REFERENCE_PROCESS_S = 50e-3  # nominal duration of a bare interpreter start


def reference_loop() -> float:
    """Seconds of a fixed piece of pure-Python work shaped like the library's
    inner loops (residue-tuple additions and dict updates); about 1 ms on
    the machine the benchmark was built on."""
    t0 = clock()
    table: dict = {}
    for _ in range(2):
        for a in _REF_ELEMENTS:
            for b in _REF_ELEMENTS[:8]:
                t = tuple((x + y) % d for x, y, d in zip(a, b, _REF_GROUP))
                table[t] = table.get(t, 0) | 1
    return clock() - t0


def reference_process() -> float:
    """Seconds of a bare ``python -c pass`` process."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return clock() - t0


class Workload:
    name = ""
    min_rounds = 3
    # The reference operation timed next to every operation, and the
    # duration it stands for in the reported times.
    reference = staticmethod(reference_loop)
    reference_nominal_s = REFERENCE_LOOP_S

    def __init__(self, seed: int, workdir: str) -> None:
        self.items: list = []
        self.reset()

    def reset(self) -> None:
        """Empty what the calls collect for the traced run: the solve path of
        every certificate emitted, in-process ``zsum.cli.main`` latencies and
        scan counterexamples."""
        self.paths: list[str] = []
        self.main_latencies: dict[str, list[float]] = {"solve": [], "verify": []}
        self.counterexamples = 0

    def call(self, item, tally: Tally, in_process: bool = False) -> Op:
        raise NotImplementedError

    def named(self, best: dict[str, list[float]], busy_s: float, units: int) -> dict:
        """The workload's end-to-end metrics under their own names, from the
        per-operation best latencies, best busy seconds and units of a round."""
        raise NotImplementedError


def solve(statement: str, inst: zw.Instance) -> zw.Certificate:
    if statement == "theorem1":
        return zw.solve_theorem1(inst)
    if statement == "corollary":
        return zw.solve_corollary(inst)
    sh, path = zw.solve_word1(inst.group, inst.x, inst.w, inst.ell)
    return zw.Certificate(
        statement="word1",
        instance_digest=zw.instance_digest(inst),
        selection=sh.selection,
        shelling=sh.blocks,
        solve_path=path,
        verified=False,
    )


class Certify(Workload):
    """In-process solve, then an independent ``verify_certificate`` call."""

    name = "certify"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.items = [(raw, _instance(raw)) for raw in instances.certify_pool(seed)]
        # Davenport warm-up: every solve then finds D in the library's cache.
        for g in {inst.group for _, inst in self.items}:
            zd.davenport_get(g)

    def call(self, item, tally, in_process=False):
        raw, inst = item
        t0 = clock()
        cert, problems = _guard(lambda: solve(raw["statement"], inst))
        t1 = clock()
        verdict = None
        if cert is not None:
            verdict, problems = _guard(lambda: zw.verify_certificate(inst, cert))
        t2 = clock()
        if verdict is not None:
            ok, diagnostics = verdict
            problems = [] if ok else [f"verify_certificate: {diagnostics}"]
            sel = cert.selection
            problems += checks.check_selection(raw, sel.indices, sel.images, sel.value)
            self.paths.append(cert.solve_path)
        ok = tally.record(f"{raw['statement']} on {raw['group']['orders']}", problems)
        return Op(t2 - t0, 1, {"call": t1 - t0, "verify": t2 - t1} if ok else {})

    def named(self, best, busy_s, units):
        p50, p90 = quantiles(best["call"])
        return {
            "solve_per_s": (units / busy_s, "1/s"),
            "solve_p50_ms": (p50 * 1e3, "ms"),
            "solve_p90_ms": (p90 * 1e3, "ms"),
            "verify_p50_ms": (statistics.median(best["verify"]) * 1e3, "ms"),
        }


def cli_call(kind: str, raw: dict, inst_path: str, cert_path: str, in_process: bool = False,
             env: dict | None = None) -> tuple[float, list[str], str | None]:
    """One ``zsum solve`` or ``zsum verify``, as a ``python -m zsum.cli``
    process or as an in-process ``zsum.cli.main`` call, and its checks.
    Returns (seconds, problems, solve_path of a written certificate)."""
    if kind == "solve":
        argv = ["solve", "--instance", inst_path, "--out", cert_path]
        if os.path.exists(cert_path):
            os.unlink(cert_path)
    else:
        argv = ["verify", "--instance", inst_path, "--cert", cert_path]
    if in_process:
        out = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out):
            code = zcli.main(argv)
        elapsed = clock() - t0
        stdout = out.getvalue()
    else:
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "zsum.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = clock() - t0
        code, stdout = proc.returncode, proc.stdout
    problems = [] if code == 0 else [f"exit code {code}"]
    path = None
    if kind == "verify" and stdout.strip() != "certificate: VALID":
        problems.append(f"verify printed {stdout.strip()!r}")
    if kind == "solve" and code == 0:
        with open(cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        problems += checks.check_cert_json(raw, cert)
        path = cert.get("solve_path")
    return elapsed, problems, path


def write_cli_files(pool: list[dict], workdir: str, prefix: str) -> list[tuple]:
    """Instance files for a pool; a (kind, raw, instance, certificate) item
    for the solve and then the verify of each."""
    items = []
    for i, raw in enumerate(pool):
        inst_path = os.path.join(workdir, f"{prefix}{i:03d}.json")
        cert_path = os.path.join(workdir, f"{prefix}{i:03d}.cert.json")
        _write_json(inst_path, raw)
        items += [("solve", raw, inst_path, cert_path), ("verify", raw, inst_path, cert_path)]
    return items


class CliRoundtrip(Workload):
    """``python -m zsum.cli solve`` and ``verify`` processes on instance
    files; in the traced run, in-process ``zsum.cli.main`` calls instead."""

    name = "cli-roundtrip"
    reference = staticmethod(reference_process)
    reference_nominal_s = REFERENCE_PROCESS_S

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.items = write_cli_files(instances.cli_pool(seed), workdir, "inst")
        self.env = child_env()

    def call(self, item, tally, in_process=False):
        kind, _, inst_path, _ = item
        elapsed, problems, path = cli_call(*item, in_process=in_process, env=self.env)
        if in_process:
            self.main_latencies[kind].append(elapsed)
        if path is not None:
            self.paths.append(path)
        ok = tally.record(f"zsum {kind} {os.path.basename(inst_path)}", problems)
        return Op(elapsed, 1, {"call": elapsed} if ok else {})

    def named(self, best, busy_s, units):
        p50, p90 = quantiles(best["call"])
        return {"cli_p50_ms": (p50 * 1e3, "ms"), "cli_p90_ms": (p90 * 1e3, "ms")}


def exact_call(factors: tuple[int, ...], g) -> tuple[float, list[str]]:
    """One ``davenport_exact`` and its checks."""
    t0 = clock()
    rec, problems = _guard(lambda: zd.davenport_exact(g))
    elapsed = clock() - t0
    if rec is not None:
        problems = checks.check_davenport(factors, rec.value, rec.witness)
    return elapsed, problems


class DavenportCensus(Workload):
    """``davenport_exact`` on every group of order <= 26."""

    name = "davenport-census"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        for factors in instances.census_groups(seed):
            g = zg.canonicalize(list(factors))
            if g.invariant_factors != factors:
                raise ValueError(f"group {factors} is not in canonical form")
            self.items.append((factors, g))

    def call(self, item, tally, in_process=False):
        elapsed, problems = exact_call(*item)
        ok = tally.record(f"davenport_exact on {item[0]}", problems)
        return Op(elapsed, 1, {"call": elapsed} if ok else {})

    def named(self, best, busy_s, units):
        return {"census_s": (busy_s, "s")}


def scan_item(config: tuple) -> tuple:
    """(config, ScanConfig, expected number of instances checked)."""
    orders, k, mode, sample_size, sample_seed = config
    values = tuple(range(1, instances.order_of(orders)))
    scan_config = zc.ScanConfig(
        orders=orders, k=k, weight_values=values, mode=mode,
        sample_size=sample_size, seed=sample_seed, workers=1,
    )
    if mode == "sampled":
        expected = sample_size
    else:
        expected = checks.admissible_count(orders, k) * len(values) ** k
    return config, scan_config, expected


def scan_call(item: tuple, first_bytes: dict):
    """One ``conjecture_scan`` and its checks; returns (seconds, problems,
    report).  ``first_bytes`` keeps each configuration's first report."""
    config, scan_config, expected = item
    t0 = clock()
    report, problems = _guard(lambda: zc.conjecture_scan(scan_config))
    elapsed = clock() - t0
    if report is not None:
        problems, blob = checks.check_scan(config, report.to_json(), expected,
                                           first_bytes.get(config))
        first_bytes.setdefault(config, blob)
    return elapsed, problems, report


class Scan(Workload):
    """``conjecture_scan`` with workers=1 on the configurations in
    instances.SCAN_CONFIGS."""

    name = "scan"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.items = [scan_item(config) for config in instances.scan_configs(seed)]
        for config, _, _ in self.items:
            zd.davenport_get(zg.canonicalize(list(config[0])))
        self.first_bytes: dict = {}

    def call(self, item, tally, in_process=False):
        elapsed, problems, report = scan_call(item, self.first_bytes)
        if tally.record(f"scan {item[0][:3]}", problems):
            self.counterexamples += report.counterexample_count
            return Op(elapsed, report.checked, {"call": elapsed})
        return Op(elapsed, 0, {})

    def named(self, best, busy_s, units):
        return {"scan_inst_per_s": (units / busy_s, "1/s")}


WORKLOADS = {cls.name: cls for cls in (Certify, CliRoundtrip, DavenportCensus, Scan)}


def child_env() -> dict:
    """Environment for zsum child processes: the checkout's src/ first, and
    no Davenport cache file from the caller's environment."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(zcli.CACHE_ENV_VAR, None)
    return env


def layer_probe(wl: Workload, workdir: str, seed: int, tally: Tally) -> None:
    """Small fixed calls into every layer, made in both phases of the
    traced run so that each per-layer metric is measured on every workload:
    the three statements through in-process ``zsum.cli.main`` solve and
    verify, one exact D and one small scan.  What they return is collected
    on ``wl`` with the workload's own calls."""
    for item in write_cli_files(instances.probe_pool(seed), workdir, "probe"):
        elapsed, problems, path = cli_call(*item, in_process=True)
        wl.main_latencies[item[0]].append(elapsed)
        if path is not None:
            wl.paths.append(path)
        tally.record(f"probe zsum {item[0]}", problems)
    _, problems = exact_call((2, 6), zg.canonicalize([2, 6]))
    tally.record("probe davenport_exact", problems)
    _, problems, report = scan_call(scan_item(((3,), 2, "exhaustive", 0, seed)), {})
    if tally.record("probe scan", problems):
        wl.counterexamples += report.counterexample_count


def add_ns(seed: int) -> tuple[float, int]:
    """ns per ``AbelianGroup.add`` on a seeded batch of Z_128 and
    Z_3xZ_3xZ_9 pairs: median of 7 rounds."""
    rng = random.Random(f"add:{seed}")
    batches = []
    for factors in ((128,), (3, 3, 9)):
        g = zg.canonicalize(list(factors))
        elems = instances.elements(factors)
        batches.append((g, [(rng.choice(elems), rng.choice(elems)) for _ in range(5000)]))
    rounds = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        count = 0
        for g, pairs in batches:
            add = g.add
            for a, b in pairs:
                add(a, b)
            count += len(pairs)
        rounds.append((time.perf_counter_ns() - t0) / count)
    return statistics.median(rounds), len(rounds)


STARTUP_REPEATS = 7


def startup_ms() -> tuple[float, float]:
    """Median ms of a bare ``python -c pass`` and of ``import zsum.cli``
    minus that, over STARTUP_REPEATS processes of each; the two kinds
    alternate."""
    env = child_env()
    bare, imported = [], []
    for _ in range(STARTUP_REPEATS):
        for code, out in (("pass", bare), ("import zsum.cli", imported)):
            t0 = clock()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            out.append((clock() - t0) * 1e3)
    interp = statistics.median(bare)
    return interp, statistics.median(imported) - interp
