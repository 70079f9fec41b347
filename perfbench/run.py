"""zsum benchmark: seeded workloads driven through the public API and CLI.

Run from the root of a zsum checkout (the code under test is ``src/``):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the operations once untraced and once traced and reports the per-layer
metrics, including the tracing overhead.  Every output is checked by
checks.py.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the run record and every metric with its unit and sample count.
Workloads, metrics and their expected interactions: NOTES.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups, each in a fresh process
WORKLOAD_NAMES = ("certify", "cli-roundtrip", "davenport-census", "scan")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Put the checkout's src/ first on the path and make sure that is the
    zsum that loads."""
    if not os.path.isfile(os.path.join(SRC, "zsum", "__init__.py")):
        die(f"no src/zsum under {ROOT}; run from the root of a zsum checkout")
    sys.path.insert(0, SRC)
    import zsum

    if not os.path.abspath(zsum.__file__).startswith(SRC + os.sep):
        die(f"imported zsum from {zsum.__file__}, not from {SRC}")
    import workloads

    return workloads


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(),
        "loop": "closed, one caller in one process",
    }


def setup_in_children(args, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            die(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Summary(NamedTuple):
    """Per operation of a round, the median over its repeats of its times
    at the reference's nominal speed."""

    latency: dict[str, list[float]]  # latency name -> value per operation
    busy_s: float  # sum over operations of their busy seconds
    units: int  # work units of one round
    rounds: int
    reference_s: list[float]  # every reference time measured, as measured


def measure(wl, seconds: float, tally) -> Summary:
    """Repeat the round ``wl.items`` until ``seconds`` have passed at the end
    of a round and at least ``wl.min_rounds`` rounds ran.  Every operation is
    timed between two runs of ``wl.reference``; its times are scaled by
    ``wl.reference_nominal_s`` over the mean of those two.  Operations that
    failed every repeat are left out (they count in ``tally``)."""
    n = len(wl.items)
    busy: list[list[float]] = [[] for _ in range(n)]
    units = [0] * n
    latency: dict[str, list[list[float]]] = {}
    refs = [wl.reference()]
    rounds = 0
    t0 = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - t0 < seconds:
        for i, item in enumerate(wl.items):
            op = wl.call(item, tally)
            refs.append(wl.reference())
            if not op.latency:
                continue
            scale = wl.reference_nominal_s / ((refs[-2] + refs[-1]) / 2)
            busy[i].append(op.busy_s * scale)
            units[i] = op.units
            for name, value in op.latency.items():
                latency.setdefault(name, [[] for _ in range(n)])[i].append(value * scale)
        rounds += 1
    done = [i for i in range(n) if busy[i]]
    return Summary(
        latency={name: [statistics.median(v[i]) for i in done] for name, v in latency.items()},
        busy_s=sum(statistics.median(busy[i]) for i in done),
        units=sum(units[i] for i in done),
        rounds=rounds,
        reference_s=refs,
    )


def normalised_setup_s(workloads, started: float) -> float:
    """Seconds since ``started`` at the reference loop's nominal speed; the
    loop is timed 15 times right after the set-up."""
    elapsed = time.perf_counter() - started
    ref = statistics.median(workloads.reference_loop() for _ in range(15))
    return elapsed * workloads.REFERENCE_LOOP_S / ref


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def end_to_end(args, wl, tally, own_setup_s: float, workloads) -> dict:
    """Metrics as ``name -> (value, unit, samples)``; the first five are the
    ones BENCHMARK.json lists, the rest carry the workload's own names.
    Samples read "operations x rounds"."""
    summary = measure(wl, args.seconds, tally)
    rss = peak_rss_mb(with_children=wl.name == "cli-roundtrip")
    setup = [own_setup_s] + setup_in_children(args, SETUP_REPEATS - 1)
    samples = f"{len(wl.items)}x{summary.rounds}"
    p50, p90 = workloads.quantiles(summary.latency.get("call", []))
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (summary.units / summary.busy_s, "1/s", samples),
        "call_p50_ms": (p50 * 1e3, "ms", samples),
        "call_p90_ms": (p90 * 1e3, "ms", samples),
        "peak_rss_mb": (rss, "MB", 1),
    }
    for name, (value, unit) in wl.named(summary.latency, summary.busy_s, summary.units).items():
        metrics[name] = (value, unit, samples)
    metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    metrics["reference_ms"] = (statistics.median(summary.reference_s) * 1e3, "ms",
                               len(summary.reference_s))
    return metrics


def traced(args, wl, tally, workdir: str, workloads) -> dict:
    """One untraced and one traced phase, each one round in process plus
    the layer probe; per-layer metrics come from the traced phase, the
    main-call timings from the untraced one."""
    from tracing import Tracer

    def phase() -> float:
        wl.reset()
        t0 = time.perf_counter()
        for item in wl.items:
            wl.call(item, tally, in_process=True)
        workloads.layer_probe(wl, workdir, args.seed, tally)
        return time.perf_counter() - t0

    untraced_s = phase()
    main_ms = {kind: statistics.median(v) * 1e3 for kind, v in wl.main_latencies.items()}
    main_n = {kind: len(v) for kind, v in wl.main_latencies.items()}
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = phase()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    add_ns, add_rounds = workloads.add_ns(args.seed)
    interp_ms, import_ms = workloads.startup_ms()

    def span(name: str) -> dict:
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})

    def mean_ms(name: str) -> tuple[float, str, int]:
        entry = span(name)
        return entry["s"] / max(entry["calls"], 1) * 1e3, "ms", entry["calls"]

    counts = tracer.counts
    get = span("davenport.davenport_get")
    exact = span("davenport.davenport_exact")
    check = span("conjecture.conjecture_check_instance")
    enum = span("conjecture.enumerate_zero_selection")
    fallback = span("weighted.fallback_search")
    verify = span("weighted.verify_certificate")
    m = {
        "groups.add_calls": (counts["add"], "count", 1),
        "groups.scalar_mul_calls": (counts["scalar_mul"], "count", 1),
        "groups.check_element_calls": (counts["check_element"], "count", 1),
        "groups.add_ns": (add_ns, "ns", add_rounds),
    }
    for fn in ("find_zero_sum_davenport", "find_zero_sum_bounded"):
        entry = span(f"zerosum.{fn}")
        m[f"zerosum.{fn}.calls"] = (entry["calls"], "count", 1)
        m[f"zerosum.{fn}.self_s"] = (entry["self_s"], "s", entry["calls"])
    m.update({
        "davenport.exact.s": (exact["s"], "s", exact["calls"]),
        "davenport.exact.max_s": (exact["max_s"], "s", exact["calls"]),
        "davenport.get.calls": (get["calls"], "count", 1),
        "davenport.get.cache_hit_ratio": (
            tracer.davenport_get_hits / max(get["calls"], 1), "ratio", get["calls"]),
    })
    for fn in ("solve_theorem1", "solve_corollary", "solve_word1"):
        entry = span(f"weighted.{fn}")
        m[f"weighted.{fn}.self_s"] = (entry["self_s"], "s", entry["calls"])
    m.update({
        "weighted.verify_certificate.s": (verify["s"], "s", verify["calls"]),
        "weighted.constructive_ratio": (
            wl.paths.count("constructive") / max(len(wl.paths), 1), "ratio", len(wl.paths)),
        "weighted.fallback_search.calls": (fallback["calls"], "count", 1),
        "weighted.fallback_search.s": (fallback["s"], "s", fallback["calls"]),
        "conjecture.check_instance.calls": (check["calls"], "count", 1),
        "conjecture.check_instance.s": (check["s"], "s", check["calls"]),
        "conjecture.enumerate.s": (enum["s"], "s", enum["calls"]),
        "conjecture.dfs.s": (check["s"] - enum["s"], "s", check["calls"]),
        "conjecture.counterexamples": (wl.counterexamples, "count", 1),
        "serialize.load_instance.ms": mean_ms("serialize.load_instance"),
        "serialize.load_certificate.ms": mean_ms("serialize.load_certificate"),
        "serialize.write_certificate.ms": mean_ms("serialize.atomic_write_text"),
        "cli.interpreter_ms": (interp_ms, "ms", workloads.STARTUP_REPEATS),
        "cli.import_ms": (import_ms, "ms", workloads.STARTUP_REPEATS),
        "cli.main.solve_ms": (main_ms["solve"], "ms", main_n["solve"]),
        "cli.main.verify_ms": (main_ms["verify"], "ms", main_n["verify"]),
    })
    for layer, self_s in tracer.layer_self_s(summary).items():
        m[f"{layer}.self_s"] = (self_s, "s", 1)
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio", 1)
    m["trace.spans"] = (tracer.span_count, "count", 1)

    return m


def print_metrics(metrics: dict) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")


def result_line(tally, metrics: dict, names: list[str]) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    })


def benchmark_names(trace: int) -> list[str]:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS stays per workload),
    then one table of every metric by workload."""
    table: dict[str, dict[str, str]] = {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, metric, value, unit, n = line.split()
                table.setdefault(metric, {})[name] = f"{value} {unit} ({n})"
            else:
                print(line)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
    width = max(len(m) for m in table)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:<24}" for w in WORKLOAD_NAMES))
    for metric, cells in table.items():
        print(f"{metric:<{width}}  " + "  ".join(f"{cells.get(w, '-'):<24}" for w in WORKLOAD_NAMES))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used for setup_s)")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        import_library()
        return run_all(args)

    workloads = import_library()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        own_setup_s = normalised_setup_s(workloads, STARTED)
        if args.setup_only:
            print(f"{own_setup_s:.9f}")
            return 0
        names = benchmark_names(args.trace)
        print(f"record {json.dumps(run_record(args), sort_keys=True)}")
        tally = workloads.Tally()
        if args.trace:
            metrics = traced(args, wl, tally, workdir, workloads)
        else:
            metrics = end_to_end(args, wl, tally, own_setup_s, workloads)
        print_metrics(metrics)
        sys.stdout.flush()
        print(result_line(tally, metrics, names))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
