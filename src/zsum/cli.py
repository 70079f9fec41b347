"""Command-line entry point wiring all modules.

Subcommands: group, davenport, davenport-table, solve-word0, zero-sum,
solve, verify, scan-conjecture, selftest.

Exit codes: 0 verified solve / success; 1 verification or selftest failure;
2 invalid input (bad files, bad preconditions, bad arguments, an output
path that cannot be written); 3 statement unsatisfiable; 4 theorem
violation (a construction missed under its hypotheses, or a scan's DFS and
oracle disagreed: a bug, reported loudly, never absorbed); 5 resource cap hit (Davenport search node budget
or scan budget exceeded).

All file output is atomic (temp file + rename).  Every setting is a flag,
and no command reads a Davenport cache file: D(G) comes from the closed
forms, the searched records of ``davenport.SEARCHED_FACTORS`` or the exact
search.  A set ZSUM_DAVENPORT_CACHE, which once named such a file, exits 2
naming the variable, so a stale setting is refused rather than ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .davenport import (
    DEFAULT_NODE_BUDGET,
    _check_budget,
    davenport_exact,
    davenport_formula_record,
    davenport_get,
)
from .errors import (
    BudgetExceeded,
    InvalidArgument,
    InvalidInstance,
    TheoremViolation,
    UnsatisfiableStatement,
    ZsumError,
)
from .groups import canonicalize, groups_up_to_order
from .serialize import (
    atomic_write_text,
    certificate_to_json,
    davenport_record_to_json,
    dumps_stable,
    group_to_json,
    load_certificate,
    load_instance,
    zero_sum_witness_to_json,
)
from .weighted import Instance, solve, verify_certificate
from .zerosum import find_zero_sum_bounded, find_zero_sum_exact_length

CACHE_ENV_VAR = "ZSUM_DAVENPORT_CACHE"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_UNSATISFIABLE = 3
EXIT_THEOREM_VIOLATION = 4
EXIT_RESOURCE_CAP = 5


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise InvalidInstance(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_orders(text: str) -> tuple[int, ...]:
    """``--orders``, refused when empty: the trivial group is ``--orders 1``."""
    orders = _parse_int_list(text, "--orders")
    if not orders:
        raise InvalidArgument(f"--orders {text!r} names no cyclic order; the trivial group is 1")
    return orders


def _check_out_path(path: str | None) -> None:
    """InvalidArgument if ``--out`` names a directory or a file in a missing
    one; checked before any work, so a bad path costs nothing."""
    if path is None:
        return
    if os.path.isdir(path):
        raise InvalidArgument(f"output path is a directory: {path}")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise InvalidArgument(f"output directory does not exist: {directory}")


def _write(path: str, payload: dict) -> None:
    """Write ``payload`` as canonical JSON to ``path``, atomically;
    InvalidArgument naming the path if it cannot be written."""
    try:
        atomic_write_text(path, dumps_stable(payload))
    except OSError as err:
        raise InvalidArgument(f"cannot write {path}: {err.strerror or err}") from None


def _emit(payload: dict, out: str | None) -> None:
    if out:
        _write(out, payload)
    else:
        sys.stdout.write(dumps_stable(payload))


def _cmd_group(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    g = canonicalize(orders)
    _emit(
        {
            "given": {"orders": list(orders)},
            "canonical": group_to_json(g),
            "order": g.order,
            "exponent": g.exponent,
            "rank": g.rank,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_davenport(args: argparse.Namespace) -> int:
    g = canonicalize(_parse_orders(args.orders))
    if args.formula:
        rec = davenport_formula_record(g)
        if rec is None:
            print(f"no closed form applies to {list(g.invariant_factors)}", file=sys.stderr)
            return EXIT_INVALID
    elif args.exact:
        rec = davenport_exact(g, node_budget=args.node_budget)
    else:
        rec = davenport_get(g, node_budget=args.node_budget)
    _emit(davenport_record_to_json(rec), args.out)
    return EXIT_OK


def _cmd_davenport_table(args: argparse.Namespace) -> int:
    if args.max_order < 1:
        raise InvalidArgument(f"max order {args.max_order} must be >= 1")
    print(f"{'order':>5s}  {'factors':<14s}  {'D':>3s}  method")
    for g in groups_up_to_order(args.max_order):
        rec = davenport_get(g, node_budget=args.node_budget)
        factors = "x".join(str(d) for d in g.invariant_factors) or "1"
        print(f"{g.order:>5d}  {factors:<14s}  {rec.value:>3d}  {rec.method}")
    return EXIT_OK


def _emit_witness(inst: Instance, indices: tuple[int, ...], out: str | None) -> None:
    """Re-sum a finder's witness with the group's own checked arithmetic
    (TheoremViolation if it misses zero), then emit it."""
    g = inst.group
    if g.sum(inst.x[i - 1] for i in indices) != g.zero():
        raise TheoremViolation("witness failed independent re-summation")
    _emit(zero_sum_witness_to_json(g, indices), out)


def _cmd_solve_word0(args: argparse.Namespace) -> int:
    _, inst = load_instance(args.instance)
    indices = find_zero_sum_bounded(inst.group, inst.x, inst.ell)
    _emit_witness(inst, indices, args.out)
    return EXIT_OK


def _cmd_zero_sum(args: argparse.Namespace) -> int:
    _, inst = load_instance(args.instance)
    indices = find_zero_sum_exact_length(inst.group, inst.x, args.length)
    if indices is None:
        _emit({"group": group_to_json(inst.group), "indices": None}, args.out)
        print(f"no zero-sum subsequence of length {args.length} exists", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    _emit_witness(inst, indices, args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    statement, inst = load_instance(args.instance)
    cert = solve(inst, statement)
    _write(args.out, certificate_to_json(inst.group, cert))
    print(f"certificate written to {args.out}")
    print(f"verification: ok (solve_path = {cert.solve_path}, |I| = {len(cert.selection)})")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    statement, inst = load_instance(args.instance)
    g_cert, cert = load_certificate(args.cert)
    diagnostics: list[str] = []
    if g_cert != inst.group:
        diagnostics.append("group mismatch")
    if cert.statement != statement:
        diagnostics.append("statement mismatch")
    if not diagnostics:
        ok, diagnostics = verify_certificate(inst, cert)
        if ok:
            print("certificate: VALID")
            return EXIT_OK
    print(f"certificate: INVALID ({'; '.join(diagnostics)})")
    return EXIT_FAILED


def _cmd_scan_conjecture(args: argparse.Namespace) -> int:
    from .conjecture import ScanConfig, conjecture_scan  # loaded by this command only

    orders = _parse_orders(args.orders)
    if args.weights is not None:
        values = _parse_int_list(args.weights, "--weights")
    else:
        values = tuple(range(1, canonicalize(orders).order))  # default: nonzero residues
    config = ScanConfig(
        orders=orders,
        k=args.k,
        weight_values=values,
        mode=args.mode,
        sample_size=args.sample_size,
        seed=args.seed,
        budget=args.budget,
    )
    try:
        report = conjecture_scan(config)
    except BudgetExceeded as err:
        if err.report is not None and args.out:
            _write(args.out, err.report.to_json())
            print(f"non-authoritative report written to {args.out}", file=sys.stderr)
        raise
    _emit(report.to_json(), args.out)
    print(
        f"checked {report.checked} instances "
        f"({report.decided} orbits decided), "
        f"{report.counterexample_count} counterexamples, "
        f"wall time {report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance  # the battery's weight stays out of every other command

    results = acceptance.run_all()
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number} {r.name}: {verdict} ({r.details})")
    if args.out:
        _write(args.out, acceptance.summary_json(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsum",
        description="Zero-sum and weighted zero-sum selection solvers over finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="canonicalize a group presentation")
    p.add_argument("--orders", required=True, help="comma-separated cyclic orders, e.g. 4,6")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("davenport", help="Davenport constant with zero-sum-free witness")
    p.add_argument("--orders", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="force exhaustive search")
    mode.add_argument("--formula", action="store_true", help="force closed form (error if none)")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_davenport)

    p = sub.add_parser("davenport-table", help="table of D(G) for all groups up to an order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_davenport_table)

    p = sub.add_parser("solve-word0", help="bounded-length zero-sum witness (cap = ell)")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", help="write witness JSON here instead of stdout")
    p.set_defaults(func=_cmd_solve_word0)

    p = sub.add_parser("zero-sum", help="exact-length zero-sum witness")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--out", help="write witness JSON here instead of stdout")
    p.set_defaults(func=_cmd_zero_sum)

    p = sub.add_parser("solve", help="solve the instance's statement, emit a certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True, help="certificate output path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a certificate against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan-conjecture", help="counterexample scan over an instance space")
    p.add_argument("--orders", required=True)
    p.add_argument("--k", type=int, required=True, help="number of weights")
    p.add_argument("--weights", help="comma-separated weight values (default 1..n-1)")
    # conjecture.MODE_EXHAUSTIVE, MODE_SAMPLED and DEFAULT_SCAN_BUDGET, named
    # without importing the scanner
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--sample-size", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=5_000_000,
                   help="cap on the (x-class, w-class) pairs an exhaustive scan has, "
                        "or on the x a sampled scan draws, kept or not; exit 5 above it")
    p.add_argument("--out", help="report output path (default stdout)")
    p.set_defaults(func=_cmd_scan_conjecture)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--out", help="write machine-readable summary JSON here")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if CACHE_ENV_VAR in os.environ:
            raise InvalidArgument(f"{CACHE_ENV_VAR} is set, but zsum reads no Davenport cache file")
        _check_out_path(getattr(args, "out", None))
        if hasattr(args, "node_budget"):  # before any output: davenport-table prints rows first
            _check_budget(args.node_budget)
        return args.func(args)
    except TheoremViolation as err:
        print(f"THEOREM VIOLATION: {err}", file=sys.stderr)
        return EXIT_THEOREM_VIOLATION
    except UnsatisfiableStatement as err:
        print(f"unsatisfiable: {err}", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    except BudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        if err.witness:  # the longest zero-sum-free sequence a search found
            print(f"witness: {json.dumps(err.witness, separators=(',', ':'))}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except ZsumError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
