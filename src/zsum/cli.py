"""Command-line entry point wiring all modules.

Subcommands: group, davenport, davenport-table, solve-word0, zero-sum,
solve, verify, scan-conjecture, selftest.

Exit codes: 0 verified solve / success; 1 verification or selftest failure;
2 invalid input (bad files, bad preconditions, bad arguments); 3 statement
unsatisfiable; 4 theorem violation (loud abort, never silent); 5 resource
cap hit (oracle too large or budget exceeded).

All file output is atomic (temp file + rename).  The only environment
variable honored is ZSUM_DAVENPORT_CACHE (cache path override); everything
else is flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import acceptance
from .conjecture import (
    DEFAULT_SCAN_BUDGET,
    MODE_EXHAUSTIVE,
    MODE_SAMPLED,
    ScanConfig,
    conjecture_scan,
)
from .davenport import (
    DEFAULT_NODE_BUDGET,
    DavenportCache,
    DavenportRecord,
    davenport_exact,
    davenport_formula,
    davenport_get,
    generator_repeat_witness,
    METHOD_FORMULA,
    zero_sum_free_check,
)
from .errors import (
    BudgetExceeded,
    InvalidInstance,
    OracleTooLarge,
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
from .weighted import DEFAULT_ORACLE_CAP, solve, verify_certificate
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


def _cache_from(args: argparse.Namespace) -> DavenportCache | None:
    path = getattr(args, "cache", None) or os.environ.get(CACHE_ENV_VAR)
    return DavenportCache(path) if path else None


def _check_out_path(path: str | None) -> None:
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise InvalidInstance(f"output directory does not exist: {directory}")


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_stable(payload)
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_group(args: argparse.Namespace) -> int:
    g = canonicalize(_parse_int_list(args.orders, "--orders"))
    _emit(
        {
            "given": {"orders": list(g.given_orders)},
            "canonical": group_to_json(g),
            "order": g.order,
            "exponent": g.exponent,
            "rank": g.rank,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_davenport(args: argparse.Namespace) -> int:
    g = canonicalize(_parse_int_list(args.orders, "--orders"))
    if args.formula:
        value = davenport_formula(g)
        if value is None:
            print(f"no closed form applies to {list(g.invariant_factors)}", file=sys.stderr)
            return EXIT_INVALID
        witness = generator_repeat_witness(g)
        if not zero_sum_free_check(g, witness):
            raise AssertionError("generator-repeat witness failed zero-sum-free check")
        rec = DavenportRecord(group=g, value=value, witness=witness, method=METHOD_FORMULA)
    elif args.exact:
        rec = davenport_exact(g, node_budget=args.node_budget)
    else:
        rec = davenport_get(g, cache=_cache_from(args), node_budget=args.node_budget)
    _emit(davenport_record_to_json(rec), args.out)
    return EXIT_OK


def _cmd_davenport_table(args: argparse.Namespace) -> int:
    cache = _cache_from(args)
    print(f"{'order':>5s}  {'factors':<14s}  {'D':>3s}  method")
    for g in groups_up_to_order(args.max_order):
        rec = davenport_get(g, cache=cache, node_budget=args.node_budget)
        factors = "x".join(str(d) for d in g.invariant_factors) or "1"
        print(f"{g.order:>5d}  {factors:<14s}  {rec.value:>3d}  {rec.method}")
    return EXIT_OK


def _cmd_solve_word0(args: argparse.Namespace) -> int:
    _, inst = load_instance(args.instance)
    wit = find_zero_sum_bounded(inst.group, inst.x, inst.ell)
    total = inst.group.sum(inst.x[i - 1] for i in wit.indices)
    if total != inst.group.zero():
        raise AssertionError("witness failed independent re-summation")
    _emit(zero_sum_witness_to_json(inst.group, wit.indices), args.out)
    return EXIT_OK


def _cmd_zero_sum(args: argparse.Namespace) -> int:
    _, inst = load_instance(args.instance)
    wit = find_zero_sum_exact_length(inst.group, inst.x, args.length)
    if wit is None:
        _emit({"group": group_to_json(inst.group), "indices": None}, args.out)
        print(f"no zero-sum subsequence of length {args.length} exists", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    total = inst.group.sum(inst.x[i - 1] for i in wit.indices)
    if total != inst.group.zero():
        raise AssertionError("witness failed independent re-summation")
    _emit(zero_sum_witness_to_json(inst.group, wit.indices), args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_out_path(args.out)
    statement, inst = load_instance(args.instance)
    cert = solve(inst, statement, oracle_cap=args.oracle_cap, dav_cache=_cache_from(args))
    atomic_write_text(args.out, dumps_stable(certificate_to_json(inst.group, cert)))
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
        ok, diagnostics = verify_certificate(inst, cert, dav_cache=_cache_from(args))
        if ok:
            print("certificate: VALID")
            return EXIT_OK
    print(f"certificate: INVALID ({'; '.join(diagnostics)})")
    return EXIT_FAILED


def _cmd_scan_conjecture(args: argparse.Namespace) -> int:
    _check_out_path(args.out)
    n = canonicalize(_parse_int_list(args.orders, "--orders")).order
    if args.weights:
        values = _parse_int_list(args.weights, "--weights")
    else:
        values = tuple(range(1, n))  # default: nonzero residues
    config = ScanConfig(
        orders=_parse_int_list(args.orders, "--orders"),
        k=args.k,
        weight_values=values,
        mode=args.mode,
        sample_size=args.sample_size,
        seed=args.seed,
        workers=args.workers,
        budget=args.budget,
    )
    try:
        report = conjecture_scan(config)
    except BudgetExceeded as err:
        if err.report is not None and args.out:
            atomic_write_text(args.out, dumps_stable(err.report.to_json()))
            print(f"non-authoritative report written to {args.out}", file=sys.stderr)
        raise
    _emit(report.to_json(), args.out)
    print(
        f"checked {report.checked} instances, "
        f"{report.counterexample_count} counterexamples, "
        f"wall time {report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = acceptance.run_all(args.scale)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number} {r.name}: {verdict} ({r.details})")
    if args.out:
        atomic_write_text(args.out, dumps_stable(acceptance.summary_json(args.scale, results)))
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
    p.add_argument("--cache", help="cache file path")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_davenport)

    p = sub.add_parser("davenport-table", help="table of D(G) for all groups up to an order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--cache", help="cache file path")
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
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--cache", help="davenport cache file path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a certificate against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--cache", help="davenport cache file path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan-conjecture", help="counterexample scan over an instance space")
    p.add_argument("--orders", required=True)
    p.add_argument("--k", type=int, required=True, help="number of weights")
    p.add_argument("--weights", help="comma-separated weight values (default 1..n-1)")
    p.add_argument("--mode", choices=(MODE_EXHAUSTIVE, MODE_SAMPLED), default=MODE_EXHAUSTIVE)
    p.add_argument("--sample-size", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    p.add_argument("--out", help="report output path (default stdout)")
    p.set_defaults(func=_cmd_scan_conjecture)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--scale", choices=(acceptance.SCALE_SMALL, acceptance.SCALE_FULL),
                   default=acceptance.SCALE_SMALL)
    p.add_argument("--out", help="write machine-readable summary JSON here")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as err:
        print(f"THEOREM VIOLATION: {err}", file=sys.stderr)
        return EXIT_THEOREM_VIOLATION
    except UnsatisfiableStatement as err:
        print(f"unsatisfiable: {err}", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    except OracleTooLarge as err:
        print(f"oracle cap exceeded: {err}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except BudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except ZsumError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
