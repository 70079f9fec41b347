from __future__ import annotations

import hashlib
import json
import math
import time

import pytest

import zsum.cli
import zsum.davenport
import zsum.weighted
from zsum.cli import (
    EXIT_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    EXIT_THEOREM_VIOLATION,
    EXIT_UNSATISFIABLE,
    main,
)
from zsum.davenport import zero_sum_free_check
from zsum.errors import TheoremViolation
from zsum.groups import canonicalize
from zsum.serialize import certificate_to_json, dumps_stable, instance_to_json
from zsum.weighted import Certificate, Instance, Selection, instance_digest

from test_weighted import (
    INNER_IMAGES_OUT_OF_RANGE,
    _corollary_with_inner_image,
    _malformed_construction,
)


def _write_instance(path, statement, group_orders, x, w, ell):
    inst = Instance(group=canonicalize(group_orders), x=x, w=w, ell=ell)
    path.write_text(dumps_stable(instance_to_json(statement, inst)))
    return inst


def test_group_canonicalization(capsys):
    assert main(["group", "--orders", "4,6"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["canonical"]["orders"] == [2, 12]
    assert out["order"] == 24
    assert out["exponent"] == 12


def test_group_output_bytes_are_pinned(capsys):
    # "given" echoes the orders as parsed; the group itself keeps only its
    # invariant factors
    assert main(["group", "--orders", "4,6"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "84948c1cbc55ff1f325426e3618ea4e3a4362a488af10436307b1d38426b1038"
    )


def test_group_rejects_bad_orders(capsys):
    assert main(["group", "--orders", "4,0"]) == EXIT_INVALID
    assert capsys.readouterr().err.strip() != ""


def test_group_order_too_large_to_factor_exits_invalid(capsys):
    # a prime above 2^32 would take trial division far past any time limit
    assert main(["group", "--orders", "1000000000000000003"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: order 1000000000000000003 exceeds 4294967296, the largest order zsum factors\n"
    )


def test_davenport_value_and_witness(capsys):
    assert main(["davenport", "--orders", "3,3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 5
    assert len(out["witness"]) == 4


def test_davenport_formula_unavailable(capsys):
    assert main(["davenport", "--orders", "2,2,6", "--formula"]) == EXIT_INVALID


def test_davenport_node_budget(capsys):
    assert main(["davenport", "--orders", "11", "--exact", "--node-budget", "2"]) == EXIT_RESOURCE_CAP


def test_davenport_exact_z26_fits_a_small_node_budget(capsys):
    assert main(["davenport", "--orders", "26", "--exact", "--node-budget", "400"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == 26


def test_davenport_exact_search_deeper_than_the_recursion_limit(capsys):
    # the witness has 1,023 elements, one search frame each
    assert main(["davenport", "--orders", "1024", "--exact"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 1024 and out["witness"] == [[1]] * 1023


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_davenport_exact_refuses_a_node_budget_below_one(capsys, budget):
    argv = ["davenport", "--orders", "2,2,6", "--exact", "--node-budget", budget]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: node budget {budget} must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["davenport", "--orders", "3,3", "--node-budget", "0"],  # closed form: no search
    ["davenport", "--orders", "3,3", "--formula", "--node-budget", "-5"],
    ["davenport-table", "--max-order", "26", "--node-budget", "0"],  # rows before a search
])
def test_a_node_budget_below_one_is_refused_before_any_output(capsys, argv):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: node budget {argv[-1]} must be >= 1\n"


@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_davenport_table_refuses_a_max_order_below_one(capsys, max_order):
    assert main(["davenport-table", "--max-order", max_order]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max order {max_order} must be >= 1\n"


def test_davenport_table(capsys):
    assert main(["davenport-table", "--max-order", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2x4" in out or "2 x 4" in out.replace("⊕", "x")


def test_davenport_to_order_64_needs_no_search(capsys, monkeypatch):
    # closed forms and the six searched records cover every group of order
    # <= 64; the digests are of the output of a search under the default budget
    monkeypatch.setattr(zsum.davenport, "_memo", {})
    assert main(["davenport-table", "--max-order", "64", "--node-budget", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = {line.split()[1]: line.split()[2:] for line in out.splitlines()[1:]}
    searched = {"2x2x6": "8", "2x2x10": "12", "2x2x2x6": "9", "2x2x12": "14", "3x3x6": "10",
                "2x2x14": "16"}
    for factors, value in searched.items():
        assert rows[factors] == [value, "exact_search"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "24a591c18c453a1bc51b5713e44cd6e39d3445e73986cae45f16659266776363"
    )
    monkeypatch.setattr(zsum.davenport, "_memo", {})
    assert main(["davenport", "--orders", "2,2,14", "--node-budget", "1"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "a33aee0d49a727ae4d46e7f44f84d3a6c4630b2f73905bd0b82b98f8461e71a1"
    )


def test_davenport_budget_exhaustion_reports_the_lower_bound(capsys):
    argv = ["davenport", "--orders", "2,2,6", "--exact", "--node-budget", "3"]
    assert main(argv) == EXIT_RESOURCE_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: davenport_exact exhausted 3 nodes on Z_2 x Z_2 x Z_6: D >= 4\n"
        "witness: [[0,0,1],[0,0,1],[0,0,1]]\n"
    )
    witness = json.loads(captured.err.splitlines()[1].removeprefix("witness: "))
    assert zero_sum_free_check(canonicalize([2, 2, 6]), [tuple(e) for e in witness])


def test_solve_word0_example(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_instance(inst_path, "word1", [4], ((1,), (3,), (2,), (2,)), (1, 1, 1, 1), 2)
    assert main(["solve-word0", "--instance", str(inst_path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["indices"] == [1, 2]


def test_zero_sum_exact_length_found(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_instance(inst_path, "word1", [3], ((1,), (1,), (1,)), (1, 1, 1), 3)
    assert main(["zero-sum", "--length", "3", "--instance", str(inst_path)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["indices"] == [1, 2, 3]


def test_zero_sum_absent_is_unsatisfiable(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_instance(inst_path, "word1", [3], ((1,), (1,), (0,)), (1, 1, 1), 2)
    assert main(["zero-sum", "--length", "2", "--instance", str(inst_path)]) == EXIT_UNSATISFIABLE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["indices"] is None


@pytest.mark.parametrize("command, solver", [
    (["solve-word0"], "find_zero_sum_bounded"),
    (["zero-sum", "--length", "3"], "find_zero_sum_exact_length"),
])
def test_zero_sum_witness_failing_resummation_exits_theorem_violation(
    tmp_path, capsys, monkeypatch, command, solver
):
    monkeypatch.setattr(zsum.cli, solver, lambda *args: (1,))
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "witness.json"
    _write_instance(inst_path, "word1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    rc = main(command + ["--instance", str(inst_path), "--out", str(out_path)])
    assert rc == EXIT_THEOREM_VIOLATION
    assert capsys.readouterr().err == (
        "THEOREM VIOLATION: witness failed independent re-summation\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_solve_verify_round_trip_theorem1(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "theorem1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    assert main(["solve", "--instance", str(inst_path), "--out", str(cert_path)]) == EXIT_OK
    cert = json.loads(cert_path.read_text())
    assert cert["statement"] == "theorem1"
    assert cert["verified"] is True
    assert main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)]) == EXIT_OK
    assert "VALID" in capsys.readouterr().out


def test_solve_verify_round_trip_corollary(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(
        inst_path, "corollary", [3], ((1,), (2,), (1,), (0,), (2,)), (1, 1, 1), 2
    )
    assert main(["solve", "--instance", str(inst_path), "--out", str(cert_path)]) == EXIT_OK
    cert = json.loads(cert_path.read_text())
    assert cert["I"] == [1, 2, 3]
    assert cert["f"] == {"1": 1, "2": 4, "3": 5}
    assert main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)]) == EXIT_OK


def test_solve_verify_round_trip_word1(tmp_path):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "word1", [2], ((0,), (1,)), (2, 1), 1)
    assert main(["solve", "--instance", str(inst_path), "--out", str(cert_path)]) == EXIT_OK
    assert main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)]) == EXIT_OK


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "theorem1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    main(["solve", "--instance", str(inst_path), "--out", str(cert_path)])
    cert = json.loads(cert_path.read_text())
    cert["I"] = [1, 2, 3]
    cert["f"] = {"1": 1, "2": 2, "3": 3}
    cert_path.write_text(dumps_stable(cert))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert "INVALID" in captured.out
    assert "size window" in captured.out or "size window" in captured.err


# Map keys that name an index ambiguously.  A repeated key is written as raw
# text, since a JSON writer cannot emit one; "01" and "1" both parse as 1;
# "--1" is digits after minus signs but no integer.  name: (edit of the
# certificate text, the key the error names)
AMBIGUOUS_KEYS = {
    "repeated-key": (lambda text: text.replace('"f": {', '"f": {"1": 99,'), "duplicate key '1'"),
    "leading-zero": (
        lambda text: json.dumps({**json.loads(text), "f": {"1": 99, "2": 2, "3": 3, "01": 1}}),
        "key '01' is not an integer in canonical form",
    ),
    "double-minus": (
        lambda text: text.replace('"f": {', '"f": {"--1": 1,'),
        "key '--1' is not an integer in canonical form",
    ),
}


@pytest.mark.parametrize("name", sorted(AMBIGUOUS_KEYS))
def test_verify_refuses_a_certificate_map_that_names_an_index_twice(tmp_path, capsys, name):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "word1", [3], ((1,), (1,), (1,)), (1, 1, 1), 3)
    assert main(["solve", "--instance", str(inst_path), "--out", str(cert_path)]) == EXIT_OK
    argv = ["verify", "--instance", str(inst_path), "--cert", str(cert_path)]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "certificate: VALID\n"
    edit, key = AMBIGUOUS_KEYS[name]
    text = cert_path.read_text()
    cert_path.write_text(edit(text))
    assert cert_path.read_text() != text
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith(f"error: {cert_path}: certificate") and err.count("\n") == 1
    assert key in err and "Traceback" not in err


def test_a_repeated_key_in_an_instance_file_exits_invalid(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    _write_instance(inst_path, "word1", [3], ((1,), (1,), (1,)), (1, 1, 1), 3)
    inst_path.write_text(inst_path.read_text().replace('"ell": 3', '"ell": 3, "ell": 1'))
    assert main(["solve-word0", "--instance", str(inst_path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {inst_path}: instance file has a duplicate key 'ell'\n"


# The verifier mutations a certificate file can express (its f is a map, so
# it cannot carry a reordered or repeated domain, or an arity mismatch).
# name: (edit to the certificate JSON, the line ``zsum verify`` prints)
FILE_MUTANTS = {
    "image-zero": (lambda c: c["f"].update({"9": 0}), "certificate: INVALID (image range)"),
    "image-past-m": (lambda c: c["f"].update({"9": 12}), "certificate: INVALID (image range)"),
    "blocks-merged-past-width": (
        lambda c: c.update(shelling=[c["I"]]), "certificate: INVALID (shelling width)",
    ),
    "index-moved-between-blocks": (
        lambda c: c.update(shelling=[[6, 7, 8, 9], [1, 3, 4], [5]]),
        "certificate: INVALID (shelling block value)",
    ),
}


@pytest.mark.parametrize("name", sorted(FILE_MUTANTS))
def test_verify_names_the_check_a_mutated_certificate_file_fails(tmp_path, capsys, name):
    # the theorem1 certificate of the verifier's mutation suite: I = {1, 3, ..., 9}
    # on Z_3 x Z_3 (D = 5), shelled as (6, 7, 8, 9), (1, 3), (4, 5)
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    x = ((1, 0), (2, 2), (0, 2), (1, 2), (2, 1), (0, 1), (0, 0), (2, 1), (1, 1), (2, 2), (1, 0))
    _write_instance(inst_path, "theorem1", [3, 3], x, (-3, 13, 6, 8, 17, 8, 6, 3, 11, 18, -5), 2)
    assert main(["solve", "--instance", str(inst_path), "--out", str(cert_path)]) == EXIT_OK
    cert = json.loads(cert_path.read_text())
    assert cert["shelling"] == [[6, 7, 8, 9], [1, 3], [4, 5]]
    edit, line = FILE_MUTANTS[name]
    edit(cert)
    cert_path.write_text(dumps_stable(cert))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)]) == EXIT_FAILED
    assert capsys.readouterr().out == line + "\n"


def test_verify_rejects_group_mismatch(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    other_path = tmp_path / "other.json"
    _write_instance(inst_path, "theorem1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    main(["solve", "--instance", str(inst_path), "--out", str(cert_path)])
    _write_instance(other_path, "theorem1", [2], ((0,), (1,)), (1, 1), 1)
    assert main(["verify", "--instance", str(other_path), "--cert", str(cert_path)]) == EXIT_FAILED


def test_solve_unsatisfiable_corollary(tmp_path):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "corollary", [2], ((0,), (0,), (0,)), (1,), 3)
    rc = main(["solve", "--instance", str(inst_path), "--out", str(cert_path)])
    assert rc == EXIT_UNSATISFIABLE
    assert not cert_path.exists()


def test_malformed_instance_reports_location(tmp_path, capsys):
    inst_path = tmp_path / "broken.json"
    inst_path.write_text('{\n  "statement": "theorem1",\n')
    rc = main(["solve", "--instance", str(inst_path), "--out", str(tmp_path / "c.json")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "line" in err or ":" in err


def test_missing_instance_file(tmp_path):
    rc = main(["verify", "--instance", str(tmp_path / "nope.json"), "--cert", str(tmp_path / "c.json")])
    assert rc == EXIT_INVALID


@pytest.mark.parametrize("case", ["instance-not-utf8", "instance-is-directory", "cert-not-utf8"])
def test_unreadable_input_files_exit_invalid(tmp_path, capsys, case):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "word1", [2], ((0,), (1,)), (2, 1), 1)
    if case == "instance-not-utf8":
        inst_path.write_bytes(b'{"statement": "word1\xff"}')
        argv = ["solve", "--instance", str(inst_path), "--out", str(cert_path)]
    elif case == "instance-is-directory":
        argv = ["solve", "--instance", str(tmp_path), "--out", str(cert_path)]
    else:
        cert_path.write_bytes(b"\xff\xfe{}")
        argv = ["verify", "--instance", str(inst_path), "--cert", str(cert_path)]
    capsys.readouterr()
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("role", ["instance", "certificate"])
def test_too_deeply_nested_json_exits_invalid(tmp_path, capsys, role):
    deep_path = tmp_path / "deep.json"
    deep_path.write_text("[" * 200_000)
    inst_path = tmp_path / "inst.json"
    _write_instance(inst_path, "word1", [2], ((0,), (1,)), (2, 1), 1)
    argv = {
        "instance": ["solve", "--instance", str(deep_path), "--out", str(tmp_path / "c.json")],
        "certificate": ["verify", "--instance", str(inst_path), "--cert", str(deep_path)],
    }[role]
    capsys.readouterr()
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_scan_conjecture_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "scan-conjecture",
            "--orders",
            "4",
            "--k",
            "2",
            "--weights",
            "1,2,3",
            "--out",
            str(report_path),
        ]
    )
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["checked"] == 1836
    assert report["counterexample_count"] == 24
    assert report["authoritative"] is True
    assert capsys.readouterr().err.startswith(
        "checked 1836 instances (48 orbits decided), 24 counterexamples, wall time "
    )


@pytest.mark.parametrize("flags", [[], ["--sample-size", "9"], ["--seed", "9"],
                                   ["--sample-size", "9", "--seed", "9"]])
def test_an_exhaustive_report_is_the_same_whatever_sample_size_and_seed(tmp_path, flags):
    # an exhaustive scan draws nothing, so its report writes sample_size 0
    # and seed null, whatever the flags say
    from test_determinism import SCAN_Z4_K2_DIGEST, _digest

    report_path = tmp_path / "report.json"
    argv = ["scan-conjecture", "--orders", "4", "--k", "2", *flags, "--out", str(report_path)]
    assert main(argv) == EXIT_OK
    assert _digest(json.loads(report_path.read_text())) == SCAN_Z4_K2_DIGEST


def test_scan_conjecture_budget_cap(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "scan-conjecture",
            "--orders",
            "4",
            "--k",
            "4",
            "--budget",
            "10",
            "--out",
            str(report_path),
        ]
    )
    assert rc == EXIT_RESOURCE_CAP
    report = json.loads(report_path.read_text())
    assert report["authoritative"] is False


@pytest.mark.parametrize("order, k", [(40, 2), (20, 20), (40, 40)])
def test_scan_conjecture_refuses_an_oversized_class_count_at_once(capsys, order, k):
    # Z_40 with k = 2 has about 9.3e17 x-classes against 780 weight classes,
    # and at k = n the weight classes alone run to about 3.5e10 (Z_20) and
    # 5.4e21 (Z_40); both counts are worked out, not generated
    from zsum.classes import _class_count

    started = time.perf_counter()
    assert main(["scan-conjecture", "--orders", str(order), "--k", str(k)]) == EXIT_RESOURCE_CAP
    assert time.perf_counter() - started < 1.0
    classes = _class_count(order, k, order) * math.comb(order - 1 + k - 1, k)  # weights 1..n-1
    assert capsys.readouterr().err.splitlines() == [
        f"budget exceeded: exhaustive space has {classes} classes, budget is 5000000"
    ]


def test_a_sampled_scan_that_keeps_few_draws_ends_at_its_budget(capsys):
    # an x of Z_20 repeats nothing (k = 1) with chance 20!/20^20, about 2e-8,
    # so the sample is never filled; every x drawn counts against the budget
    started = time.perf_counter()
    assert main(["scan-conjecture", "--mode", "sampled", "--orders", "20", "--k", "1",
                 "--sample-size", "1", "--budget", "10000"]) == EXIT_RESOURCE_CAP
    assert time.perf_counter() - started < 5.0
    assert capsys.readouterr().err.splitlines() == [
        "budget exceeded: budget of 10000 x draws kept 0 of a sample of 1"
    ]


def test_only_selftest_loads_the_acceptance_battery():
    import os
    import subprocess
    import sys

    # a fresh interpreter, importing this checkout's package
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zsum.cli.__file__)))
    code = "import sys, zsum.cli; zsum.cli.build_parser(); print('zsum.acceptance' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True).stdout
    assert loaded == "False\n"


def test_selftest_has_one_size(capsys):
    # the battery always runs its full Davenport sweep, so there is no
    # --scale to choose
    with pytest.raises(SystemExit) as exited:
        main(["selftest", "--scale", "full"])
    assert exited.value.code == EXIT_INVALID
    assert "unrecognized arguments: --scale full" in capsys.readouterr().err


def test_only_scan_conjecture_loads_the_scanner():
    import os
    import subprocess
    import sys

    import zsum.conjecture as conjecture

    # a fresh interpreter, importing this checkout's package
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zsum.cli.__file__)))
    code = ("import sys, zsum, zsum.cli; zsum.cli.build_parser(); "
            "print('zsum.conjecture' in sys.modules, 'zsum.classes' in sys.modules, "
            "zsum.conjecture_scan.__module__)")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True).stdout
    assert loaded == "False False zsum.conjecture\n"
    # the parser names the scanner's modes and default budget without importing it
    parser = zsum.cli.build_parser()
    argv = ["scan-conjecture", "--orders", "2", "--k", "1"]
    args = parser.parse_args(argv)
    assert (args.mode, args.budget) == (conjecture.MODE_EXHAUSTIVE, conjecture.DEFAULT_SCAN_BUDGET)
    for mode in (conjecture.MODE_EXHAUSTIVE, conjecture.MODE_SAMPLED):
        assert parser.parse_args([*argv, "--mode", mode]).mode == mode


def test_scan_conjecture_defaults_weights(capsys):
    rc = main(["scan-conjecture", "--orders", "2", "--k", "1"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["weight_values"] == [1]


@pytest.mark.parametrize("weights", ["", ","])
def test_scan_conjecture_refuses_an_empty_weight_list(capsys, weights):
    # an empty --weights is an empty set, not a request for the default
    assert main(["scan-conjecture", "--orders", "4", "--k", "2", "--weights", weights]) == (
        EXIT_INVALID
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weight value set is empty\n"


@pytest.mark.parametrize("command", [["group"], ["davenport"], ["scan-conjecture", "--k", "1"]],
                         ids=["group", "davenport", "scan-conjecture"])
@pytest.mark.parametrize("orders", ["", ","], ids=["empty", "comma"])
def test_an_empty_order_list_is_refused(capsys, command, orders):
    # an empty --orders names no group, not the trivial one
    assert main([*command, "--orders", orders]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --orders {orders!r} names no cyclic order; the trivial group is 1\n"
    )


def test_orders_1_is_the_trivial_group(capsys):
    assert main(["group", "--orders", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["canonical"] == {"orders": []}
    assert canonicalize([]) == canonicalize([1])


@pytest.mark.parametrize("target, path", [("instance", "x[0]"), ("certificate", "value")])
def test_a_wrong_arity_element_exits_invalid_naming_its_path(tmp_path, capsys, target, path):
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "theorem1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    assert main(["solve", "--instance", str(inst_path), "--out", str(cert_path)]) == EXIT_OK
    file = inst_path if target == "instance" else cert_path
    obj = json.loads(file.read_text())
    if target == "instance":
        obj["x"][0] = [1, 0]
    else:
        obj["value"] = [0, 0]
    file.write_text(dumps_stable(obj))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{target}.{path}: element " in captured.err
    assert "has arity 2, group rank is 1" in captured.err


def test_solve_with_a_disabled_construction_exits_theorem_violation(tmp_path, capsys, monkeypatch):
    def disabled(*args, **kwargs):
        raise TheoremViolation("construction disabled by the test")

    monkeypatch.setattr(zsum.weighted, "_theorem1_pairs", disabled)
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "theorem1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    rc = main(["solve", "--instance", str(inst_path), "--out", str(cert_path)])
    assert rc == EXIT_THEOREM_VIOLATION
    assert capsys.readouterr().err.startswith("THEOREM VIOLATION: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_solve_whose_certificate_the_verifier_rejects_exits_theorem_violation(
    tmp_path, capsys, monkeypatch
):
    original = zsum.weighted._construct
    monkeypatch.setattr(zsum.weighted, "_construct", lambda *args: (original(*args)[0], ()))
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    _write_instance(inst_path, "theorem1", [3], ((1,), (2,), (0,)), (1, 1, 1), 2)
    rc = main(["solve", "--instance", str(inst_path), "--out", str(cert_path)])
    assert rc == EXIT_THEOREM_VIOLATION
    assert capsys.readouterr().err == (
        "THEOREM VIOLATION: the theorem1 construction gave no valid selection in window "
        "[1, 2] despite its hypotheses: shelling partition\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_verify_rejects_an_instance_outside_the_hypotheses(tmp_path, capsys):
    # theorem1 on Z_3 with ell = 1 needs m = n + D - min(D, ell) - 1 = 4;
    # a zero-value selection of size n - 1 = 2 on m = 2 meets every other check
    inst_path = tmp_path / "inst.json"
    cert_path = tmp_path / "cert.json"
    inst = _write_instance(inst_path, "theorem1", [3], ((1,), (2,)), (1, 1), 1)
    cert = Certificate(
        statement="theorem1",
        instance_digest=instance_digest(inst),
        selection=Selection(indices=(1, 2), images=(1, 2), value=(0,)),
        shelling=None,
        solve_path="constructive",
        verified=True,
    )
    cert_path.write_text(dumps_stable(certificate_to_json(inst.group, cert)))
    assert main(["solve", "--instance", str(inst_path), "--out", str(tmp_path / "c.json")]) == (
        EXIT_INVALID
    )
    capsys.readouterr()
    rc = main(["verify", "--instance", str(inst_path), "--cert", str(cert_path)])
    assert rc == EXIT_FAILED
    assert capsys.readouterr().out == (
        "certificate: INVALID (hypotheses: need m = n + D - min(D, ell) - 1 = 4, got 2)\n"
    )


def _one_position_short(tmp_path):
    """theorem1 on Z_2^2 x Z_6 (n = 24, D = 8, no closed form) with ell = 2
    and m = 28, one below n + D - min(D, ell) - 1 = 29: sound only if D were 7.
    Also writes a Davenport cache file in the format earlier versions read,
    claiming D = 7 with six zero-sum-free elements."""
    g = canonicalize([2, 2, 6])
    x = g.elements() + g.elements()[1:5]
    inst = _write_instance(tmp_path / "inst.json", "theorem1", [2, 2, 6], x, tuple(range(1, 29)), 2)
    (tmp_path / "dav.json").write_text(json.dumps(
        {"2x2x6": {"value": 7, "witness": [[0, 0, 1]] * 5 + [[0, 1, 0]]}}
    ))
    return inst


def test_solve_refuses_an_instance_one_position_short_whatever_cache_is_named(
    tmp_path, capsys, monkeypatch
):
    _one_position_short(tmp_path)
    argv = ["solve", "--instance", str(tmp_path / "inst.json"), "--out", str(tmp_path / "c.json")]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == "error: need m = n + D - min(D, ell) - 1 = 29, got 28\n"
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--cache", str(tmp_path / "dav.json")])
    assert exited.value.code == EXIT_INVALID
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
    monkeypatch.setenv(zsum.cli.CACHE_ENV_VAR, str(tmp_path / "dav.json"))
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: ZSUM_DAVENPORT_CACHE is set, but zsum reads no Davenport cache file\n"
    )
    assert not (tmp_path / "c.json").exists()


def test_verify_refuses_a_certificate_that_takes_an_understated_davenport_constant(
    tmp_path, capsys
):
    inst = _one_position_short(tmp_path)
    # the certificate a solve taking D = 7 would write: only the hypotheses fail
    (indices, images), blocks = zsum.weighted._construct(inst, "theorem1", 7)
    # rules taking D = 7 on n = 24 with ell = 2: window [22, 23], blocks up to 7 wide
    failed, value = zsum.weighted._check_selection(
        inst, "theorem1", (7, 22, 23, 7), indices, images, blocks, None
    )
    assert failed == []
    cert = Certificate(
        statement="theorem1",
        instance_digest=instance_digest(inst),
        selection=Selection(indices=indices, images=images, value=value),
        shelling=blocks,
        solve_path="constructive",
        verified=True,
    )
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(dumps_stable(certificate_to_json(inst.group, cert)))
    rc = main(["verify", "--instance", str(tmp_path / "inst.json"), "--cert", str(cert_path)])
    assert rc == EXIT_FAILED
    assert capsys.readouterr().out == (
        "certificate: INVALID (hypotheses: need m = n + D - min(D, ell) - 1 = 29, got 28)\n"
    )


# the seven commands that take --out; "{}" stands for the output path
OUT_COMMANDS = {
    "group": ["group", "--orders", "4", "--out", "{}"],
    "davenport": ["davenport", "--orders", "6", "--out", "{}"],
    "solve-word0": ["solve-word0", "--instance", "inst.json", "--out", "{}"],
    "zero-sum": ["zero-sum", "--length", "3", "--instance", "inst.json", "--out", "{}"],
    "solve": ["solve", "--instance", "inst.json", "--out", "{}"],
    "scan-conjecture": ["scan-conjecture", "--orders", "2", "--k", "1", "--out", "{}"],
    "selftest": ["selftest", "--out", "{}"],
}


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_unwritable_out_path_exits_invalid(tmp_path, capsys, monkeypatch, command, where):
    import zsum.acceptance as acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda: [
        acceptance.CriterionResult(number=1, name="stub", passed=True, details="ok"),
    ])
    monkeypatch.chdir(tmp_path)
    _write_instance(tmp_path / "inst.json", "word1", [3], ((1,), (1,), (1,)), (1, 1, 1), 3)
    if where == "directory":
        out = named = tmp_path / "taken"
        out.mkdir()
    else:
        named = tmp_path / "missing"
        out = named / "out.json"
    argv = [str(out) if arg == "{}" else arg for arg in OUT_COMMANDS[command]]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]


@pytest.mark.parametrize("command, stub", [
    ("scan-conjecture", "zsum.conjecture.conjecture_scan"),
    ("selftest", "zsum.acceptance.run_all"),
])
def test_directory_out_path_exits_before_any_work(tmp_path, capsys, monkeypatch, command, stub):
    calls = []
    monkeypatch.setattr(stub, lambda *args, **kwargs: calls.append(args))
    argv = [str(tmp_path) if arg == "{}" else arg for arg in OUT_COMMANDS[command]]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: output path is a directory: {tmp_path}\n"
    assert calls == []


def test_selftest_writes_summary(tmp_path, capsys, monkeypatch):
    import zsum.acceptance as acceptance

    def fake_run_all():
        return [
            acceptance.CriterionResult(number=1, name="stub", passed=True, details="ok"),
            acceptance.CriterionResult(number=2, name="stub2", passed=False, details="bad"),
        ]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    out_path = tmp_path / "summary.json"
    rc = main(["selftest", "--out", str(out_path)])
    assert rc == EXIT_FAILED  # one stubbed criterion fails
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("PASS" in line for line in lines)
    assert any("FAIL" in line for line in lines)
    summary = json.loads(out_path.read_text())
    assert summary["all_passed"] is False
    assert [r["number"] for r in summary["results"]] == [1, 2]


@pytest.mark.parametrize("bad", ["repeated-image", "image-0", "image-m+1"])
def test_solve_whose_construction_gives_a_malformed_map_exits_theorem_violation(
    tmp_path, capsys, monkeypatch, bad
):
    inst = _malformed_construction(monkeypatch, "theorem1", bad)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dumps_stable(instance_to_json("theorem1", inst)))
    rc = main(["solve", "--instance", str(inst_path), "--out", str(tmp_path / "cert.json")])
    assert rc == EXIT_THEOREM_VIOLATION
    err = capsys.readouterr().err
    assert err.startswith("THEOREM VIOLATION: the theorem1 construction gave no valid selection")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


@pytest.mark.parametrize("bad", sorted(INNER_IMAGES_OUT_OF_RANGE))
def test_solve_whose_corollary_inner_image_is_out_of_range_exits_theorem_violation(
    tmp_path, capsys, monkeypatch, bad
):
    inst = _corollary_with_inner_image(monkeypatch, INNER_IMAGES_OUT_OF_RANGE[bad])
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dumps_stable(instance_to_json("corollary", inst)))
    rc = main(["solve", "--instance", str(inst_path), "--out", str(tmp_path / "cert.json")])
    assert rc == EXIT_THEOREM_VIOLATION
    err = capsys.readouterr().err
    assert err.startswith("THEOREM VIOLATION: the corollary construction gave no valid selection")
    assert err.rstrip().endswith("hypotheses: image range")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
