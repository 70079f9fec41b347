"""The CLI edge: malformed instance and certificate files and malformed argv
end in a documented exit code, never a traceback.

Each example starts from the valid files of a small solved theorem1,
corollary or word1 instance, mutates the JSON or the argv, and runs
``zsum.cli.main`` in process.  Exit 4 (a theorem violation) is a failure:
no mutation can make a construction miss under its hypotheses.  Group
replacements come from a fixed list of chains of order at most 64 and of
bad orders, so no run starts a Davenport search.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from zsum.cli import (
    EXIT_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    EXIT_UNSATISFIABLE,
    main,
)
from zsum.groups import canonicalize, groups_up_to_order
from zsum.serialize import certificate_to_json, dumps_stable, instance_to_json
from zsum.weighted import Instance, solve

DOCUMENTED = {EXIT_OK, EXIT_FAILED, EXIT_INVALID, EXIT_UNSATISFIABLE, EXIT_RESOURCE_CAP}

# statement: (orders, x, w, ell), each solvable
CASES = {
    "theorem1": (
        [3, 3],
        ((1, 0), (2, 2), (0, 2), (1, 2), (2, 1), (0, 1), (0, 0), (2, 1), (1, 1), (2, 2), (1, 0)),
        (-3, 13, 6, 8, 17, 8, 6, 3, 11, 18, -5), 2,
    ),
    "corollary": ([3], ((1,), (2,), (1,), (0,), (2,)), (1, 1, 1), 2),
    "word1": ([2], ((0,), (1,)), (2, 1), 1),
}


def _files(statement: str) -> tuple[dict, dict]:
    """The instance and certificate JSON of the case of ``statement``."""
    orders, x, w, ell = CASES[statement]
    inst = Instance(group=canonicalize(orders), x=x, w=w, ell=ell)
    return (instance_to_json(statement, inst),
            certificate_to_json(inst.group, solve(inst, statement)))


FILES = {statement: _files(statement) for statement in CASES}

# Replacements for a group's "orders": every chain of order <= 64, whose D
# needs no search, and orders that are no chain or no list.
GROUP_ORDERS = [list(g.invariant_factors) for g in groups_up_to_order(64)] + [
    [0], [-1], [2**70], [3, 0], [2, -1], ["3"], [3.0], [True], [None], [[3]],
    "3", 3, None, {"orders": [3]},
]
# values of another type, swapped in for any value of a file
SWAPS = [None, True, False, 0, -1, 1.5, "", "x", [], [1], {}, {"a": 1}, 2**70, -(2**70)]
HUGE = [2**70, -(2**70)]
DEPTH = 5000


def _paths(node: object, path: tuple = ()) -> list[tuple]:
    """The path of every value in a JSON tree, the root included, in
    document order; a group is replaced whole, so its insides are skipped."""
    out = [path]
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "group":
                out.extend(_paths(value, path + (key,)))
            else:
                out.append(path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.extend(_paths(value, path + (i,)))
    return out


def _get(tree: object, path: tuple) -> object:
    for key in path:
        tree = tree[key]
    return tree


def _set(tree: object, path: tuple, value: object) -> object:
    """``tree`` with the value at ``path`` replaced (the root when empty)."""
    if not path:
        return value
    _get(tree, path[:-1])[path[-1]] = value
    return tree


@st.composite
def _file_mutation(draw, family: str) -> tuple[str, str, str]:
    """(statement, which file, its text) with one mutation of ``family``."""
    statement = draw(st.sampled_from(sorted(FILES)))
    which = draw(st.sampled_from(["instance", "certificate"]))
    tree = copy.deepcopy(FILES[statement][which == "certificate"])
    paths = _paths(tree)
    if family == "swap":
        tree = _set(tree, draw(st.sampled_from(paths)), draw(st.sampled_from(SWAPS)))
    elif family == "delete":
        holders = [p for p in paths if isinstance(_get(tree, p), dict) and _get(tree, p)]
        holder = _get(tree, draw(st.sampled_from(holders)))
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif family == "huge":
        ints = [p for p in paths if type(_get(tree, p)) is int]
        tree = _set(tree, draw(st.sampled_from(ints)), draw(st.sampled_from(HUGE)))
    elif family == "group":
        tree["group"] = {"orders": draw(st.sampled_from(GROUP_ORDERS))}
    elif family == "deep":
        # nesting a JSON writer would refuse, written as raw text
        key = draw(st.sampled_from(sorted(tree)))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
        tree[key] = "<deep>"
        return statement, which, dumps_stable(tree).replace(
            '"<deep>"', opener * DEPTH + "0" + closer * DEPTH
        )
    elif family == "repeat":
        # a key repeated in one object, which no JSON writer emits
        key = draw(st.sampled_from(sorted(tree)))
        value = draw(st.sampled_from([tree[key]] + SWAPS))
        text = dumps_stable(tree)
        return statement, which, "{" + json.dumps(key) + ": " + json.dumps(value) + "," + text[1:]
    return statement, which, dumps_stable(tree)


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` in process: its exit code, argparse's SystemExit
    included, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
    return code, err.getvalue()


def _assert_documented(argv: list[str]) -> None:
    code, err = _run(argv)
    assert code in DOCUMENTED, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """One folder for the files of every example; each example rewrites them."""
    return tmp_path_factory.mktemp("cli-edge")


@pytest.mark.parametrize("family", ["swap", "delete", "huge", "group", "deep", "repeat"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mutated_file_ends_in_a_documented_exit_code(folder, family, data):
    statement, which, text = data.draw(_file_mutation(family))
    inst_path, cert_path, out_path = folder / "inst.json", folder / "cert.json", folder / "out.json"
    inst, cert = FILES[statement]
    inst_path.write_text(text if which == "instance" else dumps_stable(inst))
    cert_path.write_text(text if which == "certificate" else dumps_stable(cert))
    commands = [["verify", "--instance", str(inst_path), "--cert", str(cert_path)]]
    if which == "instance":
        commands += [
            ["solve", "--instance", str(inst_path), "--out", str(out_path)],
            ["solve-word0", "--instance", str(inst_path)],
            ["zero-sum", "--length", "2", "--instance", str(inst_path)],
        ]
    _assert_documented(data.draw(st.sampled_from(commands)))


# values for an int flag: no int, huge or out of range
FLAG_VALUES = ["x", "1.5", "", "2**70", "1e3", str(2**70), str(-(2**70)), "0", "-1", "1", "2"]
# (valid argv, the index of its int flag or None); {inst}, {cert} and {out}
# name the word1 case's files and an output path
ARGVS = [
    (["zero-sum", "--length", "2", "--instance", "{inst}"], 2),
    (["scan-conjecture", "--orders", "3", "--k", "2"], 4),
    (["davenport", "--orders", "2,2,6", "--node-budget", "1000"], 4),
    (["solve", "--instance", "{inst}", "--out", "{out}"], None),
    (["verify", "--instance", "{inst}", "--cert", "{cert}"], None),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_argv_ends_in_a_documented_exit_code(folder, data):
    paths = {name: folder / f"{name}.json" for name in ("inst", "cert", "out")}
    inst, cert = FILES["word1"]
    paths["inst"].write_text(dumps_stable(inst))
    paths["cert"].write_text(dumps_stable(cert))
    template, flag = data.draw(st.sampled_from(ARGVS))
    argv = [token.format(**paths) for token in template]
    if flag is not None and data.draw(st.booleans()):
        argv[flag] = data.draw(st.sampled_from(FLAG_VALUES))
    else:  # a flag, or its value, is missing
        del argv[data.draw(st.integers(1, len(argv) - 1))]
    _assert_documented(argv)
