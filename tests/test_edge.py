"""The public library edge: malformed arguments end in a ZsumError, and
every argument rule has one definition, in ``zsum.groups`` (the node-budget
rule in ``zsum.davenport``)."""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from zsum.conjecture import conjecture_check_instance, enumerate_zero_selection
from zsum.davenport import davenport_get, zero_sum_free_check
from zsum.errors import ZsumError
from zsum.groups import canonicalize
from zsum.weighted import Instance, solve_theorem1, verify_certificate
from zsum.zerosum import find_zero_sum_bounded, find_zero_sum_davenport, find_zero_sum_exact_length

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "zsum").glob("*.py"))

# ------------------------------------------------------------- edge fuzzing

GROUPS = [canonicalize(orders) for orders in ([3], [4], [2, 2])]

# values of the wrong type for any argument
SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(-2, 6), st.text(max_size=2), st.binary(max_size=2),
    st.integers(-2, 6),
)


def _shapes(entries: st.SearchStrategy) -> st.SearchStrategy:
    """Lists and tuples of ``entries``, mostly, and values that are no list
    or tuple: scalars, sets, dicts and one-shot iterators."""
    items = st.lists(entries, max_size=6)
    return st.one_of(
        items, items.map(tuple), items.map(tuple), SCALARS,
        st.sets(st.integers(0, 3), max_size=3), st.dictionaries(st.integers(0, 3), entries),
        items.map(iter), items.map(lambda v: (e for e in v)),
    )


def _sequences(g) -> st.SearchStrategy:
    """Sequences over g, their entries mostly elements, else lists, tuples
    of any arity and residues, or scalars."""
    valid = st.sampled_from(g.elements())
    bad = st.one_of(
        SCALARS, st.lists(st.integers(-1, 4), max_size=3), st.lists(SCALARS, max_size=3).map(tuple)
    )
    return _shapes(st.one_of(valid, valid, valid, bad))


WEIGHTS = _shapes(st.one_of(st.integers(-9, 9), st.integers(-9, 9), SCALARS)).filter(
    lambda w: not isinstance(w, (list, tuple)) or len(w) <= 4  # keeps the oracle small
)
COUNTS = st.one_of(st.integers(-1, 5), SCALARS)
BUDGETS = st.one_of(st.integers(-2, 10**8), SCALARS)

# a theorem1 instance on Z_5 whose certificate the verifier fuzz corrupts
CERTIFICATE = Instance(group=canonicalize([5]), x=tuple((v,) for v in (1, 1, 2, 2, 3, 3, 4)),
                       w=(1, 2, 0, 4, 3, -1, 7), ell=2)


def _certificate_fields(draw):
    """CERTIFICATE's certificate with one field, as a Python caller could,
    set to a value of any type."""
    cert = solve_theorem1(CERTIFICATE)
    junk = draw(st.one_of(SCALARS, _shapes(SCALARS), _shapes(_shapes(SCALARS))))
    field = draw(st.sampled_from(
        ["indices", "images", "value", "shelling", "statement", "instance_digest"]
    ))
    if field in ("indices", "images", "value"):
        return dataclasses.replace(
            cert, selection=dataclasses.replace(cert.selection, **{field: junk})
        )
    return dataclasses.replace(cert, **{field: junk})


EDGES = {
    "bounded": lambda draw, g: find_zero_sum_bounded(g, draw(_sequences(g)), draw(COUNTS)),
    "davenport": lambda draw, g: find_zero_sum_davenport(g, draw(_sequences(g))),
    "exact-length": lambda draw, g: find_zero_sum_exact_length(
        g, draw(_sequences(g)), draw(COUNTS)
    ),
    "zero-sum-free": lambda draw, g: zero_sum_free_check(g, draw(_sequences(g))),
    "check-instance": lambda draw, g: conjecture_check_instance(
        g, draw(_sequences(g)), draw(WEIGHTS)
    ),
    "enumerate": lambda draw, g: enumerate_zero_selection(g, draw(_sequences(g)), draw(WEIGHTS)),
    "davenport-get": lambda draw, g: davenport_get(g, node_budget=draw(BUDGETS)),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_library_edge_raises_only_zsum_errors(edge, data):
    # a TypeError, or a TheoremViolation (a BaseException), fails the test
    g = data.draw(st.sampled_from(GROUPS))
    try:
        EDGES[edge](data.draw, g)
    except ZsumError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_verifier_reports_malformed_certificates_as_diagnostics(data):
    ok, diagnostics = verify_certificate(CERTIFICATE, _certificate_fields(data.draw))
    assert isinstance(ok, bool) and ok == (diagnostics == [])


# ------------------------------------------------ one definition per rule


def _names(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _is_int_test(node: ast.AST) -> bool:
    """``type(...) is not int``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name)
        and node.left.func.id == "type"
        and [type(op) for op in node.ops] == [ast.IsNot]
        and isinstance(node.comparators[0], ast.Name)
        and node.comparators[0].id == "int"
    )


def _rule_copies(path: pathlib.Path) -> list[str]:
    """Where ``path`` writes an int rule (``if type(...) is not int:``
    then raise) or calls ``check_element`` inside a loop, outside the one
    home of each: ``zsum.groups`` and ``AbelianGroup.check_elements``."""
    found = []
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)

    def visit(node: ast.AST, function: str, in_loop: bool) -> None:
        if isinstance(node, ast.FunctionDef):
            function, in_loop = node.name, False
        if (
            isinstance(node, ast.If) and path.name != "groups.py"
            and any(_is_int_test(n) for n in ast.walk(node.test))
            and any(isinstance(n, ast.Raise) for n in node.body)
        ):
            found.append(f"{path.name}:{node.lineno} int rule in {function}")
        if (
            in_loop and function != "check_elements"
            and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check_element"
        ):
            found.append(f"{path.name}:{node.lineno} check_element loop in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, in_loop or isinstance(node, loops))

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", False)
    return found


def test_each_argument_rule_is_written_once():
    assert "groups.py" in [path.name for path in SOURCES]
    copies = [line for path in SOURCES for line in _rule_copies(path)]
    assert copies == []
    defined = set().union(*[_names(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES])
    assert defined & {"_check_weights", "_check_elements", "_check_node_budget"} == set()


def test_the_rule_scan_finds_a_copy(tmp_path):
    # the scan above must see the patterns it forbids
    copy = tmp_path / "weighted.py"
    copy.write_text(
        "def check(g, x, k):\n"
        "    for e in x:\n"
        "        g.check_element(e)\n"
        "    if type(k) is not int:\n"
        "        raise ValueError(k)\n",
        encoding="utf-8",
    )
    assert _rule_copies(copy) == [
        "weighted.py:3 check_element loop in check", "weighted.py:4 int rule in check"
    ]
