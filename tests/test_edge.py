"""The public library edge: malformed arguments end in a ZsumError, and
every argument rule has one definition, in ``zsum.groups`` (the node-budget
rule in ``zsum.davenport``)."""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from zsum.conjecture import (
    ScanConfig,
    conjecture_check_instance,
    conjecture_scan,
    enumerate_zero_selection,
)
from zsum.davenport import davenport_get, zero_sum_free_check
from zsum.errors import InvalidArgument, InvalidInstance, ZsumError
from zsum.groups import canonicalize, rho
from zsum.weighted import (
    STATEMENTS,
    Instance,
    fallback_search,
    instance_digest,
    solve,
    solve_theorem1,
    solve_word1,
    verify_certificate,
)
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
# values of any type but int, so no drawn group is large
NON_INTS = st.one_of(st.none(), st.floats(-2, 6), st.text(max_size=2), st.binary(max_size=2))

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
        return cert.replace(selection=cert.selection.replace(**{field: junk}))
    return cert.replace(**{field: junk})


def _instance(draw, g):
    """An Instance over g, as a Python caller could build it, or a value of
    another type."""
    if draw(st.booleans()):
        return draw(SCALARS)
    return Instance(group=g, x=draw(_sequences(g)), w=draw(WEIGHTS), ell=draw(COUNTS))


def _scan_config(draw, g):
    """A ScanConfig over g, its fields of any type; orders of another group
    have entries that are no ints, and the budget stays small, so a scan
    that passes its checks takes milliseconds."""
    return ScanConfig(
        orders=draw(st.one_of(st.just(g.invariant_factors), _shapes(NON_INTS))),
        k=draw(COUNTS),
        weight_values=draw(WEIGHTS),
        mode=draw(st.one_of(st.sampled_from(["exhaustive", "sampled"]), SCALARS)),
        sample_size=draw(COUNTS),
        seed=draw(COUNTS),
        workers=draw(st.one_of(st.just(1), SCALARS)),
        budget=draw(st.one_of(st.integers(-2, 2000), SCALARS)),
    )


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
    "instance": lambda draw, g: Instance(
        group=draw(st.one_of(st.just(g), SCALARS)), x=draw(_sequences(g)), w=draw(WEIGHTS),
        ell=draw(COUNTS),
    ),
    "rho": lambda draw, g: rho(draw(_sequences(g))),
    "word1": lambda draw, g: solve_word1(g, draw(_sequences(g)), draw(WEIGHTS), draw(COUNTS)),
    "solve": lambda draw, g: solve(
        _instance(draw, g), draw(st.one_of(st.sampled_from(STATEMENTS), SCALARS))
    ),
    "canonicalize": lambda draw, g: canonicalize(draw(_shapes(st.one_of(COUNTS, NON_INTS)))),
    "scan-config": _scan_config,
    "conjecture-scan": lambda draw, g: conjecture_scan(
        draw(SCALARS) if draw(st.booleans()) else _scan_config(draw, g)
    ),
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


@pytest.mark.parametrize("call", [
    lambda: Instance(group="x", x=((0,),), w=(1,), ell=1),  # was an AttributeError
    lambda: rho(5),  # was a TypeError
    lambda: rho([[0]]),  # an unhashable value
    lambda: solve_word1(canonicalize([3]), 5, (1, 1, 1), 1),  # was a TypeError
    lambda: solve_word1(canonicalize([3]), iter([(0,), (1,), (2,)]), (1, 1, 1), 1),
    # the five below were AttributeErrors
    lambda: solve("x", "theorem1"),
    lambda: instance_digest("x"),
    lambda: fallback_search("x", "word1"),
    lambda: verify_certificate(CERTIFICATE, "x"),
    lambda: verify_certificate(CERTIFICATE, solve_theorem1(CERTIFICATE).replace(selection="x")),
], ids=["instance-group", "rho-int", "rho-unhashable", "word1-int", "word1-iterator",
        "solve-instance", "digest-instance", "oracle-instance", "verify-certificate",
        "verify-selection"])
def test_edge_arguments_of_the_wrong_type_are_invalid_instances(call):
    with pytest.raises(InvalidInstance):
        call()


def test_a_scan_of_no_scan_config_is_an_invalid_argument():
    # was an AttributeError
    with pytest.raises(InvalidArgument, match="^scan config must be of type ScanConfig, not str$"):
        conjecture_scan("x")


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


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names ``path`` imports and never reads; ``__future__`` imports
    are exempt, and a name that ``__all__`` lists counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_each_import_is_read():
    assert [line for path in SOURCES for line in _unused_imports(path)] == []


def test_the_import_scan_finds_an_unused_name(tmp_path):
    copy = tmp_path / "__init__.py"
    copy.write_text(
        "from __future__ import annotations\n"
        "import functools\n"
        "from typing import Callable, Sequence\n"
        "from .groups import canonicalize\n"
        "__all__ = ['canonicalize']\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert _unused_imports(copy) == ["__init__.py:2 functools", "__init__.py:3 Callable"]


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
