"""JSON schemas and deterministic file I/O.

All writers sort keys and end with a newline, so identical objects always
produce byte-identical files.  Writes go through a temp file in the target
directory followed by ``os.replace``, so a crash never leaves a partial
file behind.

Schemas (all group literals are ``{"orders": [d1, d2, ...]}``; outputs echo
the canonical invariant-factor form):

* instance: ``{"statement", "group", "x", "w", "ell"}``
* certificate: ``{"statement", "group", "instance_digest", "I", "f",
  "value", "shelling", "solve_path", "verified"}``, with f's keys written
  as ``str(i)``
* zero-sum witness: ``{"group", "indices"}``
* davenport record: ``{"group", "value", "witness", "method"}``

A file that repeats a key within one object is refused, not read as its
last value.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Any

from .davenport import DavenportRecord
from .errors import InvalidElement, InvalidInstance
from .groups import AbelianGroup, Element, canonicalize
from .weighted import STATEMENTS, Certificate, Instance, Selection

# str(i) for an integer i, the only map key read, so no two keys name one index
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def dumps_stable(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise InvalidInstance(f"{where}: {message}")


def _int_list(obj: Any, where: str) -> list[int]:
    _expect(isinstance(obj, list), where, f"expected a list, got {type(obj).__name__}")
    for pos, item in enumerate(obj):  # a JSON int; true and false are bools
        _expect(type(item) is int, f"{where}[{pos}]", f"expected an integer, got {item!r}")
    return list(obj)


def group_to_json(g: AbelianGroup) -> dict:
    return {"orders": list(g.invariant_factors)}


def group_from_json(obj: Any, where: str = "group") -> AbelianGroup:
    _expect(isinstance(obj, dict), where, f"expected an object, got {type(obj).__name__}")
    _expect("orders" in obj, where, 'missing key "orders"')
    return canonicalize(_int_list(obj["orders"], f"{where}.orders"))


def element_from_json(g: AbelianGroup, obj: Any, where: str) -> Element:
    elem = tuple(_int_list(obj, where))
    try:
        g.check_element(elem)
    except InvalidElement as err:
        raise InvalidInstance(f"{where}: {err}") from err
    return elem


def instance_to_json(statement: str, inst: Instance) -> dict:
    return {
        "statement": statement,
        "group": group_to_json(inst.group),
        "x": [list(e) for e in inst.x],
        "w": list(inst.w),
        "ell": inst.ell,
    }


def instance_from_json(obj: Any, where: str = "instance") -> tuple[str, Instance]:
    _expect(isinstance(obj, dict), where, f"expected an object, got {type(obj).__name__}")
    for key in ("statement", "group", "x", "w", "ell"):
        _expect(key in obj, where, f'missing key "{key}"')
    statement = obj["statement"]
    _expect(
        statement in STATEMENTS,
        f"{where}.statement",
        f"unknown statement {statement!r}; expected one of {list(STATEMENTS)}",
    )
    g = group_from_json(obj["group"], f"{where}.group")
    raw_x = obj["x"]
    _expect(isinstance(raw_x, list), f"{where}.x", "expected a list of elements")
    x = tuple(
        element_from_json(g, item, f"{where}.x[{pos}]") for pos, item in enumerate(raw_x)
    )
    w = tuple(_int_list(obj["w"], f"{where}.w"))
    ell = obj["ell"]
    _expect(type(ell) is int, f"{where}.ell", f"expected an integer, got {ell!r}")
    return statement, Instance(group=g, x=x, w=w, ell=ell)


def certificate_to_json(g: AbelianGroup, cert: Certificate) -> dict:
    sel = cert.selection
    return {
        "statement": cert.statement,
        "group": group_to_json(g),
        "instance_digest": cert.instance_digest,
        "I": list(sel.indices),
        "f": {str(i): j for i, j in zip(sel.indices, sel.images)},
        "shelling": None if cert.shelling is None else [list(b) for b in cert.shelling],
        "value": list(sel.value),
        "solve_path": cert.solve_path,
        "verified": cert.verified,
    }


def certificate_from_json(obj: Any, where: str = "certificate") -> tuple[AbelianGroup, Certificate]:
    _expect(isinstance(obj, dict), where, f"expected an object, got {type(obj).__name__}")
    for key in ("statement", "group", "instance_digest", "I", "f", "shelling",
                "value", "solve_path", "verified"):
        _expect(key in obj, where, f'missing key "{key}"')
    g = group_from_json(obj["group"], f"{where}.group")

    indices = tuple(_int_list(obj["I"], f"{where}.I"))
    fmap = obj["f"]
    _expect(isinstance(fmap, dict), f"{where}.f", "expected an object mapping index to image")
    parsed: dict[int, int] = {}
    for key, image in fmap.items():
        _expect(
            isinstance(key, str) and _CANONICAL_INT.fullmatch(key) is not None,
            f"{where}.f",
            f"key {key!r} is not an integer in canonical form",
        )
        _expect(type(image) is int, f"{where}.f[{key}]",
                f"expected an integer image, got {image!r}")
        parsed[int(key)] = image
    _expect(
        sorted(parsed) == list(indices),
        f"{where}.f",
        f"map domain {sorted(parsed)} does not match I {list(indices)}",
    )
    images = tuple(parsed[i] for i in indices)

    shelling = obj["shelling"]
    if shelling is not None:
        _expect(isinstance(shelling, list), f"{where}.shelling", "expected a list or null")
        shelling = tuple(
            tuple(_int_list(block, f"{where}.shelling[{pos}]"))
            for pos, block in enumerate(shelling)
        )
    _expect(isinstance(obj["verified"], bool), f"{where}.verified", "expected a boolean")
    cert = Certificate(
        statement=obj["statement"],
        instance_digest=str(obj["instance_digest"]),
        selection=Selection(
            indices=indices,
            images=images,
            value=element_from_json(g, obj["value"], f"{where}.value"),
        ),
        shelling=shelling,
        solve_path=str(obj["solve_path"]),
        verified=obj["verified"],
    )
    return g, cert


def davenport_record_to_json(rec: DavenportRecord) -> dict:
    return {
        "group": group_to_json(rec.group),
        "value": rec.value,
        "witness": [list(e) for e in rec.witness],
        "method": rec.method,
    }


def zero_sum_witness_to_json(g: AbelianGroup, indices: tuple[int, ...]) -> dict:
    return {"group": group_to_json(g), "indices": list(indices)}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """json.load's object hook: a key repeated in one object is refused, not
    resolved to its last value."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidInstance(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except InvalidInstance as err:
        raise InvalidInstance(f"{path}: {what} file has a {err}") from None
    except FileNotFoundError:
        raise InvalidInstance(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise InvalidInstance(
            f"{path}:{err.lineno}:{err.colno}: invalid JSON in {what}: {err.msg}"
        ) from None
    except UnicodeDecodeError as err:
        raise InvalidInstance(f"{path}: {what} file is not UTF-8 text: {err.reason}") from None
    except RecursionError:
        raise InvalidInstance(f"{path}: {what} file is nested too deeply to read") from None
    except OSError as err:
        raise InvalidInstance(f"cannot read {what} file {path}: {err.strerror}") from None


def load_instance(path: str) -> tuple[str, Instance]:
    return instance_from_json(load_json(path, "instance"), f"{path}: instance")


def load_certificate(path: str) -> tuple[AbelianGroup, Certificate]:
    return certificate_from_json(load_json(path, "certificate"), f"{path}: certificate")
