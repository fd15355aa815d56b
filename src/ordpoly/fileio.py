"""Reading and writing constraint sets as JSON.

Document shape::

    {
      "variables": ["x", "y", ...],
      "order":     [["x", "y"], ...],          # pairs meaning x <= y
      "exact":     {"y": "7/10", "z": "0.45"}  # rationals or decimal strings
    }

``order`` and ``exact`` are optional.  Exact values may be strings
("7/10", "0.45"), integers, or JSON decimals; decimals are converted
exactly (0.45 becomes 9/20, never a binary float).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO, Union

from .errors import MalformedInputError
from .model import ConstraintSet

Source = Union[str, Path, IO[str]]


def loads(text: str) -> ConstraintSet:
    """Parse a JSON document into an (unclosed) constraint set."""
    try:
        # Route floats through str so 0.45 stays the decimal 45/100.
        doc = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, integers over Python's digit cap, nesting too deep
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    return _from_document(doc)


def load(source: Source | IO[bytes]) -> ConstraintSet:
    """Read a constraint set from a path or an open file (bytes: UTF-8)."""
    is_path = isinstance(source, (str, Path))
    try:
        text = Path(source).read_text(encoding="utf-8") if is_path else source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        name = source if is_path else getattr(source, "name", "input")
        raise MalformedInputError(f"cannot read {name}: {exc}") from exc
    return loads(text)


def _from_document(doc: Any) -> ConstraintSet:
    if not isinstance(doc, dict):
        raise MalformedInputError("top-level JSON value must be an object")
    unknown_keys = set(doc) - {"variables", "order", "exact"}
    if unknown_keys:
        raise MalformedInputError(f"unrecognized keys: {sorted(unknown_keys)}")

    variables = doc.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise MalformedInputError('"variables" must be a list of strings')

    order = doc.get("order", [])
    if not isinstance(order, list):
        raise MalformedInputError('"order" must be a list of [a, b] pairs')
    pairs = []
    for item in order:
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise MalformedInputError(f'"order" entries must be [a, b] name pairs, got: {item!r}')
        pairs.append((item[0], item[1]))

    exact = doc.get("exact", {})
    if not isinstance(exact, dict):
        raise MalformedInputError('"exact" must be an object mapping names to values')

    return ConstraintSet(variables, pairs, exact)


def dumps(cs: ConstraintSet, indent: int | None = 2) -> str:
    """Serialize the user-visible view (reserved bounds are never written)."""
    names, edges, exact = cs.user_view()
    doc = {
        "variables": names,
        "order": [[a, b] for a, b in edges],
        "exact": {name: str(value) for name, value in sorted(exact.items())},
    }
    return json.dumps(doc, indent=indent, ensure_ascii=False, sort_keys=False)


def dump(cs: ConstraintSet, target: Source, indent: int | None = 2) -> None:
    text = dumps(cs, indent=indent) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
