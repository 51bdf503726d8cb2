"""File formats: JSON network documents, tensor text blocks, assignments.

Network document (JSON, UTF-8)::

    {
      "arity": 2,
      "nodes": [
        {"id": "b", "parents": [], "activation": {"type": "vector", "entries": ["alpha", "beta"]}},
        {"id": "c", "parents": ["b"], "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}},
        {"id": "a", "parents": ["c"], "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}}
      ],
      "order": ["b", "c", "a"]
    }

Activation types are the ``kind`` of each class in ``networks.FAMILIES``,
whose fields are the type's other keys: ``entries`` lists expression strings
in row-major order with the node's own state as the last (fastest) index,
and ``alpha`` and ``beta`` are one expression string each.  ``order`` is
optional; without it the declaration order is the total ordering.  Parent
lists are stored sorted by position in the total ordering, which is also the
axis order of their activation entries.  Unknown keys anywhere are rejected.

Tensor text: a ``shape:`` header and one ``i,j,k = expr`` line per nonzero
cell, row-major; dimensions and 1-based indices are the grammar's ``uint``::

    shape: 2 x 2
    1,1 = alpha
    2,2 = beta

Missing cells read back as zero, so mostly-zero blow/forget outputs stay
readable.  ``parse_tensor(serialize_tensor(t)) == t`` exactly.

Assignments: ``name=value`` pairs separated by commas; a value is exact (``2``,
``-1/3``) or a decimal (``.5``, ``1E-3``, read as binary64), in the grammar's digits.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import product
from typing import Container, Iterable, Iterator, Sequence, Union

from .networks import FAMILIES, ActivationSpec, NetworkSpec, NodeSpec, entry_count, map_entries
from .scalars import _NAME, _UINT, _ZERO, PolyScalar, TensordagInputError, count_text, parse_expr
from .tensors import DEFAULT_CELL_CAP, ShapeMismatch, Tensor, _checked, _strides


class SchemaError(TensordagInputError):
    """Malformed network document; ``path`` locates the offending element."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class UnknownNodeId(TensordagInputError):
    def __init__(self, node_id: str, context: str = ""):
        self.node_id = node_id
        suffix = f" ({context})" if context else ""
        super().__init__(f"unknown node id '{node_id}'{suffix}")


class DuplicateNodeId(TensordagInputError):
    def __init__(self, node_id: str):
        self.node_id = node_id
        super().__init__(f"duplicate node id '{node_id}'")


class EntryCountMismatch(TensordagInputError):
    def __init__(self, path: str, expected: int, got: int):
        self.path = path
        self.expected = expected
        self.got = got
        super().__init__(f"{path}: expected {count_text(expected)} entries, got {got}")


class TensorSyntaxError(TensordagInputError):
    """Malformed tensor text; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class AssignmentSyntaxError(TensordagInputError):
    """Malformed ``name=value`` assignment list."""


_FAMILY_BY_KIND = {family.kind: family for family in FAMILIES}


def _expect_keys(obj: dict, allowed: Container[str], required: Sequence[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key '{key}'")


class _Parsed(dict):
    """Expression text -> PolyScalar for one document read: a text is parsed on
    its first lookup, and its repeats share the one immutable value."""

    def __missing__(self, text: str) -> PolyScalar:
        value = self[text] = parse_expr(text)
        return value


def _parse_entry(text: object, path: str, parsed: _Parsed) -> PolyScalar:
    if not isinstance(text, str):
        raise SchemaError(path, f"expected an expression string, got {type(text).__name__}")
    try:
        return parsed[text]
    except TensordagInputError as err:
        raise SchemaError(path, f"bad expression {text!r}: {err}") from err


def _parse_activation(obj: object, p: int, arity: int, path: str,
                      parsed: _Parsed) -> ActivationSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "activation must be an object")
    kind = obj.get("type")
    family = _FAMILY_BY_KIND.get(kind) if isinstance(kind, str) else None
    if family is None:
        known = ", ".join(sorted(_FAMILY_BY_KIND))
        raise SchemaError(f"{path}.type", f"expected one of {known}, got {kind!r}")
    names = ("type", *family._fields)
    _expect_keys(obj, names, names, path)
    values = {}
    for name in names[1:]:
        if name != "entries":
            values[name] = _parse_entry(obj[name], f"{path}.{name}", parsed)
            continue
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise SchemaError(f"{path}.entries", "expected a list of expression strings")
        expected = entry_count(family, p, arity)
        if len(entries) != expected:
            raise EntryCountMismatch(f"{path}.entries", expected, len(entries))
        values[name] = tuple(_parse_entry(e, f"{path}.entries[{i}]", parsed)
                             for i, e in enumerate(entries))
    return family(**values)


def parse_network_document(doc: object) -> NetworkSpec:
    """Build a NetworkSpec from a parsed JSON document (a dict), parsing each
    distinct expression text once."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "document root must be an object")
    _expect_keys(doc, {"arity", "nodes", "order"}, ("arity", "nodes"), "$")
    arity = doc["arity"]
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise SchemaError("$.arity", f"expected a positive integer, got {arity!r}")
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SchemaError("$.nodes", "expected a non-empty list of node objects")

    parsed = _Parsed()
    ids: list[str] = []
    by_id: dict[str, tuple[list[str], ActivationSpec]] = {}
    for i, raw in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected a node object")
        _expect_keys(raw, {"id", "parents", "activation"}, ("id", "activation"), path)
        node_id = raw["id"]
        if not isinstance(node_id, str) or not node_id:
            raise SchemaError(f"{path}.id", "expected a non-empty string")
        if node_id in by_id:
            raise DuplicateNodeId(node_id)
        parents = raw.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise SchemaError(f"{path}.parents", "expected a list of node ids")
        if len(set(parents)) != len(parents):
            raise SchemaError(f"{path}.parents", "duplicate parent")
        activation = _parse_activation(raw["activation"], len(parents), arity,
                                       f"{path}.activation", parsed)
        ids.append(node_id)
        by_id[node_id] = (list(parents), activation)

    if "order" in doc:
        order = doc["order"]
        if not isinstance(order, list) or not all(isinstance(v, str) for v in order):
            raise SchemaError("$.order", "expected a list of node ids")
        for node_id in order:
            if node_id not in by_id:
                raise UnknownNodeId(node_id, "in order list")
        if len(order) != len(ids) or len(set(order)) != len(order):
            raise SchemaError("$.order", "order must list every node exactly once")
        ids = list(order)

    position = {node_id: i for i, node_id in enumerate(ids)}
    nodes = []
    for node_id in ids:
        parents, activation = by_id[node_id]
        for parent in parents:
            if parent not in position:
                raise UnknownNodeId(parent, f"parent of '{node_id}'")
        parents = sorted(parents, key=position.get)
        nodes.append(NodeSpec(node_id, tuple(parents), activation))
    return NetworkSpec(arity, tuple(nodes))


def parse_network(text: str) -> NetworkSpec:
    """Parse a JSON network document.

    Raises:
        SchemaError, UnknownNodeId, DuplicateNodeId, EntryCountMismatch:
            structural problems, each locating the offending element.
    """
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError("$", f"invalid JSON: {err}") from err
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply") from None
    return parse_network_document(doc)


def network_to_document(spec: NetworkSpec) -> dict:
    return {
        "arity": spec.arity,
        "nodes": [
            {"id": node.id, "parents": list(node.parents), "activation": {
                "type": node.activation.kind, **map_entries(node.activation, str)}}
            for node in spec.nodes
        ],
    }


def serialize_network(spec: NetworkSpec) -> str:
    """JSON text whose parse is exactly ``spec`` (declaration order = total order)."""
    return json.dumps(network_to_document(spec), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Tensor text format
# ---------------------------------------------------------------------------


def cell_key(idx: Sequence[int]) -> str:
    """The text form of a 0-based index: 1-based and comma-separated, ``(0, 2)`` -> ``1,3``."""
    return ",".join(str(i + 1) for i in idx)


def cell_keys(shape: Sequence[int]) -> Iterator[str]:
    """Lazily yield :func:`cell_key` of every index of ``shape``, row-major, joined
    from per-axis digit strings: ``(2, 2)`` -> ``1,1``, ``1,2``, ``2,1``, ``2,2``."""
    return map(",".join, product(*([str(i) for i in range(1, dim + 1)] for dim in shape)))


def _tensor_text(shape: Sequence[int], texts: Iterable[str]) -> str:
    """A tensor block: the shape header, then ``key = text`` for each non-empty
    text of ``texts``, one per cell in row-major order."""
    lines = ["shape: " + " x ".join(map(str, shape))]
    lines += [f"{key} = {text}" for key, text in zip(cell_keys(shape), texts) if text]
    return "\n".join(lines) + "\n"


def serialize_tensor(t: Tensor) -> str:
    """Text block for a tensor: shape header plus nonzero cells, 1-based."""
    return _tensor_text(t.shape, ("" if cell.is_zero() else str(cell) for cell in t.cells))


def _uints(text: str, sep: str, line_no: int, what: str) -> tuple[int, ...]:
    """The ``sep``-separated grammar integers of ``text``, else a ``bad {what}`` error."""
    parts = [part.strip() for part in text.split(sep)]
    if all(map(_UINT.fullmatch, parts)):
        try:
            return tuple(map(int, parts))
        except ValueError:  # more digits than int() converts
            pass
    raise TensorSyntaxError(line_no, f"bad {what} {text.strip()!r}")


def parse_tensor(text: str) -> Tensor:
    """Parse a tensor text block, each distinct cell expression once; absent
    cells are zero.

    Raises:
        TensorSyntaxError: malformed header, cell line, or expression, a
            duplicated cell, or a shape of more than ``DEFAULT_CELL_CAP``
            cells, with the 1-based line number.
        ShapeMismatch: a cell index falls outside the declared shape.
    """
    lines = [(line_no, body) for line_no, line in enumerate(text.splitlines(), start=1)
             if (body := line.strip())]
    if not lines:
        raise TensorSyntaxError(1, "missing 'shape:' header")
    header_no, header = lines[0]
    if not header.startswith("shape:"):
        raise TensorSyntaxError(header_no, f"expected 'shape: d1 x d2 x ...', got {header!r}")
    shape = _uints(header[len("shape:"):], "x", header_no, "shape")
    try:
        shape = _checked(shape)
    except ValueError as err:
        raise TensorSyntaxError(header_no, str(err)) from None

    ncells = 1
    for dim in shape:  # checked per axis, so a long header of huge dimensions stays cheap
        ncells *= dim
        if ncells > DEFAULT_CELL_CAP:
            raise TensorSyntaxError(header_no, f"shape has more than {DEFAULT_CELL_CAP} cells")
    cells = [_ZERO] * ncells
    seen: set[int] = set()
    parsed = _Parsed()
    strides = _strides(shape)

    for line_no, body in lines[1:]:
        left, sep, right = body.partition("=")
        if not sep:
            raise TensorSyntaxError(line_no, f"expected 'i,j,... = expr', got {body!r}")
        idx = _uints(left, ",", line_no, "cell index")
        if len(idx) != len(shape):
            raise TensorSyntaxError(
                line_no, f"index {idx} has {len(idx)} axes, shape has {len(shape)}")
        for axis, (i, dim) in enumerate(zip(idx, shape)):
            if not 1 <= i <= dim:
                raise ShapeMismatch(
                    f"line {line_no}: index {i} out of range 1..{dim} on axis {axis + 1}",
                    slot=axis, expected=dim, got=i)
        flat = sum((i - 1) * s for i, s in zip(idx, strides))
        if flat in seen:
            raise TensorSyntaxError(line_no, f"cell {left.strip()} assigned twice")
        seen.add(flat)
        try:
            cells[flat] = parsed[right.strip()]
        except TensordagInputError as err:
            raise TensorSyntaxError(line_no, f"bad expression: {err}") from err
    # The header rules have checked the shape, and every cell is a parsed PolyScalar.
    return Tensor._view(shape, cells)


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------

Number = Union[int, Fraction, float]


def parse_assignment(text: str) -> dict[str, Number]:
    """Parse ``alpha=1,beta=-2/3,gamma=0.5`` into parameter bindings.

    Integer and ``p/q`` values stay exact; values with a decimal point or
    exponent become binary64 floats.
    """
    bindings: dict[str, Number] = {}
    if not text.strip():
        return bindings
    for part in text.split(","):
        name, sep, raw = part.partition("=")
        name = name.strip()
        raw = raw.strip()
        if not sep or not name or not raw:
            raise AssignmentSyntaxError(f"expected 'name=value', got {part.strip()!r}")
        if not _NAME.fullmatch(name):
            raise AssignmentSyntaxError(f"bad parameter name {name!r}")
        if name in bindings:
            raise AssignmentSyntaxError(f"parameter {name!r} assigned twice")
        bindings[name] = _parse_number(raw)
    return bindings


#: ``N`` or ``N/M`` (each an optional ``-`` and a grammar uint), or a decimal.
_VALUE = re.compile(r"(?P<num>-?{u})(\s*/\s*(?P<den>-?{u}))?"
                    r"|-?({u}(\.({u})?)?|\.{u})([eE][-+]?{u})?".format(u=_UINT.pattern))


def _parse_number(raw: str) -> Number:
    if not (match := _VALUE.fullmatch(raw)):
        raise AssignmentSyntaxError(f"bad value {raw!r}: expected N, N/M or a decimal")
    try:
        if match["num"]:
            return Fraction(int(match["num"]), int(match["den"])) if match["den"] else int(raw)
        value = float(raw)
        if not math.isfinite(value):
            raise OverflowError("outside the float range")
        return value
    except ZeroDivisionError:
        raise AssignmentSyntaxError(f"bad value {raw!r}: zero denominator") from None
    except (ValueError, OverflowError) as err:
        raise AssignmentSyntaxError(f"bad value {raw!r}: {err}") from err
