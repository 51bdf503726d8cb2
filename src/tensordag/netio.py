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

Activation types: ``vector`` and ``explicit`` carry ``entries``, a list of
expression strings in row-major order with the node's own state as the last
(fastest) index; ``jukes_cantor`` and ``quantum_threshold_one`` carry
``alpha`` and ``beta``; ``threshold_one`` carries ``alpha``.  ``order`` is
optional; without it the declaration order is the total ordering.  Parent
lists are stored sorted by position in the total ordering, which is also the
axis order of their activation entries.  Unknown keys anywhere are rejected.

Tensor text: a ``shape:`` header and one ``i,j,k = expr`` line per nonzero
cell, row-major, with 1-based indices::

    shape: 2 x 2
    1,1 = alpha
    2,2 = beta

Missing cells read back as zero, so mostly-zero blow/forget outputs stay
readable.  ``parse_tensor(serialize_tensor(t)) == t`` exactly.

Assignments: ``name=value`` pairs separated by commas, values either exact
rationals (``2``, ``-1/3``) or decimals (``0.25``, parsed as binary64).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .networks import (DEFAULT_CELL_CAP, ActivationSpec, ExplicitActivation, JukesCantor,
                       NetworkSpec, NodeSpec, QuantumThresholdOne, SourceVector, ThresholdOne)
from .scalars import _ZERO, PolyScalar, TensordagInputError, count_text, parse_expr
from .tensors import ShapeMismatch, Tensor, _strides


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


_ACTIVATION_KEYS = {
    "vector": {"entries"},
    "explicit": {"entries"},
    "jukes_cantor": {"alpha", "beta"},
    "threshold_one": {"alpha"},
    "quantum_threshold_one": {"alpha", "beta"},
}


def _expect_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key '{key}'")


def _parse_entry(text: object, path: str) -> PolyScalar:
    if not isinstance(text, str):
        raise SchemaError(path, f"expected an expression string, got {type(text).__name__}")
    try:
        return parse_expr(text)
    except TensordagInputError as err:
        raise SchemaError(path, f"bad expression {text!r}: {err}") from err


def _parse_activation(obj: object, p: int, arity: int, path: str) -> ActivationSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "activation must be an object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _ACTIVATION_KEYS:
        known = ", ".join(sorted(_ACTIVATION_KEYS))
        raise SchemaError(f"{path}.type", f"expected one of {known}, got {kind!r}")
    keys = _ACTIVATION_KEYS[kind]
    _expect_keys(obj, keys | {"type"}, keys | {"type"}, path)
    if kind in ("vector", "explicit"):
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise SchemaError(f"{path}.entries", "expected a list of expression strings")
        expected = arity if kind == "vector" else arity ** (p + 1)
        if len(entries) != expected:
            raise EntryCountMismatch(f"{path}.entries", expected, len(entries))
        parsed = tuple(_parse_entry(e, f"{path}.entries[{i}]") for i, e in enumerate(entries))
        return SourceVector(parsed) if kind == "vector" else ExplicitActivation(parsed)
    alpha = _parse_entry(obj["alpha"], f"{path}.alpha")
    if kind == "threshold_one":
        return ThresholdOne(alpha)
    beta = _parse_entry(obj["beta"], f"{path}.beta")
    if kind == "jukes_cantor":
        return JukesCantor(alpha, beta)
    return QuantumThresholdOne(alpha, beta)


def parse_network_document(doc: object) -> NetworkSpec:
    """Build a NetworkSpec from a parsed JSON document (a dict)."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "document root must be an object")
    _expect_keys(doc, {"arity", "nodes", "order"}, {"arity", "nodes"}, "$")
    arity = doc["arity"]
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
        raise SchemaError("$.arity", f"expected a positive integer, got {arity!r}")
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SchemaError("$.nodes", "expected a non-empty list of node objects")

    ids: list[str] = []
    by_id: dict[str, tuple[list[str], ActivationSpec]] = {}
    for i, raw in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "expected a node object")
        _expect_keys(raw, {"id", "parents", "activation"}, {"id", "activation"}, path)
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
                                       f"{path}.activation")
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


def _activation_to_document(activation: ActivationSpec) -> dict:
    if isinstance(activation, SourceVector):
        return {"type": "vector", "entries": [str(e) for e in activation.entries]}
    if isinstance(activation, ExplicitActivation):
        return {"type": "explicit", "entries": [str(e) for e in activation.entries]}
    if isinstance(activation, JukesCantor):
        return {"type": "jukes_cantor", "alpha": str(activation.alpha), "beta": str(activation.beta)}
    if isinstance(activation, ThresholdOne):
        return {"type": "threshold_one", "alpha": str(activation.alpha)}
    if isinstance(activation, QuantumThresholdOne):
        return {"type": "quantum_threshold_one", "alpha": str(activation.alpha),
                "beta": str(activation.beta)}
    raise TypeError(f"cannot serialize activation {type(activation).__name__}")


def network_to_document(spec: NetworkSpec) -> dict:
    return {
        "arity": spec.arity,
        "nodes": [
            {"id": node.id, "parents": list(node.parents),
             "activation": _activation_to_document(node.activation)}
            for node in spec.nodes
        ],
    }


def serialize_network(spec: NetworkSpec) -> str:
    """JSON text whose parse is exactly ``spec`` (declaration order = total order)."""
    return json.dumps(network_to_document(spec), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Tensor text format
# ---------------------------------------------------------------------------


def serialize_tensor(t: Tensor) -> str:
    """Text block for a tensor: shape header plus nonzero cells, 1-based."""
    lines = ["shape: " + " x ".join(str(dim) for dim in t.shape)]
    for idx, cell in zip(t.indices(), t.cells):
        if cell.is_zero():
            continue
        key = ",".join(str(i + 1) for i in idx)
        lines.append(f"{key} = {cell}")
    return "\n".join(lines) + "\n"


def parse_tensor(text: str) -> Tensor:
    """Parse a tensor text block; absent cells are zero.

    Raises:
        TensorSyntaxError: malformed header, cell line, or expression, a
            duplicated cell, or a shape of more than ``DEFAULT_CELL_CAP``
            cells, with the 1-based line number.
        ShapeMismatch: a cell index falls outside the declared shape.
    """
    lines = text.splitlines()
    header_no = None
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            header_no = line_no
            break
    if header_no is None:
        raise TensorSyntaxError(1, "missing 'shape:' header")
    header = lines[header_no - 1].strip()
    if not header.startswith("shape:"):
        raise TensorSyntaxError(header_no, f"expected 'shape: d1 x d2 x ...', got {header!r}")
    dim_text = header[len("shape:"):]
    try:
        shape = tuple(int(part.strip()) for part in dim_text.split("x"))
    except ValueError:
        raise TensorSyntaxError(header_no, f"bad shape {dim_text.strip()!r}") from None
    if not shape or any(dim < 1 for dim in shape):
        raise TensorSyntaxError(header_no, f"dimensions must be positive, got {shape}")

    ncells = 1
    for dim in shape:  # checked per axis, so a long header of huge dimensions stays cheap
        ncells *= dim
        if ncells > DEFAULT_CELL_CAP:
            raise TensorSyntaxError(header_no, f"shape has more than {DEFAULT_CELL_CAP} cells")
    cells = [_ZERO] * ncells
    seen: set[int] = set()
    strides = _strides(shape)

    for line_no, line in enumerate(lines[header_no:], start=header_no + 1):
        body = line.strip()
        if not body:
            continue
        if "=" not in body:
            raise TensorSyntaxError(line_no, f"expected 'i,j,... = expr', got {body!r}")
        left, _, right = body.partition("=")
        try:
            idx = tuple(int(part.strip()) for part in left.split(","))
        except ValueError:
            raise TensorSyntaxError(line_no, f"bad cell index {left.strip()!r}") from None
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
            cells[flat] = parse_expr(right.strip())
        except TensordagInputError as err:
            raise TensorSyntaxError(line_no, f"bad expression: {err}") from err
    return Tensor(shape, cells)


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
        if not (name[0].isalpha() or name[0] == "_") or not all(
                c.isalnum() or c == "_" for c in name):
            raise AssignmentSyntaxError(f"bad parameter name {name!r}")
        if name in bindings:
            raise AssignmentSyntaxError(f"parameter {name!r} assigned twice")
        bindings[name] = _parse_number(raw)
    return bindings


def _parse_number(raw: str) -> Number:
    try:
        if "." in raw or "e" in raw or "E" in raw:
            return float(raw)
        if "/" in raw:
            num, _, den = raw.partition("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return int(raw)
    except (ValueError, ZeroDivisionError) as err:
        raise AssignmentSyntaxError(f"bad value {raw!r}: {err}") from err
