"""Signal-propagating DAG networks with per-node activation tensors.

A network is a DAG over d nodes, a fixed arity n (every node takes the same
n states, numbered 0..n-1), a total ordering of the nodes compatible with
the graph (each parent precedes its children), and one activation tensor per
node.  A node with p parents carries a cubical order-(p+1) activation tensor
whose entry ``T[s_1, ..., s_p, out]`` weighs the node assuming state ``out``
after receiving state ``s_k`` from its k-th parent (parents ordered by their
position in the total ordering).

The order-d *total tensor* assembles the joint behaviour: its cell at
``(x_0, ..., x_{d-1})`` is the product over all nodes of the activation entry
selected by the states of that node's parents and the node's own state.
The module computes it two independent ways:

* :func:`total_direct` multiplies activation entries in node order - the
  definition, used as the oracle.  One recursive call per index prefix
  extends the prefix's product by node j's entry for each of its states,
  found in the node's entry row by its own Horner code over the parents'
  states.
* :func:`total_bmp` first expands every activation tensor to an order-d node
  tensor (insert missing axes with :func:`~tensordag.tensors.forget`, tie a
  feedback axis with :func:`~tensordag.tensors.blow`, pad the remaining axes)
  and then takes one summand-ordered Bhattacharya-Mesner product with the
  sink's tensor first.  The node tensors are views of the activations that
  copy no entry.  The product makes each prefix product once, as the direct
  route does, and never visits a term the blown ties zero; the sweep is
  described once, at :func:`tensordag.tensors._walk`.

The two results are exactly equal for every valid network; `verify_totals`
checks that equality cell by cell and is wired to the CLI ``total --method
verify`` command.
"""

from __future__ import annotations

import heapq
import sys
from fractions import Fraction
from itertools import product, repeat
from typing import Callable, ClassVar, Iterable, Sequence, Union

from ._record import Record
from .scalars import (_MAX_POWER_BITS, _ONE, _ZERO, Assignment, PolyScalar, TensordagInputError,
                      _size_bits, count_text)
from .tensors import (DEFAULT_CELL_CAP, Tensor, _contract, _product, blow, forget,
                      summand_ordered_bmp)


class FamilyArityMismatch(TensordagInputError):
    """An activation family's arity or in-degree constraint is violated."""


class CycleDetected(TensordagInputError):
    """The directed graph has a cycle, so no topological order exists."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = list(cycle)
        super().__init__("cycle: " + " -> ".join(self.cycle))


class InvalidNetwork(TensordagInputError):
    """A network operation was applied to a spec with validation violations."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid network: {lines}")


class CellCapExceeded(TensordagInputError):
    """An order-d tensor over n states would exceed the configured cell cap."""

    def __init__(self, order: int, arity: int, cap: int):
        self.order = order
        self.arity = arity
        self.cap = cap
        super().__init__(
            f"a cubical order-{order} tensor over {arity} states has "
            f"{count_text(arity ** order)} cells, above the cap of {cap}")


class Violation(Record):
    """One violated network invariant; collected by :func:`validate`."""

    __slots__ = ("code", "node", "message")
    code: str
    node: str | None
    message: str

    def __str__(self) -> str:
        where = f" (node '{self.node}')" if self.node is not None else ""
        return f"{self.code}{where}: {self.message}"


# ---------------------------------------------------------------------------
# Activation families
# ---------------------------------------------------------------------------


class _EntryList(Record):
    __slots__ = ("entries",)
    _tuples = ("entries",)
    entries: tuple[PolyScalar, ...]


class SourceVector(_EntryList):
    """Activation of a parentless node: one weight per state."""

    __slots__ = ()
    kind: ClassVar[str] = "vector"
    summary: ClassVar[str] = "in-degree 0; 'entries' lists one weight per state"


class ExplicitActivation(_EntryList):
    """Cubical order-(p+1) activation given cell by cell, row-major."""

    __slots__ = ()
    kind: ClassVar[str] = "explicit"
    summary: ClassVar[str] = ("any in-degree; 'entries' lists all n^(p+1) cells row-major,"
                              " own state last")


class JukesCantor(Record):
    """Single-parent activation: alpha on the diagonal, beta elsewhere."""

    __slots__ = ("alpha", "beta")
    kind: ClassVar[str] = "jukes_cantor"
    summary: ClassVar[str] = "in-degree 1; 'alpha' on the diagonal, 'beta' off it"
    alpha: PolyScalar
    beta: PolyScalar


class ThresholdOne(Record):
    """Binary 'at least one parent fired' rule, weight alpha, hard zeros.

    The cell is zero when the node disobeys the rule: all parents in state 0
    with output 1, or some parent in state 1 with output 0.  Every obedient
    cell is alpha.
    """

    __slots__ = ("alpha",)
    kind: ClassVar[str] = "threshold_one"
    summary: ClassVar[str] = ("in-degree p, arity 2; output fires iff some parent fired;"
                              " obedient cells 'alpha', others 0")
    alpha: PolyScalar


class QuantumThresholdOne(Record):
    """Threshold rule whose forbidden cells carry weight beta instead of 0."""

    __slots__ = ("alpha", "beta")
    kind: ClassVar[str] = "quantum_threshold_one"
    summary: ClassVar[str] = "like threshold_one with disobedient cells 'beta' instead of 0"
    alpha: PolyScalar
    beta: PolyScalar


#: Every activation family, in the order ``tensordag families`` lists them: a
#: family's ``kind`` is its document ``type`` and its fields are the other keys.
FAMILIES = (SourceVector, ExplicitActivation, JukesCantor, ThresholdOne, QuantumThresholdOne)
ActivationSpec = Union[FAMILIES]


def entry_count(family: type, in_degree: int, arity: int) -> int:
    """Entries a family lists: n for a source vector, n**(p+1) for a table.

    A count with more digits than Python prints is not computed: from
    10 * limit / 3 bits on (2**10 > 10**3), ``10 ** limit`` stands in.
    """
    exponent = 1 if family is SourceVector else in_degree + 1
    limit = sys.get_int_max_str_digits()
    if limit and 3 * (arity.bit_length() - 1) * exponent >= 10 * limit:
        return 10 ** limit
    return arity ** exponent


class NodeSpec(Record):
    """One node: id, parent ids (sorted by position), and its activation."""

    __slots__ = ("id", "parents", "activation")
    _tuples = ("parents",)
    id: str
    parents: tuple[str, ...]
    activation: ActivationSpec


class NetworkSpec(Record):
    """A network: arity plus the nodes in their total ordering."""

    __slots__ = ("arity", "nodes")
    _tuples = ("nodes",)
    arity: int
    nodes: tuple[NodeSpec, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> list[str]:
        return [node.id for node in self.nodes]

    def edges(self) -> list[tuple[str, str]]:
        """All (parent, child) pairs in declaration order."""
        return [(parent, node.id) for node in self.nodes for parent in node.parents]


def _family_issue(activation: ActivationSpec, p: int, n: int) -> tuple[str, str] | None:
    """Return (violation code, message) if the family does not fit, else None."""
    if isinstance(activation, SourceVector):
        if p != 0:
            return ("OrderMismatch", f"a source vector suits in-degree 0, node has {p} parents")
        if len(activation.entries) != entry_count(SourceVector, p, n):
            return ("FamilyArityMismatch",
                    f"source vector has {len(activation.entries)} entries, arity is {n}")
    elif isinstance(activation, JukesCantor):
        if p != 1:
            return ("OrderMismatch", f"a Jukes-Cantor matrix suits in-degree 1, node has {p} parents")
    elif isinstance(activation, (ThresholdOne, QuantumThresholdOne)):
        if n != 2:
            return ("FamilyArityMismatch", f"threshold activations need arity 2, arity is {n}")
    elif isinstance(activation, ExplicitActivation):
        expected = entry_count(ExplicitActivation, p, n)
        if len(activation.entries) != expected:
            return ("OrderMismatch",
                    f"explicit activation for {p} parents over {n} states needs "
                    f"{count_text(expected)} entries, got {len(activation.entries)}")
    else:
        return ("FamilyArityMismatch", f"unknown activation {type(activation).__name__}")
    return None


def activation_tensor(activation: ActivationSpec, in_degree: int, arity: int) -> Tensor:
    """Materialize an activation as a cubical order-(in_degree+1) tensor.

    Raises:
        FamilyArityMismatch: the family does not fit the in-degree or arity.
    """
    issue = _family_issue(activation, in_degree, arity)
    if issue is not None:
        raise FamilyArityMismatch(issue[1])
    shape = (arity,) * (in_degree + 1)
    if isinstance(activation, _EntryList):
        return Tensor(shape, activation.entries)
    a, b = activation.alpha, getattr(activation, "beta", _ZERO)  # ThresholdOne's beta is 0
    if isinstance(activation, JukesCantor):
        return Tensor.from_function(shape, lambda idx: a if idx[0] == idx[1] else b)
    # Threshold families (arity 2): state 1 means "fired", and a cell obeys the
    # rule when the node fires exactly when some parent fired.
    return Tensor.from_function(shape, lambda idx: a if idx[-1] == any(idx[:-1]) else b)


# ---------------------------------------------------------------------------
# Validation and ordering
# ---------------------------------------------------------------------------


def validate(spec: NetworkSpec) -> list[Violation]:
    """Check every invariant; an empty list means the spec is valid.

    Violations are data, not exceptions: callers that need a hard failure use
    :func:`ensure_valid`.
    """
    violations: list[Violation] = []
    if spec.arity < 2:
        violations.append(Violation("ArityOutOfRange", None,
                                    f"arity must be >= 2, got {spec.arity}"))
    if not spec.nodes:
        violations.append(Violation("EmptyNetwork", None, "a network needs at least one node"))
    position: dict[str, int] = {}
    for i, node in enumerate(spec.nodes):
        if node.id in position:
            violations.append(Violation("DuplicateNodeId", node.id,
                                        f"declared again at position {i}"))
        else:
            position[node.id] = i
    for i, node in enumerate(spec.nodes):
        if position.get(node.id) != i:
            continue  # duplicate already reported
        parent_positions: list[int] = []
        reported = len(violations)  # later checks run only while this node has no violation
        seen: set[str] = set()
        for parent in node.parents:
            if parent in seen:
                violations.append(Violation("DuplicateParent", node.id,
                                            f"parent '{parent}' listed twice"))
                continue
            seen.add(parent)
            if parent not in position:
                violations.append(Violation("UnknownParent", node.id,
                                            f"parent '{parent}' is not a node"))
                continue
            j = position[parent]
            if j >= i:
                violations.append(Violation(
                    "OrderingIncompatible", node.id,
                    f"parent '{parent}' (position {j}) does not precede position {i}"))
            parent_positions.append(j)
        if len(violations) == reported and parent_positions != sorted(parent_positions):
            violations.append(Violation(
                "ParentOrder", node.id,
                "parents must be listed in increasing position order"))
        if len(violations) == reported:
            issue = _family_issue(node.activation, len(node.parents), spec.arity)
            if issue is not None:
                violations.append(Violation(issue[0], node.id, issue[1]))
    return violations


def ensure_valid(spec: NetworkSpec) -> None:
    violations = validate(spec)
    if violations:
        raise InvalidNetwork(violations)


def topological_order(node_ids: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    """A total ordering with every parent before its children.

    Ties are broken by declaration order (Kahn's algorithm with a min-heap on
    declaration indices), so the result is deterministic.

    Raises:
        CycleDetected: with one concrete cycle, if the graph has any.
        ValueError: an edge endpoint is not a declared node, or ids repeat.
    """
    ids = list(node_ids)
    index = {v: i for i, v in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError("node ids must be unique")
    children: dict[str, list[str]] = {v: [] for v in ids}
    indegree = {v: 0 for v in ids}
    parents: dict[str, list[str]] = {v: [] for v in ids}
    for parent, child in edges:
        if parent not in index or child not in index:
            raise ValueError(f"edge ({parent!r}, {child!r}) references an unknown node")
        children[parent].append(child)
        parents[child].append(parent)
        indegree[child] += 1

    ready = [index[v] for v in ids if indegree[v] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = ids[heapq.heappop(ready)]
        order.append(v)
        for child in children[v]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, index[child])
    if len(order) == len(ids):
        return order

    # Every remaining node has an unfinished parent; walking parent links
    # from any of them must revisit a node, exposing one cycle.
    placed = set(order)
    start = min((v for v in ids if v not in placed), key=index.get)
    path = [start]
    seen_at = {start: 0}
    while True:
        current = path[-1]
        nxt = min((p for p in parents[current] if p not in placed), key=index.get)
        if nxt in seen_at:
            cycle = path[seen_at[nxt]:] + [nxt]
            cycle.reverse()  # report in edge direction
            raise CycleDetected(cycle)
        seen_at[nxt] = len(path)
        path.append(nxt)


# ---------------------------------------------------------------------------
# Node tensors (the blow/forget pipeline) and totals
# ---------------------------------------------------------------------------


class NodePipeline(Record):
    """The intermediate tensors that turn one activation into its node tensor.

    For the node at position i (0-based) in a d-node network:

    * ``activation``  - the order-(p+1) activation tensor.
    * ``widened``     - order i+1; axes inserted for every earlier node that
      is not a parent, so axis j < i carries node j and axis i the node's own
      state.
    * ``blown``       - order i+2; a new last axis tied to axis 0 (None for
      the sink, which skips this stage).
    * ``node_tensor`` - order d; remaining axes i+2..d-1 inserted (the sink's
      node tensor is just ``widened``, already order d).
    """

    __slots__ = ("index", "activation", "widened", "blown", "node_tensor")
    index: int
    activation: Tensor
    widened: Tensor
    blown: Tensor | None
    node_tensor: Tensor


class PreparedNetwork:
    """A validated network with precomputed lookup tables.

    Its per-cell methods evaluate single cells of node tensors and of both
    totals without materializing any tensor; the tests compare both routes
    against them.

    The cell cap is checked after validation and before any activation is
    built: the n**d cells of the order-d tensors, and so every activation,
    are bounded by ``max_cells``, or by ``sys.maxsize`` if that is smaller,
    since no list holds more cells.  It is the one cap: a route prepares a
    spec under ``DEFAULT_CELL_CAP`` and uses a prepared network as it is.

    Raises:
        InvalidNetwork: the spec has validation violations.
        CellCapExceeded: an order-d tensor would exceed the cap.
    """

    def __init__(self, spec: NetworkSpec, max_cells: int = DEFAULT_CELL_CAP):
        ensure_valid(spec)
        cap = min(max_cells, sys.maxsize)
        if spec.arity ** spec.node_count > cap:
            raise CellCapExceeded(spec.node_count, spec.arity, cap)
        self.arity = spec.arity
        self.d = spec.node_count
        self.position = {node.id: i for i, node in enumerate(spec.nodes)}
        self.parent_positions: list[tuple[int, ...]] = [
            tuple(self.position[p] for p in node.parents) for node in spec.nodes]
        self.activations: list[Tensor] = [
            activation_tensor(node.activation, len(node.parents), spec.arity)
            for node in spec.nodes]

    def _entry(self, j: int, idx: Sequence[int]) -> PolyScalar:
        """Activation entry of node j selected by the states in a total index."""
        return self.activations[j][tuple(idx[p] for p in self.parent_positions[j]) + (idx[j],)]

    def total_direct_cell(self, idx: tuple[int, ...]) -> PolyScalar:
        """Direct-formula cell: product of one activation entry per node."""
        return _product(self._entry(j, idx) for j in range(self.d))

    def node_tensor_cell(self, i: int, idx: tuple[int, ...]) -> PolyScalar:
        """Cell of the order-d node tensor B_i, computed from the activation.

        Inserted axes are ignored, the blown axis i+1 must echo axis 0, and
        the surviving axes select the activation entry.
        """
        if i < self.d - 1 and idx[0] != idx[i + 1]:
            return _ZERO
        return self._entry(i, idx)

    def total_bmp_cell(self, idx: tuple[int, ...]) -> PolyScalar:
        """Product-formula cell evaluated lazily: one contraction of d fibers of n cells,
        so it costs O(n·d) work."""
        if self.d == 1:
            return self.node_tensor_cell(0, idx)
        # Factor at summand position m is contracted in axis m: the sink
        # tensor at m = 0, node tensor B_{m-1} for m >= 1.
        return _contract([[self.node_tensor_cell((m - 1) % self.d, idx[:m] + (h,) + idx[m + 1:])
                           for h in range(self.arity)] for m in range(self.d)])


def _prepared(network: NetworkSpec | PreparedNetwork) -> PreparedNetwork:
    """``network`` if prepared already, else the spec prepared under the default cap."""
    return network if isinstance(network, PreparedNetwork) else PreparedNetwork(network)


def node_pipeline(network: NetworkSpec | PreparedNetwork, index: int) -> NodePipeline:
    """Run the expansion pipeline for the node at ``index`` (0-based).

    Stage order: widen the activation over all earlier nodes' axes, blow a
    feedback axis (skipped for the sink), then pad with the remaining axes
    up to order d.

    Raises:
        InvalidNetwork: the spec has validation violations.
        CellCapExceeded: a spec's order-d node tensor would exceed ``DEFAULT_CELL_CAP``.
        IndexError: ``index`` is out of range.
    """
    prepared = _prepared(network)
    n, d = prepared.arity, prepared.d
    if not 0 <= index < d:
        raise IndexError(f"node index {index} out of range for {d} nodes")
    activation = prepared.activations[index]
    inserted = sorted(set(range(index)) - set(prepared.parent_positions[index]))
    widened = forget(activation, inserted, n)
    if index == d - 1:
        return NodePipeline(index, activation, widened, None, widened)
    blown = blow(widened)
    return NodePipeline(index, activation, widened, blown, forget(blown, range(index + 2, d), n))


def node_tensors(network: NetworkSpec | PreparedNetwork) -> list[Tensor]:
    """All order-d node tensors B_0..B_{d-1}."""
    prepared = _prepared(network)
    return [node_pipeline(prepared, i).node_tensor for i in range(prepared.d)]


def total_direct(network: NetworkSpec | PreparedNetwork) -> Tensor:
    """Total tensor by the direct definition: per cell, multiply the matching
    activation entry of every node.  This is the oracle the product route is
    verified against.

    The cells come out row-major and hold the products of
    :meth:`PreparedNetwork.total_direct_cell`, in the same order.  Every
    activation entry is read once per call, through the bounds-checked
    ``Tensor[...]`` (:func:`_entry_rows`).  Cells that agree on the states of
    nodes 0..j share the product of those nodes' entries, which is made by
    one multiply; a zero entry makes its whole subtree zero cells without
    a multiply.
    """
    prepared = _prepared(network)
    n, d = prepared.arity, prepared.d
    rows = _entry_rows(prepared)
    parents = prepared.parent_positions
    cells: list[PolyScalar] = []
    states = [0] * d           # states[j]: node j's state on the current path

    def extend(j: int, prefix: PolyScalar) -> None:
        """Append the cells under ``prefix``, the product of nodes 0..j-1's entries."""
        code = 0
        for p in parents[j]:
            code = code * n + states[p]
        for state, entry in enumerate(rows[j][code * n:code * n + n]):
            if entry.is_zero():
                cells.extend(repeat(_ZERO, n ** (d - 1 - j)))
                continue
            value = entry if prefix is _ONE else prefix * entry
            if j == d - 1:
                cells.append(value)
            else:
                states[j] = state
                extend(j + 1, value)

    try:
        extend(0, _ONE)
    finally:
        del extend   # it closes over itself: break the cycle so its cells go with the result
    return Tensor._view((n,) * d, cells)


def _entry_rows(prepared: PreparedNetwork) -> list[tuple[PolyScalar, ...]]:
    """Each node's activation entries, read once through ``Tensor[...]``, in
    row-major order: the parents' states first, the node's own state last."""
    return [tuple(tensor[idx] for idx in tensor.indices()) for tensor in prepared.activations]


def total_bmp(network: NetworkSpec | PreparedNetwork) -> Tensor:
    """Total tensor via node tensors and one Bhattacharya-Mesner product.

    The factors enter in summand order with the sink's node tensor first,
    i.e. ``P(B_{d-1}, B_0, ..., B_{d-2})``; a single-node network returns its
    activation vector unchanged.
    """
    bs = node_tensors(network)
    return summand_ordered_bmp([bs[-1], *bs[:-1]])


def map_entries(activation: ActivationSpec,
                function: Callable[[PolyScalar], object]) -> dict[str, object]:
    """Each field of ``activation`` by name, with ``function`` applied to its
    entry; a tuple field lists entries, and holds the list of their images."""
    return {name: (list(map(function, value)) if isinstance(value, tuple) else function(value))
            for name, value in zip(activation._fields, activation._values())}


def evaluated_network(spec: NetworkSpec, bindings: Assignment) -> NetworkSpec | None:
    """``spec`` with each parameter entry replaced by its value at
    ``bindings``, ``spec`` itself when no entry names a parameter, or None
    where evaluating the symbolic total cell by cell could print or refuse
    something else, or would cost no more.

    Evaluation at a point is a ring homomorphism, so either route's total of
    the result holds the symbolic total's cells evaluated.  Each distinct
    entry with a parameter is evaluated once, and the result is None when:

    * a name such an entry uses is unbound, which the symbolic total reports
      only where the entry is not multiplied by zero, or bound to a float,
      since float products and sums do not associate;
    * the nodes' largest term sizes, a term's size being the sum of
      ``_size_bits(binding) * power`` over its parameters, add up to over
      ``_MAX_POWER_BITS``.  A term of a total cell is a product of one term
      per node, so under that bound no term of a cell, nor of an entry, can
      be refused;
    * the activations list at least as many entries as the total has
      cells.  An entry's evaluation costs about what a cell's does, so
      evaluating first would then save nothing.
    """
    node_entries: list[list[PolyScalar]] = [[] for _ in spec.nodes]
    for node, entries in zip(spec.nodes, node_entries):
        map_entries(node.activation, entries.append)
    symbolic = {entry for entries in node_entries for entry in entries
                if not isinstance(entry, (int, Fraction)) and entry.parameters()}
    if not symbolic:
        return spec
    used = set().union(*(entry.parameters() for entry in symbolic))
    if any(name not in bindings or isinstance(bindings[name], float) for name in used):
        return None
    # The spec is not validated yet: the power is taken only once arity <= total.
    total = sum(map(len, node_entries))
    if total >= spec.arity and total >= spec.arity ** spec.node_count:
        return None
    sizes = {name: _size_bits(bindings[name]) for name in used}
    largest = {entry: max(sum(sizes[name] * power for name, power in mono)
                          for mono, _ in entry.terms()) for entry in symbolic}
    if sum(max((largest.get(entry, 0) for entry in entries), default=0)
           for entries in node_entries) > _MAX_POWER_BITS:
        return None
    values = {entry: PolyScalar.constant(entry.evaluate(bindings)) for entry in symbolic}
    return spec._replace(nodes=tuple(
        node._replace(activation=node.activation._replace(**map_entries(
            node.activation, lambda entry: values.get(entry, entry))))
        for node in spec.nodes))


class StochasticCheck(Record):
    """Whether one node's activation sums to 1 over its output axis.

    Stochastic weights are never required - totals are well defined for any
    entries - but the report tells modellers whether their tensors can be
    read as conditional probability tables.  ``failing_input`` is the first
    parent-state combination whose output marginal is not 1.
    """

    __slots__ = ("node", "stochastic", "failing_input", "failing_sum")
    _defaults = {"failing_input": None, "failing_sum": None}
    node: str
    stochastic: bool
    failing_input: tuple[int, ...] | None
    failing_sum: PolyScalar | None


def stochastic_report(spec: NetworkSpec) -> list[StochasticCheck]:
    """Check every activation's output marginal, in node order; a spec with
    violations raises :class:`InvalidNetwork`, and one with an activation of
    more than ``DEFAULT_CELL_CAP`` cells :class:`CellCapExceeded`."""
    ensure_valid(spec)
    n, order = spec.arity, 1 + max(len(node.parents) for node in spec.nodes)
    if n ** order > DEFAULT_CELL_CAP:
        raise CellCapExceeded(order, n, DEFAULT_CELL_CAP)
    reports = []
    for node in spec.nodes:
        tensor = activation_tensor(node.activation, len(node.parents), n)
        # The output axis is last, so each input combination's n cells are adjacent.
        combos = product(range(n), repeat=tensor.order - 1)
        marginals = (sum(tensor.cells[k:k + n], _ZERO) for k in range(0, tensor.ncells, n))
        failing = next(((combo, m) for combo, m in zip(combos, marginals) if m != _ONE), None)
        reports.append(StochasticCheck(node.id, failing is None, *(failing or ())))
    return reports


class VerificationResult(Record):
    """Outcome of comparing the two total-tensor routes cell by cell."""

    __slots__ = ("equal", "cells", "first_difference")
    _defaults = {"first_difference": None}
    equal: bool
    cells: int
    first_difference: tuple[tuple[int, ...], PolyScalar, PolyScalar] | None


def verify_totals(network: NetworkSpec | PreparedNetwork) -> VerificationResult:
    """Compute both totals from one preparation and compare them exactly,
    reporting the first mismatch in row-major index order."""
    prepared = _prepared(network)
    via_product = total_bmp(prepared)
    direct = total_direct(prepared)
    if direct == via_product:
        return VerificationResult(True, direct.ncells)
    cells = zip(direct.indices(), direct.cells, via_product.cells)
    first = next((idx, a, b) for idx, a, b in cells if a != b)
    return VerificationResult(False, direct.ncells, first)
