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

* :func:`total_direct` multiplies activation entries cell by cell - the
  brute-force definition, used as the oracle.
* :func:`total_bmp` first expands every activation tensor to an order-d node
  tensor (insert missing axes with :func:`~tensordag.tensors.forget`, tie a
  feedback axis with :func:`~tensordag.tensors.blow`, pad the remaining axes)
  and then takes one summand-ordered Bhattacharya-Mesner product with the
  sink's tensor first.

The two results are exactly equal for every valid network; `verify_totals`
checks that equality cell by cell and is wired to the CLI ``total --method
verify`` command.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence, Union

from .scalars import _ONE, _ZERO, PolyScalar, TensordagInputError, count_text
from .tensors import Tensor, _product, blow, forget, summand_ordered_bmp

#: Materializing a tensor with more cells than this is refused by default;
#: an order-d network costs n**d cells per node tensor.
DEFAULT_CELL_CAP = 2 ** 24


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


@dataclass(frozen=True)
class Violation:
    """One violated network invariant; collected by :func:`validate`."""

    code: str
    node: str | None
    message: str

    def __str__(self) -> str:
        where = f" (node '{self.node}')" if self.node is not None else ""
        return f"{self.code}{where}: {self.message}"


# ---------------------------------------------------------------------------
# Activation specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitActivation:
    """Cubical order-(p+1) activation given cell by cell, row-major."""

    entries: tuple[PolyScalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))


@dataclass(frozen=True)
class SourceVector:
    """Activation of a parentless node: one weight per state."""

    entries: tuple[PolyScalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))


@dataclass(frozen=True)
class JukesCantor:
    """Single-parent activation: alpha on the diagonal, beta elsewhere."""

    alpha: PolyScalar
    beta: PolyScalar


@dataclass(frozen=True)
class ThresholdOne:
    """Binary 'at least one parent fired' rule, weight alpha, hard zeros.

    The cell is zero when the node disobeys the rule: all parents in state 0
    with output 1, or some parent in state 1 with output 0.  Every obedient
    cell is alpha.
    """

    alpha: PolyScalar


@dataclass(frozen=True)
class QuantumThresholdOne:
    """Threshold rule whose forbidden cells carry weight beta instead of 0."""

    alpha: PolyScalar
    beta: PolyScalar


ActivationSpec = Union[ExplicitActivation, SourceVector, JukesCantor,
                       ThresholdOne, QuantumThresholdOne]


@dataclass(frozen=True)
class NodeSpec:
    """One node: id, parent ids (sorted by position), and its activation."""

    id: str
    parents: tuple[str, ...]
    activation: ActivationSpec

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class NetworkSpec:
    """A network: arity plus the nodes in their total ordering."""

    arity: int
    nodes: tuple[NodeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

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
        if len(activation.entries) != n:
            return ("FamilyArityMismatch",
                    f"source vector has {len(activation.entries)} entries, arity is {n}")
    elif isinstance(activation, JukesCantor):
        if p != 1:
            return ("OrderMismatch", f"a Jukes-Cantor matrix suits in-degree 1, node has {p} parents")
    elif isinstance(activation, (ThresholdOne, QuantumThresholdOne)):
        if n != 2:
            return ("FamilyArityMismatch", f"threshold activations need arity 2, arity is {n}")
    elif isinstance(activation, ExplicitActivation):
        expected = n ** (p + 1)
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
    p, n = in_degree, arity
    if isinstance(activation, SourceVector):
        return Tensor.vector(activation.entries)
    if isinstance(activation, ExplicitActivation):
        return Tensor((n,) * (p + 1), activation.entries)
    if isinstance(activation, JukesCantor):
        a, b = activation.alpha, activation.beta
        return Tensor.from_function((n, n), lambda idx: a if idx[0] == idx[1] else b)
    # Threshold families: state 1 means "fired".
    if isinstance(activation, ThresholdOne):
        obedient, disobedient = activation.alpha, _ZERO
    else:
        obedient, disobedient = activation.alpha, activation.beta

    def cell(idx: tuple[int, ...]) -> PolyScalar:
        some_parent_fired = any(s == 1 for s in idx[:-1])
        out = idx[-1]
        if (not some_parent_fired and out == 1) or (some_parent_fired and out == 0):
            return disobedient
        return obedient

    return Tensor.from_function((2,) * (p + 1), cell)


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
        ok = True
        seen: set[str] = set()
        for parent in node.parents:
            if parent in seen:
                violations.append(Violation("DuplicateParent", node.id,
                                            f"parent '{parent}' listed twice"))
                ok = False
                continue
            seen.add(parent)
            if parent not in position:
                violations.append(Violation("UnknownParent", node.id,
                                            f"parent '{parent}' is not a node"))
                ok = False
                continue
            j = position[parent]
            if j >= i:
                violations.append(Violation(
                    "OrderingIncompatible", node.id,
                    f"parent '{parent}' (position {j}) does not precede position {i}"))
                ok = False
            parent_positions.append(j)
        if ok and parent_positions != sorted(parent_positions):
            violations.append(Violation(
                "ParentOrder", node.id,
                "parents must be listed in increasing position order"))
            ok = False
        if ok:
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


@dataclass(frozen=True)
class NodePipeline:
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

    With ``max_cells`` given, a network whose order-d tensors would hold
    more cells than that is refused after validation and before any
    activation tensor is built; every activation has at most n**d cells.

    Raises:
        InvalidNetwork: the spec has validation violations.
        CellCapExceeded: ``arity ** d`` exceeds ``max_cells``.
    """

    def __init__(self, spec: NetworkSpec, max_cells: int | None = None):
        ensure_valid(spec)
        if max_cells is not None and spec.arity ** spec.node_count > max_cells:
            raise CellCapExceeded(spec.node_count, spec.arity, max_cells)
        self.spec = spec
        self.arity = spec.arity
        self.d = spec.node_count
        self.position = {node.id: i for i, node in enumerate(spec.nodes)}
        self.parent_positions: list[tuple[int, ...]] = [
            tuple(self.position[p] for p in node.parents) for node in spec.nodes]
        self.activations: list[Tensor] = [
            activation_tensor(node.activation, len(node.parents), spec.arity)
            for node in spec.nodes]

    def total_shape(self) -> tuple[int, ...]:
        return (self.arity,) * self.d

    def _entry(self, j: int, idx: tuple[int, ...]) -> PolyScalar:
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
        """Product-formula cell evaluated lazily: one contracted sum."""
        if self.d == 1:
            return self.node_tensor_cell(0, idx)
        # Factor at summand position m is contracted in axis m: the sink
        # tensor at m = 0, node tensor B_{m-1} for m >= 1.
        terms = (_product(self.node_tensor_cell((m - 1) % self.d, idx[:m] + (h,) + idx[m + 1:])
                          for m in range(self.d))
                 for h in range(self.arity))
        return sum(terms, _ZERO)


def node_pipeline(spec: NetworkSpec, index: int,
                  max_cells: int = DEFAULT_CELL_CAP) -> NodePipeline:
    """Run the expansion pipeline for the node at ``index`` (0-based).

    Stage order: widen the activation over all earlier nodes' axes, blow a
    feedback axis (skipped for the sink), then pad with the remaining axes
    up to order d.

    Raises:
        InvalidNetwork: the spec has validation violations.
        CellCapExceeded: the order-d node tensor would exceed ``max_cells``.
        IndexError: ``index`` is out of range.
    """
    prepared = PreparedNetwork(spec, max_cells)
    if not 0 <= index < prepared.d:
        raise IndexError(f"node index {index} out of range for {prepared.d} nodes")
    return _pipeline(prepared, index)


def _pipeline(prepared: PreparedNetwork, i: int) -> NodePipeline:
    n, d = prepared.arity, prepared.d
    activation = prepared.activations[i]
    inserted = sorted(set(range(i)) - set(prepared.parent_positions[i]))
    widened = forget(activation, inserted, n)
    if i == d - 1:
        return NodePipeline(i, activation, widened, None, widened)
    blown = blow(widened)
    full = forget(blown, range(i + 2, d), n)
    return NodePipeline(i, activation, widened, blown, full)


def node_tensors(spec: NetworkSpec, max_cells: int = DEFAULT_CELL_CAP) -> list[Tensor]:
    """All order-d node tensors B_0..B_{d-1} in node order."""
    prepared = PreparedNetwork(spec, max_cells)
    return [_pipeline(prepared, i).node_tensor for i in range(prepared.d)]


def total_direct(spec: NetworkSpec, max_cells: int = DEFAULT_CELL_CAP) -> Tensor:
    """Total tensor by the direct definition: per cell, multiply the matching
    activation entry of every node.  This is the oracle the product route is
    verified against."""
    prepared = PreparedNetwork(spec, max_cells)
    return Tensor.from_function(prepared.total_shape(), prepared.total_direct_cell)


def total_bmp(spec: NetworkSpec, max_cells: int = DEFAULT_CELL_CAP) -> Tensor:
    """Total tensor via node tensors and one Bhattacharya-Mesner product.

    The factors enter in summand order with the sink's node tensor first,
    i.e. ``P(B_{d-1}, B_0, ..., B_{d-2})``; a single-node network returns its
    activation vector unchanged.
    """
    bs = node_tensors(spec, max_cells)
    return summand_ordered_bmp([bs[-1], *bs[:-1]])


@dataclass(frozen=True)
class StochasticCheck:
    """Whether one node's activation sums to 1 over its output axis.

    Stochastic weights are never required - totals are well defined for any
    entries - but the report tells modellers whether their tensors can be
    read as conditional probability tables.  ``failing_input`` is the first
    parent-state combination whose output marginal is not 1.
    """

    node: str
    stochastic: bool
    failing_input: tuple[int, ...] | None = None
    failing_sum: PolyScalar | None = None


def stochastic_report(spec: NetworkSpec) -> list[StochasticCheck]:
    """Check every activation's output marginal, in node order."""
    prepared = PreparedNetwork(spec)
    reports = []
    for node, tensor in zip(spec.nodes, prepared.activations):
        failing = None
        for combo in product(range(spec.arity), repeat=tensor.order - 1):
            marginal = _ZERO
            for out in range(spec.arity):
                marginal = marginal + tensor[combo + (out,)]
            if marginal != _ONE:
                failing = (combo, marginal)
                break
        if failing is None:
            reports.append(StochasticCheck(node.id, True))
        else:
            reports.append(StochasticCheck(node.id, False, failing[0], failing[1]))
    return reports


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of comparing the two total-tensor routes cell by cell."""

    equal: bool
    cells: int
    first_difference: tuple[tuple[int, ...], PolyScalar, PolyScalar] | None = None


def verify_totals(spec: NetworkSpec, max_cells: int = DEFAULT_CELL_CAP) -> VerificationResult:
    """Compute both totals and compare exactly, reporting the first mismatch.

    Cells are compared in row-major index order, so the reported first
    difference is deterministic.
    """
    direct = total_direct(spec, max_cells)
    via_product = total_bmp(spec, max_cells)
    if direct == via_product:
        return VerificationResult(True, direct.ncells)
    for idx, a, b in zip(direct.indices(), direct.cells, via_product.cells):
        if a != b:
            return VerificationResult(False, direct.ncells, (idx, a, b))
    raise AssertionError("tensors differ but no differing cell found")
