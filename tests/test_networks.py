"""Network model: activation families, validation, node tensors, totals."""

import copy
import gc
import pickle
import random
import sys
import tracemalloc
from itertools import permutations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fractions import Fraction

from tensordag import networks, tensors
from tensordag import (CellCapExceeded, CycleDetected, ExplicitActivation,
                       FamilyArityMismatch, InvalidNetwork, JukesCantor,
                       NetworkSpec, NodePipeline, NodeSpec, Permutation, PolyScalar,
                       PreparedNetwork, QuantumThresholdOne, SourceVector,
                       StochasticCheck, Tensor, ThresholdOne, VerificationResult, Violation,
                       activation_tensor, blow, bmp,
                       ensure_valid, node_pipeline, node_tensors,
                       outer_product, parse_expr, parse_network,
                       sigma_transpose, stochastic_report, summand_ordered_bmp,
                       topological_order, total_bmp, total_direct, validate,
                       verify_totals)
from tensordag.scalars import _ZERO
from golden import (ALPHA, BETA, CHAIN_NODE_TENSORS, CHAIN_TOTAL, FIVE_NODE_NODE_TENSORS,
                    FIVE_NODE_TOTAL, SEVERED_TOTAL, TRIANGLE_TOTAL, chain_network,
                    expr_table, five_node_network, random_dag_network,
                    severed_chain_network, tensor_from_table, triangle_network)
from test_bench_oracle import _load

ZERO = PolyScalar.zero()


def assert_matches_table(tensor, rows):
    table = expr_table(rows)
    for idx in tensor.indices():
        assert tensor[idx] == table.get(idx, ZERO), f"cell {idx}"


class TestActivationFamilies:
    def test_jukes_cantor_binary(self):
        t = activation_tensor(JukesCantor(ALPHA, BETA), 1, 2)
        assert t == Tensor.from_nested([[ALPHA, BETA], [BETA, ALPHA]])

    def test_jukes_cantor_ternary(self):
        t = activation_tensor(JukesCantor(ALPHA, BETA), 1, 3)
        for i, j in t.indices():
            assert t[(i, j)] == (ALPHA if i == j else BETA)

    def test_threshold_two_parents(self):
        t = activation_tensor(ThresholdOne(ALPHA), 2, 2)
        expected = {
            (0, 0, 0): ALPHA, (0, 0, 1): ZERO,
            (0, 1, 0): ZERO, (0, 1, 1): ALPHA,
            (1, 0, 0): ZERO, (1, 0, 1): ALPHA,
            (1, 1, 0): ZERO, (1, 1, 1): ALPHA,
        }
        for idx, value in expected.items():
            assert t[idx] == value

    def test_quantum_threshold_replaces_zeros(self):
        hard = activation_tensor(ThresholdOne(ALPHA), 2, 2)
        soft = activation_tensor(QuantumThresholdOne(ALPHA, BETA), 2, 2)
        for idx in hard.indices():
            assert soft[idx] == (BETA if hard[idx].is_zero() else hard[idx])

    def test_source_vector(self):
        assert activation_tensor(SourceVector((ALPHA, BETA)), 0, 2) == Tensor.vector(
            [ALPHA, BETA])

    def test_explicit_row_major(self):
        entries = tuple(PolyScalar.constant(v) for v in range(8))
        t = activation_tensor(ExplicitActivation(entries), 2, 2)
        assert t[(1, 0, 1)] == 5  # 1*4 + 0*2 + 1

    @pytest.mark.parametrize("activation,in_degree,arity", [
        (SourceVector((PolyScalar.constant(1),) * 2), 1, 2),
        (SourceVector((PolyScalar.constant(1),) * 3), 0, 2),
        (JukesCantor(ALPHA, BETA), 2, 2),
        (ThresholdOne(ALPHA), 2, 3),
        (QuantumThresholdOne(ALPHA, BETA), 1, 3),
        (ExplicitActivation((ALPHA,) * 7), 2, 2),
    ])
    def test_family_mismatches(self, activation, in_degree, arity):
        with pytest.raises(FamilyArityMismatch):
            activation_tensor(activation, in_degree, arity)


def record_cases():
    """One record of each type, by its fields' names and values; each call
    builds new values."""
    a, b = parse_expr("alpha"), parse_expr("beta")
    vector = Tensor.vector([a, b])
    return [
        (Permutation, {"images": (2, 0, 1)}),
        (Violation, {"code": "UnknownParent", "node": "v", "message": "parent 'u' is not a node"}),
        (SourceVector, {"entries": (a, b)}),
        (ExplicitActivation, {"entries": (a, b, b, a)}),
        (JukesCantor, {"alpha": a, "beta": b}),
        (ThresholdOne, {"alpha": a}),
        (QuantumThresholdOne, {"alpha": a, "beta": b}),
        (NodeSpec, {"id": "v", "parents": ("u",), "activation": JukesCantor(a, b)}),
        (NetworkSpec, {"arity": 2, "nodes": (NodeSpec("u", (), SourceVector((a, b))),)}),
        (NodePipeline, {"index": 0, "activation": vector, "widened": vector, "blown": None,
                        "node_tensor": vector}),
        (StochasticCheck, {"node": "v", "stochastic": False, "failing_input": (0,),
                           "failing_sum": a + b}),
        (VerificationResult, {"equal": False, "cells": 2, "first_difference": ((1,), a, b)}),
    ]


RECORD_NAMES = [cls.__name__ for cls, _ in record_cases()]
each_record = pytest.mark.parametrize("case", range(len(RECORD_NAMES)), ids=RECORD_NAMES)


class TestRecords:
    """Records are equal by class and field values, hash by those values, and are immutable."""

    @each_record
    def test_keyword_and_positional_construction_agree(self, case):
        cls, fields = record_cases()[case]
        _, same = record_cases()[case]
        by_keyword, by_position = cls(**fields), cls(*same.values())
        assert by_keyword == by_position and not by_keyword != by_position
        assert hash(by_keyword) == hash(by_position)
        assert all(getattr(by_keyword, name) == value for name, value in fields.items())

    @each_record
    def test_assignment_is_refused(self, case):
        cls, fields = record_cases()[case]
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)

    @each_record
    def test_a_copy_is_equal(self, case):
        cls, fields = record_cases()[case]
        record = cls(**fields)
        assert copy.copy(record) == record

    def test_a_pickled_network_is_equal(self):
        spec = five_node_network()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_records_of_different_classes_with_equal_fields_are_unequal(self):
        assert SourceVector((ALPHA, BETA)) != ExplicitActivation((ALPHA, BETA))
        assert JukesCantor(ALPHA, BETA) != QuantumThresholdOne(ALPHA, BETA)
        assert not SourceVector((ALPHA,)) == ExplicitActivation((ALPHA,))
        assert SourceVector((ALPHA, BETA)) != (ALPHA, BETA)

    def test_unequal_fields_make_unequal_records(self):
        assert JukesCantor(ALPHA, BETA) != JukesCantor(BETA, ALPHA)
        assert NodeSpec("v", (), SourceVector((ALPHA,))) != NodeSpec("v", (), SourceVector((BETA,)))

    def test_optional_fields_default_to_none(self):
        check = StochasticCheck("v", True)
        assert check.failing_input is None and check.failing_sum is None
        assert check == StochasticCheck(node="v", stochastic=True, failing_sum=None)
        assert VerificationResult(True, 8).first_difference is None
        assert VerificationResult(equal=True, cells=8) == VerificationResult(True, 8, None)

    def test_sequences_are_stored_as_tuples(self):
        assert SourceVector([ALPHA, BETA]).entries == (ALPHA, BETA)
        assert ExplicitActivation(iter([ALPHA, BETA])).entries == (ALPHA, BETA)
        node = NodeSpec("v", ["u"], JukesCantor(ALPHA, BETA))
        assert node.parents == ("u",) and node == NodeSpec("v", ("u",), JukesCantor(ALPHA, BETA))
        assert NetworkSpec(2, [node]).nodes == (node,)
        assert hash(NetworkSpec(2, [node])) == hash(NetworkSpec(2, (node,)))

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                                           # a field missing
        ((ALPHA, BETA, ALPHA), {}),                         # one value too many
        ((ALPHA,), {"alpha": ALPHA, "beta": BETA}),        # a field given twice
        ((ALPHA, BETA), {"gamma": ALPHA}),                  # no such field
    ])
    def test_a_wrong_argument_list_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            JukesCantor(*args, **kwargs)

    def test_replace_changes_only_the_named_fields(self):
        node = NodeSpec("v", ("u",), JukesCantor(ALPHA, BETA))
        assert node._replace(activation=ThresholdOne(ALPHA)) == NodeSpec("v", ("u",),
                                                                          ThresholdOne(ALPHA))
        assert node == NodeSpec("v", ("u",), JukesCantor(ALPHA, BETA))
        with pytest.raises(TypeError):
            node._replace(activations=ThresholdOne(ALPHA))

    def test_repr_names_every_field(self):
        spec = NetworkSpec(2, (NodeSpec("v", (), SourceVector((parse_expr("a"),))),))
        assert repr(spec) == ("NetworkSpec(arity=2, nodes=(NodeSpec(id='v', parents=(), "
                              "activation=SourceVector(entries=(PolyScalar('a'),))),))")
        assert repr(StochasticCheck("v", True)) == (
            "StochasticCheck(node='v', stochastic=True, failing_input=None, failing_sum=None)")
        assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
        assert str(Violation("EmptyNetwork", None, "a network needs at least one node")) == (
            "EmptyNetwork: a network needs at least one node")


class TestValidate:
    def test_chain_is_valid(self):
        assert validate(chain_network()) == []

    def test_parent_after_child(self):
        spec = NetworkSpec(2, (
            NodeSpec("a", ("b",), JukesCantor(ALPHA, BETA)),
            NodeSpec("b", (), SourceVector((ALPHA, BETA))),
        ))
        codes = [v.code for v in validate(spec)]
        assert codes == ["OrderingIncompatible"]

    def test_activation_order_must_be_indegree_plus_one(self):
        spec = NetworkSpec(2, (
            NodeSpec("x", (), SourceVector((ALPHA, BETA))),
            NodeSpec("y", (), SourceVector((ALPHA, BETA))),
            NodeSpec("z", ("x", "y"), ExplicitActivation((ALPHA,) * 4)),
        ))
        violations = validate(spec)
        assert [v.code for v in violations] == ["OrderMismatch"]
        assert violations[0].node == "z"

    def test_unknown_and_duplicate_parents(self):
        spec = NetworkSpec(2, (
            NodeSpec("x", (), SourceVector((ALPHA, BETA))),
            NodeSpec("y", ("ghost",), JukesCantor(ALPHA, BETA)),
            NodeSpec("z", ("x", "x"), ExplicitActivation((ALPHA,) * 8)),
        ))
        codes = {v.code for v in validate(spec)}
        assert codes == {"UnknownParent", "DuplicateParent"}

    def test_duplicate_node_id(self):
        spec = NetworkSpec(2, (
            NodeSpec("x", (), SourceVector((ALPHA, BETA))),
            NodeSpec("x", (), SourceVector((ALPHA, BETA))),
        ))
        assert "DuplicateNodeId" in {v.code for v in validate(spec)}

    def test_parents_must_be_sorted_by_position(self):
        spec = NetworkSpec(2, (
            NodeSpec("x", (), SourceVector((ALPHA, BETA))),
            NodeSpec("y", ("x",), JukesCantor(ALPHA, BETA)),
            NodeSpec("z", ("y", "x"), ExplicitActivation((ALPHA,) * 8)),
        ))
        assert "ParentOrder" in {v.code for v in validate(spec)}

    def test_an_activation_outside_the_families_is_reported(self):
        spec = NetworkSpec(2, (NodeSpec("x", (), "alpha"),))
        assert [(v.code, v.node, v.message) for v in validate(spec)] == \
            [("FamilyArityMismatch", "x", "unknown activation str")]

    def test_arity_below_two(self):
        spec = NetworkSpec(1, (NodeSpec("x", (), SourceVector((ALPHA,))),))
        assert "ArityOutOfRange" in {v.code for v in validate(spec)}

    @pytest.mark.parametrize("route", [node_tensors, total_direct, total_bmp, verify_totals,
                                       stochastic_report, PreparedNetwork])
    def test_a_network_without_nodes_is_refused_by_every_route(self, route):
        spec = NetworkSpec(2, ())
        assert [v.code for v in validate(spec)] == ["EmptyNetwork"]
        with pytest.raises(InvalidNetwork, match="EmptyNetwork"):
            route(spec)

    def test_ensure_valid_raises(self):
        spec = NetworkSpec(2, (NodeSpec("a", ("a",), JukesCantor(ALPHA, BETA)),))
        with pytest.raises(InvalidNetwork) as info:
            ensure_valid(spec)
        assert any(v.code == "OrderingIncompatible" for v in info.value.violations)


class TestTopologicalOrder:
    def test_five_node_graph_has_unique_order(self):
        spec = five_node_network()
        assert topological_order(spec.node_ids(), spec.edges()) == ["b", "c", "d", "e", "a"]

    def test_edgeless_keeps_declaration_order(self):
        assert topological_order(["x", "y", "z"], []) == ["x", "y", "z"]

    def test_declaration_order_breaks_ties(self):
        # y and z both become ready once x is placed; y was declared first
        edges = [("x", "y"), ("x", "z"), ("y", "w"), ("z", "w")]
        assert topological_order(["x", "z", "y", "w"], edges) == ["x", "z", "y", "w"]
        assert topological_order(["x", "y", "z", "w"], edges) == ["x", "y", "z", "w"]

    def test_two_cycle(self):
        with pytest.raises(CycleDetected) as info:
            topological_order(["u", "v"], [("u", "v"), ("v", "u")])
        cycle = info.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"u", "v"}

    def test_longer_cycle_behind_valid_prefix(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]
        with pytest.raises(CycleDetected) as info:
            topological_order(["a", "b", "c", "d"], edges)
        assert set(info.value.cycle) == {"b", "c", "d"}

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError):
            topological_order(["a"], [("a", "phantom")])

    def test_repeated_id(self):
        with pytest.raises(ValueError, match="node ids must be unique"):
            topological_order(["a", "b", "a"], [("a", "b")])


class TestNodePipelines:
    def test_chain_node_tensors_match_golden(self):
        spec = chain_network()
        for i, node_id in enumerate(spec.node_ids()):
            b = node_pipeline(spec, i).node_tensor
            assert b == tensor_from_table((2, 2, 2), CHAIN_NODE_TENSORS[node_id])

    def test_chain_stage_orders(self):
        spec = chain_network()
        first = node_pipeline(spec, 0)
        assert first.activation.shape == (2,)
        assert first.widened.shape == (2,)
        assert first.blown.shape == (2, 2)
        assert first.node_tensor.shape == (2, 2, 2)
        assert first.blown == blow(Tensor.vector([ALPHA, BETA]))
        sink = node_pipeline(spec, 2)
        assert sink.blown is None
        assert sink.node_tensor is sink.widened

    def test_five_node_tensors_match_golden(self):
        spec = five_node_network()
        tensors = node_tensors(spec)
        for i, node_id in enumerate(spec.node_ids()):
            expected = tensor_from_table((2,) * 5, FIVE_NODE_NODE_TENSORS[node_id])
            assert tensors[i] == expected, f"node {node_id}"

    def test_middle_node_ties_blown_axis_to_axis_zero(self):
        spec = five_node_network()
        e_tensor = node_pipeline(spec, 3).node_tensor
        for idx in e_tensor.indices():
            if idx[0] != idx[4]:
                assert e_tensor[idx].is_zero()

    def test_two_node_with_arrow(self):
        # source vector blows to a diagonal matrix; the product multiplies
        # each row of the sink's matrix by the source weight
        a = Tensor.from_nested([["1", "2"], ["3", "4"]])
        spec = NetworkSpec(2, (
            NodeSpec("b", (), SourceVector((ALPHA, BETA))),
            NodeSpec("a", ("b",), ExplicitActivation(tuple(a.cells))),
        ))
        bs = node_tensors(spec)
        assert bs[0] == Tensor.from_nested([[ALPHA, 0], [0, BETA]])
        assert bs[1] == a
        total = total_bmp(spec)
        for i, j in total.indices():
            assert total[(i, j)] == (ALPHA if i == 0 else BETA) * a[(i, j)]

    def test_two_node_without_arrow(self):
        spec = NetworkSpec(2, (
            NodeSpec("b", (), SourceVector((ALPHA, BETA))),
            NodeSpec("a", (), SourceVector((PolyScalar.constant(2), PolyScalar.constant(3)))),
        ))
        bs = node_tensors(spec)
        # the sink's tensor repeats its vector along every row
        assert bs[1] == Tensor.from_nested([[2, 3], [2, 3]])
        assert total_bmp(spec) == outer_product(
            [Tensor.vector([ALPHA, BETA]), Tensor.vector([2, 3])])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            node_pipeline(chain_network(), 3)


class TestTotals:
    @pytest.mark.parametrize("build,table", [
        (chain_network, CHAIN_TOTAL),
        (triangle_network, TRIANGLE_TOTAL),
        (severed_chain_network, SEVERED_TOTAL),
        (five_node_network, FIVE_NODE_TOTAL),
    ])
    def test_both_routes_match_golden_tables(self, build, table):
        spec = build()
        direct = total_direct(spec)
        assert_matches_table(direct, table)
        assert total_bmp(spec) == direct

    def test_single_node_total_is_the_activation_vector(self):
        spec = NetworkSpec(2, (NodeSpec("solo", (), SourceVector((ALPHA, BETA))),))
        expected = Tensor.vector([ALPHA, BETA])
        assert total_direct(spec) == expected
        assert total_bmp(spec) == expected

    def test_no_arrow_network_is_an_outer_product(self):
        rng = random.Random(71)
        for _ in range(10):
            q = rng.randint(1, 5)
            n = rng.choice((2, 3))
            vectors = [tuple(PolyScalar.constant(rng.randint(-3, 3)) for _ in range(n))
                       for _ in range(q)]
            spec = NetworkSpec(n, tuple(
                NodeSpec(f"w{i}", (), SourceVector(vs)) for i, vs in enumerate(vectors)))
            expected = outer_product([Tensor.vector(list(vs)) for vs in vectors])
            assert total_bmp(spec) == expected
            assert total_direct(spec) == expected

    def test_random_networks_agree_on_both_routes(self):
        rng = random.Random(79)
        for _ in range(60):
            spec = random_dag_network(rng, max_nodes=6)
            assert verify_totals(spec).equal

    def test_removing_the_sink_matches_the_factorization(self):
        # the total of the truncated network times the sink's activation
        # entry reproduces the full total, cell by cell
        rng = random.Random(83)
        for _ in range(20):
            spec = random_dag_network(rng, max_nodes=5)
            if spec.node_count < 2:
                continue
            truncated = NetworkSpec(spec.arity, spec.nodes[:-1])
            full = total_direct(spec)
            partial = total_direct(truncated)
            prepared = PreparedNetwork(spec)
            sink = prepared.activations[-1]
            sink_parents = prepared.parent_positions[-1]
            for idx in full.indices():
                entry = sink[tuple(idx[p] for p in sink_parents) + (idx[-1],)]
                assert full[idx] == partial[idx[:-1]] * entry

    def test_chain_linear_relations(self):
        n = total_direct(chain_network())
        assert n[(0, 1, 0)] == n[(1, 0, 0)] == n[(1, 1, 0)]
        assert n[(0, 0, 1)] == n[(0, 1, 1)] == n[(1, 1, 1)]

    def test_chain_conditional_independence(self):
        # fixing the middle node makes the (first, last) slice rank 1
        n = total_direct(chain_network())
        for mid in (0, 1):
            det = (n[(0, mid, 0)] * n[(1, mid, 1)] - n[(0, mid, 1)] * n[(1, mid, 0)])
            assert det.is_zero()

    def test_severed_chain_boundary_faces_are_rank_one(self):
        n = total_direct(severed_chain_network())
        for axis in (0, 1):
            for fixed in (0, 1):
                def cell(r, c):
                    idx = [r, c]
                    idx.insert(axis, fixed)
                    return n[tuple(idx)]
                det = cell(0, 0) * cell(1, 1) - cell(0, 1) * cell(1, 0)
                assert det.is_zero()

    def test_five_node_entries_are_degree_five_monomials(self):
        n = total_direct(five_node_network())
        for cell in n.cells:
            assert len(cell.terms()) == 1
            assert cell.total_degree() == 5
            assert cell.parameters() <= {"alpha", "beta"}

    def test_total_is_covariant_under_redeclaration(self):
        # listing the same DAG in a different valid order permutes the axes
        rng = random.Random(89)
        nontrivial = 0
        for _ in range(10):
            spec = random_dag_network(rng, max_nodes=5)
            d = spec.node_count
            candidates = [p for p in permutations(range(d)) if _keeps_parents_first(spec, p)]
            placement = rng.choice(candidates)
            nontrivial += placement != tuple(range(d))
            reordered = _redeclare(spec, placement)
            assert validate(reordered) == []
            base = total_direct(spec)
            moved = total_direct(reordered)
            # position k of the new spec holds original node placement[k], so
            # axis m of the original ends up at axis placement^{-1}(m)
            assert moved == sigma_transpose(base, Permutation(tuple(placement)).inverse())
        assert nontrivial >= 3

    def test_cell_cap_guards_totals_and_node_tensors(self):
        spec = five_node_network()
        with pytest.raises(CellCapExceeded) as info:
            total_direct(PreparedNetwork(spec, max_cells=31))
        assert info.value.order == 5 and info.value.arity == 2 and info.value.cap == 31
        with pytest.raises(CellCapExceeded):
            total_bmp(PreparedNetwork(spec, max_cells=31))
        with pytest.raises(CellCapExceeded):
            node_tensors(PreparedNetwork(spec, max_cells=31))
        assert total_direct(PreparedNetwork(spec, max_cells=32)).ncells == 32

    def test_a_cap_above_what_a_list_can_index_is_lowered_to_sys_maxsize(self):
        nodes = [NodeSpec("v0", (), SourceVector((PolyScalar.zero(), ALPHA)))]
        nodes += [NodeSpec(f"v{i}", (f"v{i - 1}",), JukesCantor(ALPHA, BETA))
                  for i in range(1, 70)]
        with pytest.raises(CellCapExceeded) as info:
            PreparedNetwork(NetworkSpec(2, tuple(nodes)), max_cells=2 ** 70)
        assert (info.value.order, info.value.arity, info.value.cap) == (70, 2, sys.maxsize)
        assert str(info.value).endswith("above the cap of 9223372036854775807")

    def test_the_product_cap_never_refuses_total_bmp(self, monkeypatch):
        # The node tensors have as many cells as the total, so the product's cap,
        # the larger of the default and the largest factor, admits it.
        monkeypatch.setattr(tensors, "DEFAULT_CELL_CAP", 2)
        assert_matches_table(total_bmp(five_node_network()), FIVE_NODE_TOTAL)

    def test_invalid_network_propagates(self):
        spec = NetworkSpec(2, (NodeSpec("a", ("a",), JukesCantor(ALPHA, BETA)),))
        with pytest.raises(InvalidNetwork):
            total_direct(spec)


GOLDEN_TOTALS = [(chain_network, CHAIN_TOTAL), (triangle_network, TRIANGLE_TOTAL),
                 (severed_chain_network, SEVERED_TOTAL), (five_node_network, FIVE_NODE_TOTAL)]

#: Entries for random networks: zeros, integers, monomials and two-term rationals.
ENTRY_TEXTS = ("0", "1", "-2", "alpha", "beta", "alpha*beta", "1/3*alpha + 1/2",
               "2/5*beta - 3/7")


@st.composite
def small_networks(draw):
    """Random DAGs of 1-6 nodes over 2-3 states, with hard zeros in their entries."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(2, 3))
    entry = st.sampled_from(ENTRY_TEXTS).map(parse_expr)
    nodes = []
    for i in range(d):
        parents = sorted(draw(st.sets(st.integers(0, i - 1), max_size=min(i, 3)))) if i else []
        p = len(parents)
        families = [ExplicitActivation]
        if p == 0:
            families = [SourceVector]
        elif p == 1:
            families.append(JukesCantor)
        if p and n == 2:
            families.append(ThresholdOne)
        family = draw(st.sampled_from(families))
        if family is JukesCantor:
            activation = JukesCantor(draw(entry), draw(entry))
        elif family is ThresholdOne:
            activation = ThresholdOne(draw(entry))
        else:
            count = n if family is SourceVector else n ** (p + 1)
            activation = family(tuple(draw(entry) for _ in range(count)))
        nodes.append(NodeSpec(f"v{i}", tuple(f"v{j}" for j in parents), activation))
    return NetworkSpec(n, tuple(nodes))


def _count_direct_multiplies(spec, monkeypatch):
    """``total_direct(spec)`` and the number of ``PolyScalar.__mul__`` calls it made."""
    return _count_multiplies(total_direct, spec, monkeypatch)


def _count_multiplies(route, spec, monkeypatch):
    """``route(spec)`` and the number of ``PolyScalar.__mul__`` calls it made."""
    calls = 0
    multiply = PolyScalar.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(PolyScalar, "__mul__", counting)
        total = route(spec)
    return total, calls


def _refuse(*args, **kwargs):
    raise AssertionError("one total route called the other route's code")


class TestPrefixSharedDirect:
    @settings(max_examples=60, deadline=None)
    @given(small_networks())
    def test_every_cell_matches_the_per_cell_oracle_and_the_product(self, spec):
        direct = total_direct(spec)
        prepared = PreparedNetwork(spec)
        for idx in direct.indices():
            assert direct[idx] == prepared.total_direct_cell(idx), f"cell {idx}"
        assert direct == total_bmp(spec)

    def test_each_prefix_is_multiplied_once(self, monkeypatch):
        # n**2 + ... + n**d multiplies: one per node j >= 1 per state of nodes 0..j
        doc = _load("docgen", monkeypatch).generate("mono-n2-d12", 1)[0]
        spec = parse_network(doc.text)
        n, d = spec.arity, spec.node_count
        total, calls = _count_direct_multiplies(spec, monkeypatch)
        assert not any(cell.is_zero() for cell in total.cells)
        assert calls == sum(n ** k for k in range(2, d + 1)) == 8188

        # a zero source entry skips the multiplies of nodes 1..d-1 under it
        source = spec.nodes[0]
        entries = (PolyScalar.zero(),) + source.activation.entries[1:]
        zeroed = NetworkSpec(spec.arity, (
            NodeSpec(source.id, source.parents, SourceVector(entries)),) + spec.nodes[1:])
        total, zeroed_calls = _count_direct_multiplies(zeroed, monkeypatch)
        assert zeroed_calls == calls - sum(n ** k for k in range(1, d))
        assert total.cells[:n ** (d - 1)] == (PolyScalar.zero(),) * n ** (d - 1)
        assert total == total_bmp(zeroed)

    def test_each_activation_entry_is_read_once(self, monkeypatch):
        # sum of n^(p+1) over the nodes: one Tensor[...] read per activation entry
        doc = _load("docgen", monkeypatch).generate("mono-n2-d12", 1)[0]
        spec = parse_network(doc.text)
        reads = 0
        getitem = Tensor.__getitem__

        def counting(self, idx):
            nonlocal reads
            reads += 1
            return getitem(self, idx)

        monkeypatch.setattr(Tensor, "__getitem__", counting)
        total, calls = _count_direct_multiplies(spec, monkeypatch)
        assert reads == sum(spec.arity ** (len(node.parents) + 1) for node in spec.nodes) == 86
        assert calls == 8188
        assert total == total_bmp(spec)

    def test_the_deepest_walk_the_default_cap_admits(self):
        # 24 binary nodes, 2^24 cells: threshold_one over the two predecessors
        # fires iff either fired, so each pair of source states leaves one nonzero cell
        nodes = [NodeSpec("v0", (), SourceVector((ALPHA, BETA))),
                 NodeSpec("v1", (), SourceVector((BETA, ALPHA)))]
        nodes += [NodeSpec(f"v{i}", (f"v{i - 2}", f"v{i - 1}"), ThresholdOne(ALPHA))
                  for i in range(2, 24)]
        spec = NetworkSpec(2, tuple(nodes))
        direct = total_direct(spec)
        assert direct.ncells == 2 ** 24 == networks.DEFAULT_CELL_CAP
        assert direct.cells.count(_ZERO) == 2 ** 24 - 4
        prepared = PreparedNetwork(spec)
        for idx in product(range(2), repeat=2):
            for i in range(2, 24):
                idx += (max(idx[i - 2], idx[i - 1]),)
            assert not direct[idx].is_zero(), f"cell {idx}"
            assert direct[idx] == prepared.total_direct_cell(idx), f"cell {idx}"

    @pytest.mark.parametrize("route", [total_direct, total_bmp])
    def test_a_route_leaves_no_reference_cycle(self, route):
        # a cycle would keep a dropped result's cells until the cycle collector runs
        spec = five_node_network()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            route(spec)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("build,table", GOLDEN_TOTALS)
    def test_direct_route_runs_without_the_product_route(self, build, table, monkeypatch):
        spec = build()
        for name in ("_offsets", "bmp", "forget", "blow"):
            monkeypatch.setattr(tensors, name, _refuse)
        for name in ("forget", "blow", "summand_ordered_bmp"):
            monkeypatch.setattr(networks, name, _refuse)
        assert_matches_table(total_direct(spec), table)

    @pytest.mark.parametrize("build,table", GOLDEN_TOTALS)
    def test_product_route_runs_without_the_direct_lookup(self, build, table, monkeypatch):
        spec = build()
        monkeypatch.setattr(PreparedNetwork, "_entry", _refuse)
        monkeypatch.setattr(networks, "_entry_rows", _refuse)
        assert_matches_table(total_bmp(spec), table)


class TestOnePreparation:
    @pytest.mark.parametrize("build,table", GOLDEN_TOTALS)
    def test_every_route_takes_a_prepared_network(self, build, table, monkeypatch):
        spec = build()
        prepared = PreparedNetwork(spec)

        def routes(network):
            return ([node_pipeline(network, i) for i in range(spec.node_count)],
                    node_tensors(network), total_direct(network), total_bmp(network),
                    verify_totals(network))

        def refuse(*args, **kwargs):
            raise AssertionError("a route prepared its network again")

        expected = routes(spec)
        assert_matches_table(expected[2], table)
        monkeypatch.setattr(PreparedNetwork, "__init__", refuse)
        assert routes(prepared) == expected

    def test_the_cap_is_checked_before_any_activation_is_built(self, monkeypatch):
        # a 25-node binary chain: 2**25 total cells, activations of at most 4
        chain = NetworkSpec(2, (NodeSpec("v0", (), SourceVector((ALPHA, BETA))), *(
            NodeSpec(f"v{i}", (f"v{i - 1}",), JukesCantor(ALPHA, BETA)) for i in range(1, 25))))
        built = []
        activation_tensor = networks.activation_tensor

        def counting(activation, in_degree, arity):
            built.append(activation)
            return activation_tensor(activation, in_degree, arity)

        monkeypatch.setattr(networks, "activation_tensor", counting)
        for route in (PreparedNetwork, lambda spec: node_pipeline(spec, 0), node_tensors,
                      total_direct, total_bmp, verify_totals):
            with pytest.raises(CellCapExceeded) as info:
                route(chain)
            assert (info.value.order, info.value.cap, built) == (25, 2 ** 24, [])
        checks = stochastic_report(chain)
        assert [check.node for check in checks] == chain.node_ids() and len(built) == 25
        assert not any(check.stochastic for check in checks)


class TestOneContractionKernel:
    @pytest.mark.parametrize("workload, multiplies", [("mono-n2-d12", 8_188),
                                                      ("poly-n3-d7", 3_276)])
    def test_product_route_multiply_count_is_pinned(self, monkeypatch, workload, multiplies):
        # The blown ties leave one h per cell, and the walk multiplies each factor in
        # at the deepest axis it reads, so each shared prefix is multiplied once:
        # n^2 + ... + n^d, the direct route's count.
        doc = _load("docgen", monkeypatch).generate(workload, 1)[0]
        spec = parse_network(doc.text)
        total, calls = _count_multiplies(total_bmp, spec, monkeypatch)
        assert calls == multiplies
        assert total == total_direct(spec)

    def test_a_zero_prefix_skips_the_same_multiplies_in_both_routes(self, monkeypatch):
        # threshold_one's disobeying cells are hard zeros: each source state leaves one
        # nonzero prefix per level, so each route makes 2 multiplies per child node
        nodes = [NodeSpec("v0", (), SourceVector((ALPHA, BETA)))]
        nodes += [NodeSpec(f"v{i}", tuple(f"v{j}" for j in sorted({i // 2, i - 1})),
                           ThresholdOne(ALPHA)) for i in range(1, 6)]
        spec = NetworkSpec(2, tuple(nodes))
        direct, direct_calls = _count_multiplies(total_direct, spec, monkeypatch)
        via_product, product_calls = _count_multiplies(total_bmp, spec, monkeypatch)
        assert direct_calls == product_calls == 10
        assert sum(cell.is_zero() for cell in via_product.cells) == 62
        assert via_product == direct

    @pytest.mark.parametrize("build,table", GOLDEN_TOTALS)
    def test_direct_route_runs_without_the_contraction(self, build, table, monkeypatch):
        monkeypatch.setattr(tensors, "_contract", _refuse)
        monkeypatch.setattr(networks, "_contract", _refuse)
        assert_matches_table(total_direct(build()), table)


@st.composite
def wide_networks(draw):
    """Random DAGs of 1-4 nodes over 4-5 states: Jukes-Cantor and explicit families."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(4, 5))
    entry = st.sampled_from(ENTRY_TEXTS).map(parse_expr)
    nodes = []
    for i in range(d):
        parents = sorted(draw(st.sets(st.integers(0, i - 1), max_size=min(i, 2)))) if i else []
        p = len(parents)
        if p == 0:
            activation = SourceVector(tuple(draw(entry) for _ in range(n)))
        elif p == 1 and draw(st.booleans()):
            activation = JukesCantor(draw(entry), draw(entry))
        else:
            activation = ExplicitActivation(tuple(draw(entry) for _ in range(n ** (p + 1))))
        nodes.append(NodeSpec(f"v{i}", tuple(f"v{j}" for j in parents), activation))
    return NetworkSpec(n, tuple(nodes))


def jukes_cantor_chain(n):
    """Three nodes in a chain over n states, each child a Jukes-Cantor matrix."""
    source = SourceVector(tuple(ALPHA if s % 2 else BETA for s in range(n)))
    return NetworkSpec(n, (NodeSpec("b", (), source),
                           NodeSpec("c", ("b",), JukesCantor(ALPHA, BETA)),
                           NodeSpec("a", ("c",), JukesCantor(ALPHA, BETA))))


class TestDepthFirstProduct:
    @settings(max_examples=40, deadline=None)
    @given(wide_networks())
    def test_product_route_matches_the_direct_route_at_four_and_five_states(self, spec):
        assert total_bmp(spec) == total_direct(spec)

    def test_tied_terms_are_never_visited(self, monkeypatch):
        # The blown ties fix the contracted index, so each of the n**d cells reads
        # one term: a few zero tests per cell, not one per each of its n terms.
        n, d = 40, 3
        spec = jukes_cantor_chain(n)
        calls = 0
        is_zero = PolyScalar.is_zero

        def counting(self):
            nonlocal calls
            calls += 1
            return is_zero(self)

        monkeypatch.setattr(PolyScalar, "is_zero", counting)
        total, multiplies = _count_multiplies(total_bmp, spec, monkeypatch)
        assert calls <= 4 * n ** d
        assert multiplies == n ** 2 + n ** 3
        monkeypatch.undo()
        assert total == total_direct(spec)


def every_dag(d):
    """The parent lists of every DAG on nodes 0..d-1 whose arrows run from a lower
    node to a higher one: every edge subset of {(i, j) : i < j}.  Each DAG on d
    nodes has a topological order, so each shape appears among them."""
    pairs = [(i, j) for j in range(d) for i in range(j)]
    for kept in product((False, True), repeat=len(pairs)):
        parents = [[] for _ in range(d)]
        for (i, j), keep in zip(pairs, kept):
            if keep:
                parents[j].append(i)
        yield parents


def generic_network(n, parents, rng=None):
    """The network of ``parents`` whose activation entries are distinct parameters;
    with ``rng``, about 30% of them are 0 instead."""
    nodes = []
    for j, ps in enumerate(parents):
        entries = tuple(_ZERO if rng and rng.random() < 0.3 else PolyScalar.parameter(f"e{j}_{k}")
                        for k in range(n ** (len(ps) + 1)))
        activation = ExplicitActivation(entries) if ps else SourceVector(entries)
        nodes.append(NodeSpec(f"v{j}", tuple(f"v{i}" for i in ps), activation))
    return NetworkSpec(n, tuple(nodes))


class TestEverySmallDag:
    """The theorem for every small DAG shape: over distinct parameters, equal totals
    hold for every activation on that DAG, order and arity, since evaluation is a
    ring homomorphism.  The copies with zero entries run the zero-skip branches."""

    @pytest.mark.parametrize("n, d", [(2, d) for d in range(1, 6)] + [(3, d) for d in range(1, 5)])
    @pytest.mark.parametrize("zeros", [False, True], ids=["generic", "zeros"])
    def test_the_routes_agree_on_every_dag(self, n, d, zeros):
        rng = random.Random(n * 10 + d) if zeros else None
        count = 0
        for parents in every_dag(d):
            result = verify_totals(generic_network(n, parents, rng))
            assert result.equal, (parents, result.first_difference)
            count += 1
        assert count == 2 ** (d * (d - 1) // 2)


def _peak_over_kept(call):
    """``call()`` and the peak of the memory it allocated over the memory its result keeps."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, (peak - before) / (kept - before)


class TestProductMemory:
    # The sweep holds one level of prefix values besides the result: no offsets
    # or fibers of the deepest level are kept.
    def test_the_chain_product_peaks_near_its_result(self):
        bs = node_tensors(jukes_cantor_chain(40))
        total, ratio = _peak_over_kept(lambda: summand_ordered_bmp([bs[-1], *bs[:-1]]))
        assert total.ncells == 40 ** 3
        assert ratio <= 1.25

    @pytest.mark.parametrize("d, side", [(2, 24), (3, 10)])
    def test_a_free_index_product_peaks_near_its_result(self, d, side):
        rng = random.Random(d)
        factors = [Tensor((side,) * d, [rng.randint(-9, 9) for _ in range(side ** d)])
                   for _ in range(d)]
        total, ratio = _peak_over_kept(lambda: bmp(factors))
        assert total.shape == (side,) * d
        assert ratio <= 1.25


def _keeps_parents_first(spec, placement):
    position = {j: k for k, j in enumerate(placement)}
    ids = {node.id: i for i, node in enumerate(spec.nodes)}
    for i, node in enumerate(spec.nodes):
        for parent in node.parents:
            if position[ids[parent]] >= position[i]:
                return False
    return True


def _redeclare(spec, placement):
    """Rebuild the network with nodes listed per ``placement`` (a tuple whose
    entry k is the original index of the node now at position k).

    Parent lists are re-sorted by the new positions and every activation is
    re-expressed explicitly with its parent axes permuted to match.
    """
    new_position = {orig: k for k, orig in enumerate(placement)}
    old_position = {node.id: i for i, node in enumerate(spec.nodes)}
    nodes = []
    for orig in placement:
        node = spec.nodes[orig]
        old_parents = list(node.parents)
        tensor = activation_tensor(node.activation, len(old_parents), spec.arity)
        new_parents = sorted(old_parents, key=lambda p: new_position[old_position[p]])
        if new_parents != old_parents:
            images = tuple(new_parents.index(p) for p in old_parents) + (len(old_parents),)
            tensor = sigma_transpose(tensor, Permutation(images))
        activation = (ExplicitActivation(tensor.cells) if new_parents
                      else SourceVector(tensor.cells))
        nodes.append(NodeSpec(node.id, tuple(new_parents), activation))
    return NetworkSpec(spec.arity, tuple(nodes))


#: Weights that often sum to 1 over two or three states, with hard zeros.
WEIGHT_TEXTS = ("0", "1", "1/2", "1/3", "2/3", "alpha")


@st.composite
def one_child_networks(draw):
    """1-3 source vectors over 2-3 states and one child of a random family fed by all."""
    n, p = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    weight = st.sampled_from(WEIGHT_TEXTS).map(parse_expr)
    families = [ExplicitActivation]
    if p == 1:
        families.append(JukesCantor)
    if n == 2:
        families += [ThresholdOne, QuantumThresholdOne]
    family = draw(st.sampled_from(families))
    if family is ExplicitActivation:
        child = ExplicitActivation(tuple(draw(weight) for _ in range(n ** (p + 1))))
    elif family is ThresholdOne:
        child = ThresholdOne(draw(weight))
    else:
        child = family(draw(weight), draw(weight))
    sources = [NodeSpec(f"s{i}", (), SourceVector(tuple(draw(weight) for _ in range(n))))
               for i in range(p)]
    return NetworkSpec(n, (*sources, NodeSpec("c", tuple(s.id for s in sources), child)))


class TestStochasticReport:
    def test_parameterized_weights_are_not_stochastic(self):
        checks = stochastic_report(chain_network())
        assert [c.stochastic for c in checks] == [False, False, False]
        assert checks[0].failing_sum == ALPHA + BETA
        assert checks[0].failing_input == ()

    def test_probability_weights_are_stochastic(self):
        half = PolyScalar.constant(Fraction(1, 2))
        spec = NetworkSpec(2, (
            NodeSpec("b", (), SourceVector((half, half))),
            NodeSpec("c", ("b",), JukesCantor(PolyScalar.constant(Fraction(1, 3)),
                                              PolyScalar.constant(Fraction(2, 3)))),
            NodeSpec("a", ("b", "c"), ThresholdOne(PolyScalar.constant(1))),
        ))
        assert all(c.stochastic for c in stochastic_report(spec))

    def test_first_failing_input_is_reported(self):
        # row (state 1) of this matrix sums to 1, row 0 does not
        entries = tuple(PolyScalar.constant(v) for v in
                        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)))
        spec = NetworkSpec(2, (
            NodeSpec("b", (), SourceVector((PolyScalar.constant(1), PolyScalar.zero()))),
            NodeSpec("c", ("b",), ExplicitActivation(entries)),
        ))
        checks = stochastic_report(spec)
        assert checks[0].stochastic
        assert not checks[1].stochastic
        assert checks[1].failing_input == (0,)
        assert checks[1].failing_sum == Fraction(3, 4)

    @settings(max_examples=80, deadline=None)
    @given(one_child_networks())
    def test_report_matches_the_per_cell_marginals(self, spec):
        n = spec.arity
        for node, check in zip(spec.nodes, stochastic_report(spec)):
            tensor = activation_tensor(node.activation, len(node.parents), n)
            failing = None
            for combo in product(range(n), repeat=tensor.order - 1):
                marginal = sum((tensor[combo + (out,)] for out in range(n)), ZERO)
                if marginal != 1:
                    failing = (combo, marginal)
                    break
            assert check == StochasticCheck(node.id, failing is None, *(failing or ()))


class TestLazyEvaluation:
    def test_lazy_cells_match_materialized(self):
        rng = random.Random(97)
        for _ in range(15):
            spec = random_dag_network(rng, max_nodes=5)
            prepared = PreparedNetwork(spec)
            direct = total_direct(spec)
            via_product = total_bmp(spec)
            tensors = node_tensors(spec)
            for idx in direct.indices():
                assert prepared.total_direct_cell(idx) == direct[idx]
                assert prepared.total_bmp_cell(idx) == via_product[idx]
            for i, tensor in enumerate(tensors):
                for idx in tensor.indices():
                    assert prepared.node_tensor_cell(i, idx) == tensor[idx]

    def test_lazy_evaluation_works_above_the_cap(self):
        # a 12-node network whose full tensors would hold 4096 cells each can
        # still be sampled cell by cell
        rng = random.Random(101)
        spec = random_dag_network(rng, max_nodes=12, arities=(2,))
        while spec.node_count < 12:
            spec = random_dag_network(rng, max_nodes=12, arities=(2,))
        with pytest.raises(CellCapExceeded):
            total_bmp(PreparedNetwork(spec, max_cells=100))
        prepared = PreparedNetwork(spec)
        for _ in range(25):
            idx = tuple(rng.randrange(2) for _ in range(12))
            assert prepared.total_bmp_cell(idx) == prepared.total_direct_cell(idx)

    def test_product_cell_matches_the_direct_cell_at_forty_nodes(self):
        # 2**40 cells: only the lazy contraction of 40 fibers of 2 cells can reach them
        rng = random.Random(113)
        entries = [parse_expr(text) for text in ENTRY_TEXTS if text != "0"]
        nodes = []
        for i in range(40):
            parents = tuple(f"v{j}" for j in sorted(rng.sample(range(i), min(i, 2))))
            cells = tuple(rng.choice(entries) for _ in range(2 ** (len(parents) + 1)))
            activation = ExplicitActivation(cells) if parents else SourceVector(cells)
            nodes.append(NodeSpec(f"v{i}", parents, activation))
        prepared = PreparedNetwork(NetworkSpec(2, tuple(nodes)), max_cells=2 ** 40)
        for _ in range(50):
            idx = tuple(rng.randrange(2) for _ in range(40))
            assert prepared.total_bmp_cell(idx) == prepared.total_direct_cell(idx)


class TestEvaluatedNetwork:
    @staticmethod
    def chain(source, jukes_cantor, sink=(ALPHA, ZERO)) -> NetworkSpec:
        """b -> c -> a over two states: 6 entries, 8 total cells."""
        return NetworkSpec(2, (
            NodeSpec("b", (), SourceVector(source)),
            NodeSpec("c", ("b",), JukesCantor(*jukes_cantor)),
            NodeSpec("a", ("c",), JukesCantor(*sink)),
        ))

    def test_equal_entries_share_one_value_and_constants_are_kept(self):
        one, half_alpha = PolyScalar.constant(1), parse_expr("1/2*alpha")
        spec = self.chain((one, half_alpha), (parse_expr("1/2*alpha"), ALPHA * BETA))
        evaluated = networks.evaluated_network(spec, {"alpha": 3, "beta": Fraction(-1, 3)})
        source, jukes_cantor, sink = (node.activation for node in evaluated.nodes)
        assert source.entries[0] is one and sink.beta is ZERO
        assert source.entries[1] is jukes_cantor.alpha == PolyScalar.constant(Fraction(3, 2))
        assert jukes_cantor.beta == PolyScalar.constant(-1)
        assert sink.alpha == PolyScalar.constant(3)
        assert [node.parents for node in evaluated.nodes] == [(), ("b",), ("c",)]

    @pytest.mark.parametrize("bindings, evaluates", [
        ({"alpha": 2, "beta": 0.5}, False),      # a float binding
        ({"alpha": 2}, False),                   # beta has no binding
        ({"alpha": 2 ** 9, "beta": 1}, False),   # 9 * 40 000 bits a node, over 2^20 for three
        ({"alpha": 2 ** 8, "beta": 1}, True),    # 8 * 40 000 bits a node
    ])
    def test_none_where_evaluating_first_could_differ(self, bindings, evaluates):
        power = parse_expr("alpha^40000")
        spec = self.chain((power, BETA), (power, ZERO), (power, ZERO))
        assert (networks.evaluated_network(spec, bindings) is not None) == evaluates

    def test_none_where_an_unbound_entry_follows_a_node_over_the_bit_limit(self):
        power = parse_expr("alpha^40000")  # 14 * 40 000 bits a node: over 2^20 for two
        spec = self.chain((power, PolyScalar.constant(1)), (power, ZERO),
                          (ALPHA, parse_expr("gamma")))
        assert networks.evaluated_network(spec, {"alpha": 2 ** 14}) is None
        assert networks.evaluated_network(spec, {"alpha": 2 ** 14, "gamma": 1}) is None

    def test_plain_number_entries_are_constants(self):
        spec = NetworkSpec(2, (
            NodeSpec("b", (), SourceVector((1, BETA))),
            *(NodeSpec(f"c{i}", (f"c{i - 1}" if i else "b",), JukesCantor(ALPHA, 2))
              for i in range(4)),
        ))
        bindings = {"alpha": Fraction(1, 2), "beta": 2}
        evaluated = networks.evaluated_network(spec, bindings)
        assert evaluated is not None
        assert evaluated.nodes[1].activation == JukesCantor(PolyScalar.constant(Fraction(1, 2)), 2)
        expected = [PolyScalar.constant(cell.evaluate(bindings))
                    for cell in total_direct(spec).cells]
        assert list(total_direct(evaluated).cells) == expected

    def test_a_network_without_parameters_is_its_own_value(self):
        three = PolyScalar.constant(3)
        constants = self.chain((ZERO, three), (three, ZERO), (three, three))
        for bindings in ({"alpha": 1, "beta": 2}, {"alpha": 0.5}, {}):
            assert networks.evaluated_network(constants, bindings) is constants

    def test_none_where_evaluating_first_saves_no_evaluation(self):
        bindings = {"alpha": 1, "beta": 2}
        # as many entries as cells
        two_nodes = NetworkSpec(2, self.chain((ALPHA, BETA), (ALPHA, BETA)).nodes[:2])
        assert networks.evaluated_network(two_nodes, bindings) is None
        assert networks.evaluated_network(self.chain((ALPHA, BETA), (ALPHA, BETA)),
                                          bindings) is not None
