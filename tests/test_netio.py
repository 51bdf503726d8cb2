"""Document parsing, tensor text blocks, assignments, and round-trips."""

import random
from fractions import Fraction

import pytest

from tensordag import (AssignmentSyntaxError, DuplicateNodeId, EntryCountMismatch,
                       JukesCantor, SchemaError, ShapeMismatch, Tensor,
                       TensorSyntaxError, UnknownNodeId, activation_tensor,
                       parse_network, parse_network_document, parse_tensor,
                       parse_assignment, serialize_network, serialize_tensor,
                       total_direct, validate)
from golden import (ALPHA, BETA, chain_network, five_node_network, random_dag_network,
                    random_monomial, severed_chain_network, triangle_network)


CHAIN_DOCUMENT = """
{
  "arity": 2,
  "nodes": [
    {"id": "b", "parents": [], "activation": {"type": "vector", "entries": ["alpha", "beta"]}},
    {"id": "c", "parents": ["b"], "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}},
    {"id": "a", "parents": ["c"], "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}}
  ],
  "order": ["b", "c", "a"]
}
"""


class TestParseNetwork:
    def test_chain_document(self):
        assert parse_network(CHAIN_DOCUMENT) == chain_network()

    def test_declaration_order_is_the_default(self):
        doc = {
            "arity": 2,
            "nodes": [
                {"id": "x", "parents": [], "activation": {"type": "vector", "entries": ["1", "2"]}},
                {"id": "y", "parents": ["x"], "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}},
            ],
        }
        spec = parse_network_document(doc)
        assert spec.node_ids() == ["x", "y"]

    def test_order_key_reorders_nodes(self):
        doc = {
            "arity": 2,
            "nodes": [
                {"id": "y", "parents": ["x"], "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}},
                {"id": "x", "parents": [], "activation": {"type": "vector", "entries": ["1", "2"]}},
            ],
            "order": ["x", "y"],
        }
        spec = parse_network_document(doc)
        assert spec.node_ids() == ["x", "y"]
        assert validate(spec) == []

    def test_parents_are_sorted_by_position(self):
        # the slot order of a threshold family is position order, so listing
        # parents backwards in the file changes nothing
        doc = {
            "arity": 2,
            "nodes": [
                {"id": "x", "parents": [], "activation": {"type": "vector", "entries": ["1", "2"]}},
                {"id": "y", "parents": [], "activation": {"type": "vector", "entries": ["3", "4"]}},
                {"id": "z", "parents": ["y", "x"],
                 "activation": {"type": "quantum_threshold_one", "alpha": "alpha", "beta": "beta"}},
            ],
        }
        spec = parse_network_document(doc)
        assert spec.nodes[2].parents == ("x", "y")
        assert validate(spec) == []

    def test_invalid_json(self):
        with pytest.raises(SchemaError) as info:
            parse_network("{not json")
        assert info.value.path == "$"

    @pytest.mark.parametrize("doc,path_fragment", [
        ([1, 2], "$"),
        ({"nodes": []}, "$"),
        ({"arity": 2}, "$"),
        ({"arity": 2, "nodes": [], "extra": 1}, "extra"),
        ({"arity": "two", "nodes": [{"id": "a", "activation": {"type": "vector", "entries": []}}]}, "arity"),
        ({"arity": 2, "nodes": []}, "nodes"),
        ({"arity": 2, "nodes": ["nope"]}, "nodes[0]"),
        ({"arity": 2, "nodes": [{"id": "", "activation": {"type": "vector", "entries": ["1", "2"]}}]}, "id"),
        ({"arity": 2, "nodes": [{"id": "a", "activation": {"type": "vector", "entries": ["1", "2"]}, "junk": 0}]}, "junk"),
        ({"arity": 2, "nodes": [{"id": "a", "activation": {"type": "mystery"}}]}, "type"),
        ({"arity": 2, "nodes": [{"id": "a", "activation": {"type": "vector"}}]}, "activation"),
        ({"arity": 2, "nodes": [{"id": "a", "activation": {"type": "vector", "entries": ["1", "2"], "beta": "b"}}]}, "beta"),
        ({"arity": 2, "nodes": [{"id": "a", "parents": ["a", "a"], "activation": {"type": "vector", "entries": ["1", "2"]}}]}, "parents"),
        ({"arity": 2, "nodes": [{"id": "a", "activation": {"type": "vector", "entries": ["1", "bad^-1"]}}]}, "entries[1]"),
        ({"arity": 2, "nodes": [{"id": "a", "activation": {"type": "vector", "entries": ["1", "2"]}}], "order": ["a", "a"]}, "order"),
    ])
    def test_schema_errors_carry_a_path(self, doc, path_fragment):
        with pytest.raises(SchemaError) as info:
            parse_network_document(doc)
        assert path_fragment in info.value.path

    def test_duplicate_node_id(self):
        doc = {"arity": 2, "nodes": [
            {"id": "a", "activation": {"type": "vector", "entries": ["1", "2"]}},
            {"id": "a", "activation": {"type": "vector", "entries": ["1", "2"]}},
        ]}
        with pytest.raises(DuplicateNodeId):
            parse_network_document(doc)

    def test_unknown_parent_id(self):
        doc = {"arity": 2, "nodes": [
            {"id": "a", "parents": ["ghost"],
             "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}},
        ]}
        with pytest.raises(UnknownNodeId):
            parse_network_document(doc)

    def test_unknown_order_id(self):
        doc = {"arity": 2, "nodes": [
            {"id": "a", "activation": {"type": "vector", "entries": ["1", "2"]}},
        ], "order": ["b"]}
        with pytest.raises(UnknownNodeId):
            parse_network_document(doc)

    def test_entry_count_mismatch(self):
        doc = {"arity": 2, "nodes": [
            {"id": "x", "activation": {"type": "vector", "entries": ["1", "2"]}},
            {"id": "y", "activation": {"type": "vector", "entries": ["1", "2"]}},
            {"id": "z", "parents": ["x", "y"],
             "activation": {"type": "explicit", "entries": ["1"] * 7}},
        ]}
        with pytest.raises(EntryCountMismatch) as info:
            parse_network_document(doc)
        assert info.value.expected == 8 and info.value.got == 7

    def test_explicit_entries_read_row_major_with_own_state_last(self):
        doc = {"arity": 2, "nodes": [
            {"id": "x", "activation": {"type": "vector", "entries": ["1", "2"]}},
            {"id": "y", "parents": ["x"],
             "activation": {"type": "explicit", "entries": ["alpha", "beta", "beta", "alpha"]}},
        ]}
        spec = parse_network_document(doc)
        tensor = activation_tensor(spec.nodes[1].activation, 1, 2)
        assert tensor == activation_tensor(JukesCantor(ALPHA, BETA), 1, 2)


class TestNetworkRoundTrip:
    @pytest.mark.parametrize("build", [
        chain_network, triangle_network, severed_chain_network, five_node_network])
    def test_golden_networks(self, build):
        spec = build()
        assert parse_network(serialize_network(spec)) == spec

    def test_random_networks(self):
        rng = random.Random(103)
        for _ in range(25):
            spec = random_dag_network(rng, max_nodes=6)
            again = parse_network(serialize_network(spec))
            assert again == spec
            assert total_direct(again) == total_direct(spec)

    def test_serialization_is_deterministic(self):
        spec = five_node_network()
        assert serialize_network(spec) == serialize_network(spec)

    def test_five_node_total_text_is_a_fixed_point(self):
        text = serialize_tensor(total_direct(five_node_network()))
        assert serialize_tensor(parse_tensor(text)) == text


class TestTensorText:
    def test_diagonal_matrix_layout(self):
        t = Tensor.from_nested([[ALPHA, 0], [0, BETA]])
        assert serialize_tensor(t) == "shape: 2 x 2\n1,1 = alpha\n2,2 = beta\n"

    def test_zero_cells_are_omitted_and_restored(self):
        t = Tensor((2, 2, 2), [0, ALPHA, 0, 0, BETA, 0, 0, 0])
        text = serialize_tensor(t)
        assert text.count("=") == 2
        assert parse_tensor(text) == t

    def test_all_zero_tensor(self):
        t = Tensor((2, 2), [0, 0, 0, 0])
        assert parse_tensor(serialize_tensor(t)) == t

    def test_round_trip_random(self):
        rng = random.Random(107)
        for _ in range(30):
            order = rng.randint(1, 5)
            shape = tuple(rng.randint(1, 3) for _ in range(order))
            t = Tensor.from_function(
                shape, lambda idx: random_monomial(rng) if rng.random() < 0.6 else 0)
            assert parse_tensor(serialize_tensor(t)) == t

    def test_blank_lines_are_allowed(self):
        t = parse_tensor("\nshape: 2\n\n1 = alpha\n\n")
        assert t == Tensor.vector([ALPHA, 0])

    def test_missing_header(self):
        with pytest.raises(TensorSyntaxError):
            parse_tensor("1,1 = alpha\n")

    def test_bad_shape(self):
        with pytest.raises(TensorSyntaxError):
            parse_tensor("shape: 2 x zero\n")
        with pytest.raises(TensorSyntaxError):
            parse_tensor("shape: 2 x 0\n")

    def test_shape_above_the_cell_cap(self):
        with pytest.raises(TensorSyntaxError):
            parse_tensor("shape: 4097 x 4096\n")

    def test_index_out_of_range_is_a_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            parse_tensor("shape: 2 x 2\n3,1 = alpha\n")

    def test_wrong_index_arity(self):
        with pytest.raises(TensorSyntaxError):
            parse_tensor("shape: 2 x 2\n1 = alpha\n")

    def test_duplicate_cell(self):
        with pytest.raises(TensorSyntaxError):
            parse_tensor("shape: 2\n1 = alpha\n1 = beta\n")

    def test_bad_expression_reports_line(self):
        with pytest.raises(TensorSyntaxError) as info:
            parse_tensor("shape: 2\n1 = alpha\n2 = al^pha\n")
        assert info.value.line == 3

    def test_bad_cell_line(self):
        with pytest.raises(TensorSyntaxError):
            parse_tensor("shape: 2\nnot a cell\n")


class TestAssignments:
    def test_mixed_values(self):
        parsed = parse_assignment("alpha=1,beta=-2/3,gamma=0.5")
        assert parsed == {"alpha": 1, "beta": Fraction(-2, 3), "gamma": 0.5}
        assert isinstance(parsed["gamma"], float)
        assert isinstance(parsed["beta"], Fraction)

    def test_whitespace_tolerated(self):
        assert parse_assignment(" x = 3 , y = 1/2 ") == {"x": 3, "y": Fraction(1, 2)}

    def test_empty_text(self):
        assert parse_assignment("") == {}

    def test_scientific_notation_is_float(self):
        assert parse_assignment("x=1e-3") == {"x": 0.001}

    @pytest.mark.parametrize("text", ["x", "x=", "=3", "x=3,x=4", "2x=1", "x=1/0", "x=one"])
    def test_malformed_assignments(self, text):
        with pytest.raises(AssignmentSyntaxError):
            parse_assignment(text)
