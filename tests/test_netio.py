"""Document parsing, tensor text blocks, assignments, and round-trips."""

import json
import math
from collections import Counter
import random
import time
from fractions import Fraction

import pytest

from tensordag import (AssignmentSyntaxError, DuplicateNodeId, EntryCountMismatch,
                       ExplicitActivation, JukesCantor, NetworkSpec, NodeSpec,
                       QuantumThresholdOne, SchemaError, ShapeMismatch, SourceVector,
                       Tensor, TensorSyntaxError, ThresholdOne, UnknownNodeId,
                       activation_tensor, parse_network, parse_network_document,
                       parse_expr, parse_tensor, parse_assignment, serialize_network,
                       serialize_tensor, total_direct, validate)
from tensordag import netio, tensors
from tensordag.tensors import as_scalar
from tensordag.networks import FAMILIES
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

    @pytest.mark.parametrize("doc, key", [
        ({}, "arity"),
        ({"arity": 2, "nodes": [{}]}, "id"),
        ({"arity": 2, "nodes": [{"id": "x", "activation": {"type": "jukes_cantor"}}]}, "alpha"),
    ], ids=["document", "node", "activation"])
    def test_first_missing_key_does_not_depend_on_the_hash_seed(self, doc, key):
        with pytest.raises(SchemaError, match=f"missing required key '{key}'"):
            parse_network_document(doc)

    def test_entry_count_too_long_to_print_is_not_computed(self):
        text = json.dumps({"arity": int("9" * 4000), "nodes": [
            {"id": "x", "parents": [f"p{i}" for i in range(4000)],
             "activation": {"type": "explicit", "entries": []}}]})
        start = time.perf_counter()
        with pytest.raises(EntryCountMismatch) as info:
            parse_network(text)
        assert time.perf_counter() - start < 5
        assert str(info.value) == (
            "$.nodes[0].activation.entries: expected over 10^4300 entries, got 0")

    def test_explicit_entries_read_row_major_with_own_state_last(self):
        doc = {"arity": 2, "nodes": [
            {"id": "x", "activation": {"type": "vector", "entries": ["1", "2"]}},
            {"id": "y", "parents": ["x"],
             "activation": {"type": "explicit", "entries": ["alpha", "beta", "beta", "alpha"]}},
        ]}
        spec = parse_network_document(doc)
        tensor = activation_tensor(spec.nodes[1].activation, 1, 2)
        assert tensor == activation_tensor(JukesCantor(ALPHA, BETA), 1, 2)


def _vector_document(entries: list[str]) -> dict:
    return {"arity": len(entries), "nodes": [
        {"id": "x", "activation": {"type": "vector", "entries": entries}}]}


class TestParseOncePerRead:
    """Each distinct expression text is parsed once per document read."""

    TEXTS = ["alpha", "2*alpha*beta", " alpha", "alpha", "1/3", "2*alpha*beta", "1/3", "alpha"]

    @pytest.fixture
    def parsed(self, monkeypatch):
        counts = Counter()

        def counting(text):
            counts[text] += 1
            return parse_expr(text)

        monkeypatch.setattr(netio, "parse_expr", counting)
        return counts

    def test_every_repeated_entry_equals_its_own_parse(self):
        rng = random.Random(16)
        pool = ["alpha", "-3*alpha^2*beta", "alpha ", "(alpha + 1)^2", "1/2", "0", "beta*alpha"]
        entries = [rng.choice(pool) for _ in range(27)]
        spec = parse_network_document({"arity": 3, "nodes": [
            {"id": "x", "activation": {"type": "vector", "entries": entries[:3]}},
            {"id": "y", "parents": ["x"],
             "activation": {"type": "explicit", "entries": entries[3:12]}},
            {"id": "z", "parents": ["y"],
             "activation": {"type": "jukes_cantor", "alpha": entries[12], "beta": entries[13]}},
        ]})
        read = [*spec.nodes[0].activation.entries, *spec.nodes[1].activation.entries,
                spec.nodes[2].activation.alpha, spec.nodes[2].activation.beta]
        assert read == [parse_expr(text) for text in entries[:14]]

    def test_the_first_bad_occurrence_is_reported(self):
        with pytest.raises(SchemaError) as info:
            parse_network_document(_vector_document(["1", "2*", "3", "2*"]))
        assert info.value.path == "$.nodes[0].activation.entries[1]"

    def test_each_distinct_text_is_parsed_once_per_call(self, parsed):
        text = json.dumps(_vector_document(self.TEXTS))
        first = parse_network(text)
        assert parsed == Counter(set(self.TEXTS))
        assert parse_network(text) == first
        assert parsed == Counter(2 * list(set(self.TEXTS)))  # nothing is kept across calls

    def test_parsed_cells_are_taken_as_they_are(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return as_scalar(value)

        monkeypatch.setattr(tensors, "as_scalar", counting)
        tensor = parse_tensor("shape: 300 x 300\n2,3 = alpha\n")
        assert calls == []
        assert tensor.shape == (300, 300) and tensor[(1, 2)] == ALPHA
        assert sum(not cell.is_zero() for cell in tensor.cells) == 1

    def test_a_tensor_block_parses_each_cell_expression_once(self, parsed):
        block = "shape: 2 x 2\n1,1 = alpha*beta\n1,2 = 3\n2,1 = alpha*beta\n2,2 = alpha*beta\n"
        tensor = parse_tensor(block)
        assert parsed == Counter({"alpha*beta": 1, "3": 1})
        assert tensor == Tensor((2, 2), [ALPHA * BETA, 3, ALPHA * BETA, ALPHA * BETA])


#: One activation of each family and the in-degree it suits, at arity 2.
FAMILY_EXAMPLES = {
    SourceVector: (0, SourceVector((ALPHA, BETA))),
    ExplicitActivation: (2, ExplicitActivation((ALPHA, BETA, 1, 0, BETA, ALPHA, 0, 1))),
    JukesCantor: (1, JukesCantor(ALPHA, BETA)),
    ThresholdOne: (2, ThresholdOne(ALPHA)),
    QuantumThresholdOne: (2, QuantumThresholdOne(ALPHA, BETA)),
}


class TestNetworkRoundTrip:
    def test_every_family_has_an_example(self):
        assert set(FAMILY_EXAMPLES) == set(FAMILIES)

    @pytest.mark.parametrize("family", FAMILIES, ids=[f.kind for f in FAMILIES])
    def test_every_family(self, family):
        in_degree, activation = FAMILY_EXAMPLES[family]
        sources = [NodeSpec(f"s{i}", (), SourceVector((1, BETA))) for i in range(in_degree)]
        node = NodeSpec("x", tuple(s.id for s in sources), activation)
        spec = NetworkSpec(2, (*sources, node))
        assert validate(spec) == []
        text = serialize_network(spec)
        assert json.loads(text)["nodes"][-1]["activation"]["type"] == family.kind
        assert parse_network(text) == spec

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
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 3), (12, 1, 10)])
    def test_cell_keys_are_the_row_major_cell_key_of_every_index(self, shape):
        t = Tensor(shape, [0] * math.prod(shape))
        assert list(netio.cell_keys(shape)) == [netio.cell_key(idx) for idx in t.indices()]

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

    def test_a_zero_dimension_is_refused_by_the_shape_rule(self):
        with pytest.raises(TensorSyntaxError, match="all dimensions must be >= 1") as info:
            parse_tensor("\nshape: 2 x 0\n")
        assert info.value.line == 2

    @pytest.mark.parametrize("text, line", [
        ("shape: 1_0 x 2\n", 1),
        ("shape: +2 x 2\n", 1),
        ("shape: 2 x " + "1" * 5000 + "\n", 1),  # more digits than int() converts
        ("shape: 2 x 2\n+1,1 = a\n", 2),
        ("shape: 2 x 2\n1,1 = a\n\n1_0,1 = a\n", 4),
        ("shape: 2 x 2\n1," + "0" * 4999 + "1 = a\n", 2),
    ])
    def test_integers_are_those_of_the_expression_grammar(self, text, line):
        with pytest.raises(TensorSyntaxError, match="bad (shape|cell index)") as info:
            parse_tensor(text)
        assert info.value.line == line

    def test_integers_of_any_script_and_padded_indices_are_read(self):
        assert parse_tensor("shape: \u0663 x 2\n\u0663,1 = a\n") == Tensor(
            (3, 2), [0, 0, 0, 0, parse_expr("a"), 0])
        assert parse_tensor("shape: 2 x 2\n 1 , 2 = a\n") == Tensor(
            (2, 2), [0, parse_expr("a"), 0, 0])

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

    def test_a_cell_assigned_zero_then_again_is_a_duplicate(self):
        with pytest.raises(TensorSyntaxError, match="cell 1 assigned twice") as info:
            parse_tensor("shape: 2\n1 = 0*a\n1 = b\n")
        assert info.value.line == 3

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

    @pytest.mark.parametrize("value", ["1/0", "1/-0"])
    def test_a_zero_denominator_is_named(self, value):
        with pytest.raises(AssignmentSyntaxError) as error:
            parse_assignment(f"x={value}")
        assert str(error.value) == f"bad value {value!r}: zero denominator"

    @pytest.mark.parametrize("value, expected", [
        ("-2/3", Fraction(-2, 3)), (" 1 / 2 ", Fraction(1, 2)), ("\u0663", 3),
        ("1/-2", Fraction(-1, 2)), ("-0", 0), (".5", 0.5), ("5.", 5.0), ("1E-3", 0.001),
        ("-1.5e+2", -150.0), ("\u0663.5", 3.5)])
    def test_values_in_the_grammar_digits(self, value, expected):
        bound = parse_assignment(f"x={value}")["x"]
        assert bound == expected
        assert type(bound) is type(expected)

    @pytest.mark.parametrize("value", ["1_0", "+3", "1_0.5", "1/+2", "1e1_0", "one", "1/2/3",
                                       "inf", "nan", "-", ".", "e5", "1.5e", "- 2", "0x10",
                                       "\u00b2", "1.2.3"])
    def test_other_values_are_refused(self, value):
        with pytest.raises(AssignmentSyntaxError) as error:
            parse_assignment(f"x={value}")
        assert str(error.value) == f"bad value {value!r}: expected N, N/M or a decimal"

    def test_a_float_overflow_keeps_its_message(self):
        with pytest.raises(AssignmentSyntaxError) as error:
            parse_assignment("x=1e999")
        assert str(error.value) == "bad value '1e999': outside the float range"

    @pytest.mark.parametrize("value", ["1" * 5000, "1/" + "1" * 5000])
    def test_an_integer_too_long_to_convert_keeps_its_message(self, value):
        with pytest.raises(AssignmentSyntaxError) as error:
            parse_assignment(f"x={value}")
        assert str(error.value).startswith(f"bad value {value!r}: Exceeds the limit")

    @pytest.mark.parametrize("text", ["a\u00b2=2", "\u03b1=1"])
    def test_names_are_those_of_the_expression_grammar(self, text):
        with pytest.raises(AssignmentSyntaxError, match="bad parameter name"):
            parse_assignment(text)
