"""Random text fed to every reader: each call returns or raises TensordagInputError,
and the command line exits 0 or 2, never with a traceback or the "routes differ" code.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from tensordag import (TensordagInputError, cli, parse_assignment, parse_expr, parse_network,
                       parse_tensor)

#: A few names, the grammar's and the formats' punctuation, and characters that
#: look like digits but are not ASCII: a superscript two and an Arabic-Indic three.
PIECES = ["a", "b", "alpha", "x", *"0123456789", *"+-*/^()=,.:x_", " ", "\n", "²", "٣",
          "[", "]", "{", "}", '"', "'"]

texts = st.lists(st.sampled_from(PIECES), max_size=60).map(lambda pieces: "".join(pieces)[:60])

FUZZ = settings(max_examples=150, deadline=None)


def _two_node_document(entry: str) -> str:
    """A valid two-node network whose source vector lists ``entry``."""
    return json.dumps({"arity": 2, "nodes": [
        {"id": "b", "parents": [], "activation": {"type": "vector", "entries": [entry, "1"]}},
        {"id": "c", "parents": ["b"],
         "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "1 - alpha"}}]})


def _returns_or_refuses(read, text: str) -> None:
    try:
        read(text)
    except TensordagInputError:
        pass


@FUZZ
@given(texts)
def test_an_expression_or_assignment(text):
    _returns_or_refuses(parse_expr, text)
    _returns_or_refuses(parse_assignment, text)


@FUZZ
@given(texts)
def test_a_tensor_block_with_and_without_a_header(text):
    _returns_or_refuses(parse_tensor, text)
    _returns_or_refuses(parse_tensor, "shape: 2 x 2\n" + text)


@FUZZ
@given(texts)
def test_a_network_document_and_an_entry_of_one(text):
    _returns_or_refuses(parse_network, text)
    _returns_or_refuses(parse_network, _two_node_document(text))


#: Digits (one of them Arabic-Indic), signs, and the decimal and separator
#: characters that ``int()`` and ``float()`` read but the grammar does not.
numbers = st.text(alphabet="0123456789٣-+/.e_ ", max_size=12)


@FUZZ
@given(numbers)
def test_an_exact_assignment_value_is_the_grammars_rational_literal(text):
    try:
        value = parse_assignment("x=" + text)["x"]
    except TensordagInputError:
        return
    # A signed denominator is the one exact value the grammar spells differently.
    if isinstance(value, (int, Fraction)) and "-" not in text.partition("/")[2]:
        assert parse_expr(text).evaluate({}) == value


def test_the_fuzzed_document_is_valid_around_its_entry():
    spec = parse_network(_two_node_document("a"))
    assert [node.id for node in spec.nodes] == ["b", "c"]


@pytest.mark.parametrize("argv", [["validate"], ["order"], ["node-tensors"],
                                  ["total", "--method", "verify"]],
                         ids=["validate", "order", "node-tensors", "verify"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=texts)
def test_the_command_line_exits_zero_or_two(tmp_path, argv, text):
    path = tmp_path / "network.json"
    path.write_text(_two_node_document(text), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main([argv[0], str(path), *argv[1:]])
    assert code in (0, 2)
