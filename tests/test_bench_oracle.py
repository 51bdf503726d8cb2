"""The benchmark's correctness gate passes on small seeded networks.

``bench/gate.py`` computes every expected total with its own ``Fraction``
arithmetic from the entry strings alone, so it shares no code with the
library's polynomial layer.  Running the benchmark's four commands on two
small ``bench/docgen.py`` networks, one with two-term rational entries and
one with monomial entries, checks the exact arithmetic against it in about
a second.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", ["_poly_entry", "_mono_entry"])
def test_benchmark_commands_pass_the_independent_gate(run_cli, tmp_path, monkeypatch, entry):
    docgen, gate = _load("docgen", monkeypatch), _load("gate", monkeypatch)
    doc = docgen._network(random.Random(1), "oracle", 4, 3, 2, getattr(docgen, entry))
    path = tmp_path / "network.json"
    path.write_text(doc.text)
    doc_gate = gate.DocGate(doc.text, doc.arity, doc.assign)
    for command in gate.COMMANDS:
        result = run_cli(*gate.command_argv(command, str(path), doc.assign))
        assert doc_gate.check(command, result.code, result.out), command
