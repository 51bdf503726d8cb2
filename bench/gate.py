"""Correctness gate: checks every command's output against the benchmark's own arithmetic.

For each document the gate computes the expected total tensor at the
document's ``--assign`` bindings with ``fractions.Fraction``, from the entry
strings alone: cell ``x`` is the product over nodes of the entry selected by
the node's parents' states and its own state.  Nothing of the library takes
part in that computation, so a defect that both routes share (say, in
polynomial multiplication) still fails the gate.

A command passes when it exits 0 and:

* ``verify`` prints exactly ``EQUAL (<n^d> cells)``;
* ``direct`` and ``bmp`` print the same bytes as the first tensor text that
  passed full validation for this document.  Full validation reads the text
  back with ``netio.parse_tensor`` (shape ``(n,)*d``) and evaluates every
  printed cell with the benchmark's own parser: it must equal the expected
  value, and every omitted cell must be zero;
* ``direct --assign`` prints exactly the expected values, zero cells omitted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

COMMANDS = ("verify", "direct", "bmp", "assign")


def command_argv(command: str, path: str, assign: str) -> list[str]:
    if command == "assign":
        return ["total", path, "--method", "direct", "--assign", assign]
    return ["total", path, "--method", command]


def parse_bindings(text: str) -> dict[str, Fraction]:
    return {name: Fraction(value) for name, _, value in
            (part.partition("=") for part in text.split(","))}


def evaluate_text(text: str, bindings: dict[str, Fraction]) -> Fraction:
    """Value of a polynomial in the library's canonical text form.

    Terms are joined by `` + `` or `` - ``, factors by ``*``; a factor is an
    integer, a ``p/q`` rational, a name or ``name^k``.
    """
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    total = Fraction(0)
    for chunk in text.replace(" - ", " + -").split(" + "):
        term = Fraction(sign)
        sign = 1
        if chunk.startswith("-"):
            term, chunk = -term, chunk[1:]
        for factor in chunk.split("*"):
            name, caret, power = factor.partition("^")
            if caret:
                term *= bindings[name] ** int(power)
            elif factor[0].isdigit():
                term *= Fraction(factor)
            else:
                term *= bindings[factor]
        total += term
    return total


def _key(idx: tuple[int, ...]) -> str:
    return ",".join(str(i + 1) for i in idx)


class DocGate:
    """Expected outputs of the four commands on one document."""

    def __init__(self, doc_text: str, arity: int, assign: str):
        bindings = parse_bindings(assign)
        nodes = json.loads(doc_text)["nodes"]
        position = {node["id"]: i for i, node in enumerate(nodes)}
        tables = [[evaluate_text(e, bindings) for e in node["activation"]["entries"]]
                  for node in nodes]
        parents = [[position[p] for p in node["parents"]] for node in nodes]
        self.shape = (arity,) * len(nodes)
        self.expected: dict[tuple[int, ...], Fraction] = {}
        for idx in product(range(arity), repeat=len(nodes)):
            value = Fraction(1)
            for j, table in enumerate(tables):
                flat = 0
                for p in parents[j]:
                    flat = flat * arity + idx[p]
                value *= table[flat * arity + idx[j]]
                if not value:
                    break
            self.expected[idx] = value
        header = "shape: " + " x ".join(str(dim) for dim in self.shape) + "\n"
        self.header = header
        self.verify_text = f"EQUAL ({len(self.expected)} cells)\n"
        self.assign_text = header + "".join(
            f"{_key(idx)} = {value}\n" for idx, value in self.expected.items() if value)
        self.bindings = bindings
        self.tensor_text: str | None = None

    def _valid_tensor_text(self, text: str) -> bool:
        from tensordag import netio

        if not text.startswith(self.header):
            return False
        if netio.parse_tensor(text).shape != self.shape:
            return False
        printed = set()
        for line in text[len(self.header):].splitlines():
            key, _, expr = line.partition(" = ")
            idx = tuple(int(i) - 1 for i in key.split(","))
            if idx in printed or idx not in self.expected:
                return False
            printed.add(idx)
            if evaluate_text(expr, self.bindings) != self.expected[idx]:
                return False
        return all(idx in printed or not value for idx, value in self.expected.items())

    def check(self, command: str, code: int, out: str) -> bool:
        """True if ``command`` exited 0 and printed the expected output."""
        if code != 0:
            return False
        if command == "verify":
            return out == self.verify_text
        if command == "assign":
            return out == self.assign_text
        if self.tensor_text is not None:
            return out == self.tensor_text
        try:
            valid = self._valid_tensor_text(out)
        except (ValueError, KeyError, ZeroDivisionError):
            return False
        if valid:
            self.tensor_text = out
        return valid
