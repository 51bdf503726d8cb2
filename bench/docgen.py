"""Seeded network documents for the benchmark workloads.

Every workload holds its amount of work fixed across seeds: the node count
d, the arity n, the in-degree rule and the shape of each activation entry
are part of the workload, and the seed only draws the parent sets, the
coefficients and the ``--assign`` bindings.  The same seed gives
byte-identical documents; the program under test sees only those documents.

Entries are written in the expression syntax the library reads
(``3*alpha^2*beta``, ``5/3*alpha + 1/2``), so the benchmark's own evaluator
in :mod:`gate` can compute the expected totals without the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

PARAMETERS = ("alpha", "beta")


@dataclass(frozen=True)
class Doc:
    """One generated network document and the inputs its commands need."""

    name: str
    text: str
    arity: int
    nodes: int
    assign: str


def _monomial(coeff: int, powers: dict[str, int]) -> str:
    # A negative coefficient stays written out: "-alpha^2" reads as (-alpha)^2.
    factors = [name if p == 1 else f"{name}^{p}" for name, p in powers.items() if p]
    if coeff == 1 and factors:
        return "*".join(factors)
    return "*".join([str(coeff)] + factors)


def _mono_entry(rng: random.Random) -> str:
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    return _monomial(coeff, {name: rng.randint(0, 2) for name in PARAMETERS})


def _full_mono_entry(rng: random.Random) -> str:
    # Both parameters always appear, so every product merges two-name monomials.
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    return _monomial(coeff, {name: rng.randint(1, 2) for name in PARAMETERS})


def _int_entry(rng: random.Random) -> str:
    return str(rng.randint(-3, 3))


def _poly_entry(rng: random.Random) -> str:
    # Two terms with positive rational coefficients: the products never
    # cancel, so every total cell has exactly d + 1 terms whatever the seed.
    # Fixed denominators keep the size of the coefficients, and so the cost
    # of the rational arithmetic, the same for every seed.
    slope = Fraction(rng.choice((1, 2, 4, 5, 7, 8)), 3)
    offset = Fraction(rng.choice((1, 3, 5, 7, 9)), 2)
    return f"{slope}*alpha + {offset}"


def _network(rng: random.Random, name: str, d: int, n: int, max_parents: int,
             entry) -> Doc:
    """Random DAG in declaration order; node i draws min(i, max_parents) parents."""
    nodes = []
    for i in range(d):
        parents = sorted(rng.sample(range(i), min(i, max_parents)))
        entries = [entry(rng) for _ in range(n ** (len(parents) + 1))]
        kind = "explicit" if parents else "vector"
        nodes.append({"id": f"v{i}", "parents": [f"v{j}" for j in parents],
                      "activation": {"type": kind, "entries": entries}})
    text = json.dumps({"arity": n, "nodes": nodes}, indent=1) + "\n"
    return Doc(name, text, n, d, _bindings(rng))


def _bindings(rng: random.Random) -> str:
    values = []
    for param in PARAMETERS:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        values.append(f"{param}={value}")
    return ",".join(values)


def mono_n2_d12(rng: random.Random) -> list[Doc]:
    return [_network(rng, "mono", 12, 2, 2, _full_mono_entry)]


def poly_n3_d7(rng: random.Random) -> list[Doc]:
    return [_network(rng, "poly", 7, 3, 2, _poly_entry)]


def cli_sweep(rng: random.Random) -> list[Doc]:
    """300 small networks: 25 for every d in 1..6 and n in {2, 3}.

    Within each (d, n) group, networks alternate between integer and
    monomial entries, so the mix is the same for every seed.
    """
    docs = []
    for d in range(1, 7):
        for n in (2, 3):
            for k in range(25):
                entry = _int_entry if k % 2 == 0 else _mono_entry
                docs.append(_network(rng, f"sweep-d{d}-n{n}-{k:02d}", d, n, 2, entry))
    return docs


WORKLOADS = {
    "mono-n2-d12": mono_n2_d12,
    "poly-n3-d7": poly_n3_d7,
    "cli-sweep": cli_sweep,
}


def generate(workload: str, seed: int) -> list[Doc]:
    """The workload's documents for ``seed``; equal seeds give equal documents."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
