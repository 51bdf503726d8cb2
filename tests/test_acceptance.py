"""Acceptance suite: every release criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
All equality checks are exact (symbolic or integer); the only numeric bounds
are wall-clock budgets.
"""

import random
import subprocess
import sys
import time
from itertools import permutations, product

import pytest

from tensordag import (CellCapExceeded, NetworkSpec, NodeSpec, Permutation,
                       PolyScalar, PreparedNetwork, SourceVector, Tensor, bmp,
                       identitary, outer_product, parse_network, parse_tensor,
                       serialize_network, serialize_tensor, sigma_transpose,
                       summand_ordered_bmp, node_tensors, total_bmp,
                       total_direct, verify_totals)
from golden import (CHAIN_TOTAL, CONFIRMED_PRODUCT_CELLS, FIVE_NODE_NODE_TENSORS,
                    FIVE_NODE_TOTAL, REJECTED_PRODUCT_CELLS, SEVERED_TOTAL,
                    TRIANGLE_TOTAL, chain_network, counting_cube,
                    expr_table, five_node_network, random_dag_network,
                    random_int_tensor, random_monomial, severed_chain_network,
                    tensor_from_table, triangle_network)

ZERO = PolyScalar.zero()


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS - {message}")


def assert_equals_table(tensor, rows):
    table = expr_table(rows)
    for idx in tensor.indices():
        assert tensor[idx] == table.get(idx, ZERO), f"cell {idx}"


def test_01_chain_golden():
    spec = chain_network()
    start = time.perf_counter()
    direct = total_direct(spec)
    via_product = total_bmp(spec)
    elapsed = time.perf_counter() - start
    assert_equals_table(direct, CHAIN_TOTAL)
    assert via_product == direct
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    report(1, f"chain total matches on all 8 cells by both routes in {elapsed * 1000:.1f}ms")


def test_02_triangle_golden():
    spec = triangle_network()
    direct = total_direct(spec)
    assert_equals_table(direct, TRIANGLE_TOTAL)
    assert total_bmp(spec) == direct
    report(2, "triangle total matches on all 8 cells by both routes")


def test_03_severed_chain_golden_and_rank_one_faces():
    spec = severed_chain_network()
    direct = total_direct(spec)
    assert_equals_table(direct, SEVERED_TOTAL)
    assert total_bmp(spec) == direct
    for axis in (0, 1):  # slices with the first or the second node fixed
        for fixed in (0, 1):
            def cell(r, c):
                idx = [r, c]
                idx.insert(axis, fixed)
                return direct[tuple(idx)]
            det = cell(0, 0) * cell(1, 1) - cell(0, 1) * cell(1, 0)
            assert det.is_zero()
    report(3, "severed chain matches and all 4 boundary-face determinants vanish")


def test_04_five_node_golden():
    spec = five_node_network()
    start = time.perf_counter()
    direct = total_direct(spec)
    via_product = total_bmp(spec)
    tensors = node_tensors(spec)
    elapsed = time.perf_counter() - start
    assert_equals_table(direct, FIVE_NODE_TOTAL)
    assert via_product == direct
    for i, node_id in enumerate(spec.node_ids()):
        assert tensors[i] == tensor_from_table((2,) * 5, FIVE_NODE_NODE_TENSORS[node_id])
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(4, f"five-node: 32 total cells and 5 x 32 node-tensor cells match in {elapsed * 1000:.0f}ms")


def test_05_equivalence_sweep():
    rng = random.Random(2024)
    start = time.perf_counter()
    checked_cells = 0
    for _ in range(500):
        spec = random_dag_network(rng, max_nodes=7, arities=(2, 3), entries="mixed")
        outcome = verify_totals(spec)
        assert outcome.equal, f"difference at {outcome.first_difference}"
        checked_cells += outcome.cells
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(5, f"500 random networks, {checked_cells} cells, both routes equal in {elapsed:.1f}s")


def test_06_identitary_sandwich():
    rng = random.Random(31337)
    cases = 0
    for d in (2, 3, 4):
        for n in (2, 3):
            for j in range(d):
                for _ in range(100):
                    a = random_int_tensor(rng, (n,) * d)
                    factors = [a if m == j else identitary(d, n, min(m, j), max(m, j))
                               for m in range(d)]
                    assert summand_ordered_bmp(factors) == a
                    cases += 1
    report(6, f"identitary sandwich returned the middle factor in all {cases} cases")


def test_07_transposition_laws():
    rng = random.Random(424242)
    corrected = 0
    literal = 0
    for d in (1, 2, 3):
        for images in permutations(range(d)):
            sigma = Permutation(images)
            inverse = sigma.inverse()
            for _ in range(100):
                n = rng.choice((2, 3))
                us = [random_int_tensor(rng, (n,) * d) for _ in range(d)]
                lhs = sigma_transpose(summand_ordered_bmp(us), sigma)
                assert lhs == summand_ordered_bmp(
                    [sigma_transpose(us[inverse(k)], sigma) for k in range(d)])
                corrected += 1
                if sigma.is_involution():
                    assert lhs == summand_ordered_bmp(
                        [sigma_transpose(us[sigma(k)], sigma) for k in range(d)])
                    literal += 1
    report(7, f"transposition law exact in {corrected} cases "
              f"({literal} with the plain involution form)")


def test_08_matrix_degeneration():
    rng = random.Random(888)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_int_tensor(rng, (n, n), low=-9, high=9)
        b = random_int_tensor(rng, (n, n), low=-9, high=9)
        expected = Tensor.from_function(
            (n, n),
            lambda idx: sum((a[(idx[0], k)] * b[(k, idx[1])] for k in range(n)),
                            start=ZERO))
        assert bmp([a, b]) == expected
    report(8, "order-2 product equals the matrix product on 300 random pairs")


def test_09_numeric_cube_product():
    factors = [counting_cube(9), counting_cube(17), counting_cube(1)]
    result = bmp(factors)

    # independent oracle: explicit summation, no strides, no early exits
    def oracle(i, j, k):
        total = ZERO
        for h in (0, 1):
            total = total + (counting_cube(1)[(h, j, k)]
                             * counting_cube(9)[(i, h, k)]
                             * counting_cube(17)[(i, j, h)])
        return total

    for idx, value in CONFIRMED_PRODUCT_CELLS.items():
        assert result[idx] == value
    for idx in product((0, 1), repeat=3):
        assert result[idx] == oracle(*idx)
    for idx, wrong in REJECTED_PRODUCT_CELLS.items():
        assert result[idx] != wrong, f"cell {idx} reproduced a rejected value"
    report(9, "cube product: 4 confirmed cells match, 4 rejected renderings "
              "differ from the brute-force oracle as documented")


def test_10_no_arrow_networks():
    rng = random.Random(1010)
    for _ in range(50):
        q = rng.randint(1, 6)
        n = rng.choice((2, 3))
        vectors = []
        for _ in range(q):
            vectors.append(tuple(random_monomial(rng) for _ in range(n)))
        spec = NetworkSpec(n, tuple(
            NodeSpec(f"w{i}", (), SourceVector(vs)) for i, vs in enumerate(vectors)))
        expected = outer_product([Tensor.vector(list(vs)) for vs in vectors])
        assert total_bmp(spec) == expected
        assert total_direct(spec) == expected
    report(10, "50 arrowless networks equal the outer product of their vectors")


def test_11_degree_homogeneity():
    tensor = total_direct(five_node_network())
    for cell in tensor.cells:
        assert len(cell.terms()) == 1, "entries must be monomials"
        assert cell.total_degree() == 5
        assert cell.parameters() <= {"alpha", "beta"}
    report(11, "all 32 five-node entries are degree-5 monomials in alpha, beta")


def test_12_round_trips_and_determinism(run_cli, fixtures_dir):
    rng = random.Random(1212)
    for _ in range(200):
        spec = random_dag_network(rng, max_nodes=6)
        assert parse_network(serialize_network(spec)) == spec
    for _ in range(200):
        order = rng.randint(1, 5)
        shape = tuple(rng.randint(1, 3) for _ in range(order))
        t = Tensor.from_function(
            shape, lambda idx: random_monomial(rng) if rng.random() < 0.5 else 0)
        assert parse_tensor(serialize_tensor(t)) == t

    for argv in (
        ["total", str(fixtures_dir / "five_node.json"), "--method", "verify"],
        ["node-tensors", str(fixtures_dir / "five_node.json"), "--stages"],
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.code == second.code == 0
        assert first.out == second.out and first.err == second.err

    command = [sys.executable, "-m", "tensordag", "total",
               str(fixtures_dir / "chain.json"), "--method", "bmp"]
    runs = [subprocess.run(command, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr
    report(12, "400 round-trips are identities; repeated invocations byte-identical")


def test_13_performance_guard_and_cell_cap(run_cli, fixtures_dir):
    rng = random.Random(1313)
    spec = random_dag_network(rng, max_nodes=10, arities=(2,))
    while spec.node_count != 10:
        spec = random_dag_network(rng, max_nodes=10, arities=(2,))
    start = time.perf_counter()
    outcome = verify_totals(spec)
    elapsed = time.perf_counter() - start
    assert outcome.equal and outcome.cells == 1024
    assert elapsed < 5.0, f"took {elapsed:.2f}s"

    with pytest.raises(CellCapExceeded) as info:
        total_bmp(PreparedNetwork(spec, max_cells=1000))
    assert info.value.order == 10 and info.value.arity == 2 and info.value.cap == 1000
    result = run_cli("total", str(fixtures_dir / "five_node.json"),
                     "--method", "bmp", "--max-cells", "31")
    assert result.code == 2 and "cap" in result.err
    report(13, f"10-node verification finished in {elapsed:.2f}s; "
               "cell cap raises cleanly in the library and exits 2 in the CLI")
