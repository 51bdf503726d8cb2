"""Command-line surface: reports, exit codes, determinism."""

import json

import pytest

import tensordag
from tensordag import PolyScalar, Tensor, TensordagInputError, networks
from tensordag.networks import VerificationResult

pytestmark = pytest.mark.usefixtures("fixtures_dir")


class TestValidate:
    def test_valid_fixture(self, run_cli, fixtures_dir):
        result = run_cli("validate", str(fixtures_dir / "chain.json"))
        assert result.code == 0
        assert result.out == "valid\n"

    def test_cyclic_fixture_lists_violations(self, run_cli, fixtures_dir):
        result = run_cli("validate", str(fixtures_dir / "cyclic.json"))
        assert result.code == 2
        assert "OrderingIncompatible" in result.out

    def test_schema_error(self, run_cli, fixtures_dir):
        result = run_cli("validate", str(fixtures_dir / "bad_schema.json"))
        assert result.code == 2
        assert "error:" in result.err

    def test_entry_count_error(self, run_cli, fixtures_dir):
        result = run_cli("validate", str(fixtures_dir / "bad_entry_count.json"))
        assert result.code == 2
        assert "8" in result.err

    def test_missing_parent(self, run_cli, fixtures_dir):
        result = run_cli("validate", str(fixtures_dir / "missing_parent.json"))
        assert result.code == 2
        assert "ghost" in result.err

    def test_unreadable_file(self, run_cli, fixtures_dir):
        result = run_cli("validate", str(fixtures_dir / "does_not_exist.json"))
        assert result.code == 2

    def test_stochastic_diagnostic(self, run_cli, fixtures_dir, tmp_path):
        result = run_cli("validate", str(fixtures_dir / "chain.json"), "--check-stochastic")
        assert result.code == 0
        assert result.out.splitlines()[0] == "valid"
        assert "stochastic b: no (inputs - sum to alpha + beta)" in result.out
        doc = tmp_path / "prob.json"
        doc.write_text("""
        {"arity": 2, "nodes": [
          {"id": "b", "parents": [], "activation": {"type": "vector", "entries": ["1/2", "1/2"]}},
          {"id": "c", "parents": ["b"], "activation": {"type": "jukes_cantor", "alpha": "1/3", "beta": "2/3"}}
        ]}
        """)
        result = run_cli("validate", str(doc), "--check-stochastic")
        assert result.code == 0
        assert "stochastic b: yes" in result.out and "stochastic c: yes" in result.out


class TestOrder:
    def test_chain(self, run_cli, fixtures_dir):
        result = run_cli("order", str(fixtures_dir / "chain.json"))
        assert result.code == 0 and result.out == "b,c,a\n"

    def test_five_node(self, run_cli, fixtures_dir):
        result = run_cli("order", str(fixtures_dir / "five_node.json"))
        assert result.code == 0 and result.out == "b,c,d,e,a\n"

    def test_no_arrows_keeps_declaration_order(self, run_cli, fixtures_dir):
        result = run_cli("order", str(fixtures_dir / "no_arrows.json"))
        assert result.code == 0 and result.out == "x,y,z\n"

    def test_cycle(self, run_cli, fixtures_dir):
        result = run_cli("order", str(fixtures_dir / "cyclic.json"))
        assert result.code == 2
        assert "cycle" in result.err


class TestNodeTensors:
    def test_single_node_selection(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "chain.json"), "--node", "b")
        assert result.code == 0
        assert result.out == (
            "node b\n"
            "shape: 2 x 2 x 2\n"
            "1,1,1 = alpha\n"
            "1,1,2 = alpha\n"
            "2,2,1 = beta\n"
            "2,2,2 = beta\n"
        )

    def test_all_nodes_in_order(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "chain.json"))
        assert result.code == 0
        assert result.out.count("node ") == 3
        assert result.out.index("node b") < result.out.index("node c") < result.out.index("node a")

    def test_stages(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "chain.json"),
                         "--node", "b", "--stages")
        assert result.code == 0
        assert "node b stage widened\nshape: 2\n" in result.out
        assert "node b stage blown\nshape: 2 x 2\n" in result.out
        assert "node b stage node-tensor\nshape: 2 x 2 x 2\n" in result.out

    def test_sink_has_no_blown_stage(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "chain.json"),
                         "--node", "a", "--stages")
        assert result.code == 0
        assert "stage blown" not in result.out

    def test_five_node_pipeline_spot_checks(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "five_node.json"), "--node", "e")
        assert result.code == 0
        assert "1,1,1,1,1 = alpha" in result.out
        assert "1,1,1,2,1 = beta" in result.out

    def test_unknown_node(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "chain.json"), "--node", "nope")
        assert result.code == 2
        assert "nope" in result.err

    def test_single_node_network_keeps_its_vector(self, run_cli, fixtures_dir):
        result = run_cli("node-tensors", str(fixtures_dir / "single_node.json"))
        assert result.code == 0
        assert result.out == "node solo\nshape: 2\n1 = alpha\n2 = beta\n"


class TestTotal:
    def test_methods_agree_on_chain(self, run_cli, fixtures_dir):
        direct = run_cli("total", str(fixtures_dir / "chain.json"), "--method", "direct")
        via_bmp = run_cli("total", str(fixtures_dir / "chain.json"), "--method", "bmp")
        assert direct.code == 0 and via_bmp.code == 0
        assert direct.out == via_bmp.out
        assert "1,1,1 = alpha^3" in direct.out
        assert "1,2,2 = alpha^2*beta" in direct.out

    def test_verify_reports_equality(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "chain.json"), "--method", "verify")
        assert result.code == 0
        assert result.out == "EQUAL (8 cells)\n"

    def test_verify_five_node(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "five_node.json"), "--method", "verify")
        assert result.code == 0
        assert result.out == "EQUAL (32 cells)\n"

    def test_five_node_bmp_table(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "five_node.json"), "--method", "bmp")
        assert result.code == 0
        lines = result.out.splitlines()
        assert lines[0] == "shape: 2 x 2 x 2 x 2 x 2"
        assert len(lines) == 33  # header + every one of the 32 nonzero cells
        assert "1,1,1,1,1 = alpha^5" in lines
        assert "2,1,1,2,1 = beta^5" in lines
        assert "2,2,2,2,2 = alpha^4*beta" in lines

    def test_verify_detects_a_corrupted_route(self, run_cli, fixtures_dir, monkeypatch):
        # force the product route to return a wrong cell: the comparison must
        # fail, exit 1 and name the first differing cell
        real = networks.total_bmp

        def corrupted(spec, max_cells=networks.DEFAULT_CELL_CAP):
            t = real(spec, max_cells)
            cells = list(t.cells)
            cells[1] = cells[1] + 1
            return Tensor(t.shape, cells)

        monkeypatch.setattr(networks, "total_bmp", corrupted)
        result = run_cli("total", str(fixtures_dir / "chain.json"), "--method", "verify")
        assert result.code == 1
        assert result.out.startswith("DIFFER at 1,1,2:")

    def test_assign_indicator(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "chain.json"),
                         "--method", "direct", "--assign", "alpha=1,beta=0")
        assert result.code == 0
        assert result.out == "shape: 2 x 2 x 2\n1,1,1 = 1\n"

    def test_assign_rational_and_float(self, run_cli, fixtures_dir):
        exact = run_cli("total", str(fixtures_dir / "chain.json"),
                        "--method", "bmp", "--assign", "alpha=1/2,beta=1/2")
        assert exact.code == 0
        assert "= 1/8" in exact.out
        fuzzy = run_cli("total", str(fixtures_dir / "chain.json"),
                        "--method", "bmp", "--assign", "alpha=0.5,beta=0.5")
        assert fuzzy.code == 0
        assert "= 0.125" in fuzzy.out

    def test_assign_requires_all_parameters(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "chain.json"),
                         "--method", "direct", "--assign", "alpha=1")
        assert result.code == 2
        assert "beta" in result.err

    def test_assign_rejected_for_verify(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "chain.json"),
                         "--method", "verify", "--assign", "alpha=1,beta=0")
        assert result.code == 2

    def test_cell_cap(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "five_node.json"),
                         "--method", "bmp", "--max-cells", "31")
        assert result.code == 2
        assert "cap" in result.err

    def test_method_is_required(self, run_cli, fixtures_dir):
        with pytest.raises(SystemExit):
            run_cli("total", str(fixtures_dir / "chain.json"))


class TestBmpCommand:
    def test_matrix_product(self, run_cli, fixtures_dir):
        result = run_cli("bmp", str(fixtures_dir / "mat_a.txt"), str(fixtures_dir / "mat_b.txt"))
        assert result.code == 0
        assert result.out == "shape: 2 x 2\n1,1 = 19\n1,2 = 22\n2,1 = 43\n2,2 = 50\n"

    def test_three_cubes_in_summand_order(self, run_cli, fixtures_dir):
        result = run_cli("bmp",
                         str(fixtures_dir / "cube_base9.txt"),
                         str(fixtures_dir / "cube_base17.txt"),
                         str(fixtures_dir / "cube_base1.txt"))
        assert result.code == 0
        assert "1,1,1 = 1103" in result.out
        assert "1,1,2 = 2157" in result.out
        assert "1,2,2 = 2712" in result.out
        assert "2,1,2 = 3521" in result.out

    def test_shape_mismatch(self, run_cli, fixtures_dir):
        result = run_cli("bmp", str(fixtures_dir / "mat_a.txt"), str(fixtures_dir / "mat_rect.txt"))
        assert result.code == 0  # 2x2 times 2x3 is a fine matrix product
        result = run_cli("bmp", str(fixtures_dir / "mat_rect.txt"), str(fixtures_dir / "mat_a.txt"))
        assert result.code == 2

    def test_order_mismatch(self, run_cli, fixtures_dir):
        result = run_cli("bmp", str(fixtures_dir / "mat_a.txt"),
                         str(fixtures_dir / "cube_base1.txt"))
        assert result.code == 2


class TestFamilies:
    def test_list(self, run_cli):
        result = run_cli("families", "--list")
        assert result.code == 0
        for name in ("vector", "explicit", "jukes_cantor", "threshold_one",
                     "quantum_threshold_one"):
            assert name in result.out


class TestGoldenCorpusExitCodes:
    GOOD = ["chain.json", "triangle.json", "severed_chain.json", "five_node.json",
            "no_arrows.json", "single_node.json"]
    BAD = ["cyclic.json", "bad_schema.json", "bad_entry_count.json", "missing_parent.json"]

    @pytest.mark.parametrize("name", GOOD)
    def test_every_golden_fixture_succeeds(self, run_cli, fixtures_dir, name):
        path = str(fixtures_dir / name)
        assert run_cli("validate", path).code == 0
        assert run_cli("order", path).code == 0
        verify = run_cli("total", path, "--method", "verify")
        assert verify.code == 0 and verify.out.startswith("EQUAL")

    @pytest.mark.parametrize("name", BAD)
    def test_every_broken_fixture_exits_two(self, run_cli, fixtures_dir, name):
        assert run_cli("validate", str(fixtures_dir / name)).code == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("validate", "chain.json"),
        ("order", "five_node.json"),
        ("node-tensors", "five_node.json", "--stages"),
        ("total", "chain.json", "--method", "verify"),
        ("total", "five_node.json", "--method", "bmp"),
        ("total", "chain.json", "--method", "direct", "--assign", "alpha=0.3,beta=0.7"),
    ])
    def test_repeated_invocations_are_identical(self, run_cli, fixtures_dir, argv):
        argv = [a if not a.endswith(".json") else str(fixtures_dir / a) for a in argv]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert (first.code, first.out, first.err) == (second.code, second.out, second.err)


def _source_document(entry: str) -> str:
    """A one-node network whose source vector is ``[entry, 1]``."""
    return json.dumps({"arity": 2, "nodes": [
        {"id": "b", "parents": [], "activation": {"type": "vector", "entries": [entry, "1"]}}]})


def _threshold_sink_document(parents: int) -> str:
    sources = [{"id": f"s{i}", "parents": [],
                "activation": {"type": "vector", "entries": ["1", "1"]}} for i in range(parents)]
    sink = {"id": "t", "parents": [s["id"] for s in sources],
            "activation": {"type": "threshold_one", "alpha": "alpha"}}
    return json.dumps({"arity": 2, "nodes": sources + [sink]})


def _jukes_cantor_document(arity: int) -> str:
    return json.dumps({"arity": arity, "nodes": [
        {"id": "b", "parents": [], "activation": {"type": "vector", "entries": ["1"] * arity}},
        {"id": "c", "parents": ["b"],
         "activation": {"type": "jukes_cantor", "alpha": "alpha", "beta": "beta"}}]})


def _sources_document(count: int, arity: int) -> str:
    return json.dumps({"arity": arity, "nodes": [
        {"id": f"n{i}", "activation": {"type": "vector", "entries": ["1"] * arity}}
        for i in range(count)]})


# (id, file content, argv after the file name, activation tensors forbidden)
HOSTILE_INPUTS = [
    ("deep-parentheses", _source_document("(" * 1200 + "a" + ")" * 1200), ["validate"], False),
    ("deep-unary-minus", _source_document("-" * 5000 + "a"), ["validate"], False),
    ("deep-json", "[" * 100_000 + "]" * 100_000, ["validate"], False),
    ("non-utf8", b'\xff\xfe{"arity": 2}', ["validate"], False),
    ("long-integer-literal", _source_document("1" * 5000), ["validate"], False),
    ("long-json-integer", '{"arity": 1' + "0" * 5000 + ', "nodes": []}', ["validate"], False),
    ("unhashable-activation-type", json.dumps({"arity": 2, "nodes": [
        {"id": "b", "activation": {"type": ["vector"], "entries": ["1", "1"]}}]}),
     ["validate"], False),
    ("entry-count-too-long-to-print", json.dumps({"arity": 10, "nodes": [
        {"id": "x", "parents": [f"p{i}" for i in range(4400)],
         "activation": {"type": "explicit", "entries": []}}]}),
     ["validate"], False),
    ("float-overflow", _source_document("alpha^20000"),
     ["total", "--method", "direct", "--assign", "alpha=2.0"], False),
    ("unprintable-evaluated-number", _source_document("alpha^20000"),
     ["total", "--method", "direct", "--assign", "alpha=2"], False),
    ("unprintable-coefficient", _source_document("2^20000"),
     ["total", "--method", "direct"], False),
    ("huge-exponent", _source_document("alpha^99999999999"),
     ["total", "--method", "direct", "--assign", "alpha=2"], False),
    ("huge-constant-power", _source_document("2^99999999999"), ["validate"], False),
    ("cap-before-threshold-activation", _threshold_sink_document(20),
     ["total", "--method", "verify", "--max-cells", "100"], True),
    ("cap-before-jukes-cantor-activation", _jukes_cantor_document(2500),
     ["total", "--method", "verify", "--max-cells", "10"], True),
    ("cap-cell-count-too-long-to-print", _sources_document(4400, 10),
     ["total", "--method", "verify"], True),
    ("tensor-shape-above-cap", "shape: 99999999999999999999 x 99999999999999999999\n",
     ["bmp"], False),
]


@pytest.mark.parametrize("content, argv, no_activations",
                         [row[1:] for row in HOSTILE_INPUTS],
                         ids=[row[0] for row in HOSTILE_INPUTS])
def test_hostile_input_exits_two_with_one_error_line(run_cli, tmp_path, monkeypatch,
                                                     content, argv, no_activations):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    if no_activations:
        def refuse(*args):
            raise AssertionError("activation tensor built before the cell cap was checked")

        monkeypatch.setattr(networks, "activation_tensor", refuse)
    result = run_cli(argv[0], str(path), *argv[1:])
    assert result.code == 2
    lines = result.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in result.err


def test_difference_too_large_to_print_still_exits_one(run_cli, tmp_path, monkeypatch):
    path = tmp_path / "input.json"
    path.write_text(_source_document("1"))
    huge = PolyScalar.constant(10 ** 5000)  # more digits than str() converts
    monkeypatch.setattr(networks, "verify_totals", lambda spec, max_cells: VerificationResult(
        equal=False, cells=2, first_difference=((1,), huge, huge + 1)))
    result = run_cli("total", str(path), "--method", "verify")
    assert (result.code, result.out, result.err) == (1, "DIFFER at 2\n", "")


def test_every_exported_exception_is_an_input_error():
    exported = [getattr(tensordag, name) for name in tensordag.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(errors) == 19  # the base class and the 18 errors derived from it
    assert all(issubclass(error, TensordagInputError) for error in errors)
