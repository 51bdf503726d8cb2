"""Command-line surface: reports, exit codes, determinism."""

import argparse
import io
import json
import runpy
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import tensordag
from tensordag import PolyScalar, Tensor, TensordagInputError, cli, netio, networks, tensors
from tensordag.networks import VerificationResult
from conftest import FIXTURES
from test_bench_oracle import _load
from test_networks import small_networks

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

    @pytest.mark.parametrize("extra", [(), ("--stages",), ("--node", "e")])
    def test_each_activation_is_built_once(self, run_cli, fixtures_dir, monkeypatch, extra):
        built = []
        activation_tensor = networks.activation_tensor

        def counting(*args):
            built.append(args)
            return activation_tensor(*args)

        monkeypatch.setattr(networks, "activation_tensor", counting)
        result = run_cli("node-tensors", str(fixtures_dir / "five_node.json"), *extra)
        assert result.code == 0
        assert len(built) == 5


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

        def corrupted(network):
            t = real(network)
            cells = list(t.cells)
            cells[1] = cells[1] + 1
            return Tensor(t.shape, cells)

        monkeypatch.setattr(networks, "total_bmp", corrupted)
        result = run_cli("total", str(fixtures_dir / "chain.json"), "--method", "verify")
        assert result.code == 1
        assert result.out.startswith("DIFFER at 1,1,2:")

    def test_verify_names_the_first_of_two_differing_cells(self, run_cli, fixtures_dir,
                                                           monkeypatch):
        # corrupt cells 1,2,2 and 2,2,1 of the product route, the later one first
        real = networks.total_bmp

        def corrupted(network):
            t = real(network)
            cells = list(t.cells)
            cells[6] = cells[6] + 1
            cells[3] = cells[3] + 1
            return Tensor(t.shape, cells)

        monkeypatch.setattr(networks, "total_bmp", corrupted)
        result = run_cli("total", str(fixtures_dir / "chain.json"), "--method", "verify")
        assert result.code == 1
        assert result.out.startswith("DIFFER at 1,2,2:")

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

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    @pytest.mark.parametrize("alpha", ["0.0", "-0.0"])
    def test_assign_skips_float_zero_cells(self, run_cli, fixtures_dir, method, alpha):
        # beta^5 is the one cell without alpha; 0.0 and -0.0 cells are not printed
        result = run_cli("total", str(fixtures_dir / "five_node.json"),
                         "--method", method, "--assign", f"alpha={alpha},beta=0.5")
        assert (result.code, result.err) == (0, "")
        assert result.out == "shape: 2 x 2 x 2 x 2 x 2\n2,1,1,2,1 = 0.03125\n"

    def test_assign_requires_all_parameters(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "chain.json"),
                         "--method", "direct", "--assign", "alpha=1")
        assert result.code == 2
        assert "beta" in result.err

    def test_assign_rejected_for_verify(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "chain.json"),
                         "--method", "verify", "--assign", "alpha=1,beta=0")
        assert result.code == 2

    @pytest.mark.parametrize("argv", [
        ["--method", "direct"],
        ["--method", "bmp"],
        ["--method", "verify"],
        ["--method", "direct", "--assign", "alpha=1/2,beta=1/3"],
        ["--method", "bmp", "--assign", "alpha=1/2,beta=1/3"],
    ], ids=["direct", "bmp", "verify", "direct-assign", "bmp-assign"])
    def test_cell_cap(self, run_cli, fixtures_dir, argv):
        result = run_cli("total", str(fixtures_dir / "five_node.json"), *argv,
                         "--max-cells", "31")
        assert (result.code, result.out, result.err) == (2, "", (
            "error: a cubical order-5 tensor over 2 states has 32 cells, above the cap of 31\n"))

    def test_a_cap_above_what_a_list_can_index_is_lowered_to_sys_maxsize(self, run_cli,
                                                                         tmp_path):
        # 2^70 cells under --max-cells 2^70: refused, not an OverflowError traceback
        path = tmp_path / "deep.json"
        path.write_text(_chain_document(["0", "alpha"], *[("alpha", "beta")] * 69))
        result = run_cli("total", str(path), "--method", "direct",
                         "--max-cells", str(2 ** 70))
        assert (result.code, result.out, result.err) == (2, "", (
            "error: a cubical order-70 tensor over 2 states has 1180591620717411303424 cells,"
            " above the cap of 9223372036854775807\n"))

    def test_method_is_required(self, run_cli, fixtures_dir):
        with pytest.raises(SystemExit):
            run_cli("total", str(fixtures_dir / "chain.json"))

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    @pytest.mark.parametrize("assign", ["alpha=", "alpha=1/0", "alpha=1,alpha=2", "1alpha=3",
                                        "a\u00b2=2"])
    def test_bad_assign_is_refused_before_any_route_work(self, run_cli, fixtures_dir,
                                                         monkeypatch, method, assign):
        def refuse(*args, **kwargs):
            raise AssertionError("a route ran before --assign was parsed")

        monkeypatch.setattr(networks, "total_direct", refuse)
        monkeypatch.setattr(networks, "total_bmp", refuse)
        result = run_cli("total", str(fixtures_dir / "five_node.json"), "--method", method,
                         "--assign", assign)
        assert (result.code, result.out) == (2, "")
        lines = result.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_bad_assign_is_reported_before_the_cell_cap(self, run_cli, fixtures_dir):
        result = run_cli("total", str(fixtures_dir / "five_node.json"), "--method", "direct",
                         "--max-cells", "31", "--assign", "alpha=")
        assert (result.code, result.out) == (2, "")
        assert result.err == "error: expected 'name=value', got 'alpha='\n"


class TestMaxCellsDigits:
    """``--max-cells`` is written in the expression grammar's digits."""

    @pytest.mark.parametrize("raw, cap", [("32", 32), (" 32", 32), ("\u0663", 3), ("0", 0)])
    def test_grammar_digits_are_a_cap(self, raw, cap):
        args = cli.build_parser().parse_args(["total", "x.json", "--method", "direct",
                                              "--max-cells", raw])
        assert args.max_cells == cap

    @pytest.mark.parametrize("raw", ["1_0", "+32", "-1", "abc", "9" * 5000],
                             ids=["underscore", "plus", "negative", "word", "5000-digits"])
    def test_other_text_is_a_usage_error(self, fixtures_dir, raw):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
            cli.main(["total", str(fixtures_dir / "five_node.json"), "--method", "direct",
                      "--max-cells", raw])
        assert (info.value.code, out.getvalue()) == (2, "")
        assert err.getvalue().endswith(f"argument --max-cells: invalid int value: {raw!r}\n")


COMMANDS = ["validate", "order", "node-tensors", "total", "bmp", "families"]
FIVE_NODE = str(FIXTURES / "five_node.json")
_BUILD_WHOLE_PARSER = cli.build_parser


def _outcome(argv: list[str] | None) -> tuple[object, str, str]:
    """``cli.main(argv)``'s exit code (or ``SystemExit`` code), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = ("SystemExit", exit_.code)
    return code, out.getvalue(), err.getvalue()


def _whole_parser_outcome(argv: list[str]) -> tuple[object, str, str]:
    """``_outcome(argv)`` when every call builds every command's arguments."""
    with mock.patch.object(cli, "build_parser", lambda command=None: _BUILD_WHOLE_PARSER()):
        return _outcome(argv)


class TestParserPerCommand:
    """A call adds only its own command's arguments, and nothing it prints changes."""

    ARGVS = [
        [], ["-h"], ["--help"], ["--he"], ["totl"],
        *([word, name] for name in COMMANDS for word in ("-h", "--help")),
        *([name, word] for name in COMMANDS for word in ("-h", "--help")),
        ["total", FIVE_NODE], ["total", FIVE_NODE, "--method", "foo"],
        ["total", FIVE_NODE, "--meth", "direct"], ["total", FIVE_NODE, "--method", "direct"],
        ["--bogus", "total", FIVE_NODE, "--method", "direct"],
        ["total", FIVE_NODE, "--method", "direct", "--bogus"],
        ["x", "total"], ["x", "total", FIVE_NODE, "--method", "direct"],
        ["--", "total", FIVE_NODE, "--method", "direct"],
        ["validate", "total"], ["total", "validate", "--method", "direct"],
        ["families", "--list", "extra"], ["families", "total"], ["-x", "families"],
        ["families", "-x"], ["families"],
        ["bmp"], ["total", FIVE_NODE, "--method", "direct", "--max-cells", "x"],
        ["node-tensors", FIVE_NODE, "--node", "a", "--max-cells", "32"],
    ]
    #: Command names, their flags and values, help, the end of options, junk and a file.
    TOKENS = [*COMMANDS, "--check-stochastic", "--node", "a", "--stages", "--max-cells", "32",
              "--method", "direct", "verify", "--assign", "alpha=1,beta=2", "--list", "-h",
              "--", "x", "-x", "--bogus", "totl", FIVE_NODE]

    @pytest.mark.parametrize("argv", ARGVS,
                             ids=lambda argv: ",".join(argv).replace(FIVE_NODE, "FILE") or "-")
    def test_same_outcome_as_the_whole_parser(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        for name in ("total", "validate"):  # files named after commands
            (tmp_path / name).write_text((FIXTURES / "five_node.json").read_text())
        assert _outcome(argv) == _whole_parser_outcome(argv)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(TOKENS), max_size=6))
    def test_random_argvs_have_the_whole_parsers_outcome(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(argv) == _whole_parser_outcome(argv)

    def test_a_call_adds_only_its_commands_arguments(self, monkeypatch):
        counts = {"parsers": 0, "arguments": 0}
        init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

        def counting_init(parser, *args, **kwargs):
            counts["parsers"] += 1
            init(parser, *args, **kwargs)

        def counting_add_argument(parser, *args, **kwargs):
            counts["arguments"] += 1
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add_argument)
        seen = []
        for _ in range(2):  # no parser is kept from one call to the next
            assert _outcome(["total", FIVE_NODE, "--method", "direct"])[0] == 0
            seen.append(dict(counts))
            counts.update(parsers=0, arguments=0)
        # The top level's -h, and total's -h, file, --method, --assign and --max-cells.
        assert seen == [{"parsers": 7, "arguments": 6}] * 2
        _whole_parser_outcome(["total", FIVE_NODE, "--method", "direct"])
        assert counts == {"parsers": 7, "arguments": 20}

    @pytest.mark.parametrize("argv, code", [
        (["tensordag", "families"], 0),
        (["tensordag", "totl"], ("SystemExit", 2)),
        (["families", "total", FIVE_NODE, "--method", "direct"], 0),
    ], ids=["families", "unknown-command", "program-named-like-a-command"])
    def test_the_console_script_reads_sys_argv_after_the_program(self, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", argv)
        outcome = _outcome(None)
        assert outcome[0] == code
        assert outcome == _whole_parser_outcome(argv[1:])

    @pytest.mark.parametrize("argv, code, out", [
        (["order", FIVE_NODE], 0, "b,c,d,e,a\n"),
        (["total", FIVE_NODE, "--method", "direct", "--max-cells", "31"], 2, ""),
    ], ids=["order", "refused"])
    @pytest.mark.parametrize("start", [cli.entry,
                                       lambda: runpy.run_module("tensordag", run_name="__main__")],
                             ids=["console-script", "python-m"])
    def test_the_program_exits_with_mains_code(self, monkeypatch, capsys, start, argv, code, out):
        monkeypatch.setattr(sys, "argv", ["tensordag", *argv])
        with pytest.raises(SystemExit) as info:
            start()
        assert info.value.code == code
        assert capsys.readouterr().out == out


class TestOneNetworkCheck:
    """``PreparedNetwork`` is the one validity check: the command line adds none."""

    @pytest.mark.parametrize("argv, calls", [
        (["total", "--method", "direct"], 1),
        (["total", "--method", "bmp"], 1),
        (["total", "--method", "direct", "--assign", "alpha=1/2,beta=1/3"], 1),
        (["total", "--method", "verify"], 1),
        (["node-tensors"], 1),
        (["validate", "--check-stochastic"], 1),
    ], ids=["direct", "bmp", "direct-assign", "verify", "node-tensors", "check-stochastic"])
    def test_each_command_validates_once_per_prepared_network(self, run_cli, fixtures_dir,
                                                              monkeypatch, argv, calls):
        seen = []
        validate = networks.validate

        def counting(spec):
            seen.append(spec)
            return validate(spec)

        monkeypatch.setattr(networks, "validate", counting)
        result = run_cli(argv[0], str(fixtures_dir / "five_node.json"), *argv[1:])
        assert result.code == 0
        assert len(seen) == calls

    def test_verify_builds_each_activation_once(self, run_cli, fixtures_dir, monkeypatch):
        built = []
        activation_tensor = networks.activation_tensor

        def counting(activation, in_degree, arity):
            built.append(activation)
            return activation_tensor(activation, in_degree, arity)

        monkeypatch.setattr(networks, "activation_tensor", counting)
        result = run_cli("total", str(fixtures_dir / "five_node.json"), "--method", "verify")
        assert (result.code, result.out) == (0, "EQUAL (32 cells)\n")
        assert len(built) == 5

    @pytest.mark.parametrize("argv, message", [
        (["total", "--method", "direct", "--assign", "alpha=1_0,beta=1"],
         "bad value '1_0': expected N, N/M or a decimal"),
        (["total", "--method", "verify", "--assign", "alpha=1,beta=1"],
         "verify compares the exact symbolic tensors; --assign is not allowed"),
        (["node-tensors", "--node", "zz"], "unknown node id 'zz'"),
    ], ids=["bad-assign-value", "verify-assign", "unknown-node"])
    def test_a_command_line_error_is_reported_before_the_invalid_network(
            self, run_cli, fixtures_dir, argv, message):
        result = run_cli(argv[0], str(fixtures_dir / "cyclic.json"), *argv[1:])
        assert (result.code, result.out, result.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_good_bindings_on_an_invalid_network_report_the_violation(self, run_cli,
                                                                      fixtures_dir, method):
        result = run_cli("total", str(fixtures_dir / "cyclic.json"), "--method", method,
                         "--assign", "alpha=1/2,beta=1/3")
        assert (result.code, result.out) == (2, "")
        assert result.err.startswith("error: invalid network: OrderingIncompatible")

    def test_an_unvalidated_arity_is_not_raised_to_the_node_count(self, run_cli, tmp_path):
        # (10**4000)**4000 has 16 million digits; the arity's violation is reported at once.
        path = tmp_path / "huge-arity.json"
        path.write_text(json.dumps({"arity": 10 ** 4000, "nodes": [
            {"id": f"t{i}", "activation": {"type": "threshold_one", "alpha": "alpha"}}
            for i in range(4000)]}))
        start = time.perf_counter()
        result = run_cli("total", str(path), "--method", "direct", "--assign", "alpha=1")
        assert time.perf_counter() - start < 5
        assert (result.code, result.out) == (2, "")
        assert result.err.startswith("error: invalid network: FamilyArityMismatch (node 't0')")


#: Exact binding values: integers, fractions, negatives and zero, and the
#: roots of the entries ``1/3*alpha + 1/2`` and ``2/5*beta - 3/7``.
BINDING_VALUES = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=7),
                           st.sampled_from([Fraction(-3, 2), Fraction(15, 14)]))


def _evaluated_per_cell(spec, bindings) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of evaluating the symbolic direct total cell by cell."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            cli._print_evaluated(networks.total_direct(spec), bindings)
    except TensordagInputError as err:
        return 2, "", f"error: {err}\n"
    return 0, out.getvalue(), ""


def _chain_document(source: list[str], *jukes_cantor: tuple[str, str]) -> str:
    """A source vector feeding a chain of Jukes-Cantor nodes, each ``(alpha, beta)``."""
    nodes = [{"id": "n0", "parents": [], "activation": {"type": "vector", "entries": source}}]
    for i, (alpha, beta) in enumerate(jukes_cantor, start=1):
        nodes.append({"id": f"n{i}", "parents": [f"n{i - 1}"], "activation": {
            "type": "jukes_cantor", "alpha": alpha, "beta": beta}})
    return json.dumps({"arity": 2, "nodes": nodes})


def _power_sources_document(count: int, exponent: int) -> str:
    """``count`` sources ``[a_i^exponent, 1]``."""
    return json.dumps({"arity": 2, "nodes": [
        {"id": f"n{i}", "activation": {"type": "vector", "entries": [f"a{i}^{exponent}", "1"]}}
        for i in range(count)]})


class TestEvaluateFirst:
    """Exact ``--assign`` bindings evaluate each activation entry once and the
    route multiplies numbers; the output and every refusal are those of
    evaluating the symbolic total cell by cell."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(small_networks(), st.fixed_dictionaries({"alpha": BINDING_VALUES,
                                                    "beta": BINDING_VALUES}))
    def test_both_routes_print_the_per_cell_values(self, run_cli, tmp_path, spec, bindings):
        path = tmp_path / "network.json"
        path.write_text(netio.serialize_network(spec))
        assign = ",".join(f"{name}={value}" for name, value in bindings.items())
        expected = _evaluated_per_cell(spec, bindings)
        for method in ("direct", "bmp"):
            result = run_cli("total", str(path), "--method", method, "--assign", assign)
            assert (result.code, result.out, result.err) == expected, method

    @pytest.mark.parametrize("workload, evaluations", [("poly-n3-d7", 30), ("mono-n2-d12", 24)])
    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_each_distinct_entry_is_evaluated_once(self, run_cli, tmp_path, monkeypatch,
                                                   workload, evaluations, method):
        doc = _load("docgen", monkeypatch).generate(workload, 1)[0]
        path = tmp_path / "network.json"
        path.write_text(doc.text)
        spec = netio.parse_network(doc.text)
        distinct = {entry for node in spec.nodes for entry in node.activation.entries
                    if entry.parameters()}
        assert len(distinct) == evaluations
        calls = 0
        evaluate = PolyScalar.evaluate

        def counting(self, bindings):
            nonlocal calls
            calls += bool(self.parameters())
            return evaluate(self, bindings)

        monkeypatch.setattr(PolyScalar, "evaluate", counting)
        result = run_cli("total", str(path), "--method", method, "--assign", doc.assign)
        assert result.code == 0
        assert calls == evaluations  # the per-cell path made one per cell: 2187 and 4096

    @pytest.mark.parametrize("workload", ["poly-n3-d7", "mono-n2-d12"])
    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_a_benchmark_document_prints_the_per_cell_values(self, run_cli, tmp_path,
                                                              monkeypatch, workload, method):
        doc = _load("docgen", monkeypatch).generate(workload, 1)[0]
        path = tmp_path / "network.json"
        path.write_text(doc.text)
        spec = netio.parse_network(doc.text)
        bindings = netio.parse_assignment(doc.assign)
        assert networks.evaluated_network(spec, bindings) is not None  # the evaluate-first path
        result = run_cli("total", str(path), "--method", method, "--assign", doc.assign)
        assert (result.code, result.out, result.err) == _evaluated_per_cell(spec, bindings)

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    @pytest.mark.parametrize("chain, shape", [
        ([("alpha", "gamma")], "2 x 2"),  # as many entries as cells: evaluated cell by cell
        ([("alpha", "gamma"), ("alpha", "alpha")], "2 x 2 x 2"),  # fewer entries than cells
    ])
    def test_an_unbound_parameter_multiplied_by_zero_is_not_an_error(self, run_cli, tmp_path,
                                                                       method, chain, shape):
        path = tmp_path / "network.json"
        path.write_text(_chain_document(["0", "0"], *chain))
        result = run_cli("total", str(path), "--method", method, "--assign", "alpha=1")
        assert (result.code, result.out, result.err) == (0, f"shape: {shape}\n", "")

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_an_unbound_parameter_is_named(self, run_cli, tmp_path, method):
        path = tmp_path / "network.json"
        path.write_text(_source_document("alpha*zeta"))
        result = run_cli("total", str(path), "--method", method, "--assign", "alpha=1")
        assert (result.code, result.out) == (2, "")
        assert result.err == "error: no value bound for parameter 'zeta'\n"

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_the_power_bound_still_covers_a_whole_cell(self, run_cli, tmp_path, method):
        # Each entry alone is 10^6 bits, under the limit; a cell's term is 8 * 10^6.
        path = tmp_path / "network.json"
        path.write_text(_power_sources_document(8, 1_000_000))
        assign = ",".join(f"a{i}=2" for i in range(8))
        result = run_cli("total", str(path), "--method", method, "--assign", assign)
        assert (result.code, result.out) == (2, "")
        assert result.err == ("error: an exact power of at least 2000000 bits is too large"
                              " to compute (the limit is 1048576)\n")

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_a_network_without_parameters_prints_as_computed(self, run_cli, tmp_path,
                                                             monkeypatch, method):
        # Integer and rational entries under a Jukes-Cantor node and a threshold node:
        # the total is its own value, whatever the bindings.
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"arity": 2, "nodes": [
            {"id": "b", "activation": {"type": "vector", "entries": ["1/2", "3"]}},
            {"id": "c", "parents": ["b"], "activation": {
                "type": "jukes_cantor", "alpha": "2/3", "beta": "-5"}},
            {"id": "a", "parents": ["b", "c"], "activation": {
                "type": "threshold_one", "alpha": "7/4"}},
        ]}))
        unassigned = run_cli("total", str(path), "--method", method)
        assert unassigned.code == 0 and "1,1,1 = 7/12\n" in unassigned.out

        def refused(self, bindings):
            raise AssertionError("a parameter-free total is evaluated")

        monkeypatch.setattr(PolyScalar, "evaluate", refused)
        for assign in ("alpha=1/2,beta=1/3", "alpha=0.5", ""):
            assert run_cli("total", str(path), "--method", method, "--assign", assign) \
                == unassigned, assign

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_a_float_bound_only_to_an_unused_name_evaluates_first(self, run_cli, tmp_path,
                                                                 monkeypatch, method):
        document = _chain_document(["alpha", "beta"], ("alpha", "beta"), ("1/2", "alpha*beta"))
        path = tmp_path / "network.json"
        path.write_text(document)
        spec = netio.parse_network(document)
        bindings = {"alpha": Fraction(1, 2), "beta": Fraction(-1, 3), "gamma": 0.5}
        assert networks.evaluated_network(spec, bindings) is not None
        expected = _evaluated_per_cell(spec, bindings)
        calls = 0
        evaluate = PolyScalar.evaluate

        def counting(self, bindings):
            nonlocal calls
            calls += 1
            return evaluate(self, bindings)

        monkeypatch.setattr(PolyScalar, "evaluate", counting)
        result = run_cli("total", str(path), "--method", method,
                         "--assign", "alpha=1/2,beta=-1/3,gamma=0.5")
        assert (result.code, result.out, result.err) == expected
        assert calls == 3  # alpha, beta and alpha*beta; the per-cell path made one per cell

    @pytest.mark.parametrize("method", ["direct", "bmp"])
    def test_float_bindings_evaluate_each_cell(self, run_cli, tmp_path, method):
        # Cell 1,1,1 is (alpha + beta)^2, evaluated term by term as
        # alpha^2 + 2*alpha*beta + beta^2; (0.1 + 0.3) ** 2 rounds differently.
        document = _chain_document(["alpha + beta", "1"], ("alpha + beta", "beta"), ("1", "0"))
        path = tmp_path / "network.json"
        path.write_text(document)
        bindings = {"alpha": 0.1, "beta": 0.3}
        assert networks.evaluated_network(netio.parse_network(document), bindings) is None
        assert (0.1 + 0.3) ** 2 != 0.16
        result = run_cli("total", str(path), "--method", method,
                         "--assign", "alpha=0.1,beta=0.3")
        assert result.code == 0
        assert "1,1,1 = 0.16\n" in result.out


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

    def test_a_cell_too_wide_to_hold_is_refused(self, run_cli, tmp_path):
        # The one cell sums two polynomials over the same 1023 names: 2046 terms
        # need over 2^20 exponent fields.
        p = " + ".join(f"a{i}" for i in range(1023))
        q = " + ".join(f"a{i}^2" for i in range(1023))
        left, right = tmp_path / "left.txt", tmp_path / "right.txt"
        left.write_text(f"shape: 1 x 2\n1,1 = {p}\n1,2 = {q}\n")
        right.write_text("shape: 2 x 1\n1,1 = 1\n2,1 = 1\n")
        result = run_cli("bmp", str(left), str(right))
        assert (result.code, result.out) == (2, "")
        assert result.err.count("\n") == 1
        assert result.err.startswith("error: ") and "too large to hold" in result.err

    def test_a_dimension_outside_the_grammar_is_refused(self, run_cli, tmp_path):
        left, right = tmp_path / "left.txt", tmp_path / "right.txt"
        left.write_text("shape: 1_0 x 2\n")
        right.write_text("shape: 2 x 1\n")
        result = run_cli("bmp", str(left), str(right))
        assert (result.code, result.out) == (2, "")
        assert result.err == "error: line 1: bad shape '1_0 x 2'\n"

    def test_a_product_above_the_cell_cap_is_refused(self, run_cli, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the walk ran on a product above the cap")

        monkeypatch.setattr(tensors, "_walk", refuse)
        column, row = tmp_path / "column.txt", tmp_path / "row.txt"
        column.write_text("shape: 65536 x 1\n1,1 = 1\n")
        row.write_text("shape: 1 x 65536\n1,1 = 1\n")
        result = run_cli("bmp", str(column), str(row))
        assert (result.code, result.out) == (2, "")
        assert result.err == (f"error: the product has 4294967296 cells, above the cap of "
                              f"{2 ** 24}\n")


class TestFamilies:
    def test_list(self, run_cli):
        result = run_cli("families", "--list")
        assert result.code == 0
        for name in ("vector", "explicit", "jukes_cantor", "threshold_one",
                     "quantum_threshold_one"):
            assert name in result.out

    def test_exact_listing(self, run_cli):
        assert run_cli("families").out == (
            "vector                 in-degree 0; 'entries' lists one weight per state\n"
            "explicit               any in-degree; 'entries' lists all n^(p+1) cells"
            " row-major, own state last\n"
            "jukes_cantor           in-degree 1; 'alpha' on the diagonal, 'beta' off it\n"
            "threshold_one          in-degree p, arity 2; output fires iff some parent"
            " fired; obedient cells 'alpha', others 0\n"
            "quantum_threshold_one  like threshold_one with disobedient cells 'beta'"
            " instead of 0\n")


#: Imports the package from the directory given as the first argument and
#: prints the modules that the import added to ``sys.modules``.
NEW_MODULES_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tensordag, tensordag.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


class TestStartUp:
    def test_the_import_loads_no_dataclass_machinery(self):
        # A fresh isolated interpreter; modules its site had loaded already are not counted.
        package_root = Path(tensordag.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-I", "-c", NEW_MODULES_SCRIPT, str(package_root)],
                              capture_output=True, text=True, check=True, timeout=60)
        added = set(done.stdout.split())
        assert "tensordag.cli" in added
        assert not added & {"dataclasses", "inspect"}, sorted(added)


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
    ("superscript-after-a-name", _source_document("a\u00b2*a"), ["validate"], False),
    ("non-ascii-name", _source_document("\u03b1"), ["validate"], False),
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
    ("infinite-float-literal", _source_document("alpha"),
     ["total", "--method", "direct", "--assign", "alpha=1e999"], False),
    ("float-product-overflow", _source_document("alpha*beta"),
     ["total", "--method", "direct", "--assign", "alpha=1e200,beta=1e200"], False),
    ("unprintable-evaluated-number", _source_document("alpha^20000"),
     ["total", "--method", "direct", "--assign", "alpha=2"], False),
    ("unprintable-coefficient", _source_document("2^20000"),
     ["total", "--method", "direct"], False),
    ("huge-exponent", _source_document("alpha^99999999999"),
     ["total", "--method", "direct", "--assign", "alpha=2"], False),
    ("huge-constant-power", _source_document("2^99999999999"), ["validate"], False),
    ("huge-polynomial-power", _source_document("(a+b+c)^100"), ["validate"], False),
    ("cap-before-threshold-activation", _threshold_sink_document(20),
     ["total", "--method", "verify", "--max-cells", "100"], True),
    ("cap-before-jukes-cantor-activation", _jukes_cantor_document(2500),
     ["total", "--method", "verify", "--max-cells", "10"], True),
    ("cap-cell-count-too-long-to-print", _sources_document(4400, 10),
     ["total", "--method", "verify"], True),
    ("tensor-shape-above-cap", "shape: 99999999999999999999 x 99999999999999999999\n",
     ["bmp"], False),
    ("stochastic-activation-above-cap", _threshold_sink_document(24),
     ["validate", "--check-stochastic"], True),
    ("assign-power-bound-across-nodes", _power_sources_document(8, 1_000_000),
     ["total", "--method", "bmp", "--assign", ",".join(f"a{i}=2" for i in range(8))], False),
    ("assign-unbound-parameter", _source_document("alpha*zeta"),
     ["total", "--method", "direct", "--assign", "alpha=1"], False),
    ("exponent-above-field-limit", _source_document("alpha^9223372036854775808"),
     ["validate"], False),
    ("sum-of-too-many-parameters", _source_document(" + ".join(f"a{i}" for i in range(1100))),
     ["validate"], False),
    ("product-of-too-many-parameters", _source_document(
        "(" + " + ".join(f"a{i}" for i in range(81)) + ") * ("
        + " + ".join(f"b{i}" for i in range(81)) + ")"), ["validate"], False),
    ("non-string-entry", json.dumps({"arity": 2, "nodes": [
        {"id": "b", "activation": {"type": "vector", "entries": [1, "1"]}}]}), ["validate"], False),
    ("non-object-activation", json.dumps({"arity": 2, "nodes": [
        {"id": "b", "activation": "vector"}]}), ["validate"], False),
    ("non-list-entries", json.dumps({"arity": 2, "nodes": [
        {"id": "b", "activation": {"type": "vector", "entries": "1, 1"}}]}), ["validate"], False),
    ("non-list-parents", json.dumps({"arity": 2, "nodes": [
        {"id": "b", "parents": "a", "activation": {"type": "vector", "entries": ["1", "1"]}}]}),
     ["validate"], False),
    ("non-list-order", json.dumps({"arity": 2, "order": "b", "nodes": [
        {"id": "b", "activation": {"type": "vector", "entries": ["1", "1"]}}]}),
     ["validate"], False),
    ("empty-tensor-file", "", ["bmp"], False),
    ("non-integer-cell-index", "shape: 2 x 2\n1,x = 3\n", ["bmp"], False),
    ("bmp-product-above-cap", "shape: 65536 x 1\n1,1 = 1\n",
     ["bmp", str(FIXTURES / "row_65536.txt")], False),
    ("tensor-dimension-with-underscore", "shape: 1_0 x 2\n1,1 = a\n",
     ["bmp", str(FIXTURES / "mat_a.txt")], False),
    ("tensor-cell-index-with-sign", "shape: 2 x 2\n+1,1 = b\n",
     ["bmp", str(FIXTURES / "mat_a.txt")], False),
    ("assign-value-with-underscore", _source_document("alpha"),
     ["total", "--method", "direct", "--assign", "alpha=1_0"], False),
    ("assign-value-with-plus-sign", _source_document("alpha"),
     ["total", "--method", "direct", "--assign", "alpha=+3"], False),
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


@pytest.mark.parametrize("content, argv", [row[1:3] for row in HOSTILE_INPUTS],
                         ids=[row[0] for row in HOSTILE_INPUTS])
def test_hostile_input_prints_nothing_to_stdout(run_cli, tmp_path, content, argv):
    path = tmp_path / "input"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    result = run_cli(argv[0], str(path), *argv[1:])
    assert (result.code, result.out) == (2, "")


@pytest.mark.parametrize("method", ["direct", "bmp", "verify"])
def test_out_of_memory_exits_two_with_one_error_line(run_cli, fixtures_dir, monkeypatch, method):
    def exhausted(*args, **kwargs):
        raise MemoryError

    for route in ("total_direct", "total_bmp", "verify_totals"):
        monkeypatch.setattr(networks, route, exhausted)
    result = run_cli("total", str(fixtures_dir / "chain.json"), "--method", method)
    assert (result.code, result.out, result.err) == (2, "", "error: out of memory\n")


def test_difference_too_large_to_print_still_exits_one(run_cli, tmp_path, monkeypatch):
    path = tmp_path / "input.json"
    path.write_text(_source_document("1"))
    huge = PolyScalar.constant(10 ** 5000)  # more digits than str() converts
    monkeypatch.setattr(networks, "verify_totals", lambda network: VerificationResult(
        equal=False, cells=2, first_difference=((1,), huge, huge + 1)))
    result = run_cli("total", str(path), "--method", "verify")
    assert (result.code, result.out, result.err) == (1, "DIFFER at 2\n", "")


def test_every_exported_exception_is_an_input_error():
    exported = [getattr(tensordag, name) for name in tensordag.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(errors) == 19  # the base class and the 18 errors derived from it
    assert all(issubclass(error, TensordagInputError) for error in errors)
