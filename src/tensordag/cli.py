"""Command-line interface.

Exit codes: 0 success, 1 verification failure (the two total-tensor routes
disagree), 2 input error (any ``TensordagInputError``: malformed, invalid or
oversized input; a file that cannot be read or decoded; or running out of
memory).  Reports go to standard output, diagnostics to standard error, and
identical invocations produce byte-identical output.

Commands::

    tensordag validate FILE [--check-stochastic]
    tensordag order FILE
    tensordag node-tensors FILE [--node ID] [--stages] [--max-cells N]
    tensordag total FILE --method {direct,bmp,verify} [--assign LIST] [--max-cells N]
    tensordag bmp FILE...
    tensordag families [--list]
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from pathlib import Path

from . import networks, netio
from .scalars import _UINT, TensordagInputError, exact_text
from .tensors import Tensor, bmp

def _read_network(path: str) -> networks.NetworkSpec:
    return netio.parse_network(Path(path).read_text(encoding="utf-8"))


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _read_network(args.file)
    try:
        checks = (networks.stochastic_report(spec) if args.check_stochastic
                  else networks.ensure_valid(spec) or [])
    except networks.InvalidNetwork as err:
        print(*err.violations, sep="\n")
        return 2
    print("valid")
    for check in checks:
        if check.stochastic:
            print(f"stochastic {check.node}: yes")
        else:
            inputs = netio.cell_key(check.failing_input) or "-"
            print(f"stochastic {check.node}: no "
                  f"(inputs {inputs} sum to {check.failing_sum})")
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    spec = _read_network(args.file)
    order = networks.topological_order(spec.node_ids(), spec.edges())
    print(",".join(order))
    return 0


def cmd_node_tensors(args: argparse.Namespace) -> int:
    spec = _read_network(args.file)
    ids = spec.node_ids()
    if args.node is not None and args.node not in ids:
        raise netio.UnknownNodeId(args.node)
    selected = range(len(ids)) if args.node is None else [ids.index(args.node)]
    prepared = networks.PreparedNetwork(spec, args.max_cells)
    blocks: list[str] = []
    for i in selected:
        pipeline = networks.node_pipeline(prepared, i)
        if args.stages:
            blocks.append(f"node {ids[i]} stage widened\n" + netio.serialize_tensor(pipeline.widened))
            if pipeline.blown is not None:
                blocks.append(f"node {ids[i]} stage blown\n" + netio.serialize_tensor(pipeline.blown))
            blocks.append(f"node {ids[i]} stage node-tensor\n"
                          + netio.serialize_tensor(pipeline.node_tensor))
        else:
            blocks.append(f"node {ids[i]}\n" + netio.serialize_tensor(pipeline.node_tensor))
    print("\n".join(blocks), end="")
    return 0


def _print_evaluated(tensor: Tensor, bindings: dict) -> None:
    # The per-cell path, for bindings that evaluated_network declines: each
    # symbolic cell is evaluated and formatted before printing, so an error
    # prints nothing.
    values = (cell.evaluate(bindings) for cell in tensor.cells)
    texts = ["" if value == 0 else repr(value) if isinstance(value, float) else exact_text(value)
             for value in values]
    print(netio._tensor_text(tensor.shape, texts), end="")


def cmd_total(args: argparse.Namespace) -> int:
    spec = _read_network(args.file)
    if args.method == "verify" and args.assign is not None:
        raise netio.AssignmentSyntaxError(
            "verify compares the exact symbolic tensors; --assign is not allowed")
    bindings = None if args.assign is None else netio.parse_assignment(args.assign)
    # Exact bindings: evaluate each entry once, and the route multiplies numbers.
    evaluated = None if bindings is None else networks.evaluated_network(spec, bindings)
    prepared = networks.PreparedNetwork(spec if evaluated is None else evaluated, args.max_cells)
    if args.method == "verify":
        result = networks.verify_totals(prepared)
        if result.equal:
            print(f"EQUAL ({result.cells} cells)")
            return 0
        idx, direct_value, bmp_value = result.first_difference
        key = netio.cell_key(idx)
        try:
            print(f"DIFFER at {key}: direct {direct_value} != bmp {bmp_value}")
        except TensordagInputError:  # a value too large to print
            print(f"DIFFER at {key}")
        return 1
    compute = networks.total_direct if args.method == "direct" else networks.total_bmp
    if bindings is None or evaluated is not None:  # evaluated: every cell is a constant
        print(netio.serialize_tensor(compute(prepared)), end="")
    else:
        _print_evaluated(compute(prepared), bindings)
    return 0


def cmd_bmp(args: argparse.Namespace) -> int:
    factors = [netio.parse_tensor(Path(name).read_text(encoding="utf-8"))
               for name in args.files]
    print(netio.serialize_tensor(bmp(factors)), end="")
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    for family in networks.FAMILIES:
        print(f"{family.kind:<23}{family.summary}")
    return 0


def _max_cells(raw: str) -> int:
    if _UINT.fullmatch(raw.strip()):
        with suppress(ValueError):  # more digits than int() converts
            return int(raw)
    raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")


#: The names of the commands that ``build_parser`` adds.
_COMMANDS = ("validate", "order", "node-tensors", "total", "bmp", "families")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``tensordag`` parser.  It lists every command, but only ``command``
    (each of them when None) gets its arguments; ``main`` passes the one it runs."""
    parser = argparse.ArgumentParser(
        prog="tensordag",
        description="Exact total tensors of DAG signal networks, computed by the "
                    "direct formula and by the Bhattacharya-Mesner product, with "
                    "symbolic verification that the two agree.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, run) -> argparse.ArgumentParser | None:
        # Another command keeps its name and help line, which the top level
        # prints, but no argument: parse_args never runs its parser.
        if command not in (None, name):
            sub.add_parser(name, help=text, add_help=False)
            return None
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        return p

    if p := add("validate", "check a network document against every invariant", cmd_validate):
        p.add_argument("file")
        p.add_argument("--check-stochastic", action="store_true",
                       help="also report whether each activation sums to 1 over its output axis")
    if p := add("order", "print a topological order of the network's nodes", cmd_order):
        p.add_argument("file")
    if p := add("node-tensors", "print the order-d node tensors", cmd_node_tensors):
        p.add_argument("file")
        p.add_argument("--node", help="only this node id")
        p.add_argument("--stages", action="store_true",
                       help="also print the widened and blown intermediate stages")
        p.add_argument("--max-cells", type=_max_cells, default=networks.DEFAULT_CELL_CAP,
                       help="refuse tensors with more cells than this")
    if p := add("total", "compute the network's total tensor", cmd_total):
        p.add_argument("file")
        p.add_argument("--method", required=True, choices=("direct", "bmp", "verify"))
        p.add_argument("--assign", help="evaluate numerically, e.g. alpha=1,beta=1/2")
        p.add_argument("--max-cells", type=_max_cells, default=networks.DEFAULT_CELL_CAP,
                       help="refuse tensors with more cells than this")
    if p := add("bmp", "product of the tensors in the given files, in list order", cmd_bmp):
        p.add_argument("files", nargs="+")
    if p := add("families", "list the built-in activation families", cmd_families):
        p.add_argument("--list", action="store_true", help="list the families (default)")

    return parser


def main(argv: list[str] | None = None) -> int:
    words = sys.argv[1:] if argv is None else argv
    # The top level takes no option with a value, so the first word that names
    # a command is the one parse_args runs; it refuses any positional before it.
    command = next((word for word in words if word in _COMMANDS), "")
    args = build_parser(command).parse_args(words)
    try:
        return args.run(args)
    except (TensordagInputError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
