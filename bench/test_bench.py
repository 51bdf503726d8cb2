"""Self-tests of the benchmark.

Run from the repository root: ``python3 -m pytest -q bench``.  The traced
and end-to-end runs start ``bench/run.py`` in fresh interpreters with
``--seconds 0`` (one pass each); the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import docgen
import gate
import hooks
import run

sys.path.insert(0, str(run.SRC))

from tensordag import cli  # noqa: E402  (the library is found through run.SRC)

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_SUFFIXES = (".calls", ".cells_out", ".mul_calls", ".bytes_out", "max_terms", "stdout_bytes")


def bench_run(workload: str, trace: int, seed: int = 5) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=run.BENCH.parent, capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    first, again, other = (docgen.generate(workload, seed) for seed in (3, 3, 4))
    assert first == again
    assert [d.text for d in first] != [d.text for d in other]
    assert [(d.nodes, d.arity) for d in first] == [(d.nodes, d.arity) for d in other]


def _small_doc(tmp_dir):
    doc = next(d for d in docgen.generate("cli-sweep", 1) if d.name == "sweep-d3-n2-01")
    path = tmp_dir / "doc.json"
    path.write_text(doc.text, encoding="utf-8")
    outputs = {}
    for command in gate.COMMANDS:
        code, out, _ = run.run_command(cli, gate.command_argv(command, str(path), doc.assign))
        outputs[command] = (code, out)
    return doc, outputs


def _plant(command: str, out: str) -> str:
    """The output with one cell's value changed."""
    lines = out.splitlines(keepends=True)
    if command == "verify":
        return out.replace(" cells)", "1 cells)")
    key, _, value = lines[-1].rstrip("\n").partition(" = ")
    if command == "assign":
        lines[-1] = f"{key} = {Fraction(value) + 1}\n"
    else:
        lines[-1] = f"{key} = {value} + 1\n"
    return "".join(lines)


@pytest.fixture
def work_dir():
    path = run.WORK / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_gate_accepts_real_outputs_and_rejects_planted_cells(work_dir):
    doc, outputs = _small_doc(work_dir)
    accepting = gate.DocGate(doc.text, doc.arity, doc.assign)
    for command in gate.COMMANDS:
        assert accepting.check(command, *outputs[command]), command
    for command in gate.COMMANDS:
        code, out = outputs[command]
        planted = _plant(command, out)
        assert planted != out
        assert not gate.DocGate(doc.text, doc.arity, doc.assign).check(command, code, planted)
        assert not accepting.check(command, code, planted), command
        assert not accepting.check(command, 2, out)
        assert not accepting.check(command, None, out)


def test_gate_rejects_omitted_nonzero_cell(work_dir):
    doc, outputs = _small_doc(work_dir)
    code, out = outputs["direct"]
    shortened = "".join(out.splitlines(keepends=True)[:-1])
    assert not gate.DocGate(doc.text, doc.arity, doc.assign).check("direct", code, shortened)


def test_missing_hooked_name_fails_install():
    tracer = hooks.Tracer((hooks.Hook("tensordag.networks", "no_such_function", "x", True),))
    with pytest.raises(AttributeError):
        tracer.install()


def test_silent_hook_fails_check():
    tracer = hooks.Tracer((hooks.Hook("tensordag.cli", "cmd_bmp", "cli.main", True),))
    tracer.install()
    tracer.uninstall()
    with pytest.raises(RuntimeError, match="never fired"):
        tracer.check_fired()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_every_layer_metric_is_reported(workload):
    first, second = bench_run(workload, 1), bench_run(workload, 1)
    assert first["correct"] and second["correct"]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert first["metrics"][name]["unit"] == metric["unit"], name
        if name.endswith(EXACT_SUFFIXES):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.overhead_s"]["unit"] == "s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench_run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_library_exits_nonzero_without_result(work_dir):
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", work_dir)
    shutil.copytree(run.BENCH, work_dir / "bench", ignore=shutil.ignore_patterns("_work"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work_dir, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
