#!/usr/bin/env python3
"""Benchmark of the ``tensordag total`` command on seeded network documents.

Usage (from the repository root)::

    python3 bench/run.py --workload mono-n2-d12 --seed 1 --seconds 30 --trace 0

The run generates the workload's documents from the seed, writes them under
``bench/_work/`` and drives the real CLI entry point ``tensordag.cli.main``
in this one single-threaded process, stdout captured.  Every document goes
through ``total --method verify``, ``direct``, ``bmp`` and ``direct
--assign``, pass after pass, until the commands have taken ``--seconds`` in
all (at least one whole pass).  Every output is checked by :mod:`gate`.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over fresh child interpreters, started at even intervals during the run,
that each import ``tensordag`` and read, parse and validate every document
(:mod:`setup_probe`).

``--trace 1`` runs one untraced pass, then traced passes until
``--seconds`` have gone by since the first pass began, and reports the
per-layer metrics of one pass (:mod:`hooks`): counts must be identical in
every traced pass, times are medians over the traced passes.

The last line of stdout is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the seed, the sample counts and the SHA-256 of one
pass's stdout.  A run that prints its result exits 0, with ``correct``
false if an output failed the gate; it exits 2 without a result if the
library is not found next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import docgen
import gate
import hooks

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
SETUP_RUNS = 9
PROBE_TIMEOUT_S = 60


def machine_record(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def setup_probe(paths: list[Path]) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    argv = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC)]
    done = subprocess.run(argv + [str(p) for p in paths], capture_output=True, text=True,
                          check=True, timeout=PROBE_TIMEOUT_S)
    return float(done.stdout)


def run_command(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Exit code (None for an exception), stdout and seconds of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc(file=sys.__stderr__)
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


class Session:
    """A workload's documents on disk, with their gates and command lines."""

    def __init__(self, workload: str, seed: int):
        self.docs = docgen.generate(workload, seed)
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for doc in self.docs:
            path = self.workdir / f"{doc.name}.json"
            path.write_text(doc.text, encoding="utf-8")
            self.paths.append(path)
        self.gates = [gate.DocGate(doc.text, doc.arity, doc.assign) for doc in self.docs]
        self.ops = [(i, command, gate.command_argv(command, str(path), doc.assign))
                    for i, (doc, path) in enumerate(zip(self.docs, self.paths))
                    for command in gate.COMMANDS]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Tally:
    """Attempted and failed operations, and the SHA-256 of the first pass's stdout."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.outputs = 0

    def record(self, session: Session, op, code, out: str, ops_per_pass: int) -> None:
        i, command, _ = op
        self.attempted += 1
        self.failed += not session.gates[i].check(command, code, out)
        if self.outputs < ops_per_pass:
            self.digest.update(out.encode())
            self.outputs += 1


def timed_loop(session: Session, cli, tally: Tally, seconds: float,
               between=None, on_output=None) -> list[list[float]]:
    """Run the operations round-robin until they have taken ``seconds`` in all.

    Only time inside the CLI calls counts, so checking outputs takes nothing
    from the measurement.  Returns the latency samples of each operation; the
    first pass always completes.  ``between(busy)`` runs before each
    operation, with the seconds measured so far, and ``on_output(stdout)``
    after it.
    """
    ops = session.ops
    samples: list[list[float]] = [[] for _ in ops]
    busy = 0.0
    k = 0
    while k < len(ops) or busy < seconds:
        if between is not None:
            between(busy)
        op = ops[k % len(ops)]
        code, out, elapsed = run_command(cli, op[2])
        tally.record(session, op, code, out, len(ops))
        samples[k % len(ops)].append(elapsed)
        busy += elapsed
        if on_output is not None:
            on_output(out)
        k += 1
    return samples


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(session: Session, cli, seconds: float) -> tuple[dict, Tally, dict]:
    setup_probe(session.paths)  # unmeasured warm-up: compiles the library's bytecode
    setup: list[float] = []

    def probe_when_due(busy: float) -> None:
        # Spread the probes over the run, so that they see the same machine as the commands.
        if len(setup) < SETUP_RUNS and busy >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_probe(session.paths))

    tally = Tally()
    gc.freeze()
    samples = timed_loop(session, cli, tally, seconds, between=probe_when_due)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_probe(session.paths))
    # Each operation (document, command) is taken at its median over the
    # passes; the percentiles then run over the workload's documents.
    medians: dict[str, list[float]] = {}
    for (_, command, _), times in zip(session.ops, samples):
        medians.setdefault(command, []).append(statistics.median(times))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(sum(per_doc) for per_doc in medians.values()), "s"),
    }
    for command in gate.COMMANDS:
        metrics[f"{command}_p50_ms"] = (1e3 * statistics.median(medians[command]), "ms")
    for command in ("verify", "assign"):
        metrics[f"{command}_p95_ms"] = (1e3 * percentile(medians[command], 0.95), "ms")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    counts = {"setup_runs": len(setup), "documents": len(session.docs),
              "passes": min(len(times) for times in samples),
              "samples": sum(len(times) for times in samples)}
    return metrics, tally, counts


def _max_terms(session: Session) -> int:
    """Largest term count of any printed total cell."""
    most = 0
    for doc_gate in session.gates:
        for line in (doc_gate.tensor_text or "").splitlines()[1:]:
            expr = line.partition(" = ")[2]
            most = max(most, len(expr.replace(" - ", " + ").split(" + ")))
    return most


def per_layer(session: Session, cli, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    gc.freeze()
    start = perf_counter()
    untraced = sum(t for times in timed_loop(session, cli, tally, 0) for t in times)
    tracer = hooks.Tracer()
    passes = []
    tracer.install()
    try:
        while not passes or perf_counter() - start < seconds:
            tracer.reset()
            written = []
            times = timed_loop(session, cli, tally, 0,
                               on_output=lambda out: written.append(len(out.encode())))
            passes.append((dict(tracer.stats), sum(written), sum(t for ts in times for t in ts)))
    finally:
        tracer.uninstall()
    tracer.check_fired()
    first = passes[0][0]
    for stats, stdout_bytes, _ in passes[1:]:
        if stdout_bytes != passes[0][1] or any(
                stats[name].counts() != span.counts() for name, span in first.items()):
            raise RuntimeError("span counts differ between traced passes of one seed")

    def self_s(name: str) -> tuple[float, str]:
        return statistics.median(stats[name].self_s for stats, _, _ in passes), "s"

    metrics = {}
    for name in ("scalars.mul", "scalars.add", "scalars.parse", "scalars.evaluate",
                 "scalars.str", "tensors.forget", "tensors.blow", "tensors.bmp",
                 "networks.prepare", "netio.parse_network"):
        metrics[f"{name}.calls"] = (first[name].calls, "count")
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("tensors.eq", "networks.node_tensors", "networks.total_direct",
                 "networks.verify_totals", "netio.serialize_tensor", "cli.main"):
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("tensors.forget", "tensors.blow", "tensors.bmp"):
        metrics[f"{name}.cells_out"] = (first[name].size, "count")
    for name in ("tensors.bmp", "networks.total_direct"):
        metrics[f"{name}.mul_calls"] = (first[name].mul_calls, "count")
    metrics["netio.serialize_tensor.bytes_out"] = (first["netio.serialize_tensor"].size, "bytes")
    metrics["scalars.max_terms"] = (_max_terms(session), "count")
    metrics["cli.stdout_bytes"] = (passes[0][1], "bytes")
    traced = statistics.median(wall for _, _, wall in passes)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, tally, {"traced_passes": len(passes)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(docgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tensordag" / "cli.py").is_file():
        print(f"error: tensordag sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tensordag import cli

    session = Session(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, tally, counts = measure(session, cli, args.seconds)
    finally:
        session.close()
    record = machine_record(args.workload, args.seed)
    record.update(counts, stdout_sha256=tally.digest.hexdigest(),
                  failed_share=tally.failed / tally.attempted)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    if tally.failed:
        print(f"{tally.failed} of {tally.attempted} operations failed the gate", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
