"""The benchmark's layer trace still binds to the library.

``bench/hooks.py`` wraps library functions by name from outside the package.
A refactor that renames or stops calling one of them breaks the traced
benchmark run; this test catches that in well under a second, without
running the benchmark itself.
"""

import importlib.util
import sys
from pathlib import Path

HOOKS_PATH = Path(__file__).resolve().parent.parent / "bench" / "hooks.py"


def _load_hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_hook_binds_and_fires_on_the_benchmark_commands(run_cli, fixtures_dir,
                                                              monkeypatch):
    tracer = _load_hooks(monkeypatch).Tracer()
    tracer.install()
    try:
        path = str(fixtures_dir / "chain.json")
        for argv in (["--method", "verify"], ["--method", "direct"], ["--method", "bmp"],
                     ["--method", "direct", "--assign", "alpha=1/2,beta=2"]):
            assert run_cli("total", path, *argv).code == 0
        tracer.check_fired()
    finally:
        tracer.uninstall()
