"""Layer spans for the traced run, installed from outside the library.

Each hook replaces one name with a wrapper that records a span: calls, self
time (the span's time minus the time of hooked spans directly inside it) and,
for some spans, the size of the result.  A function is wrapped under every
name its callers look it up by: ``tensordag.networks`` binds ``forget``,
``blow`` and ``summand_ordered_bmp`` at import, ``netio`` binds its own
``parse_expr``, and ``PolyScalar.__rmul__``/``__radd__`` are aliases of
``__mul__``/``__add__``.

Spans count only inside a ``cli.main`` span, so the benchmark's own checks
never add to a layer.  A hook that re-enters a span of its own name (the bmp
layer entered through ``summand_ordered_bmp`` and then ``bmp``) joins the
open span instead of opening a second one.

Installing fails if a hooked name no longer exists, and :meth:`Tracer.check_fired`
fails if a hook that the workload runs through never fired, so a renamed
function can never read as a layer with zero cost.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _cells(tensor) -> int:
    return tensor.ncells


def _bytes(text: str) -> int:
    return len(text.encode())


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str            # "name" or "Class.name"
    span: str
    on_path: bool        # the workloads' commands call the function by this name
    size: Callable[[object], int] | None = None  # result -> count, summed per span


#: The CLI's commands reach every ``on_path`` binding on every workload.
HOOKS = (
    Hook("tensordag.scalars", "PolyScalar.__mul__", "scalars.mul", True),
    Hook("tensordag.scalars", "PolyScalar.__rmul__", "scalars.mul", False),
    Hook("tensordag.scalars", "PolyScalar.__add__", "scalars.add", True),
    Hook("tensordag.scalars", "PolyScalar.__radd__", "scalars.add", False),
    Hook("tensordag.scalars", "parse_expr", "scalars.parse", False),
    Hook("tensordag.netio", "parse_expr", "scalars.parse", True),
    Hook("tensordag.scalars", "PolyScalar.evaluate", "scalars.evaluate", True),
    Hook("tensordag.scalars", "PolyScalar.__str__", "scalars.str", True),
    Hook("tensordag.tensors", "forget", "tensors.forget", False, _cells),
    Hook("tensordag.networks", "forget", "tensors.forget", True, _cells),
    Hook("tensordag.tensors", "blow", "tensors.blow", False, _cells),
    Hook("tensordag.networks", "blow", "tensors.blow", True, _cells),
    Hook("tensordag.tensors", "summand_ordered_bmp", "tensors.bmp", False, _cells),
    Hook("tensordag.networks", "summand_ordered_bmp", "tensors.bmp", True, _cells),
    Hook("tensordag.tensors", "bmp", "tensors.bmp", True, _cells),
    Hook("tensordag.tensors", "Tensor.__eq__", "tensors.eq", True),
    Hook("tensordag.networks", "PreparedNetwork.__init__", "networks.prepare", True),
    Hook("tensordag.networks", "node_tensors", "networks.node_tensors", True),
    Hook("tensordag.networks", "total_direct", "networks.total_direct", True),
    Hook("tensordag.networks", "verify_totals", "networks.verify_totals", True),
    Hook("tensordag.netio", "parse_network", "netio.parse_network", True),
    Hook("tensordag.netio", "serialize_tensor", "netio.serialize_tensor", True, _bytes),
    Hook("tensordag.cli", "main", "cli.main", True),
)

ROOT_SPAN = "cli.main"
#: Calls of this span are also counted against the innermost enclosing span.
MUL_SPAN = "scalars.mul"


class SpanStats:
    __slots__ = ("calls", "self_s", "size", "mul_calls")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.size = 0
        self.mul_calls = 0

    def counts(self) -> tuple[int, int, int]:
        return (self.calls, self.size, self.mul_calls)


class Tracer:
    """Installs the hooks, keeps the span stack and per-span totals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats = {hook.span: SpanStats() for hook in hooks}
        self.fired = [False] * len(hooks)
        self._stack: list[list] = []   # [span name, time of hooked children]
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = SpanStats()

    def _wrap(self, index: int, fn):
        hook = self.hooks[index]
        name, size, stack, fired = hook.span, hook.size, self._stack, self.fired
        stats, clock = self.stats, perf_counter
        is_root, is_mul = name == ROOT_SPAN, name == MUL_SPAN

        def hooked(*args, **kwargs):
            fired[index] = True
            if (not stack and not is_root) or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            if is_mul:
                stats[stack[-1][0]].mul_calls += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span = stats[name]
                span.calls += 1
                span.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if size is not None:
                span.size += size(result)
            return result

        return hooked

    def install(self) -> None:
        """Wrap every hooked name; raises AttributeError if one is missing."""
        targets = []
        for hook in self.hooks:
            owner = importlib.import_module(hook.module)
            *path, attr = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not callable(getattr(owner, attr, None)) or attr not in vars(owner):
                raise AttributeError(f"hooked name {hook.module}.{hook.attr} no longer exists")
            targets.append((owner, attr))
        for index, (owner, attr) in enumerate(targets):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def check_fired(self) -> None:
        """Raise if a hook on the commands' path never fired."""
        silent = [f"{h.module}.{h.attr}" for h, fired in zip(self.hooks, self.fired)
                  if h.on_path and not fired]
        if silent:
            raise RuntimeError("hooks never fired: " + ", ".join(silent))
