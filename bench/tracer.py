"""Outside-in tracer for the eigensens package.

Wraps every callable named in the ``__all__`` of each layer module in a span,
wherever the package binds it: the defining module, the package namespace,
every module that imported it with ``from ... import`` and module-level
dicts such as the CLI's command table.  Classes are traced through their
``__init__``, so ``isinstance`` checks keep working.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` restores every binding.

A name that a later version of the package no longer has is skipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("dataset", "eigen", "influence", "subspace_diag", "switching", "cli")

# span tuple fields
RUN, ID, PARENT, NAME, START, END, OUTERMOST = range(7)


class Tracer:
    """Keeps spans in memory; write them out with :meth:`dump` at the end."""

    def __init__(self, hooks: dict | None = None):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # spans are recorded only while a run id is set
        self.run_id: int | None = None
        # name -> fn(counts, result, args), called after a span returns
        self.hooks = hooks or {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = Counter()
        return local.stack, local.active

    def wrap(self, name: str, fn):
        tracer = self
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            stack, active = tracer._state()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            outermost = active[name] == 0
            stack.append(span_id)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[name] -= 1
                stack.pop()
                tracer.spans.append(
                    (tracer.run_id, span_id, parent, name, start, end, outermost))
            if hook is not None:
                hook(tracer.counts, result, args)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every traced name; returns the span names installed."""
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "eigensens" or key.startswith("eigensens.")]
        names = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"eigensens.{layer}")
            except ImportError:
                continue
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if obj is None or not callable(obj):
                    continue
                span = f"{layer}.{attr}"
                if isinstance(obj, type):
                    init = obj.__dict__.get("__init__")
                    if init is None:
                        continue
                    setattr(obj, "__init__", self.wrap(span, init))
                    self._restore.append((setattr, obj, "__init__", init))
                else:
                    self._rebind(package, obj, self.wrap(span, obj))
                names.append(span)
        return names

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((setattr, module, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._restore.append((dict.__setitem__, value, k, original))

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    def dump(self, path: Path) -> None:
        keys = ("run", "id", "parent", "name", "start", "end")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span[:6]))) + "\n")

    def summary(self) -> dict:
        """Self time per layer, inclusive time and call count per name.

        A span's self time is its duration minus the durations of its direct
        children; inclusive time counts only the outermost span of a name.
        """
        children: defaultdict = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        self_s: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            duration = span[END] - span[START]
            layer = span[NAME].split(".", 1)[0]
            self_s[layer] += duration - children[span[ID]]
            calls[span[NAME]] += 1
            if span[OUTERMOST]:
                inclusive[span[NAME]] += duration
        return {"self_s": dict(self_s), "inclusive_s": dict(inclusive),
                "calls": dict(calls), "spans": len(self.spans)}
