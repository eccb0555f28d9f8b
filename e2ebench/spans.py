"""Spans around the program's public entry points, installed from here.

`Tracer.install` wraps each entry point listed in `TARGETS` in place
(every module that imported a traced function by name is patched too)
and `Tracer.uninstall` restores the originals.  Spans nest on one
stack; the tracer keeps, per span name, the call count and inclusive
time, and per layer the *self* time: a layer's span time minus the
part covered by child spans of other layers.  Consecutive spans of one
layer count once, so a `Matcher.has` inside a `Matcher.find` is not
double counted.

The tracer is for single-threaded in-process runs (`decide-cold` and
the serving replay); it is not thread-safe.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: (module, owner attribute or None for a function, attribute, span, layer)
TARGETS = [
    ("repro.service.compiled", None, "compile_schema", "compile_schema", "service"),
    ("repro.service.session", "Session", "decide", "Session.decide", "service"),
    (
        "repro.answerability.deciders",
        None,
        "decide_monotone_answerability",
        "decide_monotone_answerability",
        "answerability",
    ),
    ("repro.containment.rewriting", "RewriteEngine", "rewrite", "RewriteEngine.rewrite", "containment"),
    ("repro.containment.rewriting", None, "canonical_state", "canonical_state", "containment"),
    ("repro.chase.engine", None, "chase", "chase", "chase"),
    ("repro.matching.matcher", "Matcher", "find", "Matcher.find", "matching"),
    ("repro.matching.matcher", "Matcher", "has", "Matcher.has", "matching"),
    ("repro.cache.tier", "ArtifactStore", "load", "ArtifactStore.load", "cache"),
    ("repro.cache.kv", "MemoryKVStore", "put", "KVStore.put", "cache"),
    ("repro.cache.kv", "SQLiteKVStore", "put", "KVStore.put", "cache"),
    ("repro.server.pool", "SessionPool", "process", "SessionPool.process", "server"),
    ("repro.io", "DecideRequest", "from_dict", "DecideRequest.from_dict", "io"),
    ("repro.io", "DecideResponse", "to_dict", "DecideResponse.to_dict", "io"),
]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: `compile_schema` results while installed, for the engine and
        #: matcher counters the caller harvests (`take_compiled`).
        self.compiled: list = []
        # Frames: [span, layer, start, other-layer child time]
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, layer: str):
        """Context manager for a span the benchmark itself opens (the
        wire codec steps of the serving replay)."""
        return _Span(self, name, layer)

    def enter(self, name: str, layer: str) -> None:
        self.calls[name] += 1
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        now = time.perf_counter()
        name, layer, start, other = self._stack.pop()
        elapsed = now - start
        parent = self._stack[-1] if self._stack else None
        if not any(frame[0] == name for frame in self._stack):
            self.inclusive_s[name] += elapsed
        if parent is not None and parent[1] == layer:
            parent[3] += other
        else:
            self.self_s[layer] += elapsed - other
            if parent is not None:
                parent[3] += elapsed

    def reset(self) -> None:
        self.calls.clear()
        self.inclusive_s.clear()
        self.self_s.clear()

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for module_name, owner_name, attribute, span, layer in TARGETS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attribute)
                wrapper = self._wrap(original, span, layer, keep=attribute == "compile_schema")
                for loaded in list(sys.modules.values()):
                    name = getattr(loaded, "__name__", "")
                    if not name.startswith("repro"):
                        continue
                    if getattr(loaded, attribute, None) is original:
                        self._patches.append((loaded, attribute, original))
                        setattr(loaded, attribute, wrapper)
            else:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, span, layer))
                else:
                    wrapped = self._wrap(raw, span, layer)
                self._patches.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._patches):
            setattr(target, attribute, original)
        self._patches.clear()

    def take_compiled(self) -> list:
        compiled, self.compiled = self.compiled, []
        return compiled

    def _wrap(self, function, span: str, layer: str, keep: bool = False):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(span, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                exit_()
            if keep:
                self.compiled.append(result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", span)
        return traced


class _Span:
    __slots__ = ("tracer", "name", "layer")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self) -> None:
        self.tracer.enter(self.name, self.layer)

    def __exit__(self, *exc) -> bool:
        self.tracer.exit()
        return False
