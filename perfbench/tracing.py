"""In-memory spans around corrhist's public functions.

The traced run rebinds module attributes of the ``corrhist`` package to
wrappers, so nothing under ``src/`` changes.  Each wrapped call records a
span: ``<module>.<function>``, start and end (``time.perf_counter``), the
parent span, the trace id of the command being run, and the process's
``ru_maxrss`` at the end.  Spans stay in memory until the run writes them
out as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# The package's layers.  ``model``, ``_xml`` and ``errors`` do no work of
# their own behind an entry point, so their time counts toward the caller;
# ``reference`` holds constants only.
LAYERS = ("synth", "cli", "snapshot_io", "extract", "casegraph", "embedded", "blocking")

# Public helpers called once per name or per person node.  Wrapping them
# would attribute casegraph's and blocking's per-record work to themselves
# and make the trace cost more than the work it measures.
PER_RECORD_HELPERS = frozenset({
    "blocking.blocking_key",
    "blocking.representative_surface",
    "blocking.strip_homonym_suffix",
})


class Tracer:
    """Records spans while a trace id is active; passes calls through otherwise."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._trace_id: str | None = None
        self._root_stack: list[dict] | None = None

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def trace(self, trace_id: str) -> Iterator[None]:
        """Record spans under ``trace_id`` until the block ends.

        Spans opened on a worker thread with nothing open on that thread
        take the innermost open span of the tracing thread as parent, which
        is the call that is waiting for the worker.
        """
        self._trace_id = trace_id
        self._root_stack = self._stack()
        try:
            yield
        finally:
            self._trace_id = None
            self._root_stack = None

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parents = stack if stack or self._root_stack is None else self._root_stack
        with self._lock:
            span_id = next(self._ids)
        return {
            "id": span_id,
            "name": name,
            "trace": self._trace_id,
            "parent": parents[-1]["id"] if parents else None,
            "start": time.perf_counter(),
        }

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span named ``name`` around the block while a trace is active."""
        if self._trace_id is None:
            yield
            return
        span = self._open(name)
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._trace_id is None:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        # The span runs from the first item to exhaustion and is the open
        # span only while the generator body runs, so calls the body makes
        # nest under it and the consumer's calls between items do not.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._trace_id is None:
                yield from fn(*args, **kwargs)
                return
            span = self._open(name)
            stack = self._stack()
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                    yield item
            finally:
                self._close(span)

        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                f.write(json.dumps(span, sort_keys=True) + "\n")


def public_functions() -> dict[str, Callable]:
    """``<layer>.<function>`` for every public function the layers export."""
    import corrhist
    import corrhist.cli

    found = {"cli.main": corrhist.cli.main}
    for attr in corrhist.__all__:
        obj = getattr(corrhist, attr)
        if not isinstance(obj, types.FunctionType):
            continue
        layer = obj.__module__.rpartition(".")[2]
        name = f"{layer}.{obj.__name__}"
        if layer in LAYERS and name not in PER_RECORD_HELPERS:
            found[name] = obj
    return found


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Rebind every module attribute bound to a public function to a wrapper.

    Modules call each other through names they imported, so each binding
    is replaced, not just the defining one.  All bindings are restored
    when the block ends.
    """
    wrappers = {
        id(fn): (fn, tracer.wrap(name, fn)) for name, fn in public_functions().items()
    }
    patched: list[tuple[types.ModuleType, str, Callable]] = []
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "corrhist" or name.startswith("corrhist.")
    ]
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
