"""Per-layer span tracer for the benchmark's traced run.

The program is measured from outside: each public function named in
LAYERS is replaced, in every loaded ``resichain`` module that holds that
same function object, by a wrapper that records one span (name, start,
end, parent, outcome). Modules that import a function by name
(``from .morphisms import enumerate_embeddings``) are patched too, so
calls between modules are seen. Only public names are touched; no
private cache is read or cleared.

Spans stay in flat in-memory arrays and are written to one file when the
traced process ends; ``summarize`` turns a set of span files into call
counts, self times and outcome ratios.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import pkgutil
import sys
import time
from contextlib import contextmanager

LAYERS = {
    "chain": ("validate", "restrict_to", "enumerate_chains"),
    "constructors": ("nested_sum",),
    "decomposition": ("decompose", "recompose"),
    "morphisms": (
        "enumerate_embeddings",
        "enumerate_homomorphisms",
        "congruences",
        "quotient",
        "is_embedding",
    ),
    "amalgamation": ("find_amalgam", "verify_amalgam", "amalgamate_components"),
    "classification": (
        "class_members",
        "hs_closure",
        "classify",
        "closure_rule_violations",
        "find_refuting_span",
    ),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# outcome codes: 0 returned a value, 1 returned an empty list or tuple,
# 2+ raised (the exception's class name is in Tracer.outcomes)
OK, EMPTY = 0, 1


class Tracer:
    """Records nested spans around the wrapped functions of one process."""

    def __init__(self):
        self.outcomes = ["ok", "empty"]
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.outcome = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self._paused = False

    def install(self) -> None:
        """Import every resichain module and swap in the wrappers."""
        package = importlib.import_module("resichain")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"resichain.{info.name}")
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "resichain" or name.startswith("resichain.")
        ]
        for span_id, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"resichain.{mod_name}"], fn_name)
            wrapper = self._wrap(span_id, original)
            for module in modules:
                holders = [k for k, v in vars(module).items() if v is original]
                for attr in holders:
                    setattr(module, attr, wrapper)

    @contextmanager
    def paused(self):
        """Run the benchmark's own output checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, span_id: int, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(span_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outcome.append(OK)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                self._stack.pop()
                self.outcome[idx] = self._outcome_code(type(exc).__name__)
                raise
            self.end[idx] = clock()
            self._stack.pop()
            if isinstance(result, (list, tuple)) and not result:
                self.outcome[idx] = EMPTY
            return result

        return traced

    def _outcome_code(self, name: str) -> int:
        if name not in self.outcomes:
            self.outcomes.append(name)
        return self.outcomes.index(name)

    def write(self, path: str) -> None:
        header = {"names": SPAN_NAMES, "outcomes": self.outcomes, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.outcome, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: str):
    """(header, name_id, parent, outcome, start, end) from a span file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(paths) -> dict:
    """Per span name: exact call count, self seconds (duration minus the
    time covered by child spans) and a count per outcome name."""
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    outcomes = {name: {} for name in SPAN_NAMES}
    for path in paths:
        header, name_id, parent, outcome, start, end = read_spans(path)
        names, outcome_names = header["names"], header["outcomes"]
        own = [e - s for s, e in zip(start, end)]
        covered = [0.0] * len(own)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += own[i]
        for i, sid in enumerate(name_id):
            name = names[sid]
            calls[name] += 1
            self_s[name] += own[i] - covered[i]
            oc = outcome_names[outcome[i]]
            outcomes[name][oc] = outcomes[name].get(oc, 0) + 1
    return {"calls": calls, "self_s": self_s, "outcomes": outcomes}
