"""In-memory span tracer for the traced pass of the benchmark.

`Tracer.install` wraps public functions of the augdes modules from the
outside: each wrapper replaces the original under every name that any
augdes module bound it to (for example `augdes.oracle.invert` as well as
`augdes.matrix.invert`), so calls between modules are recorded too.
`SymMatrix.__post_init__` is replaced on the class. Each call records one
span (name, start, end, parent); calls, total and self time are also
aggregated per name as the spans close, where self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

# Spans kept for the dump; later spans still enter the aggregates.
MAX_DUMP_SPANS = 200_000

# Calls of a traced function made while one of these spans is open are
# also counted per (scope, name), e.g. intrablock builds inside a search.
SCOPES = ("search.exchange_search", "cli.build_report")


def _count_true(tracer, args, result):
    tracer.counts["design.is_connected.true"] += bool(result)


def _count_flops(tracer, args, result):
    order = args[0].order
    tracer.counts["matrix.invert.computed_flop"] += 2 * order**3
    tracer.counts["matrix.invert.max_order"] = max(tracer.counts["matrix.invert.max_order"], order)


# (module, attribute, span name, result hook); the attribute may name a method.
TARGETS = (
    ("augdes.matrix", "invert", "matrix.invert", _count_flops),
    ("augdes.matrix", "mp_inverse_centered", "matrix.mp_inverse_centered", None),
    ("augdes.matrix", "SymMatrix.__post_init__", "matrix.SymMatrix", None),
    ("augdes.design", "is_connected", "design.is_connected", _count_true),
    ("augdes.design", "lattice_bib", "design.lattice_bib", None),
    ("augdes.design", "dual", "design.dual", None),
    ("augdes.design", "read_design", "design.read_design", None),
    ("augdes.criteria", "intrablock", "criteria.intrablock", None),
    ("augdes.criteria", "a_criteria", "criteria.a_criteria", None),
    ("augdes.criteria", "mv_criteria", "criteria.mv_criteria", None),
    ("augdes.bounds", "efficiencies", "bounds.efficiencies", None),
    ("augdes.bounds", "a_bounds", "bounds.a_bounds", None),
    ("augdes.oracle", "build_model", "oracle.build_model", None),
    ("augdes.oracle", "gls_variance", "oracle.gls_variance", None),
    ("augdes.oracle", "verify_design", "oracle.verify_design", None),
    ("augdes.oracle", "enumerate_class", "oracle.enumerate_class", None),
    ("augdes.oracle", "class_minima", "oracle.class_minima", None),
    ("augdes.search", "exchange_search", "search.exchange_search", None),
    ("augdes.cli", "build_report", "cli.build_report", None),
)

# Generator functions: one span per item produced, counted under `<name>.items`.
GENERATORS = {"oracle.enumerate_class"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.nested: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, start, child time]
        self._open: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = False  # wrappers record only while set, so checks stay untraced

    # --- spans -----------------------------------------------------------

    def _enter(self, name: str) -> None:
        for scope in SCOPES:
            if self._open[scope]:
                self.nested[(scope, name)] += 1
        self._open[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if len(self.start) < MAX_DUMP_SPANS:
            index = len(self.start)
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(self._ids[name])
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
        else:
            self.dropped += 1
        now = time.perf_counter()
        if index >= 0:
            self.start[index] = now
        self._stack.append([index, name, now, 0.0])

    def _exit(self) -> None:
        now = time.perf_counter()
        index, name, began, child = self._stack.pop()
        duration = now - began
        if index >= 0:
            self.end[index] = now
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    @contextlib.contextmanager
    def recording(self, name: str):
        """Record one root span `name` and every traced call inside it."""
        self.enabled = True
        self._enter(name)
        try:
            yield
        finally:
            self._exit()
            self.enabled = False

    # --- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self
        if name in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                if not tracer.enabled:
                    yield from items
                    return
                while True:
                    tracer._enter(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counts[name + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded augdes module."""
        if self._patched:
            return
        modules = [m for n, m in sys.modules.items() if n == "augdes" or n.startswith("augdes.")]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, hook)
            if path:
                setattr(owner, leaf, wrapper)
                self._patched.append((owner, leaf, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # --- output ----------------------------------------------------------

    def dump(self, path, origin: float) -> None:
        """Write the kept spans, times relative to `origin`, as one JSON object."""
        payload = {
            "names": self.names,
            "dropped": self.dropped,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_s": [t - origin for t in self.start],
            "end_s": [t - origin for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
