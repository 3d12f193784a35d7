"""In-memory spans around the public functions of each oscillax layer.

The wrappers live only in the benchmark: every binding of a traced
function in every loaded ``oscillax`` module is replaced (modules bind
names with ``from .matrix import minor``, so one function can have many
bindings) and put back afterwards, and the restoration is checked.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (layer, module, function); generators get a span per resumption, so a
# generator's span covers its iteration and not just the call.
TRACED = (
    ("matrix", "oscillax.matrix", "minor_levels"),
    ("matrix", "oscillax.matrix", "minor"),
    ("matrix", "oscillax.matrix", "det"),
    ("matrix", "oscillax.matrix", "mat_mul"),
    ("seb", "oscillax.seb", "neville_factorize"),
    ("seb", "oscillax.seb", "compose"),
    ("seb", "oscillax.seb", "normalize_commutation"),
    ("classify", "oscillax.classify", "is_tn"),
    ("classify", "oscillax.classify", "is_tp"),
    ("classify", "oscillax.classify", "is_oscillatory"),
    ("classify", "oscillax.classify", "corner_minors"),
    ("planar", "oscillax.planar", "minor_via_paths"),
    ("planar", "oscillax.planar", "min_copies_lower_corner"),
    ("planar", "oscillax.planar", "export_dot"),
    ("exponent", "oscillax.exponent", "r_lower"),
    ("exponent", "oscillax.exponent", "recognize_class"),
)
GENERATORS = {"minor_levels"}


class Tracer:
    """Span stack with per-name call counts and self time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, op id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.minors_evaluated = 0
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else None, self.op_id, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, parent, op, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, name: str, fname: str, fn):
    if fname in GENERATORS:

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.minors_evaluated += len(item[1])
                    yield item
            finally:
                it.close()

        gen_wrapper.__perfbench_original__ = fn
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    wrapper.__perfbench_original__ = fn
    return wrapper


def _oscillax_modules():
    return [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "oscillax" or modname.startswith("oscillax."))
    ]


class Installed:
    """Wrappers installed into every binding; `restore()` undoes them."""

    def __init__(self, tracer: Tracer):
        self.patched: list[tuple] = []  # (module, attribute, original)
        self.names: list[str] = []
        modules = _oscillax_modules()
        for layer, modname, fname in TRACED:
            home = sys.modules.get(modname)
            original = getattr(home, fname, None) if home is not None else None
            if original is None:
                continue  # not in this version of the program
            name = f"{layer}.{fname}"
            self.names.append(name)
            wrapper = _wrap(tracer, name, fname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.patched.append((mod, attr, original))

    def restore(self) -> list[str]:
        """Put every binding back; return the problems found afterwards."""
        for mod, attr, original in self.patched:
            setattr(mod, attr, original)
        problems = [
            f"{mod.__name__}.{attr} not restored"
            for mod, attr, original in self.patched
            if getattr(mod, attr) is not original
        ]
        for mod in _oscillax_modules():
            for attr, value in vars(mod).items():
                if hasattr(value, "__perfbench_original__"):
                    problems.append(f"{mod.__name__}.{attr} still wrapped")
        return problems
