"""In-memory spans around calls into the dgadiag modules, recorded from outside.

The tracer replaces each public module-level function of the traced modules
with a wrapper, under every name a dgadiag module looks it up by.  The
modules import one another's functions into their own namespaces (`features`
holds `train` and `itd_single_stage`, `evaluation` holds `train` and
`predict_many`), so patching only the defining module would miss most calls.
Functions imported inside a function body (`from .features import
build_features` in `kfold_cv`) are looked up on the defining module at call
time and are covered by the same patch.

A span is [name, start_ns, end_ns, parent_index, failed, counts]; parents are
indices into the same list.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self, modules: list, counters: dict[str, Counter]):
        self.spans: list[list] = []
        self._modules = modules
        self._counters = counters
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere it is bound."""
        wrapped: dict[int, object] = {}
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._wrap(name, obj, self._counters.get(name))
        package = self._modules[0].__name__.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, counter: Counter | None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[4] = True
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write all spans as TSV: index, name, start_ns, end_ns, parent, failed, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tfailed\tcounts\n")
            for i, (name, t0, t1, parent, failed, counts) in enumerate(self.spans):
                extra = ",".join(f"{k}={v}" for k, v in (counts or {}).items())
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{int(failed)}\t{extra}\n")


def self_times(spans: list[list], first: int, last: int) -> list[int]:
    """Self time (ns) of spans[first:last]: duration minus that of direct children.

    Calls are single-threaded and properly nested, so children never overlap
    and their durations can simply be summed.
    """
    own = [rec[2] - rec[1] for rec in spans[first:last]]
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= first:
            own[parent - first] -= spans[i][2] - spans[i][1]
    return own
