"""Per-layer timing of coaxfilt's public functions, taken from outside the program.

`Tracer.install` replaces each public function (and each public class- or
static method) of the traced modules with a timing wrapper, in every
loaded coaxfilt namespace that holds it. That is where callers look the
name up: `cli` calls `cli.extract_material`, `extraction` calls
`extraction.invert_point`, and the benchmark itself calls through module
attributes. The program source is not touched; `uninstall` restores
every name.

Each call adds to per-name totals: calls, busy time, and the busy time
of traced calls nested inside it (so self time = busy - child). Calls
that happen once per frequency point (about 2000 per op) are only
aggregated; every other call also leaves one span in memory, and the
spans are handed back when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time

# Called once per frequency point and calling nothing traced: aggregated
# only, with no span per call.
PER_POINT = frozenset(
    {
        "extraction.invert_point",
        "extraction.impedance_from_reflection",
        "extraction.material_from_point",
        "txline.magnitude_db",
    }
)

OP = "op"


class Tracer:
    def __init__(self, package: str, modules: tuple[str, ...]):
        self.package = package
        self.modules = modules
        self.stats: dict[str, list[int]] = {OP: [0, 0, 0]}  # calls, busy ns, child ns
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, str, str | None, int, int]] = []
        self._observers: dict[str, object] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op_start = 0

    def observe(self, name: str, fn) -> None:
        """Call fn(tracer, result, args, kwargs) after each traced call of name.

        Register observers before `install`.
        """
        self._observers[name] = fn

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        if name in PER_POINT:
            # leaves: no frame of their own, no span, only the totals
            def traced_leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stats[0] += 1
                    stats[1] += dur
                    if stack:
                        stack[-1][0] += dur

            traced_leaf.__wrapped__ = fn
            return traced_leaf

        spans = self.spans
        observer = self._observers.get(name)
        op_stats = self.stats[OP]

        def traced(*args, **kwargs):
            frame = [0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dur
                parent = stack[-1][1] if stack else None
                spans.append((op_stats[0] + 1, name, parent, start, dur))
            if observer is not None:
                observer(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(object, attribute, raw value, layer name) for every traced callable."""
        for short in self.modules:
            mod = sys.modules[f"{self.package}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, obj, f"{short}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in vars(obj).items():
                        if not meth.startswith("_") and isinstance(
                            raw, (classmethod, staticmethod)
                        ):
                            yield obj, meth, raw, f"{short}.{attr}.{meth}"

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id of the original function -> its wrapper
        for owner, attr, raw, name in self._targets():
            if isinstance(raw, (classmethod, staticmethod)):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, type(raw)(self._wrap(name, raw.__func__)))
            else:
                wrappers[id(raw)] = self._wrap(name, raw)
        namespaces = [
            m for key, m in sys.modules.items()
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def begin_op(self) -> None:
        self._stack.append([0, OP])
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        dur = time.perf_counter_ns() - self._op_start
        frame = self._stack.pop()
        stats = self.stats[OP]
        stats[0] += 1
        stats[1] += dur
        stats[2] += frame[0]
        self.spans.append((stats[0], OP, None, self._op_start, dur))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value
