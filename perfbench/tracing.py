"""In-memory tracing of wallach_geo from outside the package.

A ``Tracer`` wraps the package's public functions and methods and rebinds
every module attribute that refers to them, so calls made inside the
package (``cli`` calling ``gw_defect_all``, ``oracle`` calling ``u_map``)
are caught as well as calls from the benchmark.  Nothing under ``src/`` is
edited; ``uninstall`` puts the original objects back.

Each unit of work gets one root span.  Every wrapped call records a span
carrying the root's unit id and its parent span id, except the hottest
leaf functions, which add to a per-parent counter instead (one shooting
trial calls ``u_map`` about 180 times at 40 RK4 steps).
A function's self time is its duration minus the time of the wrapped
calls it made; the root's self time is the remainder not spent in any
wrapped function.
"""

import contextlib
import sys
import time

PACKAGE = "wallach_geo"


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Spans and per-function statistics for one traced pass."""

    def __init__(self, targets, leaves, keep_spans=True):
        # targets: stat name -> list of (module name, attribute path)
        self.targets = targets
        self.leaves = frozenset(leaves)
        self.stats = {name: Stat() for name in targets}
        self.keep_spans = keep_spans
        self.spans = []
        self.root_s = 0.0  # summed duration of the unit root spans
        self.remainder_s = 0.0  # root time outside every wrapped call
        self._stack = []
        self._next_id = 0
        self._unit = None
        self._restore = []

    # -- installation -------------------------------------------------
    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for stat, paths in self.targets.items():
            for module_name, attr_path in paths:
                owner = sys.modules.get(f"{PACKAGE}.{module_name}")
                *cls_path, attr = attr_path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue  # removed from the package: reported as never called
                wrapper = self._wrap(stat, original)
                if cls_path:
                    self._rebind(owner, attr, original, wrapper)
                    continue
                # rebind the definition and every `from .x import f` copy
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ----------------------------------------------------------
    @contextlib.contextmanager
    def unit(self, label: str):
        """Root span of one unit of work; child spans share its id."""
        uid = self._new_id()
        self._unit = uid
        frame = [uid, 0.0, {}]  # span id, child time, leaf counters
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield uid
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._unit = None
            self.root_s += dur
            self.remainder_s += dur - frame[1]
            self._record({
                "id": uid, "parent": None, "unit": uid, "name": label,
                "start": t0, "dur": dur, "self": dur - frame[1],
                "leaf_calls": _counters(frame[2]),
            })

    def _record(self, span):
        if self.keep_spans:
            self.spans.append(span)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, stat_name, fn):
        stat = self.stats[stat_name]
        stack = self._stack
        perf = time.perf_counter

        if stat_name in self.leaves:
            def leaf(*args, **kwargs):
                frame = [None, 0.0, None]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    dur = perf() - t0
                    stack.pop()
                    stat.calls += 1
                    stat.self_s += dur - frame[1]
                    if stack:
                        parent = stack[-1]
                        parent[1] += dur
                        if parent[2] is not None:
                            c = parent[2].setdefault(stat_name, [0, 0.0])
                            c[0] += 1
                            c[1] += dur

            leaf.__wrapped__ = fn
            return leaf

        def spanned(*args, **kwargs):
            sid = self._new_id()
            parent_id = stack[-1][0] if stack else None
            frame = [sid, 0.0, {}]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self._record({
                    "id": sid, "parent": parent_id, "unit": self._unit,
                    "name": stat_name, "start": t0, "dur": dur,
                    "self": dur - frame[1], "leaf_calls": _counters(frame[2]),
                })

        spanned.__wrapped__ = fn
        return spanned


def _counters(counts: dict) -> dict:
    return {name: {"calls": c[0], "time_s": c[1]} for name, c in counts.items()}
