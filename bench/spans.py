"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the ``bratteli`` modules from the
outside: every module-level binding of a ``bratteli`` function is replaced by
a wrapper that opens a span on entry and closes it on exit, and the original
bindings are put back afterwards.  Bindings that one module imports from
another (``soe.make_path``, ``paths.in_edges``) are wrapped too, so calls
between layers are seen as well as calls from the benchmark.

Each span has a name (``<defining module>.<function>``), an optional tag (the
path depth or matrix size for the functions listed in ``TAGGERS``), a start
and end in nanoseconds, the index of its parent span and a run id (the
benchmark operation it belongs to).  Spans stay in memory; the first
``keep`` of them are kept whole and written out at the end, and every span
is folded into per-(name, tag) totals of calls, inclusive time and self
time, where self time is the span's duration minus the part its child spans
cover.
"""

from __future__ import annotations

import functools
import json
import time

_now = time.perf_counter_ns

# Functions whose spans carry a size tag, so per-layer metrics can be read
# per depth (paths) or per matrix size (ktheory) or per command (cli).
TAGGERS = {
    "paths.make_path": lambda d, idx: len(idx),
    "paths.path_rank": lambda d, p: p.depth,
    "paths.path_unrank": lambda d, level, vertex, rank: level,
    "paths.vershik_successor": lambda d, p: p.depth,
    "paths.vershik_predecessor": lambda d, p: p.depth,
    "ktheory.smith_normal_form": lambda a: len(a),
    "ktheory.verify_snf": lambda a, res: len(a),
    "cli.run": lambda argv: (argv[0] if argv[0] != "soe"
                             else f"soe_{argv[1]}"),
}


class Recorder:
    """In-memory span store with running per-(name, tag) totals."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans = []      # (name, tag, start_ns, end_ns, parent, run_id)
        self.dropped = 0
        self.stats = {}      # (name, tag) -> [calls, inclusive_ns, self_ns]
        self.layer_self = {}     # layer -> self ns
        self.layer_entry = {}    # layer -> ns spent in spans entered from
        #                          another layer or from the benchmark
        self.run_id = 0
        self._stack = []

    def enter(self, name, layer, tag):
        stack = self._stack
        parent = stack[-1] if stack else None
        if len(self.spans) < self.keep:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        frame = [name, layer, tag, 0, idx, parent, _now()]
        stack.append(frame)
        return frame

    def exit(self, frame):
        end = _now()
        name, layer, tag, child, idx, parent, start = frame
        self._stack.pop()
        dur = end - start
        key = (name, tag)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        self.layer_self[layer] = self.layer_self.get(layer, 0) + dur - child
        if parent is None or parent[1] != layer:
            self.layer_entry[layer] = self.layer_entry.get(layer, 0) + dur
        if parent is not None:
            parent[3] += dur
        if idx >= 0:
            self.spans[idx] = (name, tag, start, end,
                               parent[4] if parent is not None else -1,
                               self.run_id)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"columns": ["name", "tag", "start_ns", "end_ns",
                                   "parent", "run_id"],
                       "spans": self.spans, "dropped": self.dropped,
                       "totals": [[n, t, *st] for (n, t), st
                                  in sorted(self.stats.items(), key=str)]},
                      f)
            f.write("\n")


def _wrap(rec, fn, name, layer):
    tagger = TAGGERS.get(name)
    enter, exit_ = rec.enter, rec.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name, layer, tagger(*args, **kwargs) if tagger else None)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)
    return wrapper


class traced:
    """Context manager: wrap every public bratteli function in ``modules``."""

    def __init__(self, rec, modules):
        self.rec = rec
        self.modules = modules
        self.patched = []

    def __enter__(self):
        wrappers = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or not home.startswith("bratteli.")):
                    continue
                layer = home.split(".")[-1]
                key = id(obj)
                if key not in wrappers:
                    wrappers[key] = _wrap(self.rec, obj,
                                          f"{layer}.{obj.__name__}", layer)
                self.patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])
        return self.rec

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self.patched):
            setattr(mod, attr, obj)
        self.patched.clear()
        return False
