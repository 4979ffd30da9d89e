"""Outside-in layer trace: spans around braidplumb's public functions.

A wrapper replaces a function object wherever a braidplumb module binds it
by name (`plumbing` imports `square_normalization`, `build_surface`, ... and
`monodromy` imports `signed_intersection` that way), and module-level
lookups such as `cv.dehn_twist` or a recursive call find the same wrapper.
Spans (name, start, end, parent, input id) are kept in memory and written
out when the run ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

LAYERS = {
    "braidwords": ("square_normalization", "replay_moves", "braid_invariants"),
    "fatgraph": ("build_surface",),
    "curves": (
        "apply_monodromy",
        "dehn_twist",
        "geometric_intersection",
        "self_intersection",
        "signed_intersection",
    ),
    "monodromy": ("intersection_form", "homological_monodromy", "charpoly"),
    "alexpoly": ("burau_alexander", "hironaka_max_n", "torus_alexander"),
    "plumbing": (
        "trefoil_decompose",
        "trefoil_step",
        "detect_chain",
        "validate_trefoil_decomposition",
        "validate_chain_certificate",
    ),
}
WRAPPED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Work done by a wrapped call, read from its arguments and result.
WORK = {
    "braidwords.square_normalization.moves": lambda args, res: len(res.moves),
    "curves.dehn_twist.word_len": lambda args, res: len(res.word),
    "monodromy.charpoly.dim": lambda args, res: len(args[0]),
}

# Spans the benchmark opens around its own steps; plumbing.json is the
# certificate JSON round trip (to_json, dumps, loads, from_json).
BENCH_SPANS = ("bench.certify", "bench.verify", "plumbing.json")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in WRAPPED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in WORK:
        units[name] = "count"
    units["plumbing.json.self_s"] = "s"
    units["trace.overhead_share"] = "share"
    return units


class Tracer:
    def __init__(self):
        self.names = list(WRAPPED) + list(BENCH_SPANS)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.work = dict.fromkeys(WORK, 0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_input = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.input_id = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patched: list[tuple] = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named `name`."""
        idx = self.index[name]
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_input.append(self.input_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.span_start[sid] = t0
            self.span_end[sid] = t1
            self.calls[idx] += 1
            self.self_s[idx] += (t1 - t0) - frame[1]
            if self._stack:
                self._stack[-1][1] += t1 - t0

    def _wrapper(self, name: str, fn):
        work = [(key, count) for key, count in WORK.items() if key.startswith(name + ".")]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, functools.partial(fn, **kwargs) if kwargs else fn, *args)
            for key, count in work:
                self.work[key] += count(args, result)
            return result

        return traced

    def install(self, bp) -> None:
        """Replace every by-name binding of a wrapped function."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "braidplumb"]
        for name in WRAPPED:
            mod, fn_name = name.split(".")
            original = getattr(getattr(bp, mod), fn_name)
            wrapper = self._wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, overhead_share: float) -> dict[str, float]:
        out = {}
        for name in WRAPPED:
            i = self.index[name]
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out.update(self.work)
        out["plumbing.json.self_s"] = self.self_s[self.index["plumbing.json"]]
        out["trace.overhead_share"] = overhead_share
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tinput\tname\tstart_s\tend_s\tparent\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_input[sid]}\t{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\t{self.span_parent[sid]}\n"
                )
