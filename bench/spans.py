"""In-memory spans recorded around the public functions of outflow1d.

The package itself is not changed: `instrument` swaps each traced function
for a wrapper in every outflow1d module namespace that holds a reference to
it, so a caller that imported a name (``from .solver import run``) and a
caller that looks it up in its home module at call time (``step`` finding
``spatial_rhs``, the layer closures finding ``layer_ode_rhs``) both go
through the wrapper.  Everything is restored when the context exits.

A span is ``[name, parent, start, end, work, tag]``: ``parent`` is the index
of the enclosing span (-1 at the root), ``work`` the number of grid nodes or
points the call handled (0 when not tracked) and ``tag`` a label the caller
set on the tracer, such as the grid size of a sweep.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

TRACED_MODULES = ("solver", "layer", "rarefaction", "diagnostics",
                  "scenarios", "config")
TRACED_METHODS = (("rarefaction", "CompositeProfile", "eval"),
                  ("rarefaction", "BurgersWave", "eval"))

# work done per call, taken from the positional arguments the package uses
WORK = {
    "solver.spatial_rhs": lambda args: args[3].rho.size,
    "solver.step": lambda args: args[3].rho.size,
    "rarefaction.BurgersWave.eval": lambda args: np.size(args[1]),
}

NAME, PARENT, START, END, WORK_N, TAG = range(6)


class Tracer:
    """Collects nested spans; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list = []
        self.tag = ""
        self._stack: list = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    work(args) if work else 0, self.tag]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    mods = {m: importlib.import_module(f"outflow1d.{m}")
            for m in TRACED_MODULES}
    out = []
    for short, mod in mods.items():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{short}.{name}", None, name, obj))
    for short, cls_name, meth in TRACED_METHODS:
        cls = getattr(mods[short], cls_name)
        out.append((f"{short}.{cls_name}.{meth}", cls, meth,
                    cls.__dict__[meth]))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced callable through `tracer` until the block exits."""
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if name == "outflow1d" or name.startswith("outflow1d.")]
    patches = []
    try:
        for span_name, owner, attr, original in _targets():
            wrapped = tracer.wrap(span_name, original)
            if owner is not None:
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in namespaces:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per-name totals: calls, s (inclusive), self_s, work.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap on a single thread.
    Also returns ``root_s``, the summed duration of parentless spans, which
    equals the sum of every self time.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    by_name: dict = {}
    root_s = 0.0
    for i, sp in enumerate(spans):
        dur = sp[END] - sp[START]
        if sp[PARENT] < 0:
            root_s += dur
        agg = by_name.setdefault(sp[NAME], {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "work": 0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child[i]
        agg["work"] += sp[WORK_N]
    return {"by_name": by_name, "root_s": root_s}


def by_tag(spans, name: str) -> dict:
    """tag -> (seconds, work) over the spans called `name`."""
    out: dict = {}
    for sp in spans:
        if sp[NAME] == name:
            s, w = out.get(sp[TAG], (0.0, 0))
            out[sp[TAG]] = (s + sp[END] - sp[START], w + sp[WORK_N])
    return out


def calls_under(spans, name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    inside = [False] * len(spans)
    count = 0
    for i, sp in enumerate(spans):        # parents precede their children
        p = sp[PARENT]
        inside[i] = sp[NAME] == ancestor or (p >= 0 and inside[p])
        if sp[NAME] == name and p >= 0 and inside[p]:
            count += 1
    return count


def write_csv(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,parent,start,end,work,tag\n")
        for i, sp in enumerate(spans):
            fh.write("%d,%s,%d,%.9f,%.9f,%d,%s\n"
                     % (i, sp[NAME], sp[PARENT], sp[START], sp[END],
                        sp[WORK_N], sp[TAG]))
