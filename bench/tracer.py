"""Outside-in tracer: times nzcgraph's public functions without editing them.

`install` wraps every public function of the package's modules, plus a few
methods, and rebinds each wrapper at every module-global binding site: the
defining module, modules that imported the name with ``from .x import``,
the package namespace, and module-level dicts such as the CLI's command
table. Calls through a module attribute (``sym.aut_group_oracle``) then
reach the wrapper too.

Each call records a span: name, start, end, parent span and the exception
that passed through it, if any. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

MODULES = ("vectorspace", "graph", "symmetry", "distinguishing", "serialize",
           "verify", "cli", "reporting")
METHODS = ("graph.NzcGraph.adjacency_matrix", "symmetry.AutGroup.check_group_axioms",
           "symmetry.AutGroup.orbits", "symmetry.AutGroup.set_equal",
           "reporting.CheckReport.format_line", "reporting.CheckReport.to_dict")
# Helpers called once per vertex or per permutation stay unwrapped: their
# cost belongs to the caller's self time, and a wrapper would dwarf them.
UNWRAPPED = {"vectorspace.vector_from_id", "vectorspace.vector_id",
             "vectorspace.skeleton", "vectorspace.skeleton_class",
             "vectorspace.skeleton_indices", "vectorspace.mask_from_indices",
             "vectorspace.basis_vector", "vectorspace.format_vector",
             "graph.degree", "symmetry.identity_perm", "symmetry.compose",
             "symmetry.inverse", "symmetry.is_permutation"}

# Counts read from return values, summed per function.
COUNTERS = {
    "symmetry.aut_group_structural": ("elements", lambda grp: grp.order),
    "symmetry.aut_group_oracle": ("elements", lambda grp: grp.order),
    "distinguishing.structural_survivors": ("survivors", len),
    "distinguishing.find_color_preserving": ("witnesses", lambda w: int(w is not None)),
    "serialize.graph_to_dict": ("edges", lambda d: len(d["edges"])),
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, phase, exception name, count]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = -1
        self.wrapped: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.phase, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and rebind them everywhere."""
        originals = {}
        for mod in MODULES:
            module = importlib.import_module(f"nzcgraph.{mod}")
            for attr, obj in vars(module).items():
                name = f"{mod}.{attr}"
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__ and name not in UNWRAPPED):
                    originals[obj] = self.wrap(name, obj)
                    self.wrapped.append(name)
        for name in METHODS:
            mod, cls_name, attr = name.split(".")
            cls = getattr(importlib.import_module(f"nzcgraph.{mod}"), cls_name, None)
            fn = getattr(cls, attr, None)
            if isinstance(fn, types.FunctionType):
                setattr(cls, attr, self.wrap(name, fn))
                self.wrapped.append(name)
        for modname, module in list(sys.modules.items()):
            if modname != "nzcgraph" and not modname.startswith("nzcgraph."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    setattr(module, attr, originals[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if isinstance(value, types.FunctionType) and value in originals:
                            obj[key] = originals[value]

    def summary(self, passes: int) -> dict:
        """Per-function totals over the measured passes, divided by `passes`.

        Self time is a span's duration minus the durations of its direct
        children; spans made during set-up (phase -1) are kept apart.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_pass: dict[str, dict] = {}
        setup: dict[str, float] = {}
        for i, (name, start, end, _parent, phase, exc, count) in enumerate(self.spans):
            own = end - start - child[i]
            if phase < 0:
                setup[name] = setup.get(name, 0.0) + own
                continue
            row = per_pass.setdefault(name, {"self_s": 0.0, "calls": 0, "raised": 0})
            row["self_s"] += own
            row["calls"] += 1
            row["raised"] += exc is not None
            if count is not None:
                key = COUNTERS[name][0]
                row[key] = row.get(key, 0) + count
        for row in per_pass.values():
            for key in row:
                row[key] /= passes
        return {"per_pass": per_pass, "setup_self_s": setup}
