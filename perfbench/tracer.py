"""Span recorder that wraps ptbands' public functions from outside the package.

Every public module-level function of every ptbands module is replaced by
a wrapper that records (name, parent span, start, end, tags) in memory.
Self time is a span's duration minus the time its wrapped children cover.
Tags are extracted from arguments and results by small per-function
callbacks (matrix sizes, Newton iterations, bytes written).  Standard
library only, so the traced CLI child pays no import for it.
"""

import importlib
import inspect
import json
import os
import pkgutil
import threading
import time

# scipy.linalg.solve is the dense linear solve of the Newton step; it is
# reported under the gpsolve layer.
LINEAR_SOLVE = "gpsolve.linear_solve"


class Tracer:
    """Wraps ptbands functions while installed; spans stay in memory."""

    def __init__(self):
        self.spans = []          # (name, parent index or -1, t0, t1, tags)
        self._local = threading.local()
        self._patched = []       # (owner, attribute, original)
        self._eps_by_points = {}
        self._taggers = {
            "eigen.solve": lambda a, kw, r: {"n": int(a[0].entries.shape[0])},
            LINEAR_SOLVE: lambda a, kw, r: {"n": int(a[0].shape[0])},
            "gpsolve.newton_solve": self._tag_newton,
            "effective.build_ansatz": self._tag_ansatz,
            "cli.write_csv": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
            "cli.write_json": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
        }

    # -- tag callbacks -------------------------------------------------
    def _tag_ansatz(self, args, kwargs, result):
        eps, grid = args[2], args[3]
        self._eps_by_points[grid.n_points] = float(eps)
        return {"eps": float(eps)}

    def _tag_newton(self, args, kwargs, result):
        grid = args[4] if len(args) > 4 else kwargs["grid"]
        return {"iters": int(result.newton_iters), "points": int(grid.n_points),
                "eps": self._eps_by_points.get(grid.n_points)}

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        tagger = self._taggers.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                tags = None
                if tagger is not None:
                    try:
                        tags = tagger(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, OSError, TypeError):
                        tags = None
                spans[index] = (name, parent, t0, t1, tags)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every public function of every ptbands module (and scipy's solve)."""
        import ptbands
        import scipy.linalg

        modules = [ptbands] + [importlib.import_module(f"ptbands.{m.name}")
                               for m in pkgutil.iter_modules(ptbands.__path__)]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        self._patched.append((scipy.linalg, "solve", scipy.linalg.solve))
        scipy.linalg.solve = self._wrap(LINEAR_SOLVE, scipy.linalg.solve)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Sums over the spans: per-function calls, total and self seconds, work counts.

    Returns a flat dict keyed like 'eigen.solve.calls'; a function that never
    ran has no keys.  'bands.second_derivative.solves' counts the eigensolves
    made inside second_derivative and 'roots_s' the time covered by spans
    with no wrapped parent.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, tags in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    under_d2 = 0
    roots_s = 0.0
    for i, (name, parent, t0, t1, tags) in enumerate(spans):
        dur = t1 - t0
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + dur
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[i]
        if parent < 0:
            roots_s += dur
        tags = tags or {}
        if "n" in tags:
            out[f"{name}.n3_computed"] = out.get(f"{name}.n3_computed", 0) + tags["n"] ** 3
        if "bytes" in tags:
            out["cli.bytes_written"] = out.get("cli.bytes_written", 0) + tags["bytes"]
        if name == "gpsolve.newton_solve":
            out["gpsolve.newton_iters"] = out.get("gpsolve.newton_iters", 0) + tags.get("iters", 0)
            if tags.get("eps") is not None:
                key = f"gpsolve.newton_solve.self_s.eps{tags['eps']:g}"
                out[key] = out.get(key, 0.0) + dur - child_time[i]
        if name == "eigen.solve":
            p = parent
            while p >= 0:
                if spans[p][0] == "bands.second_derivative":
                    under_d2 += 1
                    break
                p = spans[p][1]
    out["bands.second_derivative.solves"] = under_d2
    out["roots_s"] = roots_s
    return out


def import_split(text):
    """Split `python -X importtime` output into (numpy/scipy s, ptbands s).

    The ptbands figure is the cumulative time of the top-level ptbands
    imports less the numpy and scipy packages loaded inside them; those are
    the outermost numpy/scipy entries before the last top-level ptbands line.
    """
    entries = []                 # (depth, name, cumulative us), in print order
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    roots = [i for i, (depth, name, _) in enumerate(entries)
             if depth == 0 and name.split(".")[0] == "ptbands"]
    if not roots:
        raise ValueError("no top-level ptbands import in the importtime output")
    entries = entries[:roots[-1] + 1]
    total = sum(entries[i][2] for i in roots)
    # lines are printed after their children, so walk backwards from each parent
    share, stack = 0, []         # stack: (depth, is numpy/scipy) of the ancestors
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ours = name.split(".")[0] in ("numpy", "scipy")
        if ours and not any(o for _, o in stack):
            share += cumulative
        stack.append((depth, ours))
    return share / 1e6, (total - share) / 1e6

