"""In-memory span tracer that wraps qdgates functions from outside the package.

The package modules bind each other's functions with `from ... import`, so
wrapping a function in its defining module is not enough: every module
global that holds the same function object is replaced, and restored on
`uninstall`.  A span records (name, start, end, parent index); a layer's
self time is its spans' durations minus the durations of their direct
children.  Span names are "<layer>.<what>", the layer being the package
module the wrapped function lives in.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (defining module, attribute, span name); the root span of every
# operation is cli.main or calibration.calibrate_upsilon.
SPAN_TARGETS = (
    ("qdgates.cli", "main", "cli.main"),
    ("qdgates.config", "parse_config", "config.parse"),
    ("qdgates.config", "sweep_axis", "config.sweep_axis"),
    ("qdgates.device", "static_eigensystem", "device.eigensystem"),
    ("qdgates.noise", "build_collapse_set", "noise.collapse_build"),
    ("qdgates.lindblad", "evolve", "lindblad.evolve"),
    ("qdgates.lindblad", "liouvillian", "lindblad.liouvillian"),
    ("qdgates.operators", "partial_trace", "operators.partial_trace"),
    ("qdgates.analysis", "flip_time", "analysis.flip_time"),
    ("qdgates.analysis", "classify", "analysis.classify"),
    ("qdgates.analysis", "evaluate_point", "analysis.evaluate_point"),
    ("qdgates.analysis", "refine_boundary", "analysis.refine"),
    ("qdgates.analysis", "run_sweep", "analysis.run_sweep"),
    ("qdgates.calibration", "calibrate_upsilon", "calibration.bisect"),
)

LAYERS = ("config", "device", "noise", "lindblad", "operators", "analysis",
          "calibration", "cli")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qdgates" or name.startswith("qdgates."))]


class Patcher:
    """Replaces every package-global binding of a function and undoes it."""

    def __init__(self):
        self._undo = []

    def replace_function(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Wrap `module_name.attr` wherever a package module holds it.

        Returns False, patching nothing, when the module or attribute does
        not exist, so that a refactored package reads zero for it instead
        of stopping the benchmark.
        """
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)
        return True

    def replace_method(self, cls, attr: str, make_wrapper) -> bool:
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans around the package layers plus the counts read at the same calls."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._patcher = Patcher()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def install(self) -> None:
        import qdgates.calibration  # noqa: F401  loads every package module
        import qdgates.cli  # noqa: F401

        counts = self.counts

        def count_collapse_ops(build):
            def wrapper(*args, **kwargs):
                collapse = build(*args, **kwargs)
                counts["noise.collapse_ops"] += len(collapse)
                return collapse
            return wrapper

        def count_rhs_evals(solve_ivp):
            def wrapper(*args, **kwargs):
                result = solve_ivp(*args, **kwargs)
                counts["lindblad.rhs_evals"] += int(result.nfev)
                return result
            return wrapper

        def count_golden_evals(state_at):
            def wrapper(self, t):
                counts["analysis.golden_evals"] += 1
                return state_at(self, t)
            return wrapper

        # Counting wrappers go in first, so the span wrappers enclose them
        # and they add no spans of their own.
        self._patcher.replace_function("qdgates.noise", "build_collapse_set",
                                       count_collapse_ops)
        self._patcher.replace_function("qdgates.lindblad", "solve_ivp", count_rhs_evals)
        trajectory = getattr(sys.modules["qdgates.lindblad"], "Trajectory", None)
        if trajectory is not None:
            self._patcher.replace_method(trajectory, "state_at", count_golden_evals)
        for module_name, attr, name in SPAN_TARGETS:
            self._patcher.replace_function(
                module_name, attr, lambda fn, name=name: self._span(name, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "parents": Counter()})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["parents"][self.spans[parent][0] if parent >= 0 else ""] += 1
        return out


def count_calls(patcher: Patcher, module_name: str, attr: str) -> Counter:
    """Count completed calls of one package function in this process."""
    counter = Counter()

    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter[attr] += 1
            return result
        return wrapper

    patcher.replace_function(module_name, attr, make)
    return counter
