"""Span tracer that wraps heatlaser's public functions from outside the package.

The package binds names at import (``cli`` does ``from .solver import
solve_model``), so wrapping a function only in its defining module misses
calls made through the other bindings.  ``Tracer.install`` therefore replaces
every binding of each traced function in every loaded ``heatlaser`` module,
and ``uninstall`` puts the originals back.  Spans (name, start, end, parent)
stay in memory until the run ends.

Run ``python3 perfbench/tracer.py`` to self-test the self-time arithmetic.
"""

from __future__ import annotations

import importlib
import sys
import time

MARK = "__perfbench_span__"


def _liouvillian_attrs(matrix):
    return {
        "nnz": int(matrix.nnz),
        "dim": int(matrix.shape[0]),
        "bytes": int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes),
    }


# (defining module, function, summary of the return value kept on the span)
LAYERS = (
    ("heatlaser.cli", "main", None),
    ("heatlaser.cli", "load_config", None),
    ("heatlaser.cli", "cmd_sweep", None),
    ("heatlaser.cli", "run_sweep", None),
    ("heatlaser.cli", "cmd_distribution", None),
    ("heatlaser.solver", "solve_model", lambda r: {"n_max": r[0].n_max}),
    ("heatlaser.core", "build_liouvillian", _liouvillian_attrs),
    ("heatlaser.solver", "steady_state", lambda r: {"method": r.method}),
    ("heatlaser.solver", "partial_trace_atom", None),
    ("heatlaser.solver", "photon_distribution", None),
    ("heatlaser.solver", "wigner", lambda r: {"grid_points": int(r.values.size)}),
    ("heatlaser.photonstats", "scully_lamb_coefficients", None),
    ("heatlaser.photonstats", "distribution_moments", None),
    ("heatlaser.photonstats", "steady_distribution", None),
    ("heatlaser.semiclassical", "lasing_gain", None),
    ("heatlaser.semiclassical", "population_inversion", None),
)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "heatlaser" or n.startswith("heatlaser.")]


def installed_wrappers() -> list[str]:
    """Bindings in loaded heatlaser modules that are still tracer wrappers."""
    return sorted(
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, MARK)
    )


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, summarize):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span["attrs"] = summarize(result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, layers=LAYERS):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for module_name, func_name, summarize in layers:
            original = getattr(importlib.import_module(module_name), func_name)
            name = module_name.removeprefix("heatlaser.") + "." + func_name
            wrapper = self._wrap(name, original, summarize)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and return summaries.

    Inclusive seconds count only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    own = self_times(spans)
    stats: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        entry["calls"] += 1
        entry["self_s"] += own[index]
        if "attrs" in span:
            entry["attrs"].append(span["attrs"])
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] != span["name"]:
            parent = spans[parent]["parent"]
        if parent < 0:
            entry["s"] += span["end"] - span["start"]
    return stats


TIMED_LAYERS = (
    ("cli.load_config", "s"),
    ("cli.cmd_sweep", "self_s"),
    ("cli.run_sweep", "self_s"),
    ("cli.cmd_distribution", "self_s"),
    ("solver.solve_model", "self_s"),
    ("core.build_liouvillian", "s"),
    ("solver.steady_state", "s"),
    ("solver.partial_trace_atom", "s"),
    ("solver.photon_distribution", "s"),
    ("solver.wigner", "s"),
    ("photonstats.scully_lamb_coefficients", "s"),
    ("photonstats.distribution_moments", "s"),
    ("photonstats.steady_distribution", "s"),
    ("semiclassical.lasing_gain", "s"),
    ("semiclassical.population_inversion", "s"),
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run; a layer never called reads 0."""
    stats = summarize(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []}
    out = {f"{name}.{key}": stats.get(name, empty)[key] for name, key in TIMED_LAYERS}

    built = stats.get("core.build_liouvillian", empty)
    solved = stats.get("solver.solve_model", empty)
    steady = stats.get("solver.steady_state", empty)
    out["core.build_liouvillian.calls"] = built["calls"]
    out["core.build_liouvillian.nnz"] = sum(a["nnz"] for a in built["attrs"])
    out["core.build_liouvillian.dim_max"] = max((a["dim"] for a in built["attrs"]), default=0)
    out["core.build_liouvillian.bytes"] = max((a["bytes"] for a in built["attrs"]), default=0)
    out["solver.steady_state.evolution_frac"] = (
        sum(a["method"] == "evolution" for a in steady["attrs"]) / steady["calls"]
        if steady["calls"]
        else 0.0
    )
    out["solver.solve_model.retries"] = built["calls"] - solved["calls"]
    out["solver.solve_model.n_max_max"] = max((a["n_max"] for a in solved["attrs"]), default=0)
    out["solver.solve_model.useful_frac"] = (
        solved["calls"] / built["calls"] if built["calls"] else 0.0
    )
    out["solver.wigner.grid_points"] = sum(
        a["grid_points"] for a in stats.get("solver.wigner", empty)["attrs"]
    )
    return out


def self_test():
    """Check self time on hand-made spans, then wrap and unwrap a live module."""
    spans = [
        {"name": "a", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 3.0},
        {"name": "b", "parent": 0, "start": 2.0, "end": 5.0},  # overlaps the previous child
        {"name": "c", "parent": 0, "start": 7.0, "end": 12.0},  # runs past its parent's end
        {"name": "c", "parent": 3, "start": 8.0, "end": 9.0},  # re-enters c
    ]
    got = self_times(spans)
    want = [10.0 - 4.0 - 3.0, 2.0, 3.0, 4.0, 1.0]
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        raise AssertionError(f"self times {got}, expected {want}")
    stats = summarize(spans)
    if (stats["c"]["calls"], stats["c"]["s"], stats["c"]["self_s"]) != (2, 5.0, 5.0):
        raise AssertionError(f"summary of c: {stats['c']}")

    import types

    module = types.ModuleType("heatlaser._perfbench_selftest")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        tracer.install([(module.__name__, "inner", None), (module.__name__, "outer", None)])
        if module.outer(1) != 4:
            raise AssertionError("wrapped function changed its result")
        names = [(s["name"], s["parent"]) for s in tracer.spans]
        if names != [("_perfbench_selftest.outer", -1), ("_perfbench_selftest.inner", 0)]:
            raise AssertionError(f"span tree {names}")
    finally:
        tracer.uninstall()
        leftover = installed_wrappers()
        del sys.modules[module.__name__]
    if leftover:
        raise AssertionError(f"wrappers left after uninstall: {leftover}")


if __name__ == "__main__":
    self_test()
    print("tracer self-test passed")
