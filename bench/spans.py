"""Spans around tumordyn's public functions, recorded from outside the package.

Each wrapper is installed where the caller looks the name up: `models`
imports `value_and_grad` by name, so the span goes on
`models.value_and_grad` as well as on `neuralnet.value_and_grad`. Spans are
kept in memory as (name, start, end, parent) and reduced when a round ends;
a layer's self time is its span minus the spans of its children. A hook
that counts work (tape nodes, RK4 steps, CSV rows, bytes) runs in a span of
its own that is subtracted from its parent and reported nowhere, so
counting adds to the traced wall time but not to any layer.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter, defaultdict

# span name -> every (module, attribute) through which a caller reaches it
HOOKS = {
    "neuralnet.value_and_grad": (("models", "value_and_grad"), ("neuralnet", "value_and_grad")),
    "autodiff.backward": (("autodiff", "backward"),),
    "neuralnet.adam_update": (("models", "adam_update"), ("neuralnet", "adam_update")),
    "models.train": (("models", "train"), ("forecast", "train")),
    "forecast.forecast": (("forecast", "forecast"),),
    "models.solve": (("models", "solve"), ("forecast", "solve"), ("symrec", "solve")),
    "odeint.solve_fixed_grid": (("models", "solve_fixed_grid"), ("odeint", "solve_fixed_grid")),
    "symrec.sample_physical_derivatives": (("symrec", "sample_physical_derivatives"),),
    "symrec.sparse_regress": (("symrec", "sparse_regress"),),
    "dataio.load_series": (("dataio", "load_series"),),
    "dataio.fit_sigmoid": (("dataio", "fit_sigmoid"),),
    "models.save_model": (("models", "save_model"),),
    "models.load_model": (("models", "load_model"),),
    "svgplot.emit_plot": (("cli", "emit_plot"), ("svgplot", "emit_plot")),
}

_HIDDEN = "trace.hook"  # span of a counting hook; subtracted, never reported

STAGES = ("interpolate", "gompertz", "train-node", "train-ude", "forecast", "recover-neural_ode", "recover-ude")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def count_nodes(root) -> int:
    """Distinct tape nodes reachable from `root` through `.parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Installs span wrappers on the package's modules and reduces them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        self._csv_rows: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.tape_nodes: list[int] = []

    # --- installation ------------------------------------------------

    def install(self) -> None:
        for span, sites in HOOKS.items():
            for module_name, attr in sites:
                module = self.modules.get(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    # a later layout may drop a layer; its metrics then read 0
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def _hook(self, fn, *args) -> None:
        index = self._open(_HIDDEN)
        start = time.perf_counter()
        fn(*args)
        self._close(index, start, time.perf_counter())

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            index = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, start, time.perf_counter())
                if after is not None:
                    self._hook(after, args, kwargs)

        return wrapper

    # --- counting hooks ----------------------------------------------

    def _before_autodiff_backward(self, args, kwargs) -> None:
        self.tape_nodes.append(count_nodes(_arg(args, kwargs, 0, "root")))

    def _before_odeint_solve_fixed_grid(self, args, kwargs) -> None:
        self.counters["odeint.rk4_steps"] += int(_arg(args, kwargs, 4, "n_steps"))

    def _before_dataio_load_series(self, args, kwargs) -> None:
        path = os.fspath(_arg(args, kwargs, 0, "path"))
        if path not in self._csv_rows:
            with open(path, encoding="utf-8") as fh:
                lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
            self._csv_rows[path] = max(len(lines) - 1, 0)  # minus the header
        self.counters["dataio.csv_rows_parsed"] += self._csv_rows[path]

    def _before_models_load_model(self, args, kwargs) -> None:
        self.counters["models.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_models_save_model(self, args, kwargs) -> None:
        path = _arg(args, kwargs, 1, "path")
        if os.path.exists(path):
            self.counters["models.checkpoint_bytes"] += os.path.getsize(path)

    # --- reduction -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        total: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
            total[name] += end - start
            calls[name] += 1

        vag = "neuralnet.value_and_grad"
        m = {
            f"{vag}.s": total[vag],  # inclusive: forward tape plus backward
            f"{vag}.calls": calls[vag],
            "neuralnet.tape_forward.s": own[vag],
            "autodiff.backward.s": own["autodiff.backward"],
            "autodiff.tape_nodes": statistics.median(self.tape_nodes) if self.tape_nodes else 0,
        }
        for name in (
            "neuralnet.adam_update",
            "models.train",
            "forecast.forecast",
            "models.solve",
            "odeint.solve_fixed_grid",
            "symrec.sample_physical_derivatives",
            "symrec.sparse_regress",
            "dataio.load_series",
            "dataio.fit_sigmoid",
            "models.save_model",
            "models.load_model",
            "svgplot.emit_plot",
        ):
            m[f"{name}.s"] = own[name]
            m[f"{name}.calls"] = calls[name]
        for name in ("odeint.rk4_steps", "dataio.csv_rows_parsed", "models.checkpoint_bytes"):
            m[name] = self.counters[name]
        return m
