"""Spans and counts at the program's module boundaries, recorded from outside.

The program imports functions by name (`from searesponse.simulator import
simulate`), so a wrapper must replace every reference: each module global
and each module-level dict value (such as a table of fitters) that holds the
original. `install` does that across all loaded `searesponse` modules and
`remove` puts the originals back. A target that no longer exists is
skipped, so its metrics read zero.

Spans live in memory as (name, start, end, parent index) and are written
out once, by `write`, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, weight). An attribute "Class.method"
# wraps a method; the weight, if any, adds a per-call amount to the span's
# work count. Spans cover the public functions of each layer plus the
# scipy Cholesky call at gp's boundary.
TARGETS = (
    ("searesponse.weather", "load_weather", "weather.load", None),
    ("searesponse.weather", "synthesize_weather", "weather.synth", None),
    ("searesponse.simulator", "simulate", "simulator.simulate", "peaks"),
    ("searesponse.simulator", "wave_spectrum", "simulator.wave_spectrum", None),
    ("searesponse.simulator", "response_spectrum", "simulator.response_spectrum", None),
    ("searesponse.simulator", "realize_time_series", "simulator.realize", None),
    ("searesponse.simulator", "wind_moment", "simulator.wind", None),
    ("searesponse.simulator", "extract_peaks", "simulator.extract_peaks", None),
    ("searesponse.distfit", "fit_gumbel", "distfit.fit", None),
    ("searesponse.distfit", "fit_rayleigh", "distfit.fit", None),
    ("searesponse.distfit", "fit_weibull", "distfit.fit", None),
    ("searesponse.distfit", "build_training_table", "distfit.table", None),
    ("searesponse.gp", "fit_hyperparams", "gp.fit_hyperparams", None),
    ("searesponse.gp", "train", "gp.train", None),
    ("searesponse.gp", "cholesky", "gp.cholesky", None),
    ("searesponse.gp", "predict_batch", "gp.predict_batch", "rows"),
    ("searesponse.gp", "predict", "gp.predict", None),
    ("searesponse.surrogate", "train_surrogate", "surrogate.train", None),
    ("searesponse.surrogate", "load_surrogate", "surrogate.load", None),
    ("searesponse.surrogate", "predict_moments_batch", "surrogate.moments", None),
    ("searesponse.surrogate", "generate_from_moments", "surrogate.draw", "peaks"),
    ("searesponse.seeding", "derive_seed", "seeding.derive", None),
    ("searesponse.orderstats", "run_qoi", "orderstats.sweep", None),
    ("searesponse.orderstats", "TopK.update", "orderstats.topk", "values"),
    ("searesponse.cli", "main", "cli.main", None),
)

_WEIGHTS = {
    "peaks": lambda args, result: len(getattr(result, "peaks", ())),
    "rows": lambda args, result: len(np.atleast_2d(args[1])),
    "values": lambda args, result: int(np.size(args[1])),
}


class Tracer:
    """Wraps the TARGETS while installed; counts numpy Generator
    constructions made through `numpy.random.default_rng`."""

    def __init__(self):
        self.spans: list = []
        self.weights: dict[str, int] = defaultdict(int)
        self.generators = 0
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.weights = defaultdict(int)
        self.generators = 0

    def _wrap(self, fn, name: str, weight):
        measure = _WEIGHTS[weight] if weight else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if measure is not None:
                self.weights[name] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_generators(self, fn):
        def wrapper(*args, **kwargs):
            self.generators += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "searesponse" or n.startswith("searesponse."))]
        for module_name, attr, name, weight in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    continue
                original = vars(cls)[method]
                self._set(cls, method, original, self._wrap(original, name, weight))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._replace_everywhere(modules, original, self._wrap(original, name, weight))
        import numpy.random as npr
        original = npr.default_rng
        wrapper = self._count_generators(original)
        self._set(npr, "default_rng", original, wrapper)
        self._replace_everywhere(modules, original, wrapper)

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append((value, dkey, original, True))

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original, False))

    def remove(self) -> None:
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, work count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        for name, amount in self.weights.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["work"] = amount
        return out

    def write(self, path) -> None:
        """One line per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
