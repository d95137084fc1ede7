"""Span tracer that wraps losstrace's public functions from outside.

``from module import name`` binds a function in the importing module at
import time, so patching the defining module alone would miss most calls.
``Tracer.install`` therefore replaces every binding of each wrapped function
in every loaded ``losstrace`` module. Each call records a span; a span's
self time is its duration minus the durations of the wrapped calls it made.
Spans are aggregated in memory per (function, calling function).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# the modules whose public functions are wrapped; they name the layers
LAYERS = ("cli", "experiment", "filtering", "models", "nn", "data", "metrics")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(tracer: "Tracer", args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "x"))


def _windows(tracer: "Tracer", args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "windows"))


def _timesteps(tracer: "Tracer", args, kwargs, result) -> int:
    return _arg(args, kwargs, 1, "series").length


def _fit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.fits.append([result.epochs_run, result.best_epoch])


def _discard(tracer: "Tracer", args, kwargs, result) -> None:
    windows = _arg(args, kwargs, 1, "windows")
    discard = result[1].discard
    if result[1].method != "vanilla":
        tracer.discards.append(
            [len(windows), int(discard.size), int(windows.flags[discard].sum())]
        )


# per-function observers: a returned number is summed into counts[name]
OBSERVERS = {
    "nn.forward_batch": _rows,
    "models.sample_losses": _windows,
    "models.anomaly_scores": _timesteps,
    "models.fit": _fit,
    "filtering.robust_train": _discard,
}
# functions whose every call duration is kept
DURATIONS = ("experiment.run_cell",)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {n: [] for n in DURATIONS}
        self.fits: list[list[int]] = []  # [epochs_run, best_epoch] per fit
        self.discards: list[list[int]] = []  # [windows, discarded, flagged]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package: str = "losstrace") -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        durations = self.durations.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0.0]  # name, time spent in wrapped callees
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if caller is not None:
                    caller[1] += elapsed
                key = (name, caller[0] if caller is not None else "")
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if durations is not None:
                durations.append(elapsed)
            if observe is not None:
                counted = observe(self, args, kwargs, result)
                if counted is not None:
                    self.counts[name] = self.counts.get(name, 0) + counted
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "spans": [[name, caller, *entry]
                      for (name, caller), entry in sorted(self.spans.items())],
            "counts": self.counts,
            "durations": self.durations,
            "fits": self.fits,
            "discards": self.discards,
        }
