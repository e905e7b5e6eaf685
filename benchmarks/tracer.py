"""Span tracing of the fanet modules from outside the package.

`install` replaces every public function of every fanet module with a timing
wrapper. The wrap list comes from each module's ``__all__`` (or, for a module
without one, the public functions it defines), read at run time, so a function
that a later change merges or deletes simply stops producing metrics. Each
wrapper is installed where the function is defined and in every other fanet
module that holds it by name (``from .losses import validate_target``),
because those modules look the name up in their own namespace.

Spans nest on one stack. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the time spent inside top-level spans. Spans are aggregated per function in
memory; nothing is written while the program runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass


@dataclass
class FnStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-function call counts, inclusive and self times, plus probe counters."""

    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self.counters: dict[str, float] = {}
        self.top_s = 0.0  # time covered by top-level spans
        self._stack: list[list] = []  # [name, child seconds]

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls, s.incl_s, s.self_s = 0, 0.0, 0.0
        self.counters.clear()
        self.top_s = 0.0

    def wrap(self, name: str, fn, probe=None):
        stats = self.stats.setdefault(name, FnStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.incl_s += dur
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
            if probe is not None:
                probe(self, args, kwargs, result, dur)
            return result

        return traced


def package_modules(package) -> list:
    """The package's submodules, imported, in name order."""
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__))
    return [importlib.import_module(f"{package.__name__}.{n}") for n in names]


def public_functions(module) -> list[str]:
    """Names of the functions `module` exports and defines itself."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def install(tracer: Tracer, package, probes: dict) -> None:
    """Wrap the package's public functions in spans named "<module>.<function>".

    `probes` maps a span name ("losses.relation_loss") to a callable
    ``probe(tracer, args, kwargs, result, seconds)`` run after the span closes.
    """
    modules = package_modules(package)
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for n in public_functions(mod):
            fn = getattr(mod, n)
            span = f"{short}.{n}"
            wrappers[fn] = tracer.wrap(span, fn, probes.get(span))
    for mod in [package, *modules]:
        for n, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, n, wrappers[value])
