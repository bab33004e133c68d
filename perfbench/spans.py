"""Span tracing of liftlab's public functions, from outside the package.

``Tracer.install`` wraps every public module-level function of every
liftlab module and patches the wrapper into each liftlab namespace that
imported the original, so ``liftlab.sim.rk4_step`` and
``liftlab.verify.discretize`` are traced as well as their home modules.
The ``rhs`` argument of ``grid.rk4_step`` (a model's compiled plan) is
traced as ``grid.rhs``.

Spans are aggregated in memory per function: calls, inclusive seconds
and self seconds (the span minus the time its child spans cover).  A
nested re-entry of a function already open on the stack opens no span,
so recursion counts once.  Individual spans are not stored: hot kernel
functions run millions of times per cycle.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types

HOME = "liftlab"
# plain functions and lru_cache-wrapped ones (canonicalize, is_rational, ...)
TRACEABLE = (types.FunctionType, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self._stack: list[list[float]] = []
        self._active: set[str] = set()

    def wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, clock = self._stack, self._active, time.perf_counter

        def span(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(name)
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        functools.update_wrapper(span, fn)
        return span

    def install(self) -> None:
        """Wrap and patch every public function of every liftlab module."""
        package = importlib.import_module(HOME)
        modules = [package] + [importlib.import_module(f"{HOME}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not isinstance(value, TRACEABLE) \
                        or value.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "grid.rk4_step":
                    wrappers[id(value)] = self.wrap(name, self._rk4_wrapper(value))
                else:
                    wrappers[id(value)] = self.wrap(name, value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, TRACEABLE) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def _rk4_wrapper(self, rk4_step):
        wrap = self.wrap

        def rk4_traced(state, rhs, *args, **kwargs):
            return rk4_step(state, wrap("grid.rhs", rhs), *args, **kwargs)

        return functools.update_wrapper(rk4_traced, rk4_step)
