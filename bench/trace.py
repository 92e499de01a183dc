"""Spans around calls into specdown's public functions, recorded from outside.

The benchmark never edits the package.  Instead it rebinds a public
function's name, in every ``specdown`` module that holds it, to a wrapper
that times each call and counts it.  Modules import functions by name
(``from .fileio import read_grid``), so the wrapper has to replace every
such binding; matching on identity finds them all and survives refactors
that move a call site from one module to another.
"""

from __future__ import annotations

import functools
import sys
import time


class Spans:
    """Per traced name (optionally split by a key): calls, inclusive
    seconds and work items; plus failed calls."""

    def __init__(self):
        self.calls: dict = {}
        self.seconds: dict = {}
        self.items: dict = {}
        self.failures: list = []

    def add(self, name, seconds, key=None, items=0):
        for k in (name, (name, key)) if key is not None else (name,):
            self.calls[k] = self.calls.get(k, 0) + 1
            self.seconds[k] = self.seconds.get(k, 0.0) + seconds
            self.items[k] = self.items.get(k, 0) + items

    def per_call(self, name):
        """Mean seconds per call, or None when there was no call."""
        n = self.calls.get(name, 0)
        return self.seconds[name] / n if n else None

    def per_item(self, name):
        """Seconds per work item, or None when there was none."""
        n = self.items.get(name, 0)
        return self.seconds[name] / n if n else None


class Tracer:
    """Installs wrappers once; ``spans`` is the recorder they write to.

    Assign a fresh :class:`Spans` to start a new phase (the workload pass,
    then each probe) so that phases never mix.
    """

    def __init__(self):
        self.spans = Spans()
        self._restore: list = []

    def wrap(self, module, attr, name=None, key=None, items=None):
        """Trace ``module.attr`` under ``name`` wherever specdown binds it.

        ``key(args, kwargs)`` also books the call under ``(name, key)``;
        ``items(args, kwargs)`` counts the work items it was given.
        A call that raises is booked as a failure
        with its error type and the exception propagates unchanged.
        """
        original = getattr(module, attr)
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans = tracer.spans
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                spans.failures.append((name, type(exc).__name__))
                raise
            spans.add(
                name,
                time.perf_counter() - t0,
                key(args, kwargs) if key else None,
                items(args, kwargs) if items else 0,
            )
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "specdown" or mod_name.startswith("specdown."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)
                        self._restore.append((mod, binding, original))
        return traced

    def uninstall(self):
        for mod, binding, original in reversed(self._restore):
            setattr(mod, binding, original)
        self._restore.clear()
