"""Per-layer timing from outside the program.

:class:`LayerTrace` replaces public functions and methods of the program
with timing wrappers at run time, from the benchmark's own files; the
program's source is never touched.  A function is replaced in every
loaded module of the program that bound it (``from x import f`` copies
the reference), so calls through any import path are counted.

Each wrapper counts calls and sums the time of the outermost call per
thread (a function that recurses into itself is timed once).  Kernel
runs of the :class:`~calibration.Calibrator` that fall inside a call are
subtracted, so interleaving the kernel at ``Adam.step`` does not inflate
the layers that enclose it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

__all__ = ["LayerTrace"]


class LayerTrace:
    """Installs timing wrappers; :meth:`remove` restores the originals."""

    def __init__(self, calibrator) -> None:
        self._calibrator = calibrator
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Per-call seconds of the layers registered with ``per_call``.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Per-call values returned by an ``observe`` hook.
        self.observed: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    def function(self, module_name: str, attr: str, name: str, *,
                 per_call: bool = False, observe=None) -> None:
        """Wrap ``module_name.attr`` in every loaded module that bound it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrapper(original, name, per_call, observe)
        for module in list(sys.modules.values()):
            module_vars = getattr(module, "__dict__", None)
            if not module_vars or not getattr(
                    module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(module_vars.items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def method(self, cls: type, attr: str, name: str, *,
               per_call: bool = False, observe=None) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, per_call, observe))

    def remove(self) -> None:
        """Restore every wrapped function and method."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def reset(self) -> None:
        """Forget what was recorded so far (the wrappers stay)."""
        with self._lock:
            self.seconds.clear()
            self.calls.clear()
            self.samples.clear()
            self.observed.clear()

    # ------------------------------------------------------------------
    def _depths(self) -> dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def _wrapper(self, original, name: str, per_call: bool, observe):
        trace = self
        calibrator = self._calibrator

        @functools.wraps(original)
        def timed(*args, **kwargs):
            depths = trace._depths()
            outer = depths.get(name, 0) == 0
            depths[name] = depths.get(name, 0) + 1
            kernel_before = calibrator.total
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                elapsed -= calibrator.total - kernel_before
                depths[name] -= 1
                with trace._lock:
                    trace.calls[name] += 1
                    if outer:
                        trace.seconds[name] += elapsed
                        if per_call:
                            trace.samples[name].append(elapsed)
            if observe is not None:
                value = observe(result)
                with trace._lock:
                    trace.observed[name].append(value)
            return result

        return timed
