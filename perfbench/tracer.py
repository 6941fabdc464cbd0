"""Span tracer that wraps program functions from outside the package.

Each function is replaced at the module attribute through which its caller
looks it up at call time (``bcd.objective`` calls ``bcd.solve_inner``, so the
wrapper goes on ``drcontract.bcd.solve_inner``).  The package itself is never
edited.

Spans are kept in memory and written out when the run ends.  Coarse spans
(training, scoring, the oracle, writers, input generation) are kept as full
records ``(id, name, start, end, parent_id, self, ok)``; hot leaf spans (about
1.5 million on ``bench-grid``) are aggregated per ``(name, parent name)``.
A span's self time is its duration minus the time its child spans cover.
Time the tracer spends in its own bookkeeping after a call returns is
charged to neither the span nor its parent.

A function that no longer exists is not an error: its layer is reported as
absent (null metrics) with a note, so the benchmark survives refactors that
delete or rename a traced function.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


class Tracer:
    """Installs wrappers, records spans and counters, and restores the
    original functions on ``uninstall``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open frames: [name, child_time, span_id]
        self.aggregate = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.spans = []  # full records of coarse spans
        self.counters = Counter()
        self.notes = []
        self.absent = set()  # span names whose every site is missing
        self._present = set()
        self._patched = []  # (module, attribute, original)
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def wrap(self, module_name, attr, name, *, keep=False, observe=None):
        """Replace ``module_name.attr`` by a wrapper recording span ``name``.

        ``keep`` stores each call as a full span record.  ``observe(args,
        kwargs, result)`` runs after a successful call to update counters.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.notes.append(f"{module_name}.{attr} not found: span {name!r} not recorded")
            if name not in self._present:
                self.absent.add(name)
            return
        self._present.add(name)
        self.absent.discard(name)
        setattr(module, attr, self._make_wrapper(original, name, keep, observe))
        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrapped_sites(self):
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._patched]

    def _make_wrapper(self, original, name, keep, observe):
        stack = self.stack
        aggregate = self.aggregate
        spans = self.spans
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = -1
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                key = (name, parent[0] if parent is not None else None)
                rec = aggregate.get(key)
                if rec is None:
                    rec = aggregate[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if keep:
                    spans.append(
                        (span_id, name, t0, t1, _kept_parent(stack), dur - frame[1], ok)
                    )
                if parent is not None:
                    parent[1] += dur
            if observe is not None:
                observe(args, kwargs, result)
            if parent is not None:
                parent[1] += clock() - t1  # keep bookkeeping out of the parent's self time
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- results ------------------------------------------------------------

    def layer(self, name):
        """(calls, total_s, self_s) summed over parents, or None if absent."""
        if name in self.absent:
            return None
        calls, total, self_s = 0, 0.0, 0.0
        for (span, _), (c, t, s) in self.aggregate.items():
            if span == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def dump(self):
        """Plain-data form of everything recorded, for a JSON file."""
        return {
            "aggregate": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.aggregate.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p, "self_s": s, "ok": ok}
                for i, n, a, b, p, s, ok in self.spans
            ],
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
            "notes": list(self.notes),
        }


def _kept_parent(stack):
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return None
