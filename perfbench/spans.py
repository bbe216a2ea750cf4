"""In-memory spans for the traced benchmark pass.

The benchmark records one span around each op it sends into the program.
While a traced pass runs, it also replaces the functions that
``cdptradeoff.solver`` calls across module boundaries, as bound in that
module, with wrappers that record a child span per call.  The originals are
put back when the pass ends; no file of the program is changed.

A span is ``[span_id, parent_id, op_id, name, start_s, end_s]``; all spans of
one op share its ``op_id``.  No layer of the program has a queue or a thread,
so spans measure busy time only and no waiting time exists to record.
"""

from __future__ import annotations

import contextlib
import time

from cdptradeoff import solver

# Cross-module calls made by cdptradeoff.solver, by the name it binds them to.
WRAPPED = ("linprog", "push_forward", "bayes_error", "error_rate", "expected_distortion", "divergence")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, self._op, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, name: str, fn):
        """Run ``fn`` as op ``op_id`` inside a root span."""
        self._op = op_id
        span = self._open(name)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the solver's cross-module calls for the duration of the block."""
        originals = {name: getattr(solver, name) for name in WRAPPED}
        try:
            for name, fn in originals.items():
                setattr(solver, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(solver, name, fn)

    def ms_by_name(self) -> dict:
        """Total milliseconds and call count of the child spans, by name."""
        out = {}
        for _, parent, _, name, start, end in self.spans:
            if parent is not None:
                ms, calls = out.get(name, (0.0, 0))
                out[name] = (ms + 1e3 * (end - start), calls + 1)
        return out

    def root_ms(self) -> dict:
        """Duration and self time in milliseconds of each op's root span, by op id.

        Self time is the root's duration minus the time covered by its direct
        children; the children of one root never overlap.
        """
        roots = {}
        for sid, parent, op_id, _, start, end in self.spans:
            if parent is None:
                roots[sid] = [op_id, 1e3 * (end - start), 1e3 * (end - start)]
        for _, parent, _, _, start, end in self.spans:
            if parent in roots:
                roots[parent][2] -= 1e3 * (end - start)
        return {op_id: (total, own) for op_id, total, own in roots.values()}
