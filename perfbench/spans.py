"""Span tracer: times calls into the stack's layers from outside.

The tracer wraps public functions of the program (class methods and
module functions) for the duration of one traced episode and restores
them afterwards.  Each call records a span: its name, start, end and the
span that was open when it began (its parent).  Spans stay in memory in
flat integer arrays and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span sum to the traced time the
spans cover, and each layer is charged only for its own code.

Keep counts out of the traced run.  The packet arenas
(``repro.sim.arena``) recycle an object only when ``sys.getrefcount``
shows no holder beyond the datapath's own references; a wrapper frame
that holds a packet argument is such a holder, so under tracing the
arenas stop recycling.  The event-pool and arena counters, and every
other count, are therefore read from the untraced episode; only the
``*_s`` self times and span call counts come from this tracer.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: (owner, attribute, span name): owner is a class or a module.
Target = Tuple[object, str, str]


class SpanTracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self, targets: List[Target]) -> None:
        """Wrap every target in place; :meth:`uninstall` puts them back."""
        for owner, attr, name in targets:
            original = owner.__dict__[attr]  # a plain function
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self.name_id)

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, summed self seconds, summed total seconds)."""
        n = len(self.name_id)
        child_ns = array("q", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for index in range(n):
            up = parent[index]
            if up >= 0:
                child_ns[up] += end[index] - start[index]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for index, name_id in enumerate(self.name_id):
            duration = end[index] - start[index]
            calls[name_id] += 1
            self_ns[name_id] += duration - child_ns[index]
            total_ns[name_id] += duration
        return {name: (calls[i], self_ns[i] / 1e9, total_ns[i] / 1e9)
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays raw.

        Array order and type codes are in the header; each array holds
        ``count`` machine-order items (start/end are perf_counter_ns).
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = [("name_id", self.name_id), ("parent", self.parent),
                   ("start_ns", self.start), ("end_ns", self.end)]
        header = {"names": self.names, "count": len(self.name_id),
                  "columns": [[label, column.typecode]
                              for label, column in columns]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _, column in columns:
                column.tofile(out)
