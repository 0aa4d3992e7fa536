"""Out-of-program tracing: spans and counters around calls into cvcluster.

The tracer replaces module-level names that callers look up at call time
(every alias of a function across the ``cvcluster`` modules, e.g. both
``executor.exact_replay`` and ``multimode.exact_replay``) with thin wrappers,
and puts the originals back on ``uninstall``.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent index, target id]``; spans stay in memory
and are written once, at the end of a run.  Hot functions get counters keyed
by the innermost open span instead.  A span's self time is its duration minus
the durations of its direct children (calls are nested and single-threaded,
so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

from cvcluster import executor, ir, multimode, serialize, simulator, single_mode, teleport

ROOT_SPAN = "target"

#: (owner, attribute, kind): kind "span" records every call, "count" only counts.
#: decompose_four_step is traced so that multimode.compile's self time
#: excludes the one-mode synthesis it calls.
TRACED = (
    (single_mode, "decompose_four_step", "span"),
    (single_mode, "select_free_kappa1", "span"),
    (single_mode, "noise_proxy", "count"),
    (teleport, "select_free_theta0", "span"),
    (teleport, "telep_noise_proxy", "count"),
    (multimode, "compile", "span"),
    (multimode, "bloch_messiah", "span"),
    (multimode, "reck_decompose", "span"),
    (executor, "exact_replay", "span"),
    (simulator, "run_program", "span"),
    (simulator, "homodyne_measure", "span"),
    (simulator, "extract_effective_map", "span"),
    (serialize, "save_program", "span"),
    (serialize, "load_program", "span"),
    (ir.MeasurementProgram, "validate", "span"),
)


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _program_rows_bytes(program) -> int:
    """Bytes of exact_replay's dense row matrix, 2(n+A) x (2n+2A+m) float64,
    computed from the program's size (not measured)."""
    n = program.n
    a = len(program.graph.ancilla_nodes())
    m = len(program.schedule)
    return 2 * (n + a) * (2 * n + 2 * a + m) * 8


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()  # (counter name, innermost span name) -> calls
        self.target_id = None
        self.max_state_modes = 0
        self.max_rows_bytes = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.target_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, target_id):
        """The root span of one target; spans opened inside carry its id."""
        self.target_id = target_id
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self.target_id = None

    def _observe(self, name: str, args) -> None:
        if name == "simulator.homodyne_measure":
            self.max_state_modes = max(self.max_state_modes, args[0].n)
        elif name == "executor.exact_replay":
            self.max_rows_bytes = max(self.max_rows_bytes, _program_rows_bytes(args[0]))

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._observe(name, args)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.spans[tracer.stack[-1]][0] if tracer.stack else None
            tracer.counts[(name, parent)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cvcluster" or k.startswith("cvcluster.")]
        for owner, attr, kind in TRACED:
            original = getattr(owner, attr)
            name = _span_name(owner, attr)
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose direct parent is named ``parent_name``."""
        return sum(
            1
            for span in self.spans
            if span[0] == name and span[3] >= 0 and self.spans[span[3]][0] == parent_name
        )

    def count(self, name: str, parent_name: str = None) -> int:
        """Counter calls, all of them or only those under ``parent_name``."""
        return sum(
            c for (n, p), c in self.counts.items() if n == name and (parent_name is None or p == parent_name)
        )

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "target"],
            "spans": self.spans,
            "counters": [[n, p, c] for (n, p), c in sorted(self.counts.items(), key=str)],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

