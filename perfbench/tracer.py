"""In-memory spans around the public functions of the irs_secrecy modules.

The tracer swaps each listed function for a timing wrapper in every module
namespace that binds it (``from .sca import run_sca`` gives ``orchestrator``
a second binding), so calls between layers are seen without editing the
package; :meth:`Tracer.uninstall` puts the originals back. Counts are read
from the public return values (``SolverReport``, ``RunHistory``), plus
``numpy.linalg`` eigendecompositions made while ``convex_inner.solve`` is
the innermost open span.

A trace run is one top-level call into the package (one ``optimize``). Its
spans share a run id; :meth:`Tracer.end_run`, called
outside the timed region, derives self times (span duration minus the time
covered by its direct children) and appends the spans to a CSV file.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "irs_secrecy"

# (module, public function) pairs whose calls become spans
SPANNED = (
    ("channels", "normalize"),
    ("metrics", "secrecy_rates"),
    ("metrics", "objective_value"),
    ("sca", "run_sca"),
    ("sca", "build_subproblem"),
    ("sca", "extract_rank_one"),
    ("convex_inner", "solve"),
    ("manifold", "run_cg"),
    ("orchestrator", "optimize"),
)
PHASE_OBJECTIVE_EVALS = ("value", "value_batch", "euclidean_grad")
EIGH_FUNCS = ("eigh", "eigvalsh")


def _count_solve(counts, result):
    report = result[1]
    counts["convex_inner.iterations"] += report.iterations
    counts["convex_inner.cap_hits"] += report.status == "max_iters"
    counts["convex_inner.failures"] += report.status == "numerical_failure"


def _count_sca(counts, result):
    history = result[1]
    counts["sca.rounds"] += len(history.records) - 1
    counts["sca.cap_hits"] += history.status == "max_iters"


def _count_cg(counts, result):
    history = result[1]
    counts["manifold.iterations"] += len(history.records) - 1
    counts["manifold.zero_iter_exits"] += len(history.records) == 1
    counts["manifold.stalls"] += history.status == "line_search_stagnation"


def _count_alternation(counts, result):
    history = result[1]
    counts["orchestrator.runs"] += 1
    counts["orchestrator.outer_rounds"] += max(r.iteration for r in history.records)
    counts["orchestrator.outer_cap_hits"] += history.status == "max_iters"


ON_RETURN = {
    "convex_inner.solve": _count_solve,
    "sca.run_sca": _count_sca,
    "manifold.run_cg": _count_cg,
    "orchestrator.optimize": _count_alternation,
}


class Tracer:
    """Spans and counters for one benchmark process; install, run, uninstall."""

    def __init__(self, spans_path):
        self.spans_path = spans_path
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._spans = []  # [span_id, name, start, end, parent] of the open run
        self._stack = []  # span ids of the open spans, innermost last
        self._run_id = 0
        self._patches = []  # (namespace, attribute, original)
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent,name,start,end\n")

    # -- spans ---------------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, counts = self._spans, self._stack, self.counts
        on_return = ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            record = [span_id, name, time.perf_counter(), 0.0, parent]
            spans.append(record)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn, only_inside=None):
        spans, stack, counts = self._spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if only_inside is None or (stack and spans[stack[-1]][1] == only_inside):
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, namespace, attr, new):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            m for n, m in sys.modules.items() if n.startswith(PACKAGE + ".")
        ]
        for mod_name, func_name in SPANNED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), func_name)
            wrapper = self._span(f"{mod_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        phase_objective = importlib.import_module(f"{PACKAGE}.manifold").PhaseObjective
        self._patch(
            phase_objective,
            "__init__",
            self._span("manifold.PhaseObjective", phase_objective.__init__),
        )
        for method in PHASE_OBJECTIVE_EVALS:
            self._patch(
                phase_objective,
                method,
                self._counter("manifold.objective_evals", getattr(phase_objective, method)),
            )
        for func in EIGH_FUNCS:
            self._patch(
                np.linalg,
                func,
                self._counter(
                    "convex_inner.eigh_calls",
                    getattr(np.linalg, func),
                    only_inside="convex_inner.solve",
                ),
            )

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- runs ------------------------------------------------------------------
    def end_run(self) -> None:
        """Fold the finished run's spans into self times and write them out."""
        if self._stack:
            raise RuntimeError("end_run called with spans still open")
        spans = self._spans
        child_s = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (span_id, name, start, end, _), covered in zip(spans, child_s):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - covered
        with open(self.spans_path, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in spans:
                fh.write(f"{self._run_id},{span_id},{parent},{name},{start!r},{end!r}\n")
        spans.clear()
        self._run_id += 1

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over the spans of every function of one module."""
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))
