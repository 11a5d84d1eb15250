"""Spans around the program's layer functions, kept in memory, and the
per-layer metrics computed from them.

A traced run replaces module-level names that the program looks up at call
time (``addspec.gram.assemble``, ``addspec.additive_space.fourier_transform``,
``addspec.cli.scan_residual`` ...) with wrappers; the program itself is not
changed.  A span records operation id, name, parent span, start and end.
Functions called a few times per operation get one span per call.  The
per-entry functions of Gram assembly and quadrature run up to ~10^6 times per
operation, so their calls are summed per (parent span, name): a call count
and a total time.  A span's self time is its duration minus its child spans
and the summed calls directly under it.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _parsed(args, out):
    return {"points": len(out)}


def _assembled(args, out):
    s, pairs = args[0], tuple(args[1])
    return {"entries": len(pairs) ** 2, "matrix": hash((s, pairs))}


def _certified(args, out):
    sizes = args[2]
    return {
        "sections": len(sizes),
        "section_bytes": sum(16 * n * n for n in sizes),
        "null_vectors": int(out.null_combination is not None),
    }


def _scanned(args, out):
    return {"cells": args[3] ** 2}


# (module, attribute, span name, counter of work done in the call)
SPANS = (
    ("addspec.cli", "load_points", "exponents.parse", _parsed),
    ("addspec.cli", "multiplicity", "exponents.multiplicity", None),
    ("addspec.cli", "find_zigzag_loop", "exponents.loop_search", None),
    ("addspec.cli", "max_zigzag_length", "exponents.zigzag_length", None),
    ("addspec.cli", "project", "exponents.density", None),
    ("addspec.cli", "lower_beurling_density", "exponents.density", None),
    ("addspec.cli", "riesz_section_certificate", "gram.certificate", _certified),
    ("addspec.cli", "assemble", "gram.assemble", _assembled),
    ("addspec.gram", "assemble", "gram.assemble", _assembled),
    ("addspec.cli", "parseval_residual", "gram.parseval", None),
    ("addspec.cli", "collinear_failure_demo", "gram.collinear", None),
    ("addspec.cli", "scan_residual", "ortho_solver.scan", _scanned),
)

# (module, attribute, name) of the per-entry functions whose calls are summed
SUMMED = (
    ("addspec.gram", "exp_inner", "additive_space.exp_inner"),
    ("addspec.additive_space", "fourier_transform", "measures.transform"),
    ("addspec.additive_space", "measure_integral", "additive_space.quadrature"),
    ("addspec.additive_space", "measure_norm_sq", "additive_space.quadrature"),
)


class Tracer:
    """Spans of one benchmark run: ``[op, name, parent, start, end, counts]``."""

    def __init__(self):
        self.spans = []
        self.summed = {}  # (parent span, name, outermost) -> [calls, seconds]
        self.gl = [0, 0]  # Gauss-Legendre rule cache hits and misses
        self.op = 0
        self._stack = [-1]
        self._summed_depth = 0
        self._saved = []
        self._gl_start = None

    @contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield idx
        finally:
            self._end(idx)

    def _begin(self, name):
        self.spans.append([self.op, name, self._stack[-1], perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx):
        self.spans[idx][4] = perf_counter()
        self._stack.pop()

    def _wrap_span(self, fn, name, counter):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counter is not None:
                self.spans[idx][5] = counter(args, out)
            return out

        return traced

    def _wrap_summed(self, fn, name):
        summed = self.summed

        def traced(*args, **kwargs):
            outermost = self._summed_depth == 0
            self._summed_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._summed_depth -= 1
                acc = summed.setdefault((self._stack[-1], name, outermost), [0, 0.0])
                acc[0] += 1
                acc[1] += elapsed

        return traced

    def install(self):
        """Replace the traced names with wrappers until ``uninstall``."""
        for module, attr, name, counter in SPANS:
            mod, original = self._save(module, attr)
            setattr(mod, attr, self._wrap_span(original, name, counter))
        for module, attr, name in SUMMED:
            mod, original = self._save(module, attr)
            setattr(mod, attr, self._wrap_summed(original, name))
        self._gl_start = _gl_cache_info()

    def _save(self, module, attr):
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        return mod, original

    def uninstall(self):
        info = _gl_cache_info()
        self.gl[0] += info.hits - self._gl_start.hits
        self.gl[1] += info.misses - self._gl_start.misses
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def data(self):
        """Spans, summed calls and cache counts, for a parent run to merge."""
        return {"spans": self.spans, "summed": [[*k, *v] for k, v in self.summed.items()],
                "gl": self.gl}

    def merge(self, data, parent):
        """Add a child process's spans under the span ``parent`` of this run."""
        offset = len(self.spans)

        def remap(p):
            return parent if p == -1 else p + offset

        for _, name, p, start, end, counts in data["spans"]:
            self.spans.append([self.op, name, remap(p), start, end, counts])
        for p, name, outermost, calls, seconds in data["summed"]:
            acc = self.summed.setdefault((remap(p), name, outermost), [0, 0.0])
            acc[0] += calls
            acc[1] += seconds
        self.gl[0] += data["gl"][0]
        self.gl[1] += data["gl"][1]


def _gl_cache_info():
    return importlib.import_module("addspec.additive_space")._leggauss.cache_info()


# name -> unit; every value is per traced operation unless the unit says otherwise
LAYER_UNITS = {
    "measures.transform_calls": "count/op",
    "measures.transform_s": "s/op",
    "additive_space.exp_inner_calls": "count/op",
    "additive_space.exp_inner_s": "s/op",
    "gram.assemble_calls": "count/op",
    "gram.entries_assembled": "count/op",
    "gram.assemble_s": "s/op",
    "gram.assemble_self_s": "s/op",
    "gram.assemble_reuse_ratio": "ratio",
    "gram.certificate_self_s": "s/op",
    "gram.sections_solved": "count/op",
    "gram.null_vectors": "count/op",
    "gram.section_bytes_computed": "B/op",
    "additive_space.quadrature_calls": "count/op",
    "additive_space.quadrature_s": "s/op",
    "additive_space.gl_rules_built": "count/op",
    "additive_space.gl_rule_hit_ratio": "ratio",
    "gram.parseval_s": "s/op",
    "gram.collinear_s": "s/op",
    "exponents.points_parsed": "count/op",
    "exponents.parse_s": "s/op",
    "exponents.loop_search_s": "s/op",
    "exponents.zigzag_length_s": "s/op",
    "exponents.multiplicity_s": "s/op",
    "exponents.density_s": "s/op",
    "ortho_solver.scan_cells": "count/op",
    "ortho_solver.scan_s": "s/op",
    "cli.import_s": "s/process",
    "cli.process_overhead_s": "s/op",
    "cli.main_self_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s/op",
    "trace.coverage_ratio": "ratio",
}


def layer_metrics(tracer, import_s, overhead_ratio):
    """Per-layer metrics of the traced operations, each a mean per operation.

    ``import_s`` is the import time of the set-up processes, used where no
    traced process started (in-process workloads); ``overhead_ratio`` is
    the median over operations of the traced over the untraced scaled
    latency.  Ratios whose base is zero on a workload (no assembly, no
    quadrature) are reported as 0.
    """
    spans = tracer.spans
    children = defaultdict(float)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls, seconds = Counter(), defaultdict(float)
    direct = defaultdict(float)  # summed time directly under each span
    for (parent, name, outermost), (n, s) in tracer.summed.items():
        calls[name] += n
        seconds[name] += s
        if outermost and parent >= 0:
            children[parent] += s
            direct[parent] += s
    total, own, count, work = defaultdict(float), defaultdict(float), Counter(), Counter()
    matrices = set()
    covered = 0.0
    for i, (op, name, parent, start, end, counts) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[i]
        count[name] += 1
        for key, value in (counts or {}).items():
            if key == "matrix":
                matrices.add((op, value))
            else:
                work[key] += value
        if name in ("op", "cli.main"):
            covered += direct[i]
        elif parent >= 0 and spans[parent][1] in ("op", "cli.main"):
            covered += end - start
    n = max(count["op"], 1)
    hits, misses = tracer.gl
    assembles = count["gram.assemble"]
    return {
        "measures.transform_calls": calls["measures.transform"] / n,
        "measures.transform_s": seconds["measures.transform"] / n,
        "additive_space.exp_inner_calls": calls["additive_space.exp_inner"] / n,
        "additive_space.exp_inner_s": seconds["additive_space.exp_inner"] / n,
        "gram.assemble_calls": assembles / n,
        "gram.entries_assembled": work["entries"] / n,
        "gram.assemble_s": total["gram.assemble"] / n,
        "gram.assemble_self_s": own["gram.assemble"] / n,
        "gram.assemble_reuse_ratio": len(matrices) / assembles if assembles else 0.0,
        "gram.certificate_self_s": own["gram.certificate"] / n,
        "gram.sections_solved": work["sections"] / n,
        "gram.null_vectors": work["null_vectors"] / n,
        "gram.section_bytes_computed": work["section_bytes"] / n,
        "additive_space.quadrature_calls": calls["additive_space.quadrature"] / n,
        "additive_space.quadrature_s": seconds["additive_space.quadrature"] / n,
        "additive_space.gl_rules_built": misses / n,
        "additive_space.gl_rule_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "gram.parseval_s": total["gram.parseval"] / n,
        "gram.collinear_s": total["gram.collinear"] / n,
        "exponents.points_parsed": work["points"] / n,
        "exponents.parse_s": total["exponents.parse"] / n,
        "exponents.loop_search_s": total["exponents.loop_search"] / n,
        "exponents.zigzag_length_s": total["exponents.zigzag_length"] / n,
        "exponents.multiplicity_s": total["exponents.multiplicity"] / n,
        "exponents.density_s": total["exponents.density"] / n,
        "ortho_solver.scan_cells": work["cells"] / n,
        "ortho_solver.scan_s": total["ortho_solver.scan"] / n,
        "cli.import_s": total["cli.import"] / count["cli.import"] if count["cli.import"] else import_s,
        "cli.process_overhead_s": (total["op"] - total["cli.main"]) / n,
        "cli.main_self_s": own["cli.main"] / n,
        "trace.overhead_ratio": overhead_ratio,
        "trace.uncovered_s": (total["op"] - covered) / n,
        "trace.coverage_ratio": covered / total["op"] if total["op"] else 0.0,
    }
