"""Spans and counters recorded around the engine's entry points.

The tracer patches the report path from outside the engine: the names
``hochschild`` imports from ``rewrite`` and ``linalg``, methods of the engine
classes, and the CLI's report, d^2 check and encoder.  Spans are kept in
memory as ``[name, start, end, parent, report]`` and written out once the run
ends; self times are derived from them.  Hot methods (``mul_basis``,
``normal_form``, ``check_confluence``) are counted, not spanned, so the trace
stays small.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from workloads import EXTERIOR_NMAX

DEGREES = range(EXTERIOR_NMAX + 1)
IMAGE_DEGREES = (1, 2)

# entry point -> span name; the span name plus "_s" is its time metric
SPANS = (
    ("hochschild", "quotient_algebra", "rewrite.quotient"),
    ("hochschild", "echelon", "linalg.echelon"),
    ("hochschild", "column_space", "linalg.column_space"),
    ("hochschild", "rref", "linalg.rref"),
    ("hochschild.RelativeBarComplex", "__init__", "hochschild.bar_init"),
    ("hochschild.RelativeBarComplex", "differential", "hochschild.differential"),
    ("hochschild.RelativeBarComplex", "classes", "hochschild.classes"),
    ("hochschild.RelativeBarComplex", "cup", "hochschild.cup"),
    ("hochschild.RelativeBarComplex", "bracket", "hochschild.bracket"),
    ("hochschild.RelativeBarComplex", "canonical", "hochschild.canonical"),
    ("hochschild.SmallComplex", "__init__", "hochschild.small"),
    ("hochschild.SmallComplex", "hh_dims", "hochschild.small"),
    ("hochschild.HochschildCohomology", "__init__", "hochschild.self"),
    ("hochschild.HochschildCohomology", "report", "hochschild.self"),
    ("hochschild.HochschildCohomology", "cup_rank", "hochschild.self"),
    ("hochschild.HochschildCohomology", "bracket_rank", "hochschild.self"),
    ("cli", "build_report", "cli.self"),
    ("cli", "_d_squared_zero", "cli.d2_check"),
    ("cli", "_emit", "cli.self"),
)
SETUP_SPANS = ("families.build", "dsl.parse")
CALL_COUNTS = ("hochschild.cup", "hochschild.bracket", "hochschild.canonical")

METRICS = (
    [(name + "_s", "s", "lower") for name in sorted({s for _, _, s in SPANS} | set(SETUP_SPANS))]
    + [(name + "_calls", "count", "lower") for name in CALL_COUNTS]
    + [
        ("rewrite.rules", "count", "lower"),
        ("rewrite.basis_dim", "count", "lower"),
        ("rewrite.confluence_checks", "count", "lower"),
        ("rewrite.ambiguities", "count", "lower"),
        ("rewrite.normal_form_calls", "count", "lower"),
        ("rewrite.mul_basis_calls", "count", "lower"),
        ("rewrite.mul_basis_hit_ratio", "frac", "higher"),
    ]
    + [(f"hochschild.cochain_dim.C{n}", "count", "lower") for n in range(EXTERIOR_NMAX + 2)]
    + [(f"hochschild.differential_nnz.d{n}", "count", "lower") for n in DEGREES]
    + [(f"linalg.rank.d{n}", "count", "lower") for n in DEGREES]
    + [(f"linalg.kernel_nnz.d{n}", "count", "lower") for n in DEGREES]
    + [(f"linalg.image_nnz.C{n}", "count", "lower") for n in IMAGE_DEGREES]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.coverage_frac", "frac", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def _resolve(mods, path):
    head, *rest = path.split(".")
    obj = getattr(mods, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Install with ``install()``, set ``report`` before each report and
    record its wall time in ``walls``, and ``uninstall()`` to restore the
    engine's own functions."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.report = None
        self.walls = {}
        self.counts = {}
        self._stack = []
        self._patches = []
        self._mul_keys = {}
        self._degree = {}

    # --- patching -----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        m = self.mods
        after = {
            "rewrite.quotient": self._after_quotient,
            "hochschild.bar_init": self._after_bar_init,
            "hochschild.differential": self._after_differential,
            "linalg.echelon": self._after_echelon,
            "linalg.column_space": self._after_column_space,
        }
        for owner, attr, name in SPANS:
            hook = after.get(name)
            self._patch(_resolve(m, owner), attr, lambda f, n=name, a=hook: self._spanned(n, f, a))
        self._patch(m.rewrite.ReductionSystem, "check_confluence", self._counted_confluence)
        self._patch(m.rewrite.ReductionSystem, "normal_form", self._counted_normal_form)
        self._patch(m.rewrite.QuotientAlgebra, "mul_basis", self._counted_mul_basis)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        stack = self._stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.report]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        self._stack.pop()
        rec[2] = time.perf_counter()

    def _spanned(self, name, fn, after):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # --- counters -----------------------------------------------------------

    def _counter(self):
        return self.counts.setdefault(self.report, {})

    def _add(self, key, k=1):
        c = self._counter()
        c[key] = c.get(key, 0) + k

    def _counted_confluence(self, original):
        def check_confluence(system):
            out = original(system)
            self._add("rewrite.confluence_checks")
            self._add("rewrite.ambiguities", len(out.ambiguities))
            return out

        return check_confluence

    def _counted_normal_form(self, original):
        def normal_form(system, *args, **kwargs):
            self._add("rewrite.normal_form_calls")
            return original(system, *args, **kwargs)

        return normal_form

    def _counted_mul_basis(self, original):
        def mul_basis(algebra, i, j):
            self._add("rewrite.mul_basis_calls")
            self._mul_keys.setdefault(self.report, set()).add((id(algebra), i, j))
            return original(algebra, i, j)

        return mul_basis

    def _after_quotient(self, args, algebra):
        c = self._counter()
        c["rewrite.rules"] = c.get("rewrite.rules", 0) + len(algebra.system.rules)
        c["rewrite.basis_dim"] = c.get("rewrite.basis_dim", 0) + algebra.dim

    def _after_bar_init(self, args, _):
        bar = args[0]
        c = self._counter()
        for n in range(bar.nmax + 2):
            c[f"hochschild.cochain_dim.C{n}"] = bar.dim(n)

    def _after_differential(self, args, m):
        n = args[1]
        self._degree[id(m)] = (self.report, n)
        self._counter()[f"hochschild.differential_nnz.d{n}"] = len(m.entries)

    def _bar_degree(self, m):
        tag = self._degree.get(id(m))
        return tag[1] if tag is not None and tag[0] == self.report else None

    def _after_echelon(self, args, result):
        n = self._bar_degree(args[0])
        if n is not None:
            c = self._counter()
            c[f"linalg.rank.d{n}"] = result.rank
            c[f"linalg.kernel_nnz.d{n}"] = sum(len(r) for r in result.kernel.rows)

    def _after_column_space(self, args, basis):
        n = self._bar_degree(args[0])
        if n is not None:
            self._counter()[f"linalg.image_nnz.C{n + 1}"] = sum(len(r) for r in basis.rows)

    # --- results ------------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]

    def metrics(self, setup_builds, passes, traced_walls, untraced_walls):
        """Per-layer metrics.

        Times are seconds per pass over the workload's inputs, as the median
        over traced passes; input construction is the median over traced
        builds.  Counts are totals over the first traced pass; they repeat
        exactly.  ``setup_builds`` and ``passes`` are lists of report-id
        lists; ``*_walls`` are the wall times of traced and untraced reports.
        """
        self_s, calls = {}, {}
        for rec, s in zip(self.spans, self.self_times()):
            key = (rec[4], rec[0])
            self_s[key] = self_s.get(key, 0.0) + s
            calls[key] = calls.get(key, 0) + 1

        def total(table, ids, span):
            return sum(table.get((r, span), 0) for r in ids)

        out = {}
        for name, unit, _ in METRICS:
            if unit == "s":
                span = name[:-2]
                groups = setup_builds if span in SETUP_SPANS else passes
                out[name] = statistics.median(total(self_s, ids, span) for ids in groups)
        first = passes[0]
        for span in CALL_COUNTS:
            out[span + "_calls"] = total(calls, first, span)
        for name, unit, _ in METRICS:
            if unit == "count" and name not in out:
                out[name] = sum(self.counts.get(r, {}).get(name, 0) for r in first)
        distinct = sum(len(self._mul_keys.get(r, ())) for r in first)
        n_calls = out["rewrite.mul_basis_calls"]
        out["rewrite.mul_basis_hit_ratio"] = 1 - distinct / n_calls if n_calls else 0.0
        first_ids = set(first)
        out["trace.spans"] = sum(1 for rec in self.spans if rec[4] in first_ids)
        covered = sum(v for (r, _), v in self_s.items() if r in self.walls)
        out["trace.coverage_frac"] = covered / sum(self.walls.values())
        out["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
        )
        return out

    def write(self, path):
        """Write the spans as JSON: one [name, start, end, parent, report] row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "report"],
                       "spans": self.spans}, fh, separators=(",", ":"))
