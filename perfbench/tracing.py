"""Per-layer tracing of `checkersurf` from outside the package.

The layers are the package's modules. The tracer wraps public functions
of each module in every module namespace that holds them (`cli` imports
several by name), records one span per call (name, start, end, parent,
job) in compact arrays, and counts work at the same boundaries. `perm`
and `errors` do no measurable work of their own, so their time stays in
their callers' self time.

Self time of a span is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from math import factorial, prod
from time import perf_counter

# (span name, module, attribute). The span name is "<layer>.<function>".
SPANS = [
    ("cli.main", "checkersurf.cli", "main"),
    ("kernel.canonical_code", "checkersurf.kernel", "canonical_code"),
    ("surface.canonical_form", "checkersurf.surface", "canonical_form"),
    ("surface.checker_surface", "checkersurf.surface", "checker_surface"),
    ("cosets.circledast", "checkersurf.cosets", "circledast"),
    ("cosets.concat_geometric", "checkersurf.cosets", "concat_geometric"),
    ("convolution.coset_decomposition", "checkersurf.convolution", "coset_decomposition"),
    ("ik.ik_product", "checkersurf.ik", "ik_product"),
    ("ik.lift", "checkersurf.ik", "lift"),
    ("ik.project", "checkersurf.ik", "project"),
    ("spherical.spherical_assignment_sum", "checkersurf.spherical", "spherical_assignment_sum"),
    ("spherical.spherical_oracle", "checkersurf.spherical", "spherical_oracle"),
]

# Per-layer metrics in output order: (name, unit, better).
METRICS = [
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.output_kb", "KB", "lower"),
    ("kernel.canonical_code.calls", "count", "lower"),
    ("kernel.canonical_code.points", "count", "lower"),
    ("kernel.canonical_code.self_ms", "ms", "lower"),
    ("kernel.canonical_code.us_per_call", "us", "lower"),
    ("surface.canonical_form.calls", "count", "lower"),
    ("surface.canonical_form.self_ms", "ms", "lower"),
    ("surface.checker_surface.calls", "count", "lower"),
    ("surface.checker_surface.self_ms", "ms", "lower"),
    ("cosets.circledast.calls", "count", "lower"),
    ("cosets.circledast.self_ms", "ms", "lower"),
    ("cosets.concat_geometric.self_ms", "ms", "lower"),
    ("convolution.coset_decomposition.self_ms", "ms", "lower"),
    ("convolution.coset_decomposition.terms", "count", "lower"),
    ("convolution.coset_decomposition.classes", "count", "lower"),
    ("convolution.coset_decomposition.classes_per_term", "ratio", "higher"),
    ("convolution.element_builds", "count", "lower"),
    ("convolution.element_entries", "count", "lower"),
    ("ik.ik_product.self_ms", "ms", "lower"),
    ("ik.ik_product.glues", "count", "lower"),
    ("ik.lift.calls", "count", "lower"),
    ("ik.lift.misses", "count", "lower"),
    ("ik.lift.self_ms", "ms", "lower"),
    ("ik.lift.perms", "count", "lower"),
    ("ik.lift.class_terms", "count", "lower"),
    ("ik.lift.class_terms_per_perm", "ratio", "higher"),
    ("ik.project.self_ms", "ms", "lower"),
    ("spherical.spherical_assignment_sum.self_ms", "ms", "lower"),
    ("spherical.spherical_oracle.self_ms", "ms", "lower"),
    ("spherical.spherical_oracle.entries", "count", "lower"),
    ("spherical.spherical_oracle.ms_p90", "ms", "lower"),
    ("process.cpu_per_wall", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99), interpolated between order statistics."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "checkersurf"]


class Tracer:
    """Spans and counts of the traced jobs of one run.

    install() wraps the functions before a traced job and uninstall()
    restores them after it; spans and counts accumulate across jobs.
    """

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(SPANS)
        self.calls = [0] * len(SPANS)
        self.counts = dict.fromkeys(
            ("glues", "element_builds", "element_entries", "lift_misses", "lift_perms",
             "lift_class_terms", "kernel_points", "oracle_entries", "classes"),
            0,
        )
        self.oracle_ms = []
        self.job = -1
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, index: int, fn, after=None):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[index] += duration - frame[1]
                tracer.calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                tracer.span_id.append(span)
                tracer.span_name.append(index)
                tracer.span_parent.append(parent)
                tracer.span_job.append(tracer.job)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
            if after is not None:
                after(args, result, duration)
            return result

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        counts = self.counts

        def after_kernel(args, result, duration):
            counts["kernel_points"] += args[0]

        def after_decomposition(args, result, duration):
            counts["classes"] += len(result._coeffs)

        def after_oracle(args, result, duration):
            surface, xi = args[0], args[1]
            counts["oracle_entries"] += prod(xi.dims) ** surface.n
            self.oracle_ms.append(duration * 1e3)

        hooks = {
            "kernel.canonical_code": after_kernel,
            "convolution.coset_decomposition": after_decomposition,
            "spherical.spherical_oracle": after_oracle,
        }
        for index, (name, module, attr) in enumerate(SPANS):
            original = getattr(sys.modules[module], attr)
            if name == "ik.lift":
                wrapped = self._traced_lift(index, original)
            else:
                wrapped = self._span(index, original, hooks.get(name))
            self._replace_everywhere(original, wrapped)

        ik = sys.modules["checkersurf.ik"]
        glue = ik._glue

        def counted_glue(*args, **kwargs):
            counts["glues"] += 1
            return glue(*args, **kwargs)

        self._replace_everywhere(glue, counted_glue)

        element = sys.modules["checkersurf.convolution"].GroupAlgebraElement
        init = element.__init__

        def counted_init(obj, n, coeffs=None):
            counts["element_builds"] += 1
            counts["element_entries"] += len(coeffs) if coeffs else 0
            init(obj, n, coeffs)

        element.__init__ = counted_init
        self._restore.append((element, "__init__", init))

    def _traced_lift(self, index: int, cached):
        counts = self.counts
        # Without a cache every call is a miss.
        info = getattr(cached, "cache_info", None)

        def lift_call(p, m):
            before = info().misses if info else 0
            result = cached(p, m)
            if info is None or info().misses > before:
                counts["lift_misses"] += 1
                counts["lift_perms"] += factorial(m)
                counts["lift_class_terms"] += result.support_size()
            return result

        return self._span(index, lift_call)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _index(self, name: str) -> int:
        return self.names.index(name)

    def decomposition_terms(self) -> int:
        """Kernel calls whose parent span is a coset_decomposition span."""
        kernel = self._index("kernel.canonical_code")
        decomposition = self._index("convolution.coset_decomposition")
        decomposition_ids = {
            span for span, name in zip(self.span_id, self.span_name) if name == decomposition
        }
        return sum(
            1
            for name, parent in zip(self.span_name, self.span_parent)
            if name == kernel and parent in decomposition_ids
        )

    def metrics(self, jobs: int, output_bytes: int, cpu_per_wall: float, overhead_pct: float) -> dict:
        """Every per-layer metric, per job of the traced pass."""
        jobs = max(jobs, 1)

        def self_ms(name):
            return self.self_s[self._index(name)] * 1e3 / jobs

        def calls(name):
            return self.calls[self._index(name)] / jobs

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        kernel_calls = self.calls[self._index("kernel.canonical_code")]
        terms = self.decomposition_terms()
        values = {
            "cli.main.self_ms": self_ms("cli.main"),
            "cli.output_kb": output_bytes / 1024 / jobs,
            "kernel.canonical_code.calls": kernel_calls / jobs,
            "kernel.canonical_code.points": c["kernel_points"] / jobs,
            "kernel.canonical_code.self_ms": self_ms("kernel.canonical_code"),
            "kernel.canonical_code.us_per_call": ratio(
                self.self_s[self._index("kernel.canonical_code")] * 1e6, kernel_calls
            ),
            "surface.canonical_form.calls": calls("surface.canonical_form"),
            "surface.canonical_form.self_ms": self_ms("surface.canonical_form"),
            "surface.checker_surface.calls": calls("surface.checker_surface"),
            "surface.checker_surface.self_ms": self_ms("surface.checker_surface"),
            "cosets.circledast.calls": calls("cosets.circledast"),
            "cosets.circledast.self_ms": self_ms("cosets.circledast"),
            "cosets.concat_geometric.self_ms": self_ms("cosets.concat_geometric"),
            "convolution.coset_decomposition.self_ms": self_ms("convolution.coset_decomposition"),
            "convolution.coset_decomposition.terms": terms / jobs,
            "convolution.coset_decomposition.classes": c["classes"] / jobs,
            "convolution.coset_decomposition.classes_per_term": ratio(c["classes"], terms),
            "convolution.element_builds": c["element_builds"] / jobs,
            "convolution.element_entries": c["element_entries"] / jobs,
            "ik.ik_product.self_ms": self_ms("ik.ik_product"),
            "ik.ik_product.glues": c["glues"] / jobs,
            "ik.lift.calls": calls("ik.lift"),
            "ik.lift.misses": c["lift_misses"] / jobs,
            "ik.lift.self_ms": self_ms("ik.lift"),
            "ik.lift.perms": c["lift_perms"] / jobs,
            "ik.lift.class_terms": c["lift_class_terms"] / jobs,
            "ik.lift.class_terms_per_perm": ratio(c["lift_class_terms"], c["lift_perms"]),
            "ik.project.self_ms": self_ms("ik.project"),
            "spherical.spherical_assignment_sum.self_ms": self_ms("spherical.spherical_assignment_sum"),
            "spherical.spherical_oracle.self_ms": self_ms("spherical.spherical_oracle"),
            "spherical.spherical_oracle.entries": c["oracle_entries"] / jobs,
            "spherical.spherical_oracle.ms_p90": percentile(self.oracle_ms, 90),
            "process.cpu_per_wall": cpu_per_wall,
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def layer_self_ms(self, jobs: int) -> dict:
        """Self time per job summed by layer (the part of a name before the first dot)."""
        out = {}
        for index, name in enumerate(self.names):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self.self_s[index] * 1e3 / max(jobs, 1)
        return out

    def save(self, path: str) -> None:
        """Write the spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            job=np.frombuffer(self.span_job, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
