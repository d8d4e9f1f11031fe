"""Span tracer for the benchmark's traced run.

The package modules bind their collaborators with ``from .x import y``, so
a call is only observed if the wrapper replaces the name in the module the
caller looks it up in.  ``Tracer.install`` therefore replaces every binding
of each traced function across ``zfprob`` and its submodules, and
``uninstall`` puts the originals back.  Spans (id, parent id, name, start,
end) stay in memory until ``write_spans``; counters are recorded at the
same boundaries, from the arguments and results of the traced call.
"""

import sys
import time

import numpy as np

MODULES = ("zfprob", "zfprob.rng", "zfprob.linalg", "zfprob.reduction",
           "zfprob.decode", "zfprob.probability", "zfprob.ensembles", "zfprob.cli")

# span name -> (defining module, attribute); the span name is "<layer>.<attribute>"
TARGETS = {
    "rng.gaussian_block": ("zfprob.rng", "gaussian_block"),
    "rng.uniform_block": ("zfprob.rng", "uniform_block"),
    "linalg.round_nearest": ("zfprob.linalg", "round_nearest"),
    "linalg.check_upper_triangular": ("zfprob.linalg", "check_upper_triangular"),
    "linalg.qr_factorize": ("zfprob.linalg", "qr_factorize"),
    "linalg.int_determinant": ("zfprob.linalg", "int_determinant"),
    "reduction.lll_reduce": ("zfprob.reduction", "lll_reduce"),
    "reduction.sqrd": ("zfprob.reduction", "sqrd"),
    "reduction.vblast": ("zfprob.reduction", "vblast"),
    "reduction.is_lll_reduced": ("zfprob.reduction", "is_lll_reduced"),
    "reduction.orthogonality_defect": ("zfprob.reduction", "orthogonality_defect"),
    "decode.zf_decode": ("zfprob.decode", "zf_decode"),
    "decode.lift_estimate": ("zfprob.decode", "lift_estimate"),
    "probability.pzf_quadrature": ("zfprob.probability", "pzf_quadrature"),
    "probability.pzf_empirical": ("zfprob.probability", "pzf_empirical"),
    "ensembles.random_instance": ("zfprob.ensembles", "random_instance"),
    "ensembles.random_model_matrix": ("zfprob.ensembles", "random_model_matrix"),
    "cli.main": ("zfprob.cli", "main"),
    "cli.load_matrix_csv": ("zfprob.cli", "load_matrix_csv"),
}
TO_JSON = "cli.ExperimentReport.to_json"

# counters that are a pure function of the seed; two traced runs must agree on them
EXACT_COUNTERS = (
    "rng.gaussian_block.calls", "rng.gaussian_block.draws", "rng.uniform_block.draws",
    "probability.pzf_empirical.calls", "probability.pzf_empirical.trials",
    "probability.pzf_quadrature.calls", "probability.pzf_quadrature.evaluations",
    "probability.pzf_quadrature.refusals",
    "linalg.round_nearest.calls", "linalg.round_nearest.scalar_calls",
    "linalg.check_upper_triangular.calls", "linalg.qr_factorize.calls",
    "linalg.int_determinant.calls",
    "reduction.lll_reduce.calls", "reduction.lll_reduce.swaps",
    "reduction.lll_reduce.size_reductions", "reduction.lll_reduce.iterations",
    "reduction.lll_reduce.round_attempts",
    "reduction.sqrd.calls", "reduction.vblast.calls",
    "decode.zf_decode.calls", "decode.lift_estimate.calls", "cli.main.calls",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [0]
        self._next_id = 1
        self._lll_depth = 0
        self._saved = []

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        observe = getattr(self, "_on_" + name.rsplit(".", 1)[1], None)
        enters_lll = name == "reduction.lll_reduce"

        def traced(*args, **kwargs):
            if enters_lll:
                self._lll_depth += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
                if observe is not None:
                    observe(args, None if error else result, error, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    # per-function counters, named _on_<attribute>
    def _on_gaussian_block(self, args, result, error, ns):
        if result is not None:
            self._count("rng.gaussian_block.draws", result.size)

    def _on_uniform_block(self, args, result, error, ns):
        if result is not None:
            self._count("rng.uniform_block.draws", result.size)

    def _on_round_nearest(self, args, result, error, ns):
        if np.ndim(args[0]) == 0:
            self._count("linalg.round_nearest.scalar_calls")
            self._count("linalg.round_nearest.scalar_ns", ns)
            if self._lll_depth:
                self._count("reduction.lll_reduce.round_attempts")

    def _on_pzf_quadrature(self, args, result, error, ns):
        if result is not None:
            self._count("probability.pzf_quadrature.evaluations", result.evaluations)
        elif isinstance(error, sys.modules["zfprob.errors"].NoConvergenceError):
            self._count("probability.pzf_quadrature.refusals")

    def _on_pzf_empirical(self, args, result, error, ns):
        if result is not None:
            self._count("probability.pzf_empirical.trials", result.evaluations)

    def _on_lll_reduce(self, args, result, error, ns):
        self._lll_depth -= 1
        if result is not None:
            self._count("reduction.lll_reduce.swaps", result.stats.swaps)
            self._count("reduction.lll_reduce.size_reductions", result.stats.size_reductions)
            self._count("reduction.lll_reduce.iterations", result.stats.iterations)

    def _on_to_json(self, args, result, error, ns):
        if result is not None:
            self._count("cli.report_bytes", len(result.encode()))

    def install(self):
        modules = [sys.modules[m] for m in MODULES]
        for name, (home, attr) in TARGETS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        report_cls = sys.modules["zfprob.cli"].ExperimentReport
        self._saved.append((report_cls, "to_json", report_cls.to_json))
        report_cls.to_json = self._wrap(TO_JSON, report_cls.to_json)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self):
        """Per span name: number of calls and self time in seconds, where
        self time is the span's duration minus that of its direct children."""
        child_ns = {}
        for _, parent, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        totals = {}
        for span_id, _, name, start, end in self.spans:
            calls, self_ns = totals.get(name, (0, 0))
            totals[name] = (calls + 1, self_ns + (end - start) - child_ns.get(span_id, 0))
        return {name: (calls, ns * 1e-9) for name, (calls, ns) in totals.items()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by their benchmark names."""
    totals = tracer.layer_totals()
    counts = tracer.counts
    out = {}

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    for name in (*TARGETS, TO_JSON):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for key in ("rng.gaussian_block.draws", "rng.uniform_block.draws",
                "probability.pzf_empirical.trials",
                "probability.pzf_quadrature.evaluations",
                "probability.pzf_quadrature.refusals",
                "linalg.round_nearest.scalar_calls",
                "reduction.lll_reduce.swaps", "reduction.lll_reduce.size_reductions",
                "reduction.lll_reduce.iterations", "reduction.lll_reduce.round_attempts",
                "cli.report_bytes"):
        out[key] = counts.get(key, 0)
    out["rng.gaussian_block.ns_per_draw"] = ratio(
        self_s("rng.gaussian_block") * 1e9, out["rng.gaussian_block.draws"])
    out["probability.pzf_quadrature.evals_per_call"] = ratio(
        out["probability.pzf_quadrature.evaluations"], calls("probability.pzf_quadrature"))
    out["probability.pzf_quadrature.ns_per_evaluation"] = ratio(
        self_s("probability.pzf_quadrature") * 1e9,
        out["probability.pzf_quadrature.evaluations"])
    out["linalg.round_nearest.us_per_scalar_call"] = ratio(
        counts.get("linalg.round_nearest.scalar_ns", 0) * 1e-3,
        out["linalg.round_nearest.scalar_calls"])
    out["reduction.lll_reduce.size_reduce_hit_ratio"] = ratio(
        out["reduction.lll_reduce.size_reductions"],
        out["reduction.lll_reduce.round_attempts"])
    return out
