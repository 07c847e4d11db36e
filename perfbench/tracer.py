"""In-memory spans around the public calls into each robustgmm layer.

The tracer replaces a function where its caller looks it up (a name imported
into the calling module, or a method on the model class), records one span
per call, and restores every original on `restore()`. Spans are
(name, start, end, parent span index, cell id); a cell is one (eps, rep)
unit of a sweep and starts at the call that builds its data. Counts that
belong to a boundary (learner iterations, filter firings, kernel flops) are
read from the arguments and return values seen there.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

KERNELS = ("moments", "jacobian_dot", "mean_jacobian_over", "residuals")


def _kernel_cost(kernel, m, d, p):
    """(flops, bytes) of one LinearIVModel kernel call on m rows, computed
    from the shapes alone: float64 elements read plus written, times 8."""
    if kernel == "moments":  # Z[idx] * (Y[idx] - X[idx] @ w)
        return 2 * m * d + m + m * p, 8 * (m * d + d + m + m * p + m * p)
    if kernel == "residuals":  # Y[idx] - X[idx] @ w
        return 2 * m * d + m, 8 * (m * d + d + m + m)
    if kernel == "jacobian_dot":  # -X[idx] * (Z[idx] @ u)
        return 2 * m * p + 2 * m * d, 8 * (m * p + p + m * d + m * d)
    # mean_jacobian_over: -(Z[idx].T @ X[idx]) / m
    return 2 * m * p * d + p * d, 8 * (m * p + m * d + p * d)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._cell = 0
        self._planted = {}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, new_cell=False, **kwargs):
        """Call fn inside a span named `name`; return its result."""
        if new_cell:
            self._cell += 1
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._cell]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, after=None, new_cell=False):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.span(name, original, *args, new_cell=new_cell, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, robustgmm):
        """Wrap every traced boundary of the imported robustgmm package."""
        cli, experiments = robustgmm.cli, robustgmm.experiments
        sever, filtering = robustgmm.sever, robustgmm.filtering
        counts = self.counts

        self.wrap(cli, "run_sweep", "cli.run_sweep")
        self.wrap(cli, "write_rows_csv", "cli.write_csv")
        self.wrap(cli, "write_aggregate_csv", "cli.write_csv")

        self.wrap(experiments, "load_csv", "experiments.load_csv", new_cell=True)
        self.wrap(experiments, "gen_synthetic_hte", "experiments.gen_data", new_cell=True)
        for attack in ("corrupt_all_ones", "corrupt_negation"):
            self.wrap(experiments, attack, "experiments.gen_data", after=self._record_planted)
        self.wrap(experiments, "robust_linear_estimate", "experiments.robust_linear_estimate")
        self.wrap(experiments, "derive_hyperparams", "experiments.derive_hyperparams")
        self.wrap(experiments, "diagnose_assumptions", "experiments.diagnose_assumptions")
        self.wrap(experiments, "two_stage_huber", "models.two_stage_huber")
        self.wrap(experiments, "two_stage_least_squares", "models.two_stage_least_squares")

        self.wrap(experiments, "iterated_gmm_sever", "sever.iterated_gmm_sever",
                  after=self._record_estimate)
        self.wrap(sever, "amplified_gmm_sever", "sever.amplified_gmm_sever")

        def sever_rounds(args, result):
            counts["sever.rounds"] += result.rounds

        self.wrap(sever, "gmm_sever", "sever.gmm_sever", after=sever_rounds)

        def learner_result(args, result):
            counts["numerics.learner.iterations"] += result.iterations
            counts["numerics.learner.tolerance_met"] += bool(result.tolerance_met)

        self.wrap(sever, "projected_gradient_critical_point", "numerics.learner",
                  after=learner_result)

        objective = sever._moment_objective

        def counted_objective(model, S):
            fn = objective(model, S)

            def evaluate(w):
                counts["numerics.learner.evals"] += 1
                return fn(w)

            return evaluate

        sever._moment_objective = counted_objective
        self._patches.append((sever, "_moment_objective", objective))

        def filter_outcome(args, result):
            counts["filtering.fired"] += len(result.removed) > 0

        self.wrap(sever, "spectral_filter", "filtering.spectral_filter", after=filter_outcome)
        self.wrap(sever, "robust_score_bound", "filtering.robust_score_bound")
        self.wrap(filtering, "top_eigenvector", "numerics.top_eigenvector")

        for kernel in KERNELS:
            self.wrap(robustgmm.models.LinearIVModel, kernel, f"models.{kernel}",
                      after=self._kernel_counter(kernel))

    def _kernel_counter(self, kernel):
        counts = self.counts

        def count(args, result):
            model, idx = args[0], args[1]
            flops, nbytes = _kernel_cost(kernel, len(idx), model.param_dim, model.moment_dim)
            counts[f"models.{kernel}.flops"] += flops
            counts[f"models.{kernel}.bytes"] += nbytes

        return count

    def _record_planted(self, args, result):
        self._planted[self._cell] = np.asarray(result[1])

    def _record_estimate(self, args, report):
        counts = self.counts
        counts["sever.outer_rounds"] += report.diagnostics["outer_rounds"]
        removed = np.setdiff1d(np.arange(args[0].n_samples), report.final_set.indices)
        counts["filtering.removed_rows"] += len(removed)
        planted = self._planted.get(self._cell, np.empty(0, dtype=np.int64))
        counts["filtering.removed_planted"] += len(np.intersect1d(removed, planted))

    # -- reporting ---------------------------------------------------------

    def wall_s(self, name):
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        total = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "cli.self_s": (self_s["cli.main"], "s"),
            "cli.write_csv.s": (total["cli.write_csv"], "s"),
            "experiments.load_csv.s": (total["experiments.load_csv"], "s"),
            "experiments.load_csv.calls": (calls["experiments.load_csv"], "count"),
            "experiments.derive_hyperparams.s": (total["experiments.derive_hyperparams"], "s"),
            "experiments.derive_hyperparams.calls": (
                calls["experiments.derive_hyperparams"], "count"),
            "experiments.diagnose_assumptions.s": (
                total["experiments.diagnose_assumptions"], "s"),
            "experiments.gen_data.s": (total["experiments.gen_data"], "s"),
            "experiments.robust_linear_estimate.self_s": (
                self_s["experiments.robust_linear_estimate"], "s"),
            "sever.iterated_gmm_sever.s": (total["sever.iterated_gmm_sever"], "s"),
            "sever.self_s": (
                sum(self_s[f"sever.{f}"]
                    for f in ("iterated_gmm_sever", "amplified_gmm_sever", "gmm_sever")),
                "s"),
            "sever.gmm_sever.calls": (calls["sever.gmm_sever"], "count"),
            "sever.rounds": (c["sever.rounds"], "count"),
            "sever.outer_rounds": (c["sever.outer_rounds"], "count"),
            "numerics.learner.s": (total["numerics.learner"], "s"),
            "numerics.learner.calls": (calls["numerics.learner"], "count"),
            "numerics.learner.iterations": (c["numerics.learner.iterations"], "count"),
            "numerics.learner.evals": (c["numerics.learner.evals"], "count"),
            "numerics.learner.tolerance_met_ratio": (
                ratio(c["numerics.learner.tolerance_met"], calls["numerics.learner"]), "ratio"),
            "numerics.top_eigenvector.s": (total["numerics.top_eigenvector"], "s"),
            "numerics.top_eigenvector.calls": (calls["numerics.top_eigenvector"], "count"),
            "filtering.spectral_filter.s": (total["filtering.spectral_filter"], "s"),
            "filtering.spectral_filter.calls": (calls["filtering.spectral_filter"], "count"),
            "filtering.robust_score_bound.s": (total["filtering.robust_score_bound"], "s"),
            "filtering.fire_ratio": (
                ratio(c["filtering.fired"], calls["filtering.spectral_filter"]), "ratio"),
            "filtering.removed_rows": (c["filtering.removed_rows"], "count"),
            "filtering.removed_planted_ratio": (
                ratio(c["filtering.removed_planted"], c["filtering.removed_rows"]), "ratio"),
        }
        for kernel in KERNELS:
            m[f"models.{kernel}.s"] = (total[f"models.{kernel}"], "s")
            m[f"models.{kernel}.calls"] = (calls[f"models.{kernel}"], "count")
            m[f"models.{kernel}.flops"] = (c[f"models.{kernel}.flops"], "flop")
            m[f"models.{kernel}.bytes"] = (c[f"models.{kernel}.bytes"], "B")
        m["models.two_stage_huber.s"] = (total["models.two_stage_huber"], "s")
        m["models.two_stage_huber.calls"] = (calls["models.two_stage_huber"], "count")
        m["models.two_stage_least_squares.s"] = (total["models.two_stage_least_squares"], "s")
        return m

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, cell in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "cell": cell}
                ) + "\n")
