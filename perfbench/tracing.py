"""Spans around the calls into each layer, and the per-layer figures made from them.

A traced run patches the callables named in ``TARGETS`` where callers look
them up (a module attribute or a class attribute), records one span per call
(name, start, end, parent span, operation id, counts) in memory, and restores
the originals when the run ends.  The wrappers draw no random numbers and
return what the wrapped callable returned, so a traced run computes the same
estimates, bit for bit, as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from anhcrystal import cluster, covariance, oracle, sampler
from anhcrystal.lattice import Boundary


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sample_counts(args, kwargs, out):
    periodic = args[0].kernel.boundary is Boundary.PERIODIC
    return {"fields": out.shape[0], "periodic": periodic}


def _batch_counts(args, kwargs, out):
    return {"fields": out.shape[0]}


def _potential_counts(args, kwargs, out):
    return {"fields": args[1].shape[0]}


def _solve_counts(args, kwargs, out):
    return {"states": len(out[0]), "sites": args[0].n_sites}


# (owner, attribute, span name, counts) -- patched where callers look them up
TARGETS = [
    (covariance.CovarianceKernel, "grid_eigenvalues", "covariance.grid_eigenvalues", None),
    (covariance.CovarianceKernel, "grid_matrix", "covariance.grid_matrix", None),
    (sampler.GaussianFieldSampler, "sample", "sampler.sample", _sample_counts),
    (sampler.Ensemble, "action", "sampler.action", _batch_counts),
    (sampler.Ensemble, "potential_density", "sampler.potential_density", _potential_counts),
    (sampler, "two_point_table", "sampler.two_point_table", None),
    (sampler, "reweight_expectation", "sampler.reweight_expectation", None),
    (sampler, "gap_estimate", "sampler.gap_estimate", None),
    (sampler, "pcn_expectation", "sampler.pcn_expectation", None),
    (cluster, "derivative_ladder", "cluster.derivative_ladder", None),
    (cluster, "evaluate_ladder", "cluster.evaluate_ladder", None),
    (cluster, "scrambled_normals", "cluster.scrambled_normals", None),
    (cluster.ClusterInstance, "contraction_value", "cluster.contraction_value", None),
    (cluster.ClusterInstance, "gibbs_weight", "cluster.gibbs_weight", None),
    (cluster.ClusterInstance, "sample_block", "cluster.sample_block", None),
    (cluster.ClusterInstance, "block_matrix", "cluster.block_matrix", None),
    (cluster.ClusterInstance, "i_term", "cluster.i_term", None),
    (cluster.ClusterInstance, "partition_weight", "cluster.partition_weight", None),
    (cluster.ClusterInstance, "ratio_table", "cluster.ratio_table", None),
    (cluster.ClusterInstance, "second_step_residual", "cluster.second_step_residual", None),
    (oracle.GridHamiltonian, "_solution", "oracle.solve", _solve_counts),
    (oracle, "thermal_correlation", "oracle.thermal_correlation", None),
    (oracle, "thermal_trace", "oracle.thermal_trace", None),
]

# observables are closures made by these Ensemble methods; the closures are traced
OBSERVABLE_FACTORIES = ("phi_product", "mean_displacement")


class Tracer:
    """In-memory span recorder with patching of the layer callables."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """Record one span around the block; ``op`` starts a new operation."""
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counts in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, cached_property):
                    replacement = cached_property(self.wrap(name, original.func, counts))
                    replacement.__set_name__(owner, attr)
                else:
                    replacement = self.wrap(name, original, counts)
                setattr(owner, attr, replacement)
            for attr in OBSERVABLE_FACTORIES:
                original = sampler.Ensemble.__dict__[attr]
                saved.append((sampler.Ensemble, attr, original))
                setattr(sampler.Ensemble, attr, self._observable_factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _observable_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap("sampler.observable", factory(*args, **kwargs), _batch_counts)

        return make


# -- self time and per-layer figures --------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _ancestor_names(spans: list[Span], i: int):
    parent = spans[i].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


PER_LAYER = {
    "covariance.spectrum_s": "s",
    "covariance.grid_matrix_s": "s",
    "sampler.draw_us_per_field": "us",
    "sampler.draw_dirichlet_us_per_field": "us",
    "sampler.draw_single_us": "us",
    "sampler.action_us_per_field": "us",
    "sampler.potential_us_per_field": "us",
    "sampler.observable_us_per_field": "us",
    "sampler.two_point_self_us_per_field": "us",
    "sampler.estimator_self_s": "s",
    "sampler.pcn_self_us_per_step": "us",
    "sampler.ess_per_draw": "ratio",
    "sampler.chain_ess_per_step": "ratio",
    "sampler.fields": "count",
    "cluster.ladder_builds": "count",
    "cluster.ladder_build_s": "s",
    "cluster.ladder_eval_s": "s",
    "cluster.contraction_self_s": "s",
    "cluster.gibbs_weight_s": "s",
    "cluster.normals_s": "s",
    "cluster.cholesky_s": "s",
    "cluster.block_matrix_s": "s",
    "cluster.scatter_s": "s",
    "cluster.node_evals": "count",
    "cluster.reference_draw_s": "s",
    "oracle.one_site_solve_s": "s",
    "oracle.states": "count",
    "oracle.correlation_s": "s",
    "trace.wall_s": "s",
}


def layer_metrics(spans: list[Span], n_rounds: int, from_results: dict,
                  traced_wall: float, once_ops: int = 0) -> dict:
    """Per-layer figures for a run of one set-up and ``n_rounds`` rounds.

    Times and counts are given per round, with the set-up phase (operation
    0) and the once-per-run operations (1 to ``once_ops``) counted once: they
    are what a run of set-up, the once-per-run calls and one round spends.
    Per-field and per-step figures divide self time by the fields or steps
    the same spans handled.  ``from_results`` supplies the ratios read off
    the estimates (ESS per draw); layers a workload does not run read 0.
    """
    selfs = self_times(spans)
    total = defaultdict(float)     # self time per span name, per round
    inclusive = defaultdict(float)  # duration of outermost spans, per round
    calls = defaultdict(float)
    fields = defaultdict(float)
    draw_time = defaultdict(float)
    draw_count = defaultdict(float)
    two_point_fields = 0.0
    pcn_steps = 0.0
    node_evals = 0.0

    def share(span):
        return 1.0 if span.op <= once_ops else 1.0 / n_rounds

    for i, span in enumerate(spans):
        w = share(span)
        total[span.name] += w * selfs[i]
        calls[span.name] += w
        ancestors = list(_ancestor_names(spans, i))
        if span.name not in ancestors:
            inclusive[span.name] += w * span.duration
        n = (span.counts or {}).get("fields", 0)
        fields[span.name] += w * n
        if span.name == "sampler.sample":
            kind = "single" if n == 1 else ("periodic" if span.counts["periodic"] else "dirichlet")
            draw_time[kind] += w * selfs[i]
            draw_count[kind] += w * (1 if kind == "single" else n)
            if "sampler.two_point_table" in ancestors:
                two_point_fields += w * n
        if span.name == "sampler.action" and span.parent is not None \
                and spans[span.parent].name == "sampler.pcn_expectation":
            pcn_steps += w
        if span.name == "cluster.contraction_value" and \
                ("cluster.i_term" in ancestors or "cluster.second_step_residual" in ancestors):
            node_evals += w
    # the first action call of a chain scores the starting field, not a step
    pcn_steps -= calls["sampler.pcn_expectation"]

    def per(t, n, scale=1e6):
        return scale * t / n if n else 0.0

    solve_one = sum(share(s) * s.duration for s in spans
                    if s.name == "oracle.solve" and s.counts and s.counts["sites"] == 1)
    states = sum(share(s) * s.counts["states"] for s in spans
                 if s.name == "oracle.solve" and s.counts)
    return {
        "covariance.spectrum_s": inclusive["covariance.grid_eigenvalues"],
        "covariance.grid_matrix_s": inclusive["covariance.grid_matrix"],
        "sampler.draw_us_per_field": per(draw_time["periodic"], draw_count["periodic"]),
        "sampler.draw_dirichlet_us_per_field": per(draw_time["dirichlet"], draw_count["dirichlet"]),
        "sampler.draw_single_us": per(draw_time["single"], draw_count["single"]),
        "sampler.action_us_per_field": per(total["sampler.action"], fields["sampler.action"]),
        "sampler.potential_us_per_field": per(total["sampler.potential_density"],
                                              fields["sampler.potential_density"]),
        "sampler.observable_us_per_field": per(total["sampler.observable"],
                                               fields["sampler.observable"]),
        "sampler.two_point_self_us_per_field": per(total["sampler.two_point_table"],
                                                   two_point_fields),
        "sampler.estimator_self_s": (total["sampler.reweight_expectation"]
                                     + total["sampler.gap_estimate"]),
        "sampler.pcn_self_us_per_step": per(total["sampler.pcn_expectation"], pcn_steps),
        "sampler.ess_per_draw": from_results.get("ess_per_draw", 0.0),
        "sampler.chain_ess_per_step": from_results.get("chain_ess_per_step", 0.0),
        "sampler.fields": fields["sampler.sample"],
        "cluster.ladder_builds": calls["cluster.derivative_ladder"],
        "cluster.ladder_build_s": total["cluster.derivative_ladder"],
        "cluster.ladder_eval_s": total["cluster.evaluate_ladder"],
        "cluster.contraction_self_s": total["cluster.contraction_value"],
        "cluster.gibbs_weight_s": inclusive["cluster.gibbs_weight"],
        "cluster.normals_s": inclusive["cluster.scrambled_normals"],
        "cluster.cholesky_s": total["cluster.sample_block"],
        "cluster.block_matrix_s": inclusive["cluster.block_matrix"],
        "cluster.scatter_s": total["cluster.i_term"],
        "cluster.node_evals": node_evals,
        "cluster.reference_draw_s": (inclusive["cluster.partition_weight"]
                                     + inclusive["cluster.ratio_table"]),
        "oracle.one_site_solve_s": solve_one,
        "oracle.states": states,
        "oracle.correlation_s": (inclusive["oracle.thermal_correlation"]
                                 + inclusive["oracle.thermal_trace"]),
        "trace.wall_s": traced_wall,
    }
