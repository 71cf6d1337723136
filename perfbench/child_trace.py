"""Traced run of one workload.

Wraps public functions of each ``quantshift`` module at the names their
callers look up (every module namespace that binds the function, or the
class dict for methods), runs the CLI in this process, and writes the
per-layer metrics as JSON. Spans (name, start, end, parent) are kept in
memory and reduced to per-layer totals and self times after the run.

Hooks are fail-soft: a hooked name that no longer exists, or whose
arguments no longer have the expected shape, makes the metrics that depend
on it absent (null) and the workload still runs. Time spent in functions
that are not hooked (densities, the RNG) counts as self time of the nearest
hooked caller.

    python3 perfbench/child_trace.py SUMMARY_JSON SEED CLI_ARG...
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import SRC

LAYERS = ("cli", "experiment", "shift", "models", "numerics", "sampling", "quantify", "classify", "metrics")

# (name, unit, is_count): counts must repeat exactly across runs of one seed.
LAYER_METRICS = (
    ("numerics.rng_uniforms_per_s", "1/s", False),
    ("numerics.rng_gaussians_per_s", "1/s", False),
    ("numerics.quadrature_calls", "count", True),
    ("numerics.quadrature_points", "count", True),
    ("numerics.quadrature_s", "s", False),
    ("numerics.root_solves", "count", True),
    ("numerics.root_fevals", "count", True),
    ("numerics.root_s", "s", False),
    ("models.gridcdf_build_s", "s", False),
    ("models.gridcdf_queries", "count", True),
    ("models.gridcdf_query_s", "s", False),
    ("shift.decompose_s", "s", False),
    ("shift.scenario_build_s", "s", False),
    ("sampling.sample_s", "s", False),
    ("sampling.draws", "count", True),
    ("sampling.proposals", "count", True),
    ("sampling.acceptance_ratio", "ratio", True),
    *(
        (f"quantify.{est}_{backend}_s", "s", False)
        for est in ("em", "cde", "acc")
        for backend in ("population", "sample")
    ),
    ("quantify.expect_calls_population", "count", True),
    ("quantify.expect_calls_sample", "count", True),
    ("quantify.cde_iterations", "count", True),
    ("metrics.metric_s", "s", False),
    ("experiment.cells", "count", True),
    ("experiment.render_s", "s", False),
    ("cli.bytes_written", "bytes", True),
    *((f"{layer}.self_s", "s", False) for layer in LAYERS),
    ("trace.spans", "count", True),
    ("trace.overhead_s", "s", False),
)

# Errors a hook's argument reader can raise when a signature changes.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)

RNG_DRAWS = 100_000
RNG_REPEATS = 3


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _backend(evaluator) -> str:
    return {"PopulationEvaluator": "population", "SampleEvaluator": "sample"}.get(
        type(evaluator).__name__, "other"
    )


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.span_names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.name_ids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.missing: set[str] = set()  # hooks whose target is gone
        self.broken: set[str] = set()  # hooks whose arguments could not be read

    def count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, hook: "Hook", fn: Callable) -> Callable:
        names, starts, ends, parents, stack = self.span_names, self.starts, self.ends, self.parents, self.stack
        ids = self.name_ids

        def prepare(args, kwargs):
            label = hook.name
            try:
                if hook.tag is not None:
                    label = f"{hook.name}[{hook.tag(args, kwargs)}]"
                if hook.before is not None:
                    args, kwargs = hook.before(self, args, kwargs)
            except _SHAPE_ERRORS:
                self.broken.add(hook.name)
            return label, args, kwargs

        def finish(args, kwargs, result):
            try:
                hook.after(self, args, kwargs, result)
            except _SHAPE_ERRORS:
                self.broken.add(hook.name)

        if not hook.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                _, args, kwargs = prepare(args, kwargs)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, args, kwargs = prepare(args, kwargs)
            idx = len(starts)
            names.append(ids.setdefault(label, len(ids)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook.after is not None:
                finish(args, kwargs, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span label -> (calls, inclusive seconds, self seconds)."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        labels = {v: k for k, v in self.name_ids.items()}
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(labels[self.span_names[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += durations[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "function" or "Class.method"
    span: bool = True
    tag: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _count_calls(counter: str, index: int, name: str, points: bool = False):
    """Replace the callable argument ``name`` by one that counts its calls,
    or with ``points`` the array elements it is evaluated at."""

    def before(tracer, args, kwargs):
        fn = _arg(args, kwargs, index, name)
        if points:

            def counted(x):
                tracer.count(counter, getattr(x, "size", 1))
                return fn(x)

        else:

            def counted(*a, **k):
                tracer.count(counter)
                return fn(*a, **k)

        if len(args) > index:
            args = (*args[:index], counted, *args[index + 1:])
        else:
            kwargs = {**kwargs, name: counted}
        return args, kwargs

    return before


def _count_draws(tracer, args, kwargs):
    tracer.count("draws", int(_arg(args, kwargs, 1, "n")))
    return args, kwargs


def _count_accept_reject(tracer, args, kwargs):
    tracer.count("ar_draws")
    return _count_calls("ar_proposals", 1, "candidate_sampler")(tracer, args, kwargs)


def _count_cells(tracer, args, kwargs):
    config = _arg(args, kwargs, 0, "config")
    per_grid = sum(config.repetitions if panel == "sample" else 1 for panel in config.panels)
    tracer.count("cells", per_grid * len(config.test_prevalence_grid))
    return args, kwargs


def _count_iterations(tracer, args, kwargs, result):
    tracer.count("cde_iterations", len(result.trace))


def _tag_arg(index: int, name: str):
    return lambda args, kwargs: _backend(_arg(args, kwargs, index, name))


HOOKS = (
    Hook("cli", "main"),
    Hook("experiment", "parse_config"),
    Hook("experiment", "run_experiment", before=_count_cells),
    Hook("experiment", "build_setup"),
    Hook("experiment", "emit_table"),
    Hook("experiment", "tables_to_json"),
    Hook("experiment", "density_grid_csv"),
    Hook("shift", "make_test_population"),
    Hook("shift", "decompose_mixture"),
    Hook("models", "binormal_population"),
    Hook("models", "GridCdf.__init__"),
    Hook("models", "GridCdf.__call__"),
    Hook("numerics", "integrate_interval", before=_count_calls("quadrature_points", 0, "f", points=True)),
    Hook("numerics", "find_root_bracketed", before=_count_calls("root_fevals", 0, "f")),
    Hook("sampling", "stratified_sample", before=_count_draws),
    Hook("sampling", "rejection_draw", span=False, before=_count_accept_reject),
    Hook("quantify", "training_rates"),
    Hook("quantify", "PopulationEvaluator.expect"),
    Hook("quantify", "SampleEvaluator.expect"),
    Hook("quantify", "SampleEvaluator.rates_by_class"),
    Hook("quantify", "cde_iterate", tag=_tag_arg(1, "evaluator"), after=_count_iterations),
    Hook("quantify", "acc_estimate", tag=_tag_arg(0, "evaluator")),
    Hook("quantify", "em_estimate", tag=_tag_arg(0, "evaluator")),
    Hook("classify", "bayes_classifier"),
    Hook("classify", "weighted_bayes_classifier"),
    Hook("classify", "adapt_threshold"),
    Hook("classify", "ThresholdClassifier.predict"),
    Hook("classify", "ThresholdClassifier.rate_class0"),
    Hook("metrics", "relative_error"),
    Hook("metrics", "accuracy"),
    Hook("metrics", "f_measure"),
)


def import_modules() -> dict:
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"quantshift.{layer}")
        except ImportError:
            pass
    return modules


def install(tracer: Tracer, modules: dict) -> None:
    bindings = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "quantshift"]
    for hook in HOOKS:
        module = modules.get(hook.module)
        owner_name, _, attr = hook.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            tracer.missing.add(hook.name)
            continue
        wrapped = tracer.wrap(hook, original)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for bound in bindings:
            for key, value in list(vars(bound).items()):
                if value is original:
                    setattr(bound, key, wrapped)


def rng_rates(numerics, seed: int) -> tuple[float | None, float | None]:
    """Median draws per second of RngStream uniforms and gaussians, untraced."""
    stream_type = getattr(numerics, "RngStream", None)

    def rate(method: str) -> float | None:
        samples = []
        for repeat in range(RNG_REPEATS):
            try:
                draw = getattr(stream_type(seed, repeat), method)
            except _SHAPE_ERRORS:
                return None
            start = perf_counter()
            for _ in range(RNG_DRAWS):
                draw()
            samples.append(RNG_DRAWS / (perf_counter() - start))
        return statistics.median(samples)

    if stream_type is None:
        return None, None
    return rate("next_uniform"), rate("next_gaussian")


def layer_metrics(tracer: Tracer, rng: tuple) -> dict[str, float | None]:
    totals = tracer.totals()
    unusable = tracer.missing | tracer.broken

    def spans(*hooks: str, field: int):
        if any(h in unusable for h in hooks):
            return None
        return sum(v[field] for k, v in totals.items() if k.split("[")[0] in hooks)

    def tagged(hook: str, tag: str):
        return None if hook in unusable else totals.get(f"{hook}[{tag}]", (0, 0.0, 0.0))[1]

    def counter(name: str, *hooks: str):
        return None if any(h in unusable for h in hooks) else tracer.counters.get(name, 0)

    draws = counter("draws", "sampling.stratified_sample")
    ar_draws = counter("ar_draws", "sampling.rejection_draw")
    ar_proposals = counter("ar_proposals", "sampling.rejection_draw")
    # exact samplers make one proposal per draw
    proposals = None if None in (draws, ar_draws, ar_proposals) else draws - ar_draws + ar_proposals
    values = {
        "numerics.rng_uniforms_per_s": rng[0],
        "numerics.rng_gaussians_per_s": rng[1],
        "numerics.quadrature_calls": spans("numerics.integrate_interval", field=0),
        "numerics.quadrature_points": counter("quadrature_points", "numerics.integrate_interval"),
        "numerics.quadrature_s": spans("numerics.integrate_interval", field=1),
        "numerics.root_solves": spans("numerics.find_root_bracketed", field=0),
        "numerics.root_fevals": counter("root_fevals", "numerics.find_root_bracketed"),
        "numerics.root_s": spans("numerics.find_root_bracketed", field=1),
        "models.gridcdf_build_s": spans("models.GridCdf.__init__", field=1),
        "models.gridcdf_queries": spans("models.GridCdf.__call__", field=0),
        "models.gridcdf_query_s": spans("models.GridCdf.__call__", field=1),
        "shift.decompose_s": spans("shift.decompose_mixture", field=1),
        "shift.scenario_build_s": spans("shift.make_test_population", field=1),
        "sampling.sample_s": spans("sampling.stratified_sample", field=1),
        "sampling.draws": draws,
        "sampling.proposals": proposals,
        # 0 when nothing was sampled (verify)
        "sampling.acceptance_ratio": None if proposals is None else draws / proposals if proposals else 0.0,
        "quantify.expect_calls_population": spans("quantify.PopulationEvaluator.expect", field=0),
        "quantify.expect_calls_sample": spans("quantify.SampleEvaluator.expect", field=0),
        "quantify.cde_iterations": counter("cde_iterations", "quantify.cde_iterate"),
        "metrics.metric_s": spans("metrics.accuracy", "metrics.f_measure", field=1),
        "experiment.cells": counter("cells", "experiment.run_experiment"),
        "experiment.render_s": spans(
            "experiment.emit_table", "experiment.tables_to_json", "experiment.density_grid_csv", field=1
        ),
        "trace.spans": len(tracer.starts),
    }
    for est, hook in (("em", "em_estimate"), ("cde", "cde_iterate"), ("acc", "acc_estimate")):
        for backend in ("population", "sample"):
            values[f"quantify.{est}_{backend}_s"] = tagged(f"quantify.{hook}", backend)
    for layer in LAYERS:
        hooked = [h.name for h in HOOKS if h.module == layer and h.span and h.name not in tracer.missing]
        values[f"{layer}.self_s"] = (
            sum(v[2] for k, v in totals.items() if k.split("[")[0] in hooked) if hooked else None
        )
    return values


def main(argv: list[str]) -> int:
    summary_path, seed, cli_args = argv[0], int(argv[1]), argv[2:]
    sys.path.insert(0, str(SRC))
    modules = import_modules()
    tracer = Tracer()
    install(tracer, modules)
    cli = modules["cli"]
    code = cli.main(cli_args)
    sys.stdout.flush()
    extra_start = perf_counter()
    rng = rng_rates(modules.get("numerics"), seed)
    summary = {
        "metrics": layer_metrics(tracer, rng),
        "missing_hooks": sorted(tracer.missing),
        "broken_hooks": sorted(tracer.broken),
    }
    summary["extra_s"] = perf_counter() - extra_start
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
