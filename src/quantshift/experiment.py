"""Experiment harness: build a shift scenario, run all five estimator
variants over a prevalence grid at population and sample level, and render
the result tables.

Population panels are computed analytically (CDF evaluations and sums over
fixed Gauss-Legendre nodes) and involve no randomness; sample panels are
deterministic functions of the configured seed.  Grid cells are independent;
output assembly follows grid order, so two runs of the same configuration
produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Iterable

import numpy as np

from .classify import ThresholdClassifier, adapt_threshold, bayes_classifier
from .errors import ConfigError
from .metrics import accuracy, f_measure, relative_error
from .models import BinormalParams, PopulationModel, binormal_density_ratio, binormal_population
from .numerics import RngStream
from .quantify import (
    PopulationEvaluator,
    SampleEvaluator,
    acc_estimate,
    cde_iterate,
    em_estimate,
)
from .reference import PREVALENCE_GRID as DEFAULT_GRID, ROW_LABELS
from .sampling import stratified_sample
from .shift import ShiftKind, make_test_population

PANELS = ("population", "sample")
OUTPUTS = ("prevalence", "relative_error", "accuracy", "f_measure")

# Stream-id layout: one 16-bit block per scenario, in ShiftKind order; within
# a block, one sub-block per repetition holding the training draw (slot 0)
# and one slot per grid cell.
_SCENARIO_STRIDE = 1 << 16
_REPETITION_STRIDE = 1 << 10
_MAX_SAMPLE_CELLS = _REPETITION_STRIDE - 1
_MAX_REPETITIONS = _SCENARIO_STRIDE // _REPETITION_STRIDE

_DENSITY_GRID_RANGE = (-6.0, 8.0)
_DENSITY_GRID_POINTS = 1001


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one scenario run; defaults match the benchmark setup.
    Construction validates (``dataclasses.replace`` too): a bad field raises :class:`ConfigError`."""

    scenario: ShiftKind = ShiftKind.PRIOR_SHIFT
    mu: float = 0.0
    nu: float = 2.0
    sigma: float = 1.0
    envelope_mean: float = 0.5
    envelope_sd: float = 1.4
    train_prevalence0: float = 0.5
    test_prevalence_grid: tuple[float, ...] = DEFAULT_GRID
    sample_size: int = 10_000
    seed: int = 42
    panels: tuple[str, ...] = PANELS
    outputs: tuple[str, ...] = OUTPUTS
    repetitions: int = 1
    cde_max_iter: int = 1000
    cde_tol: float = 1e-8

    def __post_init__(self):
        # accept plain strings / lists for convenience; store canonical forms
        try:
            object.__setattr__(self, "scenario", ShiftKind(self.scenario))
        except ValueError:
            raise ConfigError(f"unknown scenario {self.scenario!r}") from None
        for name in ("test_prevalence_grid", "panels", "outputs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("mu", "nu", "sigma", "theta", "tau", "cde_tol"):
            if not math.isfinite(getattr(self, _KEY_ALIASES.get(name, name))):
                raise ConfigError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if not self.mu < self.nu:
            raise ConfigError("mu must be smaller than nu")
        try:
            binormal_density_ratio(BinormalParams(self.mu, self.nu, self.sigma))
        except (ArithmeticError, ValueError):
            raise ConfigError("mu, nu and sigma give a density ratio that is not finite") from None
        if self.envelope_sd <= 0:
            raise ConfigError("tau must be positive")
        if not 0.0 < self.train_prevalence0 < 1.0:
            raise ConfigError("train_prevalence0 must lie strictly between 0 and 1")
        if not self.test_prevalence_grid:
            raise ConfigError("test_prevalence_grid must not be empty")
        if any(not 0.0 < q < 1.0 for q in self.test_prevalence_grid):
            raise ConfigError("test_prevalence_grid values must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(self.test_prevalence_grid, self.test_prevalence_grid[1:])):
            raise ConfigError("test_prevalence_grid must be strictly increasing")
        if self.sample_size < 1:
            raise ConfigError("sample_size must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        for name, allowed in (("panels", PANELS), ("outputs", OUTPUTS)):
            chosen = getattr(self, name)
            # distinct and allowed entries only
            if not chosen or len(set(chosen).intersection(allowed)) < len(chosen):
                raise ConfigError(f"{name} must be a non-empty subset of {allowed}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if "sample" in self.panels:
            # larger grids or repetition counts would reuse another slot's stream
            if len(self.test_prevalence_grid) > _MAX_SAMPLE_CELLS:
                raise ConfigError(f"the sample panel supports at most {_MAX_SAMPLE_CELLS} grid cells")
            if self.repetitions > _MAX_REPETITIONS:
                raise ConfigError(f"the sample panel supports at most {_MAX_REPETITIONS} repetitions")
        if self.cde_max_iter < 2:
            raise ConfigError("cde_max_iter must be at least 2")
        if self.cde_tol <= 0:
            raise ConfigError("cde_tol must be positive")


_KEY_ALIASES = {"theta": "envelope_mean", "tau": "envelope_sd"}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_value(default, text: str):
    """``text`` read as the kind of ``default``: a comma- or space-separated
    tuple of its items' kind, a case-blind :class:`ShiftKind`, an int or a float."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(part) for part in text.replace(",", " ").split())
    if isinstance(default, ShiftKind):
        return ShiftKind(text.lower())
    return type(default)(text)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` document ('#' starts a comment).

    Unspecified keys keep their defaults.  Raises :class:`ConfigError` naming
    the offending line for unknown keys, bad values, or invariant violations.
    """
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        key = _KEY_ALIASES.get(key, key)
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        try:
            values[key] = _parse_value(_DEFAULTS[key], value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {value!r}") from exc
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


@dataclass(frozen=True)
class ResultTable:
    """One metric, one panel: estimator rows by prevalence-grid columns."""

    caption: str
    scenario: str
    metric: str
    panel: str
    col_labels: tuple[str, ...]
    row_labels: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]

    def row(self, label: str) -> tuple[float, ...]:
        return self.cells[self.row_labels.index(label)]


def _format_cell(value: float, full_precision: bool) -> str:
    if math.isnan(value):
        return "NaN"
    return f"{value:.17g}" if full_precision else f"{value:.4f}"


def emit_table(table: ResultTable, format: str = "csv", full_precision: bool = False) -> str:
    """Render a table as CSV or markdown text.

    CSV uses '.' decimal separators and fixed 4-decimal cells; pass
    ``full_precision=True`` for the 17-significant-digit companion form.
    Undefined cells render as the literal ``NaN``.
    """
    header = ["Q[Y=0]", *table.col_labels]
    rows = [
        [label, *(_format_cell(v, full_precision) for v in row)]
        for label, row in zip(table.row_labels, table.cells)
    ]
    if format == "csv":
        return "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    if format == "markdown":
        lines = [f"**{table.caption}**", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for r in rows:
            lines.append("| " + " | ".join(r) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'markdown'")


@dataclass(frozen=True)
class ScenarioSetup:
    """Everything derivable from the configuration before touching the grid."""

    config: ExperimentConfig
    train: PopulationModel
    test_conditionals: PopulationModel
    min_error_classifier: ThresholdClassifier


def build_setup(config: ExperimentConfig) -> ScenarioSetup:
    """Construct the training population, test conditionals, and base classifier."""
    params = BinormalParams(config.mu, config.nu, config.sigma)
    train = binormal_population(params, config.train_prevalence0)
    test_conditionals = make_test_population(config.scenario, train, config.envelope_mean, config.envelope_sd)
    return ScenarioSetup(config, train, test_conditionals, bayes_classifier(train))


def _scenario_base_stream(config: ExperimentConfig, repetition: int) -> int:
    return list(ShiftKind).index(config.scenario) * _SCENARIO_STRIDE + repetition * _REPETITION_STRIDE


def _repetitions(config: ExperimentConfig, panel: str) -> int:
    """A population panel is exact, so only a sample panel is repeated."""
    return config.repetitions if panel == "sample" else 1


def _evaluator(setup: ScenarioSetup, panel: str, rep: int, model: PopulationModel, slot: int):
    """The panel's evaluator of ``model``; a sample panel draws it from stream ``slot`` of ``rep``."""
    if panel == "population":
        return PopulationEvaluator(model)
    config = setup.config
    stream = RngStream(config.seed, _scenario_base_stream(config, rep) + slot)
    return SampleEvaluator(stratified_sample(model, config.sample_size, stream))


def _estimates_for_cell(setup: ScenarioSetup, evaluator, tpr: float, fpr: float) -> dict[str, float]:
    config = setup.config
    # the evaluator keeps no state, so the order of the estimators moves no value
    em_est = em_estimate(evaluator, setup.train.ratio)
    cde = cde_iterate(setup.train, evaluator, config.cde_max_iter, config.cde_tol)
    acc_est = acc_estimate(evaluator, setup.min_error_classifier, tpr, fpr)
    return {
        "CDE1": cde.trace[0],
        "CDE2": cde.trace[1],
        "CDEinf": cde.value,
        "ACC": acc_est.value,
        "EM": em_est.value,
    }


def _metric_value(metric: str, true_q: float, estimate: float, prevalence0: float, rates) -> float:
    if metric == "prevalence":
        return estimate
    if metric == "relative_error":
        return relative_error(true_q, estimate)
    return (accuracy if metric == "accuracy" else f_measure)(prevalence0, *rates)


def _panel_cells(setup: ScenarioSetup, panel: str) -> dict[str, list[list[float]]]:
    """Metric name -> rows (one per estimator) of per-cell values."""
    config = setup.config
    grid = config.test_prevalence_grid
    per_metric = {m: [[0.0] * len(grid) for _ in ROW_LABELS] for m in config.outputs}
    repetitions = _repetitions(config, panel)
    adapts = not {"accuracy", "f_measure"}.isdisjoint(config.outputs)

    for rep in range(repetitions):
        evaluate = partial(_evaluator, setup, panel, rep)
        # only the training rates are kept, not a training sample
        tpr, fpr = evaluate(setup.train, 0).rates_by_class(setup.min_error_classifier)
        for j, q in enumerate(grid):
            evaluator = evaluate(setup.test_conditionals.with_prevalence(q), 1 + j)
            estimates = _estimates_for_cell(setup, evaluator, tpr, fpr)
            for i, label in enumerate(ROW_LABELS):
                estimate = estimates[label]
                # accuracy and F-measure share one adapted classifier and one read of its rates
                rates = evaluator.rates_by_class(adapt_threshold(setup.train, estimate)) if adapts else None
                for metric in config.outputs:
                    value = _metric_value(metric, q, estimate, evaluator.prevalence0, rates)
                    per_metric[metric][i][j] += value / repetitions
            # free this cell's sample before the next one is drawn
            del evaluator
    return per_metric


_METRIC_TITLES = {
    "prevalence": "Class-0 prevalence estimates",
    "relative_error": "Relative error of class-0 prevalence estimates",
    "accuracy": "Classification accuracy of the threshold-adapted classifier",
    "f_measure": "F-measure of the threshold-adapted classifier",
}


def run_experiment(config: ExperimentConfig, setup: ScenarioSetup | None = None) -> list[ResultTable]:
    """Run one scenario over its grid and return all requested tables.

    Population panels are deterministic; sample panels are deterministic
    given the seed.  Tables appear in (panel, output) order.  A caller that
    has already built ``build_setup(config)`` passes it as ``setup``.
    """
    if setup is None:
        setup = build_setup(config)
    col_labels = tuple(f"{q:g}" for q in config.test_prevalence_grid)
    tables = []
    for panel in config.panels:
        per_metric = _panel_cells(setup, panel)
        for metric in config.outputs:
            caption = f"{_METRIC_TITLES[metric]} on {panel}s ({config.scenario.value} scenario)"
            tables.append(
                ResultTable(
                    caption=caption,
                    scenario=config.scenario.value,
                    metric=metric,
                    panel=panel,
                    col_labels=col_labels,
                    row_labels=ROW_LABELS,
                    cells=tuple(tuple(row) for row in per_metric[metric]),
                )
            )
    return tables


def density_grid_csv(setup: ScenarioSetup) -> str:
    """Class-conditional densities of the training and test models on a fixed
    grid (1001 points over [-6, 8]), for external plotting."""
    xs = np.linspace(*_DENSITY_GRID_RANGE, _DENSITY_GRID_POINTS)
    t = setup.train
    s = setup.test_conditionals
    columns = (xs, t.f0(xs), t.f1(xs), s.f0(xs), s.f1(xs))
    lines = ["x,train_f0,train_f1,test_f0,test_f1"]
    lines.extend(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
    return "\n".join(lines) + "\n"


def tables_to_json(tables: Iterable[ResultTable], config: ExperimentConfig) -> str:
    """Serialize tables (full precision) and the configuration that made them."""
    payload = {
        "tables": [
            {**asdict(t), "cells": [[None if math.isnan(v) else v for v in row] for row in t.cells]}
            for t in tables
        ],
        "config": asdict(config),
    }
    return json.dumps(payload, indent=2)


def tables_from_json(text: str) -> list[ResultTable]:
    """Tables from :func:`tables_to_json`; :class:`ConfigError` unless the names are known, the labels
    strings and the cells one number (not a bool) or null per row and column label."""
    tables = []
    for t in json.loads(text)["tables"]:
        scenario, metric, panel = t["scenario"], t["metric"], t["panel"]
        if scenario not in [k.value for k in ShiftKind] or metric not in OUTPUTS or panel not in PANELS:
            raise ConfigError(f"unknown scenario, metric or panel in {scenario!r}, {metric!r}, {panel!r}")
        rows, row_labels, col_labels = t["cells"], tuple(t["row_labels"]), tuple(t["col_labels"])
        strings = all(type(label) is str for label in row_labels + col_labels)
        if not strings or len(rows) != len(row_labels) or any(
            len(row) != len(col_labels) or any(type(v) not in (int, float, type(None)) for v in row)
            for row in rows
        ):
            raise ConfigError("a table needs string labels and one number or null per row and column label")
        try:
            cells = tuple(tuple(math.nan if v is None else float(v) for v in row) for row in rows)
        except OverflowError:
            raise ConfigError("a table cell is too large for a float") from None
        tables.append(ResultTable(t["caption"], scenario, metric, panel, col_labels, row_labels, cells))
    return tables
