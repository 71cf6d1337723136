"""The benchmark's workloads: the `quantshift` command line each one runs,
the configs its set-up builds, and the checks its outputs must pass.

Every check returns a list of problems; an empty list means the run is
correct. The reference tables are read from ``quantshift/reference.py`` as a
plain data file, at the tolerances `quantshift verify` uses.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

OUTPUTS = ("prevalence", "relative_error", "accuracy", "f_measure")
DERIVED_OUTPUTS = ("prevalence", "relative_error")
PANELS = ("population", "sample")

# Tolerances of `quantshift verify` against the reference tables.
TABLE_TOLERANCE = {"prevalence": 1e-3, "relative_error": 2e-3, "accuracy": 1e-3, "f_measure": 1e-3}
VERIFY_PASS_LINES = 11
# At N = 200,000 this is at least 5 standard errors of ACC and EM.
LARGE_SAMPLE_TOLERANCE = 0.015


@dataclass(frozen=True)
class Workload:
    """One way of running the CLI.

    ``config`` names a config file in this directory (None runs the built-in
    scenarios, or `verify`). ``tables`` lists the (scenario, metric, panel)
    tables the run must write, and ``setup_scenarios`` the scenarios whose
    set-up it builds. ``sample_tolerance`` bounds |EM - q| and
    |ACC - q| on the prior-shift sample panel when set.
    """

    name: str
    command: str
    config: str | None
    tables: frozenset
    setup_scenarios: tuple[str, ...]
    sample_tolerance: float | None = None

    def argv(self, seed: int, outdir: Path) -> list[str]:
        if self.command == "verify":
            return ["verify"]
        args = ["run"]
        if self.config is not None:
            args.append(str(BENCH_DIR / self.config))
        return [*args, "--seed", str(seed), "--outdir", str(outdir)]

    def check(self, returncode: int, stdout: str, outdir: Path) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        if self.command == "verify":
            return check_verify(stdout)
        return check_run(self, outdir)


def _tables(scenarios_outputs: dict, panels=PANELS) -> frozenset:
    return frozenset(
        (scenario, metric, panel)
        for scenario, outputs in scenarios_outputs.items()
        for metric in outputs
        for panel in panels
    )


_BUILT_IN = {"prior_shift": OUTPUTS, "invariant_ratio": DERIVED_OUTPUTS, "sqrt_ratio": DERIVED_OUTPUTS}

WORKLOADS = {
    "paper_grid": Workload("paper_grid", "run", None, _tables(_BUILT_IN), tuple(_BUILT_IN)),
    "verify": Workload("verify", "verify", None, frozenset(), tuple(_BUILT_IN)),
    "large_sample": Workload(
        "large_sample", "run", "large_sample.cfg",
        _tables({"prior_shift": OUTPUTS}, ("sample",)), ("prior_shift",), LARGE_SAMPLE_TOLERANCE,
    ),
}

# Seconds-long stand-ins used by `run.py --self-check`; `verify` has no
# smaller form and runs as it is.
SELF_CHECK_WORKLOADS = {
    "paper_grid": Workload(
        "paper_grid", "run", "selfcheck_paper_grid.cfg",
        _tables({"invariant_ratio": DERIVED_OUTPUTS}), ("invariant_ratio",),
    ),
    "verify": WORKLOADS["verify"],
    "large_sample": Workload(
        "large_sample", "run", "selfcheck_large_sample.cfg",
        _tables({"prior_shift": OUTPUTS}, ("sample",)), ("prior_shift",), LARGE_SAMPLE_TOLERANCE,
    ),
}


def load_reference():
    """The reference-table module, loaded from its file without the package."""
    spec = importlib.util.spec_from_file_location("_quantshift_reference", SRC / "quantshift" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = sum(line.startswith("[PASS]") for line in lines)
    failed = [line for line in lines if line.startswith("[FAIL]")]
    problems = [f"verify reported {line}" for line in failed]
    if passed != VERIFY_PASS_LINES:
        problems.append(f"verify printed {passed} PASS lines, expected {VERIFY_PASS_LINES}")
    return problems


def read_tables(outdir: Path) -> dict:
    """(scenario, metric, panel) -> table dict, from every *_results.json."""
    tables = {}
    for path in sorted(outdir.glob("*_results.json")):
        for table in json.loads(path.read_text())["tables"]:
            tables[(table["scenario"], table["metric"], table["panel"])] = table
    return tables


def _cell(value) -> float:
    return math.nan if value is None else float(value)


def _reference_columns(table: dict, grid) -> list[int] | None:
    columns = []
    for label in table["col_labels"]:
        matches = [j for j, q in enumerate(grid) if abs(q - float(label)) <= 1e-12]
        if not matches:
            return None
        columns.append(matches[0])
    return columns


def _reference_gap(table: dict, expected: dict, columns: list[int], overrides: dict) -> float:
    """Largest |got - want| over the cells both sides define (as `verify` does)."""
    worst = 0.0
    for label, row in zip(table["row_labels"], table["cells"]):
        for j, got in zip(columns, map(_cell, row)):
            want = overrides.get((table["scenario"], label, j), expected[label][j])
            if math.isnan(want) or math.isnan(got):
                continue
            worst = max(worst, abs(got - want))
    return worst


def check_population_table(table: dict, reference) -> list[str]:
    scenario, metric = table["scenario"], table["metric"]
    where = f"{scenario} {metric} population"
    if metric == "prevalence":
        expected, overrides = reference.PREVALENCE_TABLES[scenario], {}
    elif metric == "relative_error":
        expected, overrides = reference.RELATIVE_ERROR_TABLES[scenario], reference.GROUND_TRUTH_OVERRIDES
    elif scenario == "prior_shift":
        expected = reference.ACCURACY_TABLE if metric == "accuracy" else reference.F_MEASURE_TABLE
        overrides = {}
    else:
        return []
    columns = _reference_columns(table, reference.PREVALENCE_GRID)
    if columns is None:
        return [f"{where}: columns {table['col_labels']} are not on the reference grid"]
    problems = []
    gap = _reference_gap(table, expected, columns, overrides)
    if gap > TABLE_TOLERANCE[metric]:
        problems.append(f"{where}: max gap {gap:.2e} exceeds {TABLE_TOLERANCE[metric]}")
    if metric == "f_measure":
        got_nan = {
            (label, j)
            for label, row in zip(table["row_labels"], table["cells"])
            for j, v in zip(columns, map(_cell, row))
            if math.isnan(v)
        }
        want_nan = {(label, j) for label in table["row_labels"] for j in columns if math.isnan(expected[label][j])}
        if got_nan != want_nan:
            problems.append(f"{where}: NaN cells {sorted(got_nan)}, expected {sorted(want_nan)}")
    return problems


def check_sample_prevalence(table: dict, tolerance: float) -> list[str]:
    problems = []
    for label, row in zip(table["row_labels"], table["cells"]):
        if label not in ("ACC", "EM"):
            continue
        for col, got in zip(table["col_labels"], map(_cell, row)):
            if not abs(got - float(col)) <= tolerance:
                problems.append(f"sample {label} at q = {col}: {got} is not within {tolerance}")
    return problems


def check_run(workload: Workload, outdir: Path) -> list[str]:
    try:
        tables = read_tables(outdir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable results: {exc!r}"]
    missing = sorted(workload.tables - set(tables))
    problems = [f"missing table {key}" for key in missing]
    reference = load_reference()
    for (scenario, metric, panel), table in sorted(tables.items()):
        if panel == "population":
            problems += check_population_table(table, reference)
    key = ("prior_shift", "prevalence", "sample")
    if workload.sample_tolerance is not None and key in tables:
        problems += check_sample_prevalence(tables[key], workload.sample_tolerance)
    return problems


def tree_digest(outdir: Path) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every file under ``outdir``, and
    the total byte count."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digest.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), size
