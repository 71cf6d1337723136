"""Command-line experiment runner.

Subcommands:
  run     execute a configuration (or the three built-in benchmark scenarios)
          and write result tables as CSV / markdown
  tables  re-render tables from a stored results.json
  verify  recompute the population panels and check every cell against the
          embedded reference tables (``reference.check``)

Exit codes: 0 on success, 2 on a verification mismatch, and otherwise the
``exit_code`` of the error: 1 for configuration errors, 2 for numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import reference
from .errors import ConfigError, QuantshiftError
from .experiment import (
    PANELS,
    ExperimentConfig,
    ResultTable,
    build_setup,
    density_grid_csv,
    emit_table,
    parse_config,
    run_experiment,
    tables_from_json,
    tables_to_json,
)
from .shift import ShiftKind


def _benchmark_configs(**overrides) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(scenario=scenario, outputs=outputs, **overrides)
        for scenario, outputs in reference.BENCHMARK_OUTPUTS.items()
    ]


def _make_outdir(path: str) -> Path:
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {path} ({type(exc).__name__}: {exc})") from None
    return outdir


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({type(exc).__name__}: {exc})") from None


def _write_tables(tables: list[ResultTable], outdir: Path, format: str) -> None:
    for table in tables:
        stem = f"{table.scenario}_{table.metric}_{table.panel}"
        if format in ("csv", "both"):
            _write(outdir / f"{stem}.csv", emit_table(table, "csv"))
            _write(outdir / f"{stem}_full.csv", emit_table(table, "csv", full_precision=True))
        if format in ("markdown", "both"):
            _write(outdir / f"{stem}.md", emit_table(table, "markdown"))


def _load(path: str, parse):
    try:
        return parse(Path(path).read_text())
    except ConfigError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load {path} ({type(exc).__name__}: {exc})") from None


def _cmd_run(args) -> int:
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.panel is not None:
        overrides["panels"] = PANELS if args.panel == "both" else (args.panel,)
    if args.config is not None:
        configs = [replace(_load(args.config, parse_config), **overrides)]
    else:
        configs = _benchmark_configs(**overrides)

    all_tables: list[ResultTable] = []
    for config in configs:
        setup = build_setup(config)
        # made before any grid cell, but only once a scenario has been built
        outdir = _make_outdir(args.outdir)
        tables = run_experiment(config, setup)
        all_tables.extend(tables)
        _write_tables(tables, outdir, args.format)
        _write(outdir / f"{config.scenario.value}_densities.csv", density_grid_csv(setup))
        _write(outdir / f"{config.scenario.value}_results.json", tables_to_json(tables, config))
    print(f"wrote {len(all_tables)} tables to {outdir}")
    return 0


def _cmd_tables(args) -> int:
    tables = _load(args.results, tables_from_json)
    _write_tables(tables, _make_outdir(args.outdir), args.format)
    print(f"re-rendered {len(tables)} tables to {args.outdir}")
    return 0


def _cmd_verify(args) -> int:
    del args
    tables, mixture_weights = [], {}
    for config in _benchmark_configs(panels=("population",)):
        setup = build_setup(config)
        if config.scenario is not ShiftKind.PRIOR_SHIFT:
            # class-0 draws accept one proposal in M = 1/q* from the envelope
            mixture_weights[config.scenario.value] = 1.0 / setup.test_conditionals.sampler0.envelope_constant
        tables += run_experiment(config, setup)
    checks = reference.check(tables, mixture_weights)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}  ({detail})")
    return 0 if all(c.ok for c in checks) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantshift",
        description="Class-prevalence quantification experiments under dataset shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configuration (default: the benchmark scenarios)")
    run_p.add_argument("config", nargs="?", default=None, help="path to a key = value config file")
    run_p.add_argument("--outdir", default="results", help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    run_p.add_argument(
        "--panel", choices=("population", "sample", "both"), default=None,
        help="restrict to one panel",
    )
    run_p.add_argument("--format", choices=("csv", "markdown", "both"), default="csv")
    run_p.set_defaults(func=_cmd_run)

    tables_p = sub.add_parser("tables", help="re-render stored results")
    tables_p.add_argument("results", help="path to a *_results.json file")
    tables_p.add_argument("--outdir", default="results", help="output directory")
    tables_p.add_argument("--format", choices=("csv", "markdown", "both"), default="csv")
    tables_p.set_defaults(func=_cmd_tables)

    verify_p = sub.add_parser(
        "verify", help="check the population panels against the embedded reference tables"
    )
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuantshiftError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
