import dataclasses
import json
import math
from pathlib import Path

import pytest

import quantshift as qs
from quantshift import cli, experiment, reference
from quantshift.cli import main
from quantshift.experiment import (
    DEFAULT_GRID,
    ResultTable,
    build_setup,
    density_grid_csv,
    tables_from_json,
    tables_to_json,
)
from quantshift.shift import ShiftKind

from conftest import deadline

# `quantshift verify` output at the default configuration, byte for byte.
VERIFY_OUTPUT = """\
[PASS] mixture weight (invariant_ratio)  (0.7239184 vs 0.7239184)
[PASS] mixture weight (sqrt_ratio)  (0.8152434 vs 0.8152434)
[PASS] prevalence table (prior_shift)  (max gap 3.79e-05)
[PASS] relative error table (prior_shift)  (max gap 1.20e-04)
[PASS] accuracy table (prior_shift)  (max gap 4.87e-05)
[PASS] f-measure table (prior_shift)  (max gap 1.38e-04)
[PASS] f-measure NaN pattern (prior_shift)  ([('CDEinf', 0), ('CDEinf', 1)])
[PASS] prevalence table (invariant_ratio)  (max gap 4.88e-05)
[PASS] relative error table (invariant_ratio)  (max gap 1.00e-03)
[PASS] prevalence table (sqrt_ratio)  (max gap 5.06e-05)
[PASS] relative error table (sqrt_ratio)  (max gap 2.44e-04)
"""


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        assert qs.parse_config("") == qs.ExperimentConfig()

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nscenario = sqrt_ratio  # trailing comment\n"
        assert qs.parse_config(text).scenario is ShiftKind.SQRT_RATIO

    def test_single_cell_grid(self):
        config = qs.parse_config("test_prevalence_grid = 0.5")
        assert config.test_prevalence_grid == (0.5,)

    def test_grid_list(self):
        config = qs.parse_config("test_prevalence_grid = 0.1, 0.5, 0.9")
        assert config.test_prevalence_grid == (0.1, 0.5, 0.9)

    def test_envelope_aliases(self):
        config = qs.parse_config("theta = 0.25\ntau = 2.0")
        assert config.envelope_mean == 0.25
        assert config.envelope_sd == 2.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(qs.ConfigError, match="sigma"):
            qs.parse_config("sigma = -1")

    def test_unknown_key_names_line(self):
        with pytest.raises(qs.ConfigError, match="line 2"):
            qs.parse_config("mu = 0\nbogus = 1\n")

    def test_bad_value_names_line(self):
        with pytest.raises(qs.ConfigError, match="line 1"):
            qs.parse_config("sample_size = ten")

    def test_missing_equals_sign(self):
        with pytest.raises(qs.ConfigError, match="key = value"):
            qs.parse_config("just some words")

    def test_grid_must_increase(self):
        with pytest.raises(qs.ConfigError, match="increasing"):
            qs.parse_config("test_prevalence_grid = 0.5, 0.5")

    def test_panels_and_outputs(self):
        config = qs.parse_config("panels = population\noutputs = prevalence, accuracy")
        assert config.panels == ("population",)
        assert config.outputs == ("prevalence", "accuracy")
        with pytest.raises(qs.ConfigError):
            qs.parse_config("panels = nowhere")

    @pytest.mark.parametrize(
        "text", ["panels = population, population", "outputs = prevalence prevalence"]
    )
    def test_duplicate_entries_rejected(self, text):
        with pytest.raises(qs.ConfigError, match="subset"):
            qs.parse_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            "nu = inf",
            "mu = -inf",
            "sigma = inf",
            "scenario = invariant_ratio\ntau = inf",
            "theta = nan",
            "cde_tol = nan",
            "cde_tol = inf",
        ],
    )
    def test_non_finite_value_rejected(self, text):
        key = text.rpartition("\n")[2].partition(" =")[0]
        with pytest.raises(qs.ConfigError, match=f"invalid configuration: {key} must be finite"):
            qs.parse_config(text)

    def test_replace_validates(self):
        with pytest.raises(qs.ConfigError, match="sigma"):
            dataclasses.replace(qs.ExperimentConfig(), sigma=-1)

    def test_readme_documents_every_key(self):
        # the README's example config names every field, under its alias if it has one
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = next(b for b in readme.split("```")[1::2] if "\nscenario = " in b)
        keys = {line.partition("=")[0].strip() for line in block.splitlines() if "=" in line}
        names = {experiment._KEY_ALIASES.get(key, key) for key in keys}
        assert names == {f.name for f in dataclasses.fields(qs.ExperimentConfig)}
        qs.parse_config(block)


def population_config(**overrides):
    base = dict(panels=("population",), outputs=("prevalence",))
    base.update(overrides)
    return qs.ExperimentConfig(**base)


class TestStreamCapacity:
    # each repetition has 1,024 stream slots (training sample plus one per
    # grid cell) and each scenario 64 repetitions
    @staticmethod
    def _grid(cells):
        return tuple((j + 1) / (cells + 1) for j in range(cells))

    def test_grid_cells_edge(self):
        qs.ExperimentConfig(test_prevalence_grid=self._grid(1023))
        with pytest.raises(qs.ConfigError, match="1023 grid cells"):
            qs.ExperimentConfig(test_prevalence_grid=self._grid(1024))

    def test_repetitions_edge(self):
        qs.ExperimentConfig(repetitions=64)
        with pytest.raises(qs.ConfigError, match="64 repetitions"):
            qs.ExperimentConfig(repetitions=65)

    def test_population_panel_has_no_stream_limit(self):
        qs.ExperimentConfig(
            test_prevalence_grid=self._grid(1024), repetitions=65, panels=("population",)
        )


class TestRunExperiment:
    def test_single_cell_no_shift_fixed_point(self):
        tables = qs.run_experiment(population_config(test_prevalence_grid=(0.5,)))
        table = tables[0]
        for label in table.row_labels:
            assert table.row(label)[0] == pytest.approx(0.5, abs=1e-9)

    def test_csv_first_data_row(self):
        tables = qs.run_experiment(population_config())
        text = qs.emit_table(tables[0], "csv")
        lines = text.splitlines()
        assert lines[0] == "Q[Y=0],0.01,0.05,0.1,0.3,0.5,0.7,0.9,0.95,0.99"
        assert lines[1] == "CDE1,0.1655,0.1928,0.2269,0.3635,0.5000,0.6365,0.7731,0.8072,0.8345"

    def test_nan_cells_render_as_literal(self):
        config = population_config(outputs=("f_measure",), test_prevalence_grid=(0.01, 0.5))
        table = qs.run_experiment(config)[0]
        text = qs.emit_table(table, "csv")
        cde_inf_row = [line for line in text.splitlines() if line.startswith("CDEinf")][0]
        assert cde_inf_row.split(",")[1] == "NaN"

    def test_empty_table_renders_header_only(self):
        table = ResultTable(
            caption="empty", scenario="prior_shift", metric="prevalence",
            panel="population", col_labels=(), row_labels=(), cells=(),
        )
        assert qs.emit_table(table, "csv") == "Q[Y=0]\n"

    def test_markdown_layout(self):
        config = population_config(test_prevalence_grid=(0.5,))
        table = qs.run_experiment(config)[0]
        text = qs.emit_table(table, "markdown")
        assert text.splitlines()[2] == "| Q[Y=0] | 0.5 |"
        assert "| CDE1 | 0.5000 |" in text

    def test_population_panel_is_deterministic_and_panel_independent(self):
        grid = (0.1, 0.5)
        both = qs.ExperimentConfig(
            test_prevalence_grid=grid, sample_size=400, outputs=("prevalence",)
        )
        pop_only = population_config(test_prevalence_grid=grid)
        tables_both = {(t.panel, t.metric): t for t in qs.run_experiment(both)}
        tables_pop = qs.run_experiment(pop_only)
        assert tables_both[("population", "prevalence")].cells == tables_pop[0].cells

    def test_sample_panel_reproducible(self):
        config = qs.ExperimentConfig(
            test_prevalence_grid=(0.3, 0.7), sample_size=400,
            panels=("sample",), outputs=("prevalence", "f_measure"),
        )
        first = qs.run_experiment(config)
        second = qs.run_experiment(config)
        for a, b in zip(first, second):
            assert qs.emit_table(a, "csv", full_precision=True) == qs.emit_table(
                b, "csv", full_precision=True
            )

    def test_seed_changes_sample_panel(self):
        base = dict(test_prevalence_grid=(0.3,), sample_size=400, panels=("sample",), outputs=("prevalence",))
        a = qs.run_experiment(qs.ExperimentConfig(seed=1, **base))[0]
        b = qs.run_experiment(qs.ExperimentConfig(seed=2, **base))[0]
        assert a.cells != b.cells

    def test_repetitions_average(self):
        base = dict(test_prevalence_grid=(0.3,), sample_size=300, panels=("sample",), outputs=("prevalence",))
        single = qs.run_experiment(qs.ExperimentConfig(repetitions=1, **base))[0]
        averaged = qs.run_experiment(qs.ExperimentConfig(repetitions=3, **base))[0]
        assert single.cells != averaged.cells

    def test_json_roundtrip_preserves_nan(self):
        config = population_config(outputs=("prevalence", "f_measure"), test_prevalence_grid=(0.01, 0.5))
        tables = qs.run_experiment(config)
        back = tables_from_json(tables_to_json(tables, config))
        assert len(back) == len(tables)
        for a, b in zip(tables, back):
            for row_a, row_b in zip(a.cells, b.cells):
                for v_a, v_b in zip(row_a, row_b):
                    assert (math.isnan(v_a) and math.isnan(v_b)) or v_a == v_b

    def test_density_grid_export(self):
        text = density_grid_csv(build_setup(population_config(scenario=ShiftKind.INVARIANT_RATIO)))
        lines = text.splitlines()
        assert lines[0] == "x,train_f0,train_f1,test_f0,test_f1"
        assert len(lines) == 1002
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == -6.0


class TestCli:
    def test_run_with_config_file(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "scenario = prior_shift\n"
            "test_prevalence_grid = 0.3, 0.7\n"
            "sample_size = 300\n"
            "outputs = prevalence\n"
        )
        outdir = tmp_path / "out"
        assert main(["run", str(config_path), "--outdir", str(outdir)]) == 0
        assert (outdir / "prior_shift_prevalence_population.csv").exists()
        assert (outdir / "prior_shift_prevalence_population_full.csv").exists()
        assert (outdir / "prior_shift_prevalence_sample.csv").exists()
        assert (outdir / "prior_shift_densities.csv").exists()
        assert (outdir / "prior_shift_results.json").exists()

    def test_run_markdown_format(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "test_prevalence_grid = 0.5\npanels = population\noutputs = prevalence\n"
        )
        outdir = tmp_path / "out"
        assert main(["run", str(config_path), "--outdir", str(outdir), "--format", "markdown"]) == 0
        assert (outdir / "prior_shift_prevalence_population.md").exists()

    def test_panel_flag_restricts(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("test_prevalence_grid = 0.5\noutputs = prevalence\n")
        outdir = tmp_path / "out"
        assert main(["run", str(config_path), "--outdir", str(outdir), "--panel", "population"]) == 0
        assert not (outdir / "prior_shift_prevalence_sample.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("sigma = -1\n")
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 1

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg"), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "scenario = prior_shift\n",
            json.dumps({"tables": [{"caption": "c", "metric": "prevalence", "panel": "population",
                                    "col_labels": ["0.5"], "row_labels": ["EM"], "cells": [[0.5]]}]}),
        ],
        ids=["missing", "not_json", "no_scenario_key"],
    )
    def test_bad_results_file_exit_code(self, tmp_path, capsys, content):
        results = tmp_path / "prior_shift_results.json"
        if content is not None:
            results.write_text(content)
        assert main(["tables", str(results), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_out_of_range_seed_exit_code(self, tmp_path, capsys, seed):
        assert main(["run", "--seed", seed, "--outdir", str(tmp_path / "out")]) == 1
        assert "seed must be a 64-bit unsigned integer" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", [False, True], ids=["file", "below_file"])
    def test_unwritable_outdir_exits_before_any_work(self, tmp_path, capsys, monkeypatch, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        outdir = blocker / "out" if sub else blocker

        def must_not_run(*args, **kwargs):
            raise AssertionError("the grid ran before the output directory was made")

        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        assert main(["run", "--panel", "population", "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: cannot write to {outdir}")

    def test_tables_unwritable_outdir_exit_code(self, tmp_path, capsys):
        results = tmp_path / "prior_shift_results.json"
        results.write_text(tables_to_json([], qs.ExperimentConfig()))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["tables", str(results), "--outdir", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: cannot write to {blocker}")

    def test_numerical_failure_exit_code(self, tmp_path):
        # an envelope far on the class-1 side admits no interior mixture weight
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "scenario = invariant_ratio\ntheta = -5\ntau = 0.5\n"
            "panels = population\noutputs = prevalence\n"
        )
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2

    def test_unresolved_measure_exit_code(self, tmp_path, capsys):
        # q* lies 1.6e-12 from 0, and the class-0 CDF mass is 0.0716
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "scenario = invariant_ratio\nsigma = 0.3\ntheta = 3.5\ntau = 0.5\npanels = population\n"
        )
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2
        assert "test conditionals have masses" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tables_rerender(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "test_prevalence_grid = 0.5\npanels = population\noutputs = prevalence\n"
        )
        outdir = tmp_path / "out"
        main(["run", str(config_path), "--outdir", str(outdir)])
        rerender = tmp_path / "again"
        assert main(
            ["tables", str(outdir / "prior_shift_results.json"), "--outdir", str(rerender)]
        ) == 0
        assert (rerender / "prior_shift_prevalence_population.csv").read_text() == (
            outdir / "prior_shift_prevalence_population.csv"
        ).read_text()

    def test_verify_prints_every_check(self, capsys):
        assert main(["verify"]) == 0
        assert capsys.readouterr().out == VERIFY_OUTPUT

    def test_verify_names_the_one_failing_table(self, capsys, monkeypatch):
        row = list(reference.PREVALENCE_TABLES["sqrt_ratio"]["ACC"])
        row[4] += 0.01
        monkeypatch.setitem(reference.PREVALENCE_TABLES["sqrt_ratio"], "ACC", tuple(row))
        assert main(["verify"]) == 2
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert failed[0].startswith("[FAIL] prevalence table (sqrt_ratio)  (max gap ")

    def test_determinism_across_runs(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "test_prevalence_grid = 0.3\nsample_size = 300\noutputs = prevalence\nseed = 7\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--outdir", str(out1)])
        main(["run", str(config_path), "--outdir", str(out2)])
        for name in ("prior_shift_prevalence_sample_full.csv", "prior_shift_prevalence_population_full.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _prevalence_tables(scenario: str, panel: str = "population", **fields) -> dict:
    config = qs.ExperimentConfig(scenario=scenario, panels=(panel,), outputs=("prevalence",), **fields)
    with deadline(5.0):
        return {t.metric: t for t in qs.run_experiment(config)}


def _all_finite(table: ResultTable) -> bool:
    return all(math.isfinite(v) for row in table.cells for v in row)


class TestBoundedTime:
    """Valid configurations that once hung, or failed although EM is well
    defined: each finishes within a few seconds or raises a typed error."""

    @pytest.mark.parametrize("sigma", [0.5, 0.05])
    def test_prior_shift_em_is_exact(self, sigma):
        table = _prevalence_tables("prior_shift", sigma=sigma)["prevalence"]
        assert _all_finite(table)
        assert max(abs(v - q) for v, q in zip(table.row("EM"), DEFAULT_GRID)) <= 1e-9

    @pytest.mark.parametrize("scenario", ["invariant_ratio", "sqrt_ratio"])
    def test_derived_scenarios_at_sigma_one_half(self, scenario):
        assert _all_finite(_prevalence_tables(scenario, sigma=0.5)["prevalence"])

    @pytest.mark.parametrize("theta", [1.35, 2.5])
    def test_invariant_ratio_far_envelope_means(self, theta):
        table = _prevalence_tables("invariant_ratio", envelope_mean=theta)["prevalence"]
        assert _all_finite(table)
        assert max(abs(v - q) for v, q in zip(table.row("EM"), DEFAULT_GRID)) <= 1e-9

    def test_invariant_ratio_sample_panel_near_the_envelope_edge(self):
        # one test conditional takes M = 3,129 proposals per draw: 68 of its
        # 882 proposal blocks accept nothing, and each of those once cost a
        # scalar step of about M Python-level proposals
        table = _prevalence_tables("invariant_ratio", panel="sample", envelope_mean=2.9, sample_size=500)["prevalence"]
        assert _all_finite(table)

    @pytest.mark.parametrize("scenario", ["invariant_ratio", "sqrt_ratio"])
    def test_derived_scenarios_at_sigma_one_twentieth(self, scenario):
        assert _all_finite(_prevalence_tables(scenario, sigma=0.05)["prevalence"])

