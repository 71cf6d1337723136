import ast
import dataclasses
import importlib
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import quantshift as qs
from quantshift import cli, experiment, models, reference
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

    @pytest.mark.parametrize(
        "text,key",
        [
            pytest.param("sigma = 1\n# again\nsigma = 0.5", "sigma", id="plain repeat"),
            pytest.param("theta = 1\n# again\nenvelope_mean = 2", "envelope_mean", id="alias then name"),
            pytest.param("envelope_sd = 1\n# again\ntau = 2", "envelope_sd", id="name then alias"),
        ],
    )
    def test_repeated_key_names_the_later_line(self, text, key):
        # an alias and the name it stands for are one key
        with pytest.raises(qs.ConfigError, match=f"^line 3: '{key}' is already set$"):
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


def _error_classes() -> list[type]:
    """Every exception class that a quantshift submodule defines."""
    classes = []
    for info in pkgutil.iter_modules(qs.__path__):
        module = importlib.import_module(f"quantshift.{info.name}")
        classes += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        ]
    return classes


ERROR_CLASSES = _error_classes()
RAISED_ERRORS = [cls for cls in ERROR_CLASSES if cls is not qs.QuantshiftError]


def _failure_sites() -> list[str]:
    """The module of each ``raise NumericalFailure(...)`` in the package, once per site."""
    modules = []
    for path in sorted(Path(qs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "NumericalFailure"
            ):
                modules.append(path.stem)
    return modules


def _narrow_panel_population(monkeypatch):
    # on two window and two band panels both CDF masses lie 1.4e-7 from 1
    monkeypatch.setattr(models, "_WINDOW_PANELS", 2)
    monkeypatch.setattr(models, "_BAND_PANELS", 2)
    train = qs.binormal_population(qs.BinormalParams(sigma=0.3), 0.5)
    qs.make_test_population(ShiftKind.INVARIANT_RATIO, train, envelope_mean=3.5, envelope_sd=0.5)


def _normal_pdf(mean, sd):
    return lambda x: np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


# One case per ``raise NumericalFailure(...)``: the module that raises, a call
# that reaches the site through the public API, and the whole message it gives.
FAILURE_SITES = {
    "same_sign_bracket": (
        "numerics",
        lambda mp: qs.find_root_bracketed(lambda x: x * x + 1.0, qs.Bracket(-1.0, 1.0)),
        r"f\(-1\.0\) = 2\.0 and f\(1\.0\) = 2\.0 have the same sign",
    ),
    "non_finite_integrand": (
        "numerics",
        lambda mp: qs.integrate_interval(lambda x: np.full_like(x, np.nan), 0.0, 1.0),
        r"integrand returned a non-finite value at x = 0\.\d+",
    ),
    "massless_measure": (
        "numerics",
        lambda mp: qs.decompose_mixture(lambda x: np.zeros_like(x), qs.binormal_density_ratio(qs.BinormalParams()), (-1.0, 1.0)),
        r"the measure's weights sum to 0\.0; its nodes carry no mass",
    ),
    "coinciding_rates": (
        "quantify",
        lambda mp: qs.acc_estimate(
            qs.PopulationEvaluator(qs.binormal_population(qs.BinormalParams(), 0.5)), qs.ALWAYS_CLASS_0, 1.0, 1.0
        ),
        r"tpr = 1\.0 and fpr = 1\.0 coincide; the decision carries no class information",
    ),
    "sample_over_the_budget": (
        "sampling",
        lambda mp: qs.stratified_sample(qs.binormal_population(qs.BinormalParams(), 0.5), 10**12 + 1, qs.RngStream(1, 0)),
        r"1000000000001 draws expect at least 1e\+12 proposals, one per exact draw",
    ),
    "sample_not_allocated": (
        "sampling",
        lambda mp: qs.stratified_sample(qs.binormal_population(qs.BinormalParams(), 0.5), 10**12, qs.RngStream(1, 0)),
        r"a sample of 1000000000000 does not fit in memory: .+",
    ),
    "accept_reject_over_the_budget": (
        "sampling",
        lambda mp: qs.make_test_population(
            ShiftKind.INVARIANT_RATIO, qs.binormal_population(qs.BinormalParams(), 0.5)
        ).sampler0.draw(qs.RngStream(1, 0), 10**12),
        r"1000000000000 accept-reject draws expect 1\.38e\+12 proposals",
    ),
    "no_class0_component": (
        "shift",
        lambda mp: qs.decompose_mixture(_normal_pdf(7.0, 0.5), qs.binormal_density_ratio(qs.BinormalParams()), (0.0, 14.0)),
        r"E\[R\] = \S+ under the envelope does not exceed 1; the mixture has no class-0 component",
    ),
    "no_class1_component": (
        "shift",
        lambda mp: qs.decompose_mixture(_normal_pdf(-5.0, 0.5), qs.binormal_density_ratio(qs.BinormalParams()), (-12.0, 2.0)),
        r"E\[1/R\] = \S+ under the envelope does not exceed 1; the mixture has no class-1 component",
    ),
    "unresolved_conditionals": (
        "shift",
        _narrow_panel_population,
        r"the test conditionals have masses \S+ and \S+ on \(\S+, \S+\); the panels do not resolve them",
    ),
}


class TestPackageSurface:
    def test_every_export_resolves_once_in_sorted_order(self):
        # a deleted name cannot stay behind in __all__
        assert all(hasattr(qs, name) for name in qs.__all__)
        assert qs.__all__ == sorted(set(qs.__all__))


class TestErrorContract:
    def test_the_walk_finds_the_error_classes(self):
        assert len(ERROR_CLASSES) == 3
        assert set(ERROR_CLASSES) == {qs.QuantshiftError, qs.ConfigError, qs.NumericalFailure}

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_error_is_an_exported_quantshift_error(self, error):
        assert issubclass(error, qs.QuantshiftError)
        assert error is qs.QuantshiftError or error.exit_code in (1, 2)
        assert error.__name__ in qs.__all__
        assert getattr(qs, error.__name__) is error

    def test_every_failure_site_has_a_case(self):
        # one class covers every numerical failure, so each site, not each
        # class, needs a case in FAILURE_SITES
        cases = sorted(module for module, _, _ in FAILURE_SITES.values())
        assert sorted(_failure_sites()) == cases


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

    @pytest.mark.parametrize(
        "field", [{"scenario": "../../x"}, {"metric": "../x"}, {"panel": "population/../../x"}],
        ids=["scenario", "metric", "panel"],
    )
    def test_tables_unknown_name_writes_nothing(self, tmp_path, capsys, field):
        # the names make the file names, so an unknown one could write outside --outdir
        results = tmp_path / "in" / "results.json"
        results.parent.mkdir()
        results.write_text(_results_json(**field))
        assert main(["tables", str(results), "--outdir", str(tmp_path / "a" / "b")]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert sorted(tmp_path.rglob("*")) == [results.parent, results]

    @pytest.mark.parametrize(
        "field",
        [
            {"cells": [[0.3, "0.7"], [0.31, None]]},
            {"cells": [[0.3, 0.7], [0.31]]},
            {"cells": [[0.3, 0.7]]},
            {"cells": [[0.3, True], [0.31, None]]},
            {"col_labels": [0.3, 0.7]},
            {"cells": [[0.3, 10**400], [0.31, None]]},
        ],
        ids=["string_cell", "short_row", "missing_row", "bool_cell", "number_label", "int_too_large_for_a_float"],
    )
    def test_tables_malformed_table_exit_code(self, tmp_path, capsys, field):
        results = tmp_path / "results.json"
        results.write_text(_results_json(**field))
        assert main(["tables", str(results), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    def test_tables_accepts_integer_and_null_cells(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(_results_json(cells=[[0, 1], [0.31, None]]))
        assert main(["tables", str(results), "--outdir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "prior_shift_prevalence_population.csv").read_text() == (
            "Q[Y=0],0.3,0.7\nACC,0.0000,1.0000\nEM,0.3100,NaN\n"
        )

    def test_tables_unwritable_outdir_exit_code(self, tmp_path, capsys):
        results = tmp_path / "prior_shift_results.json"
        results.write_text(tables_to_json([], qs.ExperimentConfig()))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["tables", str(results), "--outdir", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: cannot write to {blocker}")

    @pytest.mark.parametrize("command", ["run", "tables"])
    def test_unwritable_output_file_exit_code(self, tmp_path, capsys, command):
        # a directory in place of an output file ended in IsADirectoryError
        source = tmp_path / "input"
        if command == "run":
            source.write_text("test_prevalence_grid = 0.5\npanels = population\noutputs = prevalence\n")
        else:
            source.write_text(_results_json())
        blocker = tmp_path / "out" / "prior_shift_prevalence_population.csv"
        blocker.mkdir(parents=True)
        assert main([command, str(source), "--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {blocker}")
        assert "Traceback" not in err

    def test_repeated_key_exits_1_before_any_output(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("theta = 1\nenvelope_mean = 2\n")
        outdir = tmp_path / "out"
        assert main(["run", str(config_path), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == "configuration error: line 2: 'envelope_mean' is already set\n"
        assert not outdir.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # an envelope far on the class-1 side admits no interior mixture weight
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "scenario = invariant_ratio\ntheta = -5\ntau = 0.5\n"
            "panels = population\noutputs = prevalence\n"
        )
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "content, start, end",
        [
            (
                "theta = -5\ntau = 0.5\npanels = population\n",
                "numerical failure: E[1/R] = ",
                "the mixture has no class-1 component",
            ),
            (
                "tau = 1e-300\npanels = population\n",
                "numerical failure: the measure's weights sum to 0.0; its nodes carry no mass",
                None,
            ),
            (
                "sigma = 0.3\ntau = 0.5\ntheta = 3.5\npanels = sample\n",
                "numerical failure: 100 accept-reject draws expect 3.01e+17 proposals",
                None,
            ),
        ],
        ids=["no_interior_weight", "unresolved_measure", "proposal_budget"],
    )
    def test_numerical_failures_print_one_line(self, tmp_path, capsys, content, start, end):
        # one error class covers these reachable failures, so the message is
        # what tells them apart; end None asks for exactly ``start``
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("scenario = invariant_ratio\n" + content)
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n")
        if end is None:
            assert lines[0] == start
        else:
            assert lines[0].startswith(start) and lines[0].endswith(end)

    @pytest.mark.parametrize("error", RAISED_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_error_exits_with_its_class_code(self, tmp_path, capsys, monkeypatch, error):
        def fail(config):
            raise error("raised")

        monkeypatch.setattr(cli, "build_setup", fail)
        assert main(["run", "--panel", "population", "--outdir", str(tmp_path / "out")]) == error.exit_code
        assert capsys.readouterr().err == f"{error.prefix}: raised\n"

    @pytest.mark.parametrize("site", FAILURE_SITES)
    def test_every_failure_site_exits_2(self, tmp_path, capsys, monkeypatch, site):
        _, reach, pattern = FAILURE_SITES[site]

        def fail(config):
            with deadline(5.0):
                reach(monkeypatch)

        monkeypatch.setattr(cli, "build_setup", fail)
        assert main(["run", "--panel", "population", "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"numerical failure: {pattern}\n", err)
        assert not (tmp_path / "out").exists()

    def test_sample_size_over_the_budget_exit_code(self, tmp_path, capsys):
        # a valid size ended in a traceback when the features were allocated
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("sample_size = 1000000000000000000000000000000\npanels = sample\n")
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_sample_size_that_cannot_be_allocated_exit_code(self, tmp_path, capsys):
        # under the proposal bound, the 7.28 TiB of features ended in numpy's
        # untyped MemoryError; the allocator refuses it outright, and a size
        # it might commit is never tried
        with pytest.raises(MemoryError):
            np.empty(1_000_000_000_000)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("sample_size = 1000000000000\npanels = sample\n")
        with deadline(5.0):
            assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err

    def test_unresolved_measure_exit_code(self, tmp_path, capsys, monkeypatch):
        # on two window and two band panels both CDF masses lie 1.4e-7 from 1
        monkeypatch.setattr(models, "_WINDOW_PANELS", 2)
        monkeypatch.setattr(models, "_BAND_PANELS", 2)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "scenario = invariant_ratio\nsigma = 0.3\ntheta = 3.5\ntau = 0.5\npanels = population\n"
        )
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 2
        assert "test conditionals have masses" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content, code, message",
        [
            ("sigma = 1e-300\n", 1, "density ratio that is not finite"),
            ("sigma = 1e-160\n", 1, "density ratio that is not finite"),
            ("nu = 1e200\n", 1, "density ratio that is not finite"),
            ("scenario = invariant_ratio\ntau = 1e-300\n", 2, "nodes carry no mass"),
        ],
        ids=["sigma", "sigma_subnormal_square", "nu", "tau"],
    )
    def test_finite_extreme_exit_code(self, tmp_path, capsys, content, code, message):
        # these ended in tracebacks: sigma**2 underflows to 0 (ZeroDivisionError)
        # or to a subnormal that makes the ratio infinite, nu**2 overflows
        # (OverflowError), and the envelope window mean +- 12 tau rounds to one
        # point, so every node weight is 0 (math domain error)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(content + "panels = population\n")
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err

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


def _reference_results(scenario: str, metric: str, label: str, fault) -> list[ResultTable]:
    """The reference's own tables as population results (overrides applied),
    with the row ``label`` of one table dropped (``fault`` None) or replaced
    by ``fault(row)``."""
    tables = []
    for table_scenario, table_metric, expected in reference._reference_tables():
        overrides = reference.GROUND_TRUTH_OVERRIDES if table_metric == "relative_error" else {}
        rows = {
            row_label: [overrides.get((table_scenario, row_label, j), v) for j, v in enumerate(row)]
            for row_label, row in expected.items()
        }
        if (table_scenario, table_metric) == (scenario, metric):
            if fault is None:
                del rows[label]
            else:
                rows[label] = fault(rows[label])
        cells = tuple(tuple(row) for row in rows.values())
        tables.append(ResultTable("", table_scenario, table_metric, "population", (), tuple(rows), cells))
    return tables


class TestReferenceCheck:
    @pytest.mark.parametrize(
        "scenario,metric,label,fault,failing",
        [
            # the reference itself passes, its two NaN F-measure cells included
            pytest.param("prior_shift", "f_measure", "CDEinf", list, None, id="the reference"),
            pytest.param(
                "prior_shift", "prevalence", "EM", lambda row: [math.nan, *row[1:]], "prevalence table (prior_shift)",
                id="one-sided NaN",
            ),
            pytest.param(
                "sqrt_ratio", "relative_error", "CDE2", lambda row: row[:-1], "relative error table (sqrt_ratio)",
                id="short row",
            ),
            pytest.param(
                "invariant_ratio", "prevalence", "ACC", None, "prevalence table (invariant_ratio)", id="missing row"
            ),
        ],
    )
    def test_a_missing_or_undefined_cell_fails_its_table(self, scenario, metric, label, fault, failing):
        tables = _reference_results(scenario, metric, label, fault)
        checks = reference.check(tables, reference.MIXTURE_WEIGHTS)
        assert len(checks) == len(VERIFY_OUTPUT.splitlines())
        assert [(c.name, c.detail) for c in checks if not c.ok] == ([(failing, "max gap inf")] if failing else [])


def _results_json(**fields) -> str:
    """A results file holding one 2 x 2 prevalence table, with ``fields`` replaced."""
    table = {
        "caption": "c", "scenario": "prior_shift", "metric": "prevalence", "panel": "population",
        "col_labels": ["0.3", "0.7"], "row_labels": ["ACC", "EM"], "cells": [[0.3, 0.7], [0.31, None]],
    }
    return json.dumps({"tables": [{**table, **fields}]})


class TestNodeBuilds:
    """Each population builds its node measure once (a binormal one on first
    use, a derived one in its decomposition), and every module reads it from
    there (``PopulationModel.nodes``)."""

    def test_verify_builds_three_node_measures(self, node_builds, capsys):
        # prior shift: the training conditionals; each derived scenario: the
        # decomposition's nodes, which the test conditionals reuse
        assert main(["verify"]) == 0
        assert len(node_builds) == 3

    def test_population_run_builds_three_node_measures(self, node_builds, tmp_path):
        assert main(["run", "--panel", "population", "--outdir", str(tmp_path / "out")]) == 0
        assert len(node_builds) == 3

    def test_sample_only_prior_shift_builds_none(self, node_builds, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text("panels = sample\nsample_size = 300\ntest_prevalence_grid = 0.3, 0.7\n")
        assert main(["run", str(config_path), "--outdir", str(tmp_path / "out")]) == 0
        assert node_builds == []


class TestSampleCellMemory:
    def test_a_cell_holds_no_float_array_of_the_sample_size(self, traced_peak):
        # EM's two block buffers (0.16 x 8n); the rate counts hold a boolean
        # mask of n bytes (0.125 x 8n) at other times
        n = 200_000
        setup = experiment.build_setup(qs.ExperimentConfig(sample_size=n, panels=("sample",)))
        evaluator = experiment._evaluator(setup, "sample", 0, setup.test_conditionals.with_prevalence(0.3), 1)
        tpr, fpr = qs.PopulationEvaluator(setup.train).rates_by_class(setup.min_error_classifier)
        peak = traced_peak(lambda: experiment._estimates_for_cell(setup, evaluator, tpr, fpr))
        assert peak <= 0.3 * 8 * n

    def test_a_sample_run_peaks_in_its_features(self, traced_peak):
        # a cell's dataset (8n feature bytes) and EM's two block buffers;
        # the metrics count in a boolean mask of n bytes
        n = 200_000
        config = qs.ExperimentConfig(sample_size=n, panels=("sample",), seed=3)
        assert traced_peak(lambda: qs.run_experiment(config)) <= 1.35 * 8 * n


class TestClassRateReads:
    def test_accuracy_and_f_measure_share_one_read_per_estimate(self, monkeypatch):
        # per repetition: the training rates, then one read for each of the
        # 5 estimates in each of the 9 cells
        calls = []
        original = qs.SampleEvaluator.rates_by_class

        def counted(evaluator, clf):
            calls.append(clf)
            return original(evaluator, clf)

        monkeypatch.setattr(qs.SampleEvaluator, "rates_by_class", counted)
        qs.run_experiment(qs.ExperimentConfig(panels=("sample",), sample_size=300, repetitions=2))
        assert len(calls) == 2 * (1 + 45)


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

    @pytest.mark.parametrize("panel, code", [("both", 2), ("population", 0)])
    @pytest.mark.parametrize("theta", [3.5, -1.5])
    def test_invariant_ratio_edge_envelope(self, tmp_path, capsys, theta, panel, code):
        # one test conditional has M = 1/3.3e-16 = 3e15: its sample draws would
        # take about 3e15 proposals each, so the sample panel refuses them
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(f"scenario = invariant_ratio\nsigma = 0.3\ntheta = {theta}\ntau = 0.5\n")
        with deadline(5.0):
            assert main(["run", str(config_path), "--outdir", str(tmp_path), "--panel", panel]) == code
        if code:
            assert "accept-reject draws expect" in capsys.readouterr().err
        else:
            tables = tables_from_json((tmp_path / "invariant_ratio_results.json").read_text())
            (prevalence,) = [t for t in tables if t.metric == "prevalence"]
            assert max(abs(v - q) for v, q in zip(prevalence.row("EM"), DEFAULT_GRID)) <= 1e-9

    @pytest.mark.parametrize("scenario", ["invariant_ratio", "sqrt_ratio"])
    def test_derived_scenarios_at_sigma_one_twentieth(self, scenario):
        assert _all_finite(_prevalence_tables(scenario, sigma=0.05)["prevalence"])

