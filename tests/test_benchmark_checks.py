"""The benchmark's output checks (``perfbench/workloads.py``), which decide
whether a benchmark run wrote correct outputs, pass on the seconds-long
stand-in workloads that ``perfbench/run.py --self-check`` runs, here run
in-process through the command line's ``main``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from quantshift import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SELF_CHECK_WORKLOADS))
def test_self_check_workload_passes_its_output_checks(name, tmp_path, capsys):
    workload = workloads.SELF_CHECK_WORKLOADS[name]
    outdir = tmp_path / name
    code = cli.main(workload.argv(1, outdir))
    assert workload.check(code, capsys.readouterr().out, outdir) == []
