"""The benchmark's traced run wraps functions by name (``perfbench/child_trace.py``
``HOOKS``). A hooked name that moves or disappears turns its metrics into
null, so every hook must still resolve the way ``child_trace.install`` looks
it up: a callable in the module namespace or the class dict. Where a hook
reads an argument by position, that position must still hold the parameter
of that name."""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child_trace  # noqa: E402

MODULES = child_trace.import_modules()
HOOKS_BY_NAME = {hook.name: hook for hook in child_trace.HOOKS}

# (hook, index, parameter) for every argument a hook of ``child_trace`` reads by
# position (``_count_calls``, ``_count_draws``, ``_count_cells``, ``_tag_arg``).
POSITIONAL_ARGUMENTS = (
    ("numerics.integrate_interval", 0, "f"),
    ("numerics.find_root_bracketed", 0, "f"),
    ("sampling.stratified_sample", 1, "n"),
    ("sampling.rejection_draw", 1, "candidate_sampler"),
    ("experiment.run_experiment", 0, "config"),
    ("quantify.cde_iterate", 1, "evaluator"),
    ("quantify.acc_estimate", 0, "evaluator"),
    ("quantify.em_estimate", 0, "evaluator"),
)


def _hooked(hook):
    """The callable ``child_trace.install`` would wrap for ``hook``, or None."""
    module = MODULES.get(hook.module)
    owner_name, _, attr = hook.attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None, f"{hook.name}: no owner"
    return vars(owner).get(attr)


@pytest.mark.parametrize("hook", child_trace.HOOKS, ids=lambda hook: hook.name)
def test_hook_resolves_to_a_callable(hook):
    assert callable(_hooked(hook)), f"{hook.name}: not a callable attribute"


@pytest.mark.parametrize("name, index, parameter", POSITIONAL_ARGUMENTS, ids=[a[0] for a in POSITIONAL_ARGUMENTS])
def test_positional_argument_keeps_its_name(name, index, parameter):
    parameters = list(inspect.signature(_hooked(HOOKS_BY_NAME[name])).parameters)
    assert parameters[index:index + 1] == [parameter], f"{name}: parameters {parameters}"


def test_gridcdf_keeps_its_leading_arguments():
    parameters = list(inspect.signature(_hooked(HOOKS_BY_NAME["models.GridCdf.__init__"])).parameters)
    assert parameters[:3] == ["self", "density", "edges"]


def test_decompose_mixture_keeps_its_leading_arguments():
    parameters = list(inspect.signature(_hooked(HOOKS_BY_NAME["shift.decompose_mixture"])).parameters)
    assert parameters[:3] == ["h_star", "ratio", "support"]
