"""The benchmark's traced run wraps functions by name (``perfbench/child_trace.py``
``HOOKS``). A hooked name that moves or disappears turns its metrics into
null, so every hook must still resolve the way ``child_trace.install`` looks
it up: a callable in the module namespace or the class dict."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child_trace  # noqa: E402

MODULES = child_trace.import_modules()


@pytest.mark.parametrize("hook", child_trace.HOOKS, ids=lambda hook: hook.name)
def test_hook_resolves_to_a_callable(hook):
    module = MODULES.get(hook.module)
    owner_name, _, attr = hook.attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None, f"{hook.name}: no owner"
    assert callable(vars(owner).get(attr)), f"{hook.name}: not a callable attribute"
