"""The mutants of ``tests/mutants.py`` still apply: each old text occurs
exactly once in its file, and each node id names a test that exists.  The
mutants themselves run only from that script."""

import ast
from functools import cache

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_once():
    counts = {m.name: (ROOT / m.path).read_text().count(m.old) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}
    assert all(m.old != m.new and m.tests for m in MUTANTS)


@cache
def _collected_tests(path: str) -> frozenset[str]:
    """The ``test*`` functions of a test file, and the ``test*`` methods of its
    ``Test*`` classes as ``Class::method``, read from its syntax tree."""
    file = ROOT / path
    if not file.is_file():
        return frozenset()
    names = set()
    for node in ast.parse(file.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test")
            )
    return frozenset(names)


def _names_a_test(node_id: str) -> bool:
    # a parametrized id ends in [params], which only a collection run resolves
    path, _, name = node_id.partition("[")[0].partition("::")
    return name in _collected_tests(path)


def test_every_mutant_node_id_names_an_existing_test():
    missing = [node_id for m in MUTANTS for node_id in m.tests if not _names_a_test(node_id)]
    assert missing == []


def test_a_renamed_test_is_missed():
    node_id = "tests/test_mutants.py::test_every_mutant_old_text_occurs_once"
    assert _names_a_test(node_id)
    assert not _names_a_test(node_id.replace("occurs", "appears"))
    assert not _names_a_test("tests/test_absent.py::test_every_mutant_old_text_occurs_once")
    assert not _names_a_test("tests/test_sampling.py::TestAbsent::test_blocks_equal_scalar_loop")
