"""The mutants of ``tests/mutants.py`` still apply: each old text occurs
exactly once in its file.  The mutants themselves run only from that script."""

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_once():
    counts = {m.name: (ROOT / m.path).read_text().count(m.old) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}
    assert all(m.old != m.new and m.tests for m in MUTANTS)
