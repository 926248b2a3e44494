"""The mutation registry's shape; running the mutants is ``tests/mutants.py``."""

import ast

from mutants import MUTANTS, ROOT


def test_registry_entries_are_well_formed():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests and m.origin, m.name


def test_registry_test_ids_exist():
    for m in MUTANTS:
        for test_id in m.tests:
            path, name = test_id.split("::")
            top = ast.parse((ROOT / path).read_text()).body
            assert name in {node.name for node in top if isinstance(node, ast.FunctionDef)}, (m.name, test_id)
