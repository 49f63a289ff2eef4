"""Every module-level import of the package is used in its module, and the
lattice DP oracle imports none of the exact evaluator.

`__init__.py` is exempt from the first check (its imports are the public
re-exports), and so are `__future__` imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "junctionflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's top-level imports and never read in it."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    src = "from __future__ import annotations\nimport math\nimport os\nfrom typing import Tuple\nx = os.sep\n"
    assert unused_imports(src) == [(2, "math"), (4, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def module_imports(source: str):
    """The modules named by the source's top-level imports, `__future__` aside;
    relative ones keep their leading dots."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.add("." * node.level + (node.module or ""))
    return names


def test_the_dp_oracle_shares_only_leg_costs_with_the_evaluator():
    """dp_oracle imports no evaluator code: numpy, the shared helpers and the
    Hamiltonians only; hj_junction.brute_force_field is the oracle itself."""
    from junctionflow import dp_oracle, hj_junction

    assert module_imports((PACKAGE / "dp_oracle.py").read_text()) == {"numpy", "._util", ".flux_models"}
    assert hj_junction.brute_force_field is dp_oracle.brute_force_field
