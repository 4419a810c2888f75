"""Source layout rules that hold for every module of the package."""

import ast
from pathlib import Path

import stratba

MODULES = sorted(Path(stratba.__file__).parent.glob("*.py"))


def test_no_function_imports_inside_its_body():
    # A function-level import hides a module dependency (usually a cycle)
    # from the top of the file.
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(MODULES) > 1
    assert not found, found
