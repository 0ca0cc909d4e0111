import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "matchtop"


def _trees():
    files = sorted(SRC.glob("*.py"))
    assert files
    return [(path, ast.parse(path.read_text(), str(path))) for path in files]


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so an import of an installed
    # third-party module would pass here and fail on a clean install
    stray = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not stray


def test_no_function_body_imports():
    # every module imports at its top, so the import graph is the one the
    # module headers show, with no cycle hidden inside a function
    inner = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner += [f"{path.name}: {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inner
