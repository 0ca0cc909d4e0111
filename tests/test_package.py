import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "matchtop"


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


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public module-level function or class must be named somewhere in the
    # package or the benchmark outside its own definition; an export counts,
    # as it names the function in __init__.py.  A helper only the tests call
    # belongs in tests/oracle_utils.py
    texts = {path: path.read_text()
             for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}
    unused = []
    for path, tree in _trees():
        lines = texts[path].splitlines()
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(rest if other == path else text)
                       for other, text in texts.items()):
                unused.append(f"{path.name}: {node.name}")
    assert not unused
