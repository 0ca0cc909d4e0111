import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "matchtop"


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so an import of an installed
    # third-party module would pass here and fail on a clean install
    files = sorted(SRC.glob("*.py"))
    assert files
    stray = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not stray
