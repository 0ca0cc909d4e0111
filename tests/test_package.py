import ast
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


def _code_names(tree, skip=None):
    """The names the code of a module refers to, outside the node ``skip``:
    names, attribute names and imported names, so no docstring, comment or
    string counts."""
    out = set()
    for node in ast.walk(tree):
        if skip is not None and skip.lineno <= getattr(node, "lineno", 0) <= skip.end_lineno:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public module-level function or class must be referred to by code in
    # the package or the benchmark outside its own definition, by a name, an
    # attribute or an import, such as its export in __init__.py; a mention
    # in a docstring does not count.  The functions that __init__.py defines
    # are the package API.  A helper only the tests call belongs in
    # tests/oracle_utils.py
    trees = dict(_trees())
    bench = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "bench").glob("*.py"))]
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        elsewhere = set().union(*(_code_names(other) for other in bench),
                                *(_code_names(other) for p, other in trees.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in elsewhere | _code_names(tree, skip=node)):
                unused.append(f"{path.name}: {node.name}")
    assert not unused


def test_no_parameter_goes_unread():
    # every parameter of every function but self and cls is read by name in
    # the function's body, nested functions included: a parameter no code
    # reads is dead weight that every caller still has to pass
    unread = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}: {getattr(fn, 'name', 'lambda')}({name})"
                       for name in params if name not in read | {"self", "cls"}]
    assert not unread
