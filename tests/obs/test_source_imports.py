"""Source scan: every name a ``src/repro`` module imports is read there.

No linter is a dependency, so this AST scan stands in for pyflakes'
F401.  Package ``__init__`` modules are skipped (their imports are the
re-exports), a name listed in a module's ``__all__`` counts as read, and
an import kept for its side effect carries ``# noqa: F401`` on its line.
"""

import ast
import os

import repro

_SRC_ROOT = os.path.dirname(repro.__file__)


def _bound_names(node):
    """``(alias, bound name)`` for each name an import statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            yield alias, alias.asname
        else:
            yield alias, alias.name.split(".")[0]


def _annotation_names(tree):
    """Names read inside string annotations (``"Future[Output]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(arg.annotation for arg in
                               args.posonlyargs + args.args +
                               args.kwonlyargs + [args.vararg, args.kwarg]
                               if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if annotation is None:
            continue
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and \
                    isinstance(const.value, str):
                inner = ast.parse(const.value, mode="eval")
                yield from (n.id for n in ast.walk(inner)
                            if isinstance(n, ast.Name))


def _exported_names(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant):
                    yield const.value


def unused_imports(path):
    """``(line, name)`` of each name ``path`` imports and never reads."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    tree = ast.parse(text, path)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and
            isinstance(node.ctx, (ast.Load, ast.Del))}
    read.update(_annotation_names(tree))
    read.update(_exported_names(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias, name in _bound_names(node):
            if name in read or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append((alias.lineno, name))
    return unused


def _src_modules():
    for dirpath, dirnames, filenames in os.walk(_SRC_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py") and filename != "__init__.py":
                yield os.path.join(dirpath, filename)


def test_no_src_module_imports_a_name_it_never_reads():
    found = []
    for path in _src_modules():
        rel = os.path.relpath(path, _SRC_ROOT)
        found.extend(f"{rel}:{line} {name}"
                     for line, name in unused_imports(path))
    assert not found, f"unused imports: {found}"


def test_scan_sees_plain_string_annotation_and_marked_imports(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from . import registers  # noqa: F401  (side effect)\n"
        "from .engine import run as go\n"
        "__all__ = ['go']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [osp.sep]\n")
    assert unused_imports(str(path)) == [(1, "os"), (3, "Dict")]
