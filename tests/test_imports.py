"""Static gate: every module-level import in the package is used or
re-exported. It needs only ``ast``, so it runs wherever the tests run."""
import ast
from pathlib import Path

import vsrkit

MODULES = sorted(p for p in Path(vsrkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by a module-level import that no expression reads and
    ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read | exported]


def test_unused_imports_sees_reads_and_exports():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "__all__ = ['d']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["os", "c"]


def test_package_has_no_unused_imports():
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8"))
              for p in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def private_definitions(source):
    """Module-level private names a module binds: ``_x`` functions,
    classes and assignment targets (dunders excluded)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_read(source):
    """Names a module reads: loaded names, attribute names and names it
    imports from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources):
    """``{module: names}`` of the private module-level names that no
    module in ``sources`` (a ``{module: source}`` map) reads."""
    read = set().union(*map(names_read, sources.values()))
    unread = {m: [n for n in private_definitions(s) if n not in read]
              for m, s in sources.items()}
    return {m: names for m, names in unread.items() if names}


def test_unread_private_names_sees_reads_across_modules():
    sources = {
        "a": "_used = 1\n_dead = 2\n__dunder__ = 3\n\n"
             "def _helper():\n    return _used\n\n"
             "class _Shared:\n    pass\n\nx: int = 0\n_typed: int = 0\n",
        "b": "from a import _Shared\nimport a\nprint(a._helper)\n",
    }
    assert unread_private_names(sources) == {"a": ["_dead", "_typed"]}


def test_package_has_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in [*MODULES, MODULES[0].parent / "__init__.py"]}
    assert unread_private_names(sources) == {}
