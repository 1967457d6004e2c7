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
