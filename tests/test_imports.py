"""Static gates on the code's names: every module-level import in the
package is used or re-exported, every private or public module-level name
and every dataclass field has a reader, every local a function assigns is
read, a label triple is built in one place, a weighted draw and a probe
loop along unit directions each have one implementation and only
``Model.forward_infer`` runs without a graph. They need only ``ast``, so
they run wherever the tests run."""
import ast
from pathlib import Path

import vsrkit

MODULES = sorted(p for p in Path(vsrkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# the benchmark harness outside its own tests: the one caller of the
# package that is neither the package nor a test
PERFBENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))


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


def module_definitions(source):
    """Module-level names a module binds: functions, classes and
    assignment targets."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def private_definitions(source):
    """Module-level ``_x`` names a module binds (dunders excluded)."""
    return [n for n in module_definitions(source)
            if n.startswith("_") and not n.startswith("__")]


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


def unread_public_names(sources, readers=()):
    """``{module: names}`` of the public module-level names in ``sources``
    (a ``{module: source}`` map) that no module in ``sources`` and no
    source in ``readers`` reads. A definition and an ``__all__`` entry
    are not reads."""
    read = set().union(*map(names_read, [*sources.values(), *readers]))
    unread = {m: [n for n in module_definitions(s)
                  if not n.startswith("_") and n not in read]
              for m, s in sources.items()}
    return {m: names for m, names in unread.items() if names}


def test_unread_public_names_sees_reads_in_own_module_and_readers():
    sources = {
        "a": "__all__ = ['exported', 'helper']\n"
             "def exported():\n    return helper()\n\n"
             "def helper():\n    pass\n\n"
             "class Read:\n    pass\n\n"
             "LIMIT: int = 3\nDEAD = 1\n_private = 2\n",
        "b": "from a import Read\n",
    }
    assert unread_public_names(sources) == {
        "a": ["exported", "LIMIT", "DEAD"]}
    assert unread_public_names(
        sources, ["import a\na.exported(a.LIMIT)\n"]) == {"a": ["DEAD"]}


def test_package_public_names_have_readers_outside_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8")
               for p in [MODULES[0].parent / "__init__.py", *PERFBENCH]]
    assert unread_public_names(sources, readers) == {}


def dataclass_fields(source):
    """``Class.field`` for each annotated field of a ``@dataclass`` class,
    with or without arguments to the decorator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in decorators):
            found += [f"{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
    return found


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def attributes_loaded(source):
    """Attribute names a module reads as ``x.name`` (not assignments). A
    scope (the module, a function, a class body or a lambda) that also
    assigns ``.name`` reads back what it stored there, so its loads of
    ``.name`` are not reads."""
    read = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.Module, *_SCOPES)):
            attrs = [n for n in _own_nodes(scope)
                     if isinstance(n, ast.Attribute)]
            read |= {a.attr for a in attrs if isinstance(a.ctx, ast.Load)} \
                - {a.attr for a in attrs if not isinstance(a.ctx, ast.Load)}
    return read


def unread_dataclass_fields(sources, readers=()):
    """``{module: fields}`` of the dataclass fields in ``sources`` (a
    ``{module: source}`` map) that no module in ``sources`` and no source
    in ``readers`` reads as an attribute outside a scope assigning it."""
    read = set().union(*map(attributes_loaded, [*sources.values(), *readers]))
    unread = {m: [f for f in dataclass_fields(s)
                  if f.split(".")[1] not in read]
              for m, s in sources.items()}
    return {m: names for m, names in unread.items() if names}


def test_unread_dataclass_fields_sees_attribute_loads_only():
    sources = {
        "a": "import dataclasses\nfrom dataclasses import dataclass\n\n"
             "@dataclass(frozen=True)\nclass Cfg:\n    used: int = 0\n"
             "    stored: int = 0\n    by_name: int = 0\n\n"
             "@dataclasses.dataclass\nclass Out:\n    x: int = 0\n"
             "    y: int = 0\n\n"
             "class Plain:\n    z: int = 0\n\n"
             "def f(c, o):\n    o.stored = c.used\n"
             "    return getattr(c, 'by_name'), o.y.real\n",
    }
    assert unread_dataclass_fields(sources) == {
        "a": ["Cfg.stored", "Cfg.by_name", "Out.x"]}
    assert unread_dataclass_fields(sources, ["print(out.x)\n"]) == {
        "a": ["Cfg.stored", "Cfg.by_name"]}
    # a function that assigns a field and reads it back is not its reader;
    # a nested function or a lambda is a scope of its own
    assert unread_dataclass_fields(sources, [
        "def g(o):\n    o.x = 1\n    o.stored = o.x\n    return o.stored\n"
        "\ndef h(o):\n    o.by_name = 1\n"
        "    return lambda: o.by_name\n"]) == {"a": ["Cfg.stored", "Out.x"]}


def test_package_dataclass_fields_have_readers_outside_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert unread_dataclass_fields(sources, readers) == {}


def _called(call):
    """The name a call calls, bare or as an attribute."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def weighted_choice_calls(source):
    """Line numbers of the ``choice`` calls (bare or as an attribute) that
    pass weights, as ``p=`` or as the fourth positional argument."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and _called(n) == "choice"
        and (len(n.args) >= 4 or any(k.arg == "p" for k in n.keywords)))


def test_weighted_choice_calls_sees_weights_by_keyword_or_position():
    source = (
        "import numpy as np\nfrom random import choice\n\n"
        "def f(rng, w):\n"
        "    rng.choice(3, p=w)\n"
        "    rng.choice(3, 2, True, w)\n"
        "    rng.choice(3, size=2)\n"
        "    choice([1, 2])\n"
        "    return np.random.default_rng(0).choice(\n        3, p=w)\n"
    )
    assert weighted_choice_calls(source) == [5, 6, 9]


def test_only_synth_categorical_draws_with_weights():
    # a weighted draw goes through synth._categorical, which draws as
    # Generator.choice(p=) draws
    calls = {p.name: weighted_choice_calls(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def unit_direction_probes(source):
    """Line numbers of the ``central_difference`` calls made in a function
    (nested functions included) that also calls ``eye``: a loop of probes
    along unit directions."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
            if any(_called(n) == "eye" for n in calls):
                found.update(n.lineno for n in calls
                             if _called(n) == "central_difference")
    return sorted(found)


def test_unit_direction_probes_sees_a_loop_over_eye_rows():
    source = (
        "import numpy as np\nimport ad\n\n"
        "def check(f, x):\n"
        "    units = np.eye(x.size)\n\n"
        "    def probe(u):\n"
        "        return ad.central_difference(f, [x], [u])\n"
        "    return [probe(u) for u in units]\n\n"
        "def along(f, x, u):\n"
        "    return ad.central_difference(f, [x], [u])\n"
    )
    assert unit_direction_probes(source) == [8]
    autodiff = (MODULES[0].parent / "autodiff.py").read_text(encoding="utf-8")
    assert unit_direction_probes(autodiff) != []


def test_only_finite_difference_check_probes_along_unit_directions():
    # a per-entry gradient check goes through
    # autodiff.finite_difference_check, the one loop of unit probes
    paths = [p for p in MODULES if p.name != "autodiff.py"] + \
        sorted((ROOT / "tests").glob("*.py"))
    probes = {p.name: unit_direction_probes(p.read_text(encoding="utf-8"))
              for p in paths}
    assert {name: lines for name, lines in probes.items() if lines} == {}


def _own_nodes(scope):
    """Nodes of a scope (a module, function, class or lambda) outside its
    nested functions, classes and lambdas, which bind names of their own."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source):
    """``function.name`` for each name a function binds by a plain
    ``name = ...`` that nothing in the function, nested functions
    included, loads. ``_`` names and names declared ``global`` or
    ``nonlocal`` are skipped."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, declared = [], set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                assigned += [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        loaded = {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{fn.name}.{name}" for name in dict.fromkeys(assigned)
                  if not name.startswith("_")
                  and name not in loaded | declared]
    return found


def test_unread_locals_sees_nested_reads_and_declarations():
    source = (
        "count = 0\n\n"
        "def f(x):\n"
        "    dead = x\n    used = 2\n    _ignored = 3\n"
        "    a, b = x\n    closed = 4\n"
        "    global count\n    count = 1\n\n"
        "    def inner():\n        inner_dead = closed\n"
        "        return used\n\n"
        "    class K:\n        attr = 5\n\n"
        "    return inner, K\n"
    )
    assert unread_locals(source) == ["f.dead", "inner.inner_dead"]


def test_no_function_leaves_a_local_unread():
    paths = [*MODULES, *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    unread = {str(p.relative_to(ROOT)): unread_locals(
        p.read_text(encoding="utf-8")) for p in paths}
    assert {path: names for path, names in unread.items() if names} == {}


def label_triple_calls(source):
    """Line numbers of the ``LabelTriple(...)`` calls made anywhere but in
    a function named ``labels_of``, the one place a triple is built."""
    tree = ast.parse(source)
    allowed = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "labels_of"
               for n in ast.walk(fn)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and _called(n) == "LabelTriple")


def test_label_triple_calls_sees_every_call_outside_labels_of():
    source = (
        "from x import LabelTriple\nimport x\n\n"
        "def labels_of(c):\n    return LabelTriple(c, (), ())\n\n"
        "def other(c):\n    t = LabelTriple\n"
        "    return [LabelTriple(c, (), ()), x.LabelTriple(c, (), ())]\n\n"
        "DEFAULT = LabelTriple((), (), ())\n"
    )
    assert label_triple_calls(source) == [9, 9, 11]


def test_only_labels_of_builds_a_label_triple():
    calls = {p.name: label_triple_calls(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def inference_calls(source):
    """Line numbers of the calls of ``inference`` (bare or as an attribute,
    in a ``with`` or a decorator) made anywhere but in ``Model.forward_infer``,
    the one path that may run without a graph and the NaN check."""
    tree = ast.parse(source)
    allowed = {id(n) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "Model"
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and fn.name == "forward_infer" for n in ast.walk(fn)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and _called(n) == "inference")


def test_inference_calls_sees_every_call_outside_model_forward_infer():
    source = (
        "import ad\nfrom ad import inference\n\n"
        "class Model:\n"
        "    @ad.inference()\n"
        "    def forward_infer(self):\n"
        "        with inference():\n            pass\n\n"
        "    def forward_train(self):\n"
        "        with ad.inference():\n            pass\n\n"
        "class Other:\n"
        "    @ad.inference()\n"
        "    def forward_infer(self):\n        pass\n\n"
        "def helper():\n    return inference().__enter__()\n"
    )
    assert inference_calls(source) == [11, 15, 20]


def test_only_model_forward_infer_enters_inference():
    calls = {p.name: inference_calls(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {name: lines for name, lines in calls.items() if lines} == {}
