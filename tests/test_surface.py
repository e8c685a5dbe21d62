"""The library's surface: each public function and class of ``src/rthy`` is
used by the CLI, the scripts or the benchmark, and ``rthy.__all__`` lists
exactly the public names that ``rthy/__init__.py`` imports.

References are read with ``ast`` from ``src/rthy``, ``scripts/`` and
``bench/``.  The tests are not searched, so code that only tests call is
reported here; so is ``rthy/__init__.py``, whose re-exports are the surface
itself.  ``rthy.instances`` holds the bundled examples and is exempt.
References are matched by spelling: a name, an attribute or an imported
name.  So a definition whose name something else shares (``itertools.chain``
and ``order.chain``) can pass unused, but a used one is never reported.
"""

import ast
from pathlib import Path

import rthy

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rthy"
EXEMPT = {"__init__.py", "instances.py"}


def _identifier(node):
    """The name a node refers to: a name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in (PACKAGE, ROOT / "scripts", ROOT / "bench")
             for path in sorted(folder.glob("*.py"))}
    # identifier -> (file, line) of every reference, outside rthy/__init__.py
    refs = {}
    for path, tree in trees.items():
        if path != PACKAGE / "__init__.py":
            for node in ast.walk(tree):
                ident = _identifier(node)
                if ident is not None:
                    refs.setdefault(ident, []).append((path, node.lineno))
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name in EXEMPT:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and all(where == path and node.lineno <= line <= node.end_lineno
                            for where, line in refs.get(node.name, ()))):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == [], (
        f"{len(unreferenced)} public definitions of src/rthy have no caller in "
        f"src/, scripts/ or bench/: {', '.join(unreferenced)}")


def test_all_lists_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert len(rthy.__all__) == len(set(rthy.__all__))
    assert sorted(rthy.__all__) == sorted(public)
