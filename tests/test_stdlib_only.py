import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "likekit").glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, node.lineno, name)


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax from a later version.
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_import_loads_no_code_generation_or_json_modules():
    # The records are plain slotted classes, and only tm_from_json reads
    # JSON, so a fresh interpreter's import pulls in none of these.
    probe = (
        "import sys; before = set(sys.modules); import likekit; "
        "print(*sorted(set(sys.modules) - before))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert "likekit" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "json"}, sorted(loaded)


def test_every_module_level_import_is_used():
    # __init__.py imports names to re-export them; every other module uses
    # each name it imports.
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted(set(imported) - used)
        assert not unused, (path.name, [(name, imported[name]) for name in unused])


def _private_definitions(tree):
    """The private (one leading underscore) names a module's top level
    defines, as a function, a class or an assignment, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id[:1] == "_" and name.id[:2] != "__":
                    yield name.id, node


def _loads(node):
    """Every name loaded under node, as a name or an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def test_every_private_module_level_name_is_used():
    # A private function, class or constant is loaded somewhere in the
    # package outside its own definition, so a helper a change leaves
    # behind shows here.
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    loaded = Counter(name for tree in trees for name in _loads(tree))
    defined = [(name, node) for tree in trees for name, node in _private_definitions(tree)]
    assert defined
    dead = [
        (name, node.lineno)
        for name, node in defined
        if loaded[name] == Counter(_loads(node))[name]
    ]
    assert not dead, dead


def _read_attributes(tree):
    """Every attribute name loaded in a module outside an assignment's
    target, and every name read through ``getattr(obj, "name", ...)``."""
    written = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for n in ast.walk(target)
    }
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in written:
            yield n.attr
        elif (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "getattr"
            and len(n.args) > 1
            and isinstance(n.args[1], ast.Constant)
        ):
            yield n.args[1].value


def test_every_private_class_slot_is_read():
    # Each __slots__ name of a private class is read somewhere in the
    # package, not only assigned, so a container a change leaves behind on
    # such a class shows here.
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    read = {name for tree in trees for name in _read_attributes(tree)}
    slots = [
        (node.name, c.value, stmt.lineno)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name[:1] == "_" and node.name[:2] != "__"
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for c in ast.walk(stmt.value)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    assert {cls for cls, _, _ in slots} >= {"_Gate", "_Read"}
    dead = [slot for slot in slots if slot[1] not in read]
    assert not dead, dead


def test_expression_imports_neither_automata_nor_reductions():
    # Both modules import expression, and expression reaches a gadget's
    # read only through the read object's own methods (``children`` and
    # ``conjoin`` of ``automata._Read``), so expression.py imports neither
    # of them anywhere, inside a function included.
    path = SRC / "likekit" / "expression.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert not {"automata", "reductions"} & set(name.split(".")), (node.lineno, name)
