import ast
import os
import subprocess
import sys
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


def test_expression_imports_neither_automata_nor_reductions():
    # Both modules import expression, and and_ reaches a gadget's read
    # through the read object alone (``automata._Read.conjoin``), so
    # expression.py imports neither of them anywhere, inside a function
    # included.
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
