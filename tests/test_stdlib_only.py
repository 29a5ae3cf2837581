import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "likekit").glob("*.py"))


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
