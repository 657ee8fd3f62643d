"""No module of the package imports a name it does not use, and no
definition is left unread.

Static scans with :mod:`ast`: every name an ``import`` statement binds
must be read somewhere in its module (``__init__.py`` is left out, since
it imports names to export them), every private module-level function,
class or constant must be read somewhere in the package, and every
public one by some module other than ``__init__.py``, apart from a few
names kept for readers outside the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rank1flow"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that *source* never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = "from itertools import chain, product\nimport numpy as np\n\nx = list(chain())\n"
    assert unused_imports(source) == [(1, "product"), (2, "np")]


def test_the_package_is_found():
    assert "correlate.py" in MODULES and "schedule.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def definitions(source: str) -> dict:
    """name -> line of each module-level function, class or constant of
    *source*, dunder names left out."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names if not name.startswith("__"))
    return defined


def read_names(source: str) -> set:
    """Every name *source* loads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def orphans(sources: dict) -> list:
    """(module, line, name) of each private definition no module reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for name, line in definitions(source).items()
        if name.startswith("_") and name not in read
    )


def exported_only(sources: dict) -> list:
    """(module, line, name) of each public definition that no module but
    ``__init__.py`` reads."""
    read = set().union(*(read_names(source) for module, source in sources.items() if module != "__init__.py"))
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for name, line in definitions(source).items()
        if not name.startswith("_") and name not in read
    )


# public names that no module of the package reads, each kept for a reader
# outside it
EXPORTED_ONLY = {
    "SQRT2": "the sqrt 2 constant that specs and users write with",
    "schedule_to_json": "the writer half of the wire format, and the serialize tests' round-trip reference",
    "indicator": "a documented test-function builder",
}


def test_the_scan_finds_an_orphan():
    sources = {
        "a.py": "_used = 1\n_LEFT = 2\n\n\ndef _gone():\n    return _used\n\n\nclass _Kept:\n    pass\n",
        "b.py": "from .a import _Kept\n\nx = _Kept()\n",
    }
    assert orphans(sources) == [("a.py", 2, "_LEFT"), ("a.py", 5, "_gone")]


def test_every_private_definition_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert orphans(sources) == []


def test_the_scan_finds_a_public_name_only_exported():
    sources = {
        "a.py": "LIMIT = 2\n\n\ndef used():\n    return LIMIT\n\n\ndef exported():\n    pass\n",
        "b.py": "from .a import used\n\nused()\n",
        "__init__.py": "from .a import exported, used\n\nexported()\n",
    }
    assert exported_only(sources) == [("a.py", 8, "exported")]


def test_every_public_definition_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert [entry for entry in exported_only(sources) if entry[2] not in EXPORTED_ONLY] == []
