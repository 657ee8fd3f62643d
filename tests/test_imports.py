"""No module of the package imports a name it does not use, and no
definition is left unread; and importing the package loads no FFT.

Static scans with :mod:`ast`: every name an ``import`` statement binds
must be read somewhere in its module (``__init__.py`` is left out, since
it imports names to export them), every private module-level function,
class or constant must be read somewhere in the package, and every
public one by some module other than ``__init__.py``, apart from a few
names kept for readers outside the package.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
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


# a cross-reference of a docstring: its role and its target, less a
# leading ~ or . and a trailing ()
ROLE = re.compile(r":(func|meth|class|attr|data|mod):`~?\.?([^`]+?)(?:\(\))?`")


def references(source: str) -> list:
    """(line, role, target) of each cross-reference in the docstrings of
    *source*: its module's, its classes' and its functions'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                found += [(node.body[0].lineno, role, target) for role, target in ROLE.findall(docstring)]
    return found


def defined_anywhere(sources: dict) -> set:
    """Every name *sources* define: each function and class, at any depth,
    and each name assigned or annotated in a module or class body."""
    names = set()
    for tree in map(ast.parse, sources.values()):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, (ast.Module, ast.ClassDef)):
                for statement in node.body:
                    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                        names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def resolves(role: str, target: str, namespace, defined: set) -> bool:
    """Whether *target* names something.  A bare name must be in *defined*,
    or be a module that imports; a dotted one is imported as the longest
    module path it starts with, or else its first part is read off
    *namespace* (a module), and the rest is read by getattr."""
    parts = target.split(".")
    if len(parts) == 1 and role != "mod":
        return target in defined
    found, rest = namespace, parts
    for cut in range(len(parts), 0, -1):
        try:
            found, rest = importlib.import_module(".".join(parts[:cut])), parts[cut:]
            break
        except ImportError:
            continue
    for part in rest:
        if not hasattr(found, part):
            return False
        found = getattr(found, part)
    return True


def unresolved(sources: dict, package: str) -> list:
    """(module, line, target) of each docstring cross-reference of the
    modules of *package*, *sources*, that names nothing."""
    defined = defined_anywhere(sources)
    missing = []
    for module, source in sources.items():
        name = package if module == "__init__.py" else f"{package}.{module.removesuffix('.py')}"
        namespace = importlib.import_module(name)
        missing += [(module, line, target) for line, role, target in references(source) if not resolves(role, target, namespace, defined)]
    return sorted(missing)


def test_the_scan_finds_a_reference_to_nothing():
    """A bare target must be defined somewhere, a dotted one must import
    and getattr: a deleted helper and a missing method are both found."""
    source = (
        '"""Reads :func:`within`, :meth:`~Lattice.holding` and :func:`pick_stage`."""\n\n\n'
        'def pick_stage():\n    """See :mod:`rank1flow.schedule`, :data:`rank1flow.schedule.GUARD`,\n'
        '    :mod:`fractions`, :mod:`nowhere` and :meth:`Lattice.missing`."""\n'
    )
    found = unresolved({"correlate.py": source}, "rank1flow")
    assert found == [("correlate.py", 1, "within"), ("correlate.py", 5, "Lattice.missing"), ("correlate.py", 5, "nowhere")]


def test_every_docstring_reference_resolves():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unresolved(sources, "rank1flow") == []


def test_importing_the_package_loads_no_fft():
    """``numpy.fft`` (pocketfft) is loaded when bochner_density first runs,
    not when the package is imported: in a fresh interpreter it is absent
    after ``import rank1flow`` and present after one transform."""
    code = (
        "import sys, rank1flow\n"
        "imported = 'numpy.fft' in sys.modules\n"
        "rank1flow.bochner_density(rank1flow.curve_from_samples(0.5, [1, 1, 1]), 1.0, 8)\n"
        "print(imported, 'numpy.fft' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]
