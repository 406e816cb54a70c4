"""The package root: what an import loads, what its public names are, and what it imports."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import volkenborn

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _printed_by(probe: str) -> str:
    """What a fresh interpreter, importing the package from ./src, prints running ``probe``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def _loaded_after(statement: str) -> list[str]:
    """The volkenborn modules a fresh interpreter holds after running ``statement``."""
    probe = f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('volkenborn')))"
    return _printed_by(probe).split()


def test_import_loads_only_what_is_used():
    assert _loaded_after("import volkenborn") == ["volkenborn"]
    cli = _loaded_after("import volkenborn.cli")
    assert "volkenborn.cli" in cli
    assert "volkenborn.identities" not in cli and "volkenborn.series" not in cli
    assert "volkenborn.identities" in _loaded_after("from volkenborn import verify")


def test_catalog_set_up_grows_no_table():
    # importing identities and building its records (what the catalog
    # benchmark's set-up probe times) must leave every memo table empty
    empty = "print(all(t._values == [] and t._ints == ((), 1) for t in sequences._TABLES))"
    out = _printed_by(f"from volkenborn import identities, sequences\n{empty}\nidentities.catalog()\n{empty}")
    assert out.split() == ["True", "True"]


def test_every_public_name_is_its_module_object():
    assert len(volkenborn.__all__) == 20 and volkenborn.__all__ == sorted(set(volkenborn.__all__))
    for name in volkenborn.__all__:
        obj = getattr(volkenborn, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"volkenborn.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert volkenborn.verify is importlib.import_module("volkenborn.identities").verify


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from volkenborn import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(volkenborn.__all__)
    assert set(volkenborn.__all__) <= set(dir(volkenborn))


def test_reading_a_name_writes_nothing_into_the_root():
    for module in pkgutil.iter_modules(volkenborn.__path__):
        importlib.import_module(f"volkenborn.{module.name}")
    before = dict(vars(volkenborn))
    for name in volkenborn.__all__:
        getattr(volkenborn, name)
    assert vars(volkenborn) == before
    assert not hasattr(volkenborn, "no_such_name")


SOURCES = sorted(Path(volkenborn.__file__).parent.glob("*.py"))
# the standard library and the package itself: there is no runtime dependency
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"volkenborn"}


def _imported_roots(path: Path) -> set[str]:
    """The top-level names of every absolute import in a source file, at any depth."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_runtime_imports_are_stdlib_or_click(path):
    # the name predates the argparse CLI: click is no longer allowed either.
    # sympy, numpy and click are installed for the tests and the benchmark,
    # so only this keeps them out of the library and pyproject's (empty)
    # dependencies complete
    assert _imported_roots(path) - ALLOWED_IMPORTS == set()


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert deps == []


# modules a CLI process does not load: seq and table-dump, most of what
# users run, need only sequences, polynomials and fractions
CLI_UNLOADED = ("click", "json", "csv", "volkenborn.integrals", "volkenborn.identities", "volkenborn.series")
RUN_SEQ = """
import contextlib, io
from volkenborn.cli import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["seq", "bernoulli", "--n", "3"])
    except SystemExit as done:
        assert done.code == 0
"""


def test_cli_imports_only_what_a_command_runs():
    loaded = f"\nimport sys\nprint(*[m for m in {CLI_UNLOADED!r} if m in sys.modules])"
    assert _printed_by("import volkenborn.cli" + loaded) == "\n"
    assert _printed_by(RUN_SEQ + loaded) == "\n"


KIND_STRINGS = {"bosonic", "fermionic", "q"}


def _kind_comparisons(path: Path) -> list[str]:
    """Each comparison with a measure kind's string, outside ``Measure``'s constructor."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constructor = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Measure":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    constructor.update(map(id, ast.walk(fn)))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in constructor
        and any(
            isinstance(leaf, ast.Constant) and leaf.value in KIND_STRINGS
            for operand in (node.left, *node.comparators) for leaf in ast.walk(operand)
        )
    ]


def test_only_the_measure_constructor_compares_kind_strings():
    # a measure carries what its kind means, so the level sums and the catalog read
    # its attributes; a branch on the kind string would state the facts a second time
    package = Path(volkenborn.__file__).parent
    assert [hit for name in ("integrals.py", "identities.py") for hit in _kind_comparisons(package / name)] == []
