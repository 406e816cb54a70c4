"""The package root: what an import loads, and what its public names are."""
import importlib
import os
import pkgutil
import subprocess
import sys
import types

import volkenborn

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loaded_after(statement: str) -> list[str]:
    """The volkenborn modules a fresh interpreter holds after running ``statement``."""
    probe = f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('volkenborn')))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_loads_only_what_is_used():
    assert _loaded_after("import volkenborn") == ["volkenborn"]
    cli = _loaded_after("import volkenborn.cli")
    assert "volkenborn.cli" in cli
    assert "volkenborn.identities" not in cli and "volkenborn.series" not in cli
    assert "volkenborn.identities" in _loaded_after("from volkenborn import verify")


def test_every_public_name_is_its_module_object():
    assert len(volkenborn.__all__) == 24 and volkenborn.__all__ == sorted(set(volkenborn.__all__))
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
