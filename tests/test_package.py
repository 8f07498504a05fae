"""The package's export lists name only things that exist, importing the
package does not load ``scipy.optimize``, and README states the
dependency floors that ``pyproject.toml`` declares."""

import importlib
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import dsirc
import dsirc.diffusion


def _modules():
    return [
        importlib.import_module(f"dsirc.{info.name}")
        for info in pkgutil.iter_modules(dsirc.__path__)
    ]


def test_public_names_resolve():
    for module in [dsirc] + _modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    assert dsirc.knn_indices is dsirc.diffusion.knn_indices


def test_package_exports_the_modules_names_but_the_left_out_ones():
    union = {name for module in _modules() for name in module.__all__}
    assert dsirc._LEFT_OUT <= union
    assert len(dsirc.__all__) == len(set(dsirc.__all__))
    assert set(dsirc.__all__) == union - dsirc._LEFT_OUT | {"__version__"}
    for name in dsirc._LEFT_OUT:
        assert not hasattr(dsirc, name)


@pytest.mark.parametrize("module", ["dsirc", "dsirc.cli"])
def test_import_does_not_load_scipy_optimize(module):
    # A fresh interpreter: this one has loaded whatever other tests import.
    src = str(Path(dsirc.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import {module}; "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_readme_states_the_floors_pyproject_declares():
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {"Python": project["requires-python"].removeprefix(">=")}
    for requirement in project["dependencies"]:
        name, _, floor = requirement.partition(">=")
        declared[name] = floor
    readme = (root / "README.md").read_text(encoding="utf-8")
    stated = set(re.findall(r"\b(Python|numpy|scipy) >= ([0-9.]*[0-9])", readme))
    assert stated == set(declared.items())
