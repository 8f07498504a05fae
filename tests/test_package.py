"""The package's export lists name only things that exist."""

import importlib
import pkgutil

import dsirc
import dsirc.diffusion


def test_public_names_resolve():
    modules = [dsirc] + [
        importlib.import_module(f"dsirc.{info.name}")
        for info in pkgutil.iter_modules(dsirc.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    assert dsirc.knn_indices is dsirc.diffusion.knn_indices
