"""Every name a module exports in ``__all__`` exists, so a deleted function
cannot stay advertised."""

import importlib
import pkgutil

import gradflow


def test_every_exported_name_exists():
    modules = [gradflow] + [
        importlib.import_module(f"gradflow.{info.name}")
        for info in pkgutil.iter_modules(gradflow.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
