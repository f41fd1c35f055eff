"""The package namespace re-exports each library module's ``__all__``."""

import types

import pytest

import keypose
from keypose import biaslab, codec, dataio, geometry, pipeline, raster

MODULES = (biaslab, codec, dataio, geometry, pipeline, raster)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_defined_and_exported(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
        assert getattr(keypose, name) is getattr(module, name), name


def test_no_name_is_public_in_two_modules():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in seen, f"{name!r} in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__


def test_package_exports_exactly_the_modules_public_names():
    public = {name for name, value in vars(keypose).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for module in MODULES for name in module.__all__}
    assert keypose.__version__ == "0.1.0"
