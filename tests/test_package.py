"""The package's top level re-exports each library module's public names."""

import pytest

import cvsteer
from cvsteer import core, criteria, optimize, protocol, sampler

MODULES = (core, criteria, optimize, protocol, sampler)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_public_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(cvsteer, name) is getattr(module, name), name
        assert name in cvsteer.__all__, name
