"""Every per-layer name the benchmark traces is defined in the package.

``perfbench/tracing.py`` reports a traced name that the package no longer
defines as absent, and the traced smoke run in CI fails on it.  This test
reads the same table, without installing the tracer, so a deleted or renamed
name fails in the tier-1 suite as well.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


TRACED = [(module, qualname) for module, qualnames in _traced_table().items()
          for qualname in qualnames]


@pytest.mark.parametrize("module, qualname", TRACED,
                         ids=[f"{module}.{qualname}" for module, qualname in TRACED])
def test_traced_name_is_a_callable_of_the_package(module, qualname):
    mod = importlib.import_module(f"diffalg.{module}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # a method is wrapped on its class, so the class itself defines it
        owner = getattr(mod, owner_name, None)
        assert isinstance(owner, type), f"diffalg.{module} has no class {owner_name}"
        assert callable(vars(owner).get(attr)), f"{owner_name} defines no {attr}"
    else:
        assert callable(getattr(mod, attr, None)), f"diffalg.{module} has no {attr}"
