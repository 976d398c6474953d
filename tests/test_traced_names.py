"""Every per-layer name the benchmark traces is defined in the package.

``perfbench/tracing.py`` reports a traced name that the package no longer
defines as absent, and the traced smoke run in CI fails on it.  This test
reads the same table, without installing the tracer, so a deleted or renamed
name fails in the tier-1 suite as well.  A name that is present but bound to
another object than the one the package calls would still count nothing, so
one more test installs the tracer in a child process and checks the counts
of the rational layer, which ``jets`` only re-exports.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import diffalg

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


CHILD = r"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import diffalg
tracer = tracing.Tracer(diffalg)
tracer.active = True
u, u1, u2 = (diffalg.jet("u", k) for k in range(3))
diffalg.RatFun(u, u1) + diffalg.RatFun(u1, u + 1)
diffalg.poly_gcd(u * u1 + u1, u1 * u2)
tracer.active = False
print(json.dumps({"absent": tracer.absent, "layers": tracer.metrics()}))
"""


def test_tracer_counts_the_rational_layer_through_jets():
    src = os.path.dirname(os.path.dirname(os.path.abspath(diffalg.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD,
         os.path.join(ROOT, "perfbench", "tracing.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["absent"] == []
    assert out["layers"]["jets.RatFun.__add__.calls"] > 0
    assert out["layers"]["jets.poly_gcd.calls"] > 0
