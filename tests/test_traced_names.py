"""Every per-layer name the benchmark traces is defined in the package.

``perfbench/tracing.py`` reports a traced name that the package no longer
defines as absent, and the traced smoke run in CI fails on it.  This test
reads the same table, without installing the tracer, so a deleted or renamed
name fails in the tier-1 suite as well.  A name that is present but bound to
another object than the one the package calls would still count nothing, so
one more test installs the tracer in a child process and checks the counts
of the rational layer, which ``jets`` only re-exports, of the ``powers``
workload at seed 1, whose second KdV^8 reads the squares kept on its operator
(9 products, where building KdV^8 twice would make 12), and of the ``decide``
workload at seed 1, whose commutators form no operator product and whose
divisions by d take no RatFun derivative.
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
rational = tracer.metrics()
spec = importlib.util.spec_from_file_location("workloads", sys.argv[2])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
inputs = workloads.inputs("powers", 1)
built = workloads.build(diffalg, inputs)
tracer.active = True
ops = workloads.run_powers(diffalg, built)
tracer.active = False
failures = workloads.check(diffalg, inputs, ops, False)[0]
before = tracer.metrics()
powers = {key: value - rational[key] for key, value in before.items()
          if key.endswith(".calls")}
inputs = workloads.inputs("decide", 1)
built = workloads.build(diffalg, inputs)
tracer.active = True
ops = workloads.run_decide(diffalg, built)
tracer.active = False
failures += workloads.check(diffalg, inputs, ops, False)[0]
decide = {key: value - before[key] for key, value in tracer.metrics().items()
          if key.endswith(".calls")}
print(json.dumps({"absent": tracer.absent, "layers": rational, "powers": powers,
                  "decide": decide, "failures": failures}))
"""


def test_tracer_counts_the_rational_layer_through_jets():
    src = os.path.dirname(os.path.dirname(os.path.abspath(diffalg.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHILD,
         os.path.join(ROOT, "perfbench", "tracing.py"),
         os.path.join(ROOT, "perfbench", "workloads.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["absent"] == []
    assert out["layers"]["jets.RatFun.__add__.calls"] > 0
    assert out["layers"]["jets.poly_gcd.calls"] > 0
    # the kept squares are seen through the tracer's module-attribute wrappers
    assert out["failures"] == []
    assert out["powers"]["nonlocal_ops.nl_mul.calls"] == 9
    assert out["powers"]["nonlocal_ops.nl_power.calls"] == 4
    # [E, W] is one commutator, not the two products W E and E W, and d^-1
    # divides Laurent coefficients on DiffPoly
    assert out["decide"]["operators.DiffOp.__mul__.calls"] == 67
    assert out["decide"]["jets.RatFun.total_derivative.calls"] == 0
