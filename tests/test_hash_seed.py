"""Canonical forms do not depend on the interpreter's hash seed.

Set and dict orders of hashed keys change with PYTHONHASHSEED, so a kernel
that let such an order reach a pivot choice or a term order would print
different reprs in two interpreters.  The benchmark runs under seed 0.
"""

import os
import subprocess
import sys

import diffalg
from diffalg.corpus import builtin_names

CHILD = r"""
import random
from diffalg import (Hierarchy, RatFun, constant_linear_basis, is_hereditary, jet,
                     lie_derivative, nl_power, operator_from_json, parse_function)
from diffalg.calculus import basis_mod_total_derivatives
from diffalg.corpus import builtin_names, load_operator
from helpers import planted_inputs, rand_poly

for name in builtin_names():
    l, _ = load_operator(name)
    for k in range(1, 6):
        print(name, k, nl_power(l, k))
rng = random.Random(0x5EED)
u, u1, u2 = jet("u"), jet("u", 1), jet("u", 2)
dens = [u, u1 + 2, u * u2 - u1]
for trial in range(60):
    def draw():
        f = rand_poly(rng, terms=4, names=("u", "F"), nonzero=True)
        return RatFun(f, rng.choice(dens)) if trial % 2 else f
    print(constant_linear_basis(planted_inputs(rng, rng.randint(1, 6), draw)))

    def density():
        f = rand_poly(rng, terms=3, names=("u", "F"))
        return f + rand_poly(rng, max_order=3, names=("u", "F")).total_derivative()
    print(basis_mod_total_derivatives(planted_inputs(rng, rng.randint(1, 6), density)))

kdv = Hierarchy.from_operator(load_operator("kdv")[0]).extend(5)
print(kdv.verify_commuting())
kdv.chain = [u, u * u, u2, jet("u", 3) * u, u1 * u2, u * u1]
print(kdv.verify_commuting())

# two non-hereditary operators: residuals of depth 2 and of depth 1
for data in ({"local": [["3*u'", 1]], "nonlocal": [["3*u^2 - 3", "u'"]]},
             {"local": [["2*u'' + u*u'", 0]], "nonlocal": [["u''", "1"]]}):
    l, _ = operator_from_json(data)
    print(lie_derivative(l, parse_function("u''' + u*u'")))
    print(is_hereditary(l).certificate.residual)
"""


def run(seed: int) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(diffalg.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([src, tests] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reprs_do_not_depend_on_the_hash_seed():
    first, second = run(0), run(1)
    assert first.count("\n") == len(builtin_names()) * 5 + 2 * 60 + 2 + 2 * 2
    assert first == second
