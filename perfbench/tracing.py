"""Per-layer spans, recorded from outside the package.

Each traced name is a public function or method of a ``diffalg`` module.  A
method is wrapped on its class; a function is wrapped in every ``diffalg``
module whose namespace binds it, so calls through ``from .jets import
poly_gcd`` are seen as well.  Self time is a span's duration minus the time
of the spans it caused.  A name the package no longer defines is reported as
absent with zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer module -> traced qualified names.  ``canonicalize`` is left out on
# purpose: the ``NonlocalOp`` constructor is the canonicaliser.
TRACED = {
    "jets": ("DiffPoly.__mul__", "DiffPoly.__add__",
             "DiffPoly.total_derivative", "poly_gcd", "RatFun.__add__",
             "RatFun.__mul__", "RatFun.total_derivative"),
    "calculus": ("lie_bracket", "evo_apply", "integrate", "potential",
                 "basis_mod_total_derivatives"),
    "operators": ("DiffOp.__mul__", "DiffOp.adjoint", "DiffOp.apply",
                  "right_lcm", "frechet"),
    "bidiff": ("compose_left", "compose_right", "left_divide_bidiff"),
    "nonlocal_ops": ("NonlocalOp.__init__", "nl_mul", "nl_apply",
                     "twisted_lie", "to_fraction", "nl_power",
                     "is_recursion_for", "operator_from_json"),
    "integrability": ("is_hereditary", "is_integrable_wnl"),
    "hierarchy": ("Hierarchy.extend", "Hierarchy.verify_commuting",
                  "conserved_densities"),
    "grammar": ("parse_function", "format_poly"),
}

# Ratios of wasted or notable outcomes: metric -> (span, outcome test).  The
# test sees the return value, or the exception the call raised.
RATIOS = {
    "jets.poly_gcd.nontrivial_frac": (
        "jets.poly_gcd",
        lambda da, result: not isinstance(result, BaseException)
        and not result.is_one()),
    "calculus.integrate.notexact_frac": (
        "calculus.integrate",
        lambda da, result: isinstance(result, da.errors.NotExact)),
}


def metric_names() -> list:
    names = []
    for module, qualnames in TRACED.items():
        for qualname in qualnames:
            names += [f"{module}.{qualname}.calls", f"{module}.{qualname}.self_s"]
    return names + list(RATIOS)


class Tracer:
    """Wraps the traced names once; counts only while ``active``."""

    def __init__(self, da):
        self.da = da
        self.active = False
        self.calls = {}
        self.self_s = {}
        self.hits = {}
        self.absent = []
        self._stack = []
        tests = {span: test for span, test in RATIOS.values()}
        for module, qualnames in TRACED.items():
            for qualname in qualnames:
                key = f"{module}.{qualname}"
                self.calls[key] = 0
                self.self_s[key] = 0.0
                self.hits[key] = 0
                if not self._install(module, qualname, key, tests.get(key)):
                    self.absent.append(key)

    def _install(self, module: str, qualname: str, key: str, test) -> bool:
        mod = sys.modules.get(f"{self.da.__name__}.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        if mod is None:
            return False
        if owner_name:
            owner = getattr(mod, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if not callable(original):
                return False
            setattr(owner, attr, self._wrap(key, original, test))
            return True
        original = getattr(mod, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(key, original, test)
        prefix = self.da.__name__
        for name, other in list(sys.modules.items()):
            if other is not None and (name == prefix or name.startswith(prefix + ".")):
                for binding, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, binding, wrapper)
        return True

    def _wrap(self, key: str, fn, test):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, hits = self.calls, self.self_s, self.hits
        da = self.da

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - children
                if test is not None and test(da, outcome):
                    hits[key] += 1

        return span

    def metrics(self) -> dict:
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for metric, (key, _) in RATIOS.items():
            out[metric] = self.hits[key] / self.calls[key] if self.calls[key] else 0.0
        return out
