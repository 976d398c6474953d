"""The three benchmark workloads, their seeded inputs and their oracles.

Every operator is defined here in the JSON operator schema, so the benchmark
does not depend on the package's builtin names or on ``corpus/``.  Scaling by
the seed's lambda and shifting by its c is written as ``(a/b)*(expr)``: the
package's parser expands it, and no integer literal grows past the parser's
bounds.

The parent process imports this module without ``diffalg``; only the
``run_*`` functions and the oracles touch the package, through the module
object they are given, so names are looked up at call time (which is what
lets the tracer's wrappers see every call).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# Base operators, coefficients as (expression, power) and tails as (p, q).
KDV = {"local": [["2*u", 0], ["1", 2]], "nonlocal": [["u'", "1"]]}
MKDV = {"local": [["4*u^2", 0], ["1", 2]], "nonlocal": [["4*u'", "u"]]}
BURGERS = {"local": [["u", 0], ["1", 1]], "nonlocal": [["u'", "1"]]}
POTENTIAL_BURGERS = {"local": [["u'", 0], ["1", 1]], "nonlocal": []}
# Hereditary but not integrable: the tail's q = u''' is not a variational
# derivative (arXiv 1605.03472).
COUNTEREXAMPLE = {"local": [["u''", 0]], "nonlocal": [["-1", "u'''"]]}

DECIDE_OPERATORS = {
    "kdv": (KDV, True),
    "mkdv": (MKDV, True),
    "burgers": (BURGERS, True),
    "potential-burgers": (POTENTIAL_BURGERS, True),
    "counterexample": (COUNTEREXAMPLE, False),
}

# Textbook first flows, and the factor by which the chain's seed S0 (the p of
# the canonical tail) differs from u' before lambda scales it.
TEXTBOOK_S1 = {"kdv": ("u''' + 3*u*u'", 1), "mkdv": ("u''' + 6*u^2*u'", 4)}
CHAIN_STEPS = (("kdv", KDV, 7), ("mkdv", MKDV, 5))

# Unscaled flows S0..S5 of KdV and S0..S4 of mKdV, each normalised to leading
# coefficient 1.  KdV's S6 carries the integer 98241, which the parser rejects
# (its integer bound is 10000), so the list stops at S5.
KDV_FLOWS = (
    "u'",
    "u''' + 3*u*u'",
    "u(5) + 5*u*u''' + 10*u'*u'' + 15/2*u^2*u'",
    "u(7) + 7*u*u(5) + 21*u'*u(4) + 35*u''*u''' + 35/2*u^2*u''' "
    "+ 70*u*u'*u'' + 35/2*u'^3 + 35/2*u^3*u'",
    "u(9) + 9*u*u(7) + 36*u'*u(6) + 84*u''*u(5) + 63/2*u^2*u(5) "
    "+ 126*u'''*u(4) + 189*u*u'*u(4) + 315*u*u''*u''' + 483/2*u'^2*u''' "
    "+ 105/2*u^3*u''' + 651/2*u'*u''^2 + 315*u^2*u'*u'' + 315/2*u*u'^3 "
    "+ 315/8*u^4*u'",
    "u(11) + 11*u*u(9) + 55*u'*u(8) + 165*u''*u(7) + 99/2*u^2*u(7) "
    "+ 330*u'''*u(6) + 396*u*u'*u(6) + 462*u(4)*u(5) + 924*u*u''*u(5) "
    "+ 1419/2*u'^2*u(5) + 231/2*u^3*u(5) + 1386*u*u'''*u(4) "
    "+ 2871*u'*u''*u(4) + 2079/2*u^2*u'*u(4) + 3597/2*u'*u'''^2 "
    "+ 4851/2*u''^2*u''' + 3465/2*u^2*u''*u''' + 5313/2*u*u'^2*u''' "
    "+ 1155/8*u^4*u''' + 7161/2*u*u'*u''^2 + 1848*u'^3*u'' "
    "+ 1155*u^3*u'*u'' + 3465/4*u^2*u'^3 + 693/8*u^5*u'",
)
MKDV_FLOWS = (
    "u'",
    "u''' + 6*u^2*u'",
    "u(5) + 10*u^2*u''' + 40*u*u'*u'' + 10*u'^3 + 30*u^4*u'",
    "u(7) + 14*u^2*u(5) + 84*u*u'*u(4) + 140*u*u''*u''' + 126*u'^2*u''' "
    "+ 70*u^4*u''' + 182*u'*u''^2 + 560*u^3*u'*u'' + 420*u^2*u'^3 "
    "+ 140*u^6*u'",
    "u(9) + 18*u^2*u(7) + 144*u*u'*u(6) + 336*u*u''*u(5) + 318*u'^2*u(5) "
    "+ 126*u^4*u(5) + 504*u*u'''*u(4) + 1404*u'*u''*u(4) "
    "+ 1512*u^3*u'*u(4) + 894*u'*u'''^2 + 1302*u''^2*u''' "
    "+ 2520*u^3*u''*u''' + 6132*u^2*u'^2*u''' + 420*u^6*u''' "
    "+ 8484*u^2*u'*u''^2 + 9408*u*u'^3*u'' + 5040*u^5*u'*u'' + 798*u'^5 "
    "+ 6300*u^4*u'^3 + 630*u^8*u'",
)
# The counterexample's recorded recursion seeds: (function, expected verdict).
COUNTEREXAMPLE_SEEDS = (("1", True), ("u'", True), ("u''", False))

POWERS = (("kdv", KDV, 8), ("mkdv", MKDV, 5), ("burgers", BURGERS, 6))
NL_POWER = ("kdv", KDV, 8)


# lambda and c are ratios of two distinct primes from here, so every seed gives
# a two-digit numerator and denominator in lowest terms: the seed changes the
# values of the coefficients but hardly their size, and so not the work.
PRIMES = (11, 13, 17, 19, 23, 29)


def draw(seed: int) -> dict:
    """The seeded numbers: lambda = p/q and the shift c = +-p'/q'."""
    rng = random.Random(seed)
    lam = Fraction(*rng.sample(PRIMES, 2))
    c = rng.choice((-1, 1)) * Fraction(*rng.sample(PRIMES, 2))
    return {"lambda": str(lam), "c": str(c)}


def scaled(op: dict, lam: str, shift: str = "0") -> dict:
    """The schema of lam*L + shift, for L given in the schema."""
    local = [[f"({lam})*({e})", k] for e, k in op["local"]]
    if Fraction(shift):
        local.append([f"({shift})", 0])
    tails = [[f"({lam})*({p})", q] for p, q in op["nonlocal"]]
    return {"local": local, "nonlocal": tails, "grading": {"u": "even"}}


def inputs(workload: str, seed: int) -> dict:
    """Everything the worker process receives for one workload and seed."""
    nums = draw(seed)
    lam = nums["lambda"]
    if workload == "chain":
        ops = {name: scaled(op, lam) for name, op, _ in CHAIN_STEPS}
    elif workload == "decide":
        ops = {name: scaled(op, lam, nums["c"])
               for name, (op, _) in DECIDE_OPERATORS.items()}
    elif workload == "powers":
        ops = {name: scaled(op, lam) for name, op, _ in POWERS}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "numbers": nums, "operators": ops}


# -- set-up --------------------------------------------------------------------


def build(da, spec: dict) -> dict:
    """Operators (and parsed flows) from the seeded JSON: the set-up phase."""
    built = {"ops": {name: da.operator_from_json(data)
                     for name, data in spec["operators"].items()}}
    if spec["workload"] == "decide":
        built["flows"] = {
            "kdv": [da.parse_function(s) for s in KDV_FLOWS],
            "mkdv": [da.parse_function(s) for s in MKDV_FLOWS],
            "counterexample": [(da.parse_function(s), want)
                               for s, want in COUNTEREXAMPLE_SEEDS],
        }
    return built


# -- the timed operations ---------------------------------------------------------
#
# Each run_* returns a list of operations (name, outcome) where outcome is
# whatever the checks need, or an exception instance when the call raised.
# Checks run afterwards, outside the timed region.


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a crash is a failed operation, not a verdict
        return exc


def run_chain(da, built: dict) -> list:
    out = []
    for name, _, steps in CHAIN_STEPS:
        op, grading = built["ops"][name]

        def extend():
            return da.Hierarchy.from_operator(op, grading=grading).extend(steps)

        h = _attempt(extend)
        out.append((f"{name}.extend", h))
        if isinstance(h, Exception):
            out.append((f"{name}.verify", h))
            out.append((f"{name}.report", h))
            continue
        verified = _attempt(h.verify_commuting)
        out.append((f"{name}.verify", verified))
        out.append((f"{name}.report", _attempt(
            h.report, None if isinstance(verified, Exception) else verified)))
    return out


def run_decide(da, built: dict) -> list:
    out = []
    for name in DECIDE_OPERATORS:
        op, _ = built["ops"][name]
        out.append((f"{name}.hereditary", _attempt(da.is_hereditary, op)))
        out.append((f"{name}.integrable", _attempt(da.is_integrable_wnl, op)))
    for name in ("kdv", "mkdv"):
        op, _ = built["ops"][name]
        for n, flow in enumerate(built["flows"][name]):
            out.append((f"{name}.recursion.S{n}",
                        _attempt(da.is_recursion_for, op, flow)))
    op, _ = built["ops"]["counterexample"]
    for n, (f, _) in enumerate(built["flows"]["counterexample"]):
        out.append((f"counterexample.recursion.{n}",
                    _attempt(da.is_recursion_for, op, f)))
    return out


def run_powers(da, built: dict) -> list:
    out = []
    for name, _, k in POWERS:
        op, _ = built["ops"][name]
        out.append((f"{name}.densities.{k}",
                    _attempt(da.conserved_densities, op, k)))

    name, _, k = NL_POWER
    op, grading = built["ops"][name]

    def power_verify():
        # what `diffalg power --verify` does: the power, its JSON, and the
        # self-adjointness of the Frechet derivative of every tail's q
        lk = da.nl_power(op, k)
        data = da.operator_to_json(lk, grading)
        variational = []
        for _, q in lk.depth1:
            dq = da.frechet(q)
            variational.append(dq == dq.adjoint())
        return data, variational

    out.append((f"{name}.power.{k}", _attempt(power_verify)))
    return out


RUN = {"chain": run_chain, "decide": run_decide, "powers": run_powers}


# -- checks (outside the timed region) ----------------------------------------------


def count_terms(printed: str) -> int:
    """Terms of a polynomial in the package's canonical printed form."""
    return 1 + printed.count(" + ") + printed.count(" - ")


def check_chain(da, spec: dict, ops: list) -> tuple:
    """Per-operation failures and a digest of what the chain printed."""
    lam = Fraction(spec["numbers"]["lambda"])
    results = dict(ops)
    failures, digest, terms = [], [], 0
    for name, _, steps in CHAIN_STEPS:
        h = results[f"{name}.extend"]
        verified = results[f"{name}.verify"]
        report = results[f"{name}.report"]
        if isinstance(h, Exception):
            failures += [f"{name}.extend: {h!r}"] * 3
            continue
        flow, factor = TEXTBOOK_S1[name]
        s0 = da.parse_function("u'") * (factor * lam)
        s1 = da.parse_function(flow) * (factor * lam * lam)
        if (h.orders != list(range(1, 2 * steps + 2, 2)) or len(h.chain) < 2
                or h.chain[0] != s0 or h.chain[1] != s1):
            failures.append(f"{name}.extend: orders {h.orders} or S0/S1 "
                            "differ from the textbook flow")
        pairs = steps * (steps + 1) // 2
        if isinstance(verified, Exception) or not verified.all_zero \
                or verified.pairs_checked != pairs:
            failures.append(f"{name}.verify: {verified!r}")
        if isinstance(report, Exception) or report["pairwise_zero"] is not True \
                or report["violations"] or len(report["chain"]) != steps + 1:
            failures.append(f"{name}.report: {report!r}")
        else:
            digest.append(report["chain"])
            terms += sum(count_terms(s) for s in report["chain"])
    return failures, digest, {"hierarchy.chain.terms": terms}


def check_decide(da, spec: dict, ops: list) -> tuple:
    failures, digest = [], []
    expected = {}
    for name, (_, integrable) in DECIDE_OPERATORS.items():
        expected[f"{name}.hereditary"] = True
        expected[f"{name}.integrable"] = integrable
    for name, flows in (("kdv", KDV_FLOWS), ("mkdv", MKDV_FLOWS)):
        for n in range(len(flows)):
            expected[f"{name}.recursion.S{n}"] = True
    for n, (_, want) in enumerate(COUNTEREXAMPLE_SEEDS):
        expected[f"counterexample.recursion.{n}"] = want
    for name, got in ops:
        if isinstance(got, Exception):
            failures.append(f"{name}: {got!r}")
            continue
        verdict = bool(got)
        if verdict != expected[name]:
            failures.append(f"{name}: got {verdict}, literature says "
                            f"{expected[name]}")
        digest.append((name, verdict))
    if len(ops) != len(expected):
        failures.append(f"ran {len(ops)} operations, expected {len(expected)}")
    return failures, digest, {}


def check_powers(da, spec: dict, ops: list, with_sympy: bool) -> tuple:
    failures, digest = [], []
    for name, got in ops:
        if isinstance(got, Exception):
            failures.append(f"{name}: {got!r}")
            continue
        if ".densities." in name:
            printed = [(da.format_poly(r.q), da.format_poly(r.rho))
                       for r in got]
            if not printed:
                failures.append(f"{name}: no densities")
            for i, (q, rho) in enumerate(printed if with_sympy else ()):
                if _attempt(euler_matches, rho, q) is not True:
                    failures.append(f"{name}[{i}]: the Euler operator of rho "
                                    "is not q")
            digest.append((name, printed))
        else:
            data, variational = got
            if not variational or not all(variational):
                failures.append(f"{name}: tails not variational {variational}")
            digest.append((name, data))
    return failures, digest, {}


def check(da, spec: dict, ops: list, with_sympy: bool) -> tuple:
    workload = spec["workload"]
    if workload == "powers":
        return check_powers(da, spec, ops, with_sympy)
    return {"chain": check_chain, "decide": check_decide}[workload](da, spec, ops)


# -- the sympy oracle ------------------------------------------------------------

_JET = re.compile(r"u(?:\((\d+)\)|('*))")


def _jet_order(match) -> int:
    return int(match.group(1)) if match.group(1) else len(match.group(2))


def to_sympy(printed: str, jets: tuple):
    """A polynomial in the package's printed grammar as a sympy Poly in the jets."""
    import sympy

    text = _JET.sub(lambda m: f"J{_jet_order(m)}", printed).replace("^", "**")
    expr = sympy.sympify(text, locals={str(j): j for j in jets}, rational=True)
    return sympy.Poly(expr, *jets, domain="QQ")


def euler_matches(rho: str, q: str) -> bool:
    """sum_k (-D)^k d(rho)/du_k, computed in sympy, equals the tail's q."""
    import sympy

    top = max(_jet_order(m) for m in _JET.finditer(f"{rho} {q} u"))
    jets = sympy.symbols(f"J0:{2 * top + 2}")
    shift = [sympy.Poly(j, *jets, domain="QQ") for j in jets[1:]]

    def total_derivative(p):
        return sum((p.diff(j) * s for j, s in zip(jets, shift)),
                   sympy.Poly(0, *jets, domain="QQ"))

    density = to_sympy(rho, jets)
    euler = sympy.Poly(0, *jets, domain="QQ")
    for k in range(top + 1):
        term = density.diff(jets[k])
        for _ in range(k):
            term = -total_derivative(term)
        euler += term
    return euler == to_sympy(q, jets)
