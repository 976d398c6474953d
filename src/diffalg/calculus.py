"""Variational calculus on the jet ring.

Evolutionary vector fields, the Lie bracket on functions, the variational
derivative, constructive integration (the inverse of the total derivative on
its image), the homotopy potential, and Q-linear reduction modulo total
derivatives.  A polynomial with no explicit x is a total derivative exactly
when all its variational derivatives vanish and its constant term is zero,
so that reduction is one reduced echelon form of the vectors
(variational derivatives, constant term).  These are the primitives every
decision procedure downstream bottoms out in, so each one is exact and
total-derivative identities are enforced by construction, never by
approximation.

No Leibniz expansion is written out here.  An evolutionary field is
X_f(g) = D_g(f), the Frechet derivative of g applied to f: one
``DiffOp.apply`` for rational functions, and for polynomials one streamed
derivative tower of f on integer numerators (``jets._add_tower``).  The Lie
brackets of a list of polynomials (``brackets``, and ``lie_bracket`` as its
two-member case) stream one tower per member, and every bracket that member
is in takes its half from that one stream.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Sequence, Tuple

from .errors import NotExact, NotVariational, Unsupported, VerificationFailed
from .jets import (DiffPoly, RatFun, _add_products, _add_tower, _derivative,
                   _from_numerators, _numerators, _partial, _tower, exponents)
from .linalg import _rref
from .operators import frechet, helmholtz_residual


def evo_apply(f, g, name: str = "u"):
    """Apply the evolutionary vector field of f to g: X_f(g) = D_g(f), the
    Frechet derivative of g applied to f, sum d^n(f) * dg/du^(n).

    Only jets of the named indeterminate are differentiated; formal symbols
    such as F and G pass through untouched, which is what makes them usable
    as "for all F" placeholders.

    For polynomials f = N_f/den_f and g = N_g/den_g the sum is
    (sum_n dN_g/du^(n) * d^n N_f) / (den_f * den_g): d^n f keeps f's own
    denominator, so it is one ``jets._add_tower`` on integer numerators.
    """
    if isinstance(g, RatFun) and g.is_polynomial():
        g = g.num
    elif not isinstance(g, RatFun):
        g = DiffPoly.coerce(g)
    rational = isinstance(g, RatFun)
    top = g.top_order(name)
    if top is None:
        return RatFun(0) if rational else DiffPoly.zero()
    if rational or isinstance(f, RatFun):
        return frechet(g, name).apply(RatFun.coerce(f))
    f = DiffPoly.coerce(f)
    acc: Dict[int, int] = {}
    _add_tower(acc, _partials(g.nums, name, top), f.nums)
    return _from_numerators(acc, f.den * g.den)


def _partials(ng: dict, name: str, top: int) -> dict:
    """{n: dN_g/du^(n)} for n <= top, zero partials left out."""
    return {n: p for n in range(top + 1) if (p := _partial(ng, name, n))}


def lie_bracket(f: DiffPoly, g: DiffPoly, name: str = "u") -> DiffPoly:
    """{f, g} = X_f(g) - X_g(f); for polynomials, ``brackets([f, g])``."""
    if isinstance(f, RatFun) or isinstance(g, RatFun):
        return evo_apply(f, g, name) - evo_apply(g, f, name)
    return brackets((f, g), name)[0, 1]


def brackets(fs: Sequence[DiffPoly], name: str = "u") -> Dict[Tuple[int, int], DiffPoly]:
    """{(i, j): {f_i, f_j}} for every i < j, in ascending (i, j) order.

    For polynomials f_i = N_i/den_i both halves of {f_i, f_j} share the
    denominator den_i * den_j (see evo_apply), so they accumulate with factors
    +1 and -1 into one integer sum.  Each member's tower d^k N_i is streamed
    once, up to the highest partial order of any other member, and at level k
    it feeds every bracket whose other member depends on u^(k).  A bracket is
    built as soon as its second member's stream ends; only such pending
    half-brackets are held, never a tower.  A RatFun member sends every pair
    through ``lie_bracket``'s rational arm.
    """
    if any(isinstance(f, RatFun) for f in fs):
        return {(i, j): lie_bracket(fs[i], fs[j], name)
                for i in range(len(fs)) for j in range(i + 1, len(fs))}
    polys = [DiffPoly.coerce(f) for f in fs]
    nums = [(f.nums, f.den) for f in polys]
    parts = [{} if (top := f.top_order(name)) is None else _partials(n, name, top)
             for f, (n, _) in zip(polys, nums)]
    pending: Dict[Tuple[int, int], Dict[int, int]] = {}
    out: Dict[Tuple[int, int], DiffPoly] = {}
    for i, (n_i, den_i) in enumerate(nums):
        others = [(j, p) for j, p in enumerate(parts) if j != i]
        need = max((max(p, default=-1) for _, p in others), default=-1)
        for k, level in _tower(n_i, need):
            for j, p in others:
                if k in p:
                    key, factor = ((i, j), 1) if i < j else ((j, i), -1)
                    _add_products(pending.setdefault(key, {}), p[k], level, factor)
        for j in range(i):
            out[j, i] = _from_numerators(pending.pop((j, i), {}), nums[j][1] * den_i)
    return {key: out[key] for key in sorted(out)}


def variational_derivative(f: DiffPoly, name: str = "u") -> DiffPoly:
    """Euler operator: sum (-d)^n (df/du^(n)), as p_0 - d(p_1 - d(p_2 - ...)).

    The Horner form runs on f's integer numerators over f's denominator.
    """
    f = DiffPoly.coerce(f)
    top = f.top_order(name)
    if top is None:
        return DiffPoly.zero()
    nf = f.nums
    out = _partial(nf, name, top)
    for n in range(top - 1, -1, -1):
        d_out = _derivative(out)
        out = _partial(nf, name, n)
        for m, c in d_out.items():
            c = out.get(m, 0) - c
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return _from_numerators(out, f.den)


# -- constructive integration ---------------------------------------------------


def _integrate_reduce(f: DiffPoly) -> Tuple[DiffPoly, DiffPoly]:
    """Peel total-derivative layers off f; returns (h, residual) with f = d(h) + residual.

    The residual is nonzero only when f is not a total derivative; by
    construction it is a polynomial in order-0 jets alone, the first layer
    that fails the affine-linearity test, or the first rest that recurs: when
    two indeterminates share the top order, peeling one can bring the other
    back, and on a non-exact f the peels can cycle.
    """
    h = DiffPoly.zero()
    rest = f
    # every earlier rest, and their monomial sets: hashing those packed ints is
    # far cheaper than hashing Fractions, and only a repeated set needs the
    # full comparison
    history, shapes = [], set()
    while not rest.is_zero():
        shape = frozenset(rest.nums)
        if shape in shapes and rest in history:
            return h, rest
        shapes.add(shape)
        history.append(rest)
        if len(history) > 10_000:
            raise AssertionError("integration reduction failed to terminate")
        top = rest.top_order()
        if top == 0 or top is None:
            return h, rest
        var = max(v for m in rest.nums for v, _ in exponents(m) if v[0] == top)
        layers = rest.as_univariate(var)
        if any(e not in (0, 1) for e in layers):
            return h, rest
        c1 = layers[1]
        c1_top = c1.top_order()
        if c1_top is not None and c1_top >= top:
            return h, rest
        below = (var[0] - 1, var[1])
        partial_h = DiffPoly.zero()
        for e, coeff in c1.as_univariate(below).items():
            if e == -1:
                raise Unsupported(
                    "antiderivative of a -1 Laurent exponent is not polynomial")
            mono = DiffPoly.jet(below[1], below[0], e + 1)
            partial_h = partial_h + coeff * mono * Fraction(1, e + 1)
        h = h + partial_h
        rest = rest - partial_h.total_derivative()
    return h, DiffPoly.zero()


def integrate(f: DiffPoly) -> DiffPoly:
    """Return h with d(h) = f and zero constant term; raise NotExact otherwise."""
    f = DiffPoly.coerce(f)
    h, residual = _integrate_reduce(f)
    if not residual.is_zero():
        from .grammar import format_poly
        raise NotExact(
            f"not a total derivative; residual {format_poly(residual)}",
            residual=residual)
    return h


def is_total_derivative(f: DiffPoly) -> bool:
    f = DiffPoly.coerce(f)
    _, residual = _integrate_reduce(f)
    return residual.is_zero()


def potential(q: DiffPoly, name: str = "u") -> DiffPoly:
    """Homotopy inverse of the variational derivative.

    For a polynomial variational derivative q the density
    rho = sum over monomials m of q of u*m / (deg m + 1) satisfies
    delta(rho)/delta(u) = q; the result is re-checked before returning.
    """
    q = DiffPoly.coerce(q)
    if q.has_negative_exponent():
        raise Unsupported("potential requires a non-Laurent polynomial")
    if helmholtz_residual(q, name):
        raise NotVariational("Frechet derivative is not self-adjoint")
    # every term of q over its degree + 1, on q's numerators over the lcm
    # of those weights
    weights = {m: sum(e for _, e in exponents(m)) + 1 for m in q.nums}
    scale = lcm(*weights.values())
    rho = DiffPoly.jet(name, 0) * _from_numerators(
        {m: n * (scale // weights[m]) for m, n in q.nums.items()}, q.den * scale)
    rho = rho - DiffPoly.const(rho.constant_term())
    if variational_derivative(rho, name) != q:
        raise VerificationFailed("homotopy potential failed its defining identity")
    return rho


# -- reduction modulo total derivatives -------------------------------------------


def basis_mod_total_derivatives(fs: Sequence[DiffPoly]):
    """Representatives of span{fs} independent modulo total derivatives.

    Returns (basis, coords, exact_parts): basis is a sublist of the inputs,
    earlier inputs first, and for every input i

        fs[i] = sum_j coords[i][j] * basis[j] + d(exact_parts[i]).

    Inputs must be true polynomials.  Such a polynomial is a total derivative
    exactly when all its variational derivatives vanish and its constant term
    is zero, so independence modulo d is plain linear independence of the
    vectors (delta_name f_i for every indeterminate, constant term of f_i):
    one reduced echelon form over the columns -i gives the basis (its pivot
    columns) and the coordinates (its columns).
    """
    fs = [DiffPoly.coerce(f) for f in fs]
    for f in fs:
        if f.has_negative_exponent():
            raise Unsupported("basis_mod_total_derivatives needs polynomial inputs")
    indets = sorted({name for f in fs for name in f.indets()})
    # one row per coordinate of the vectors; input i is the column -i, so the
    # largest-column pivots pick earlier inputs first
    rows: Dict[object, Dict[int, Fraction]] = {}
    for i, f in enumerate(fs):
        for name in indets:
            for m, c in variational_derivative(f, name).terms.items():
                rows.setdefault((name, m), {})[-i] = c
        if f.constant_term():
            rows.setdefault((), {})[-i] = f.constant_term()
    # a row is one coordinate, so scaling it to integers keeps the span
    reduced = _rref(_numerators(row)[0] for row in rows.values())
    basis = [fs[-p] for p, _ in reduced]
    coords = [[Fraction(row.get(-i, 0), row[p]) for p, row in reduced]
              for i in range(len(fs))]
    exact_parts = []
    for f, c in zip(fs, coords):
        for cj, b in zip(c, basis):
            if cj:
                f = f - cj * b
        h, residual = _integrate_reduce(f)
        if not residual.is_zero():
            raise AssertionError("a combination with no variational derivative "
                                 "and no constant term must integrate")
        exact_parts.append(h)
    return basis, coords, exact_parts
