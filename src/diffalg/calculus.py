"""Variational calculus on the jet ring.

Evolutionary vector fields, the Lie bracket on functions, the variational
derivative, constructive integration (the inverse of the total derivative on
its image), the homotopy potential, and Q-linear reduction modulo total
derivatives.  These are the primitives every decision procedure downstream
bottoms out in, so each one is exact and total-derivative identities are
enforced by construction, never by approximation.

No Leibniz expansion is written out here.  An evolutionary field is
X_f(g) = D_g(f), the Frechet derivative of g applied to f: for Laurent
polynomials (``ratfun._laurent``) one streamed derivative tower of f on
integer numerators (``jets._add_tower``), and for any other denominator one
``DiffOp.apply`` over RatFun.  The Lie brackets of a list of polynomials
(``brackets``, and ``lie_bracket`` as its two-member case) stream one tower
per member, and every bracket that member is in takes its half from that
one stream.  The total derivative commutes with every evolutionary field,
so ``brackets`` first splits each member that integrates exactly,
S_j = d(Q_j), and takes {S_i, S_j} = d(h_ij) + r_ij: h_ij from the partials
of the Q's, r_ij from those of the members left whole.  ``lie_bracket``
splits nothing, since a lone pair never repays the integration.

The reduction layer takes each exact step once.  Integration is one integer
pass, bucketed by highest jet and rescaled only for an e+1 that does not
divide (``_integrate_reduce``).  Reduction modulo d and the potential check
their certificate first; the echelon form and Helmholtz test run on failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Sequence, Tuple

from .errors import NotExact, NotVariational, Unsupported, VerificationFailed
from .jets import (EXPONENT_LIMIT, _FIELD, _JETS, _ONE_MONO, _W, DiffPoly,
                   _add_products, _add_tower, _derivative, _digit, _field,
                   _fields, _from_numerators, _partial, _small, _tower,
                   accumulate, exponents, monomial)
from .ratfun import RatFun, _laurent
from .linalg import _rref
from .operators import frechet, helmholtz_residual


def evo_apply(f, g, name: str = "u"):
    """Apply the evolutionary vector field of f to g: X_f(g) = D_g(f), the
    Frechet derivative of g applied to f, sum d^n(f) * dg/du^(n).

    Only jets of the named indeterminate are differentiated; formal symbols
    such as F and G pass through untouched, which is what makes them usable
    as "for all F" placeholders.

    For Laurent polynomials f = N_f/den_f and g = N_g/den_g the sum is
    (sum_n dN_g/du^(n) * d^n N_f) / (den_f * den_g): d^n f keeps f's own
    denominator, so it is one ``jets._add_tower`` on integer numerators.
    The result is a RatFun for a non-polynomial RatFun g, or for a RatFun f
    and a g with jets of name.
    """
    if not isinstance(g, RatFun):
        g = DiffPoly.coerce(g)
    rational = isinstance(g, RatFun) and not g.is_polynomial()
    top = g.top_order(name)
    if top is None:
        return RatFun(0) if rational else DiffPoly.zero()
    if not isinstance(f, RatFun):
        f = DiffPoly.coerce(f)
    nf, ng = _laurent(f), _laurent(g)
    if nf is None or ng is None:
        return frechet(g, name).apply(RatFun.coerce(f))
    acc: Dict[int, int] = {}
    _add_tower(acc, _partials(ng.nums, name, top), nf.nums)
    out = _from_numerators(acc, nf.den * ng.den)
    return RatFun._reduced(out) if rational or isinstance(f, RatFun) else out


def _partials(ng: dict, name: str, top: int) -> dict:
    """{n: dN_g/du^(n)} for n <= top, zero partials left out."""
    return {n: p for n in range(top + 1) if (p := _partial(ng, name, n))}


def lie_bracket(f: DiffPoly, g: DiffPoly, name: str = "u") -> DiffPoly:
    """{f, g} = X_f(g) - X_g(f); for polynomials, the stream of ``brackets``
    with neither member split: a lone pair never repays the integration."""
    if isinstance(f, RatFun) or isinstance(g, RatFun):
        return evo_apply(f, g, name) - evo_apply(g, f, name)
    f, g = DiffPoly.coerce(f), DiffPoly.coerce(g)
    return _stream(((f, f, False), (g, g, False)), name)[0, 1]


def brackets(fs: Sequence[DiffPoly], name: str = "u") -> Dict[Tuple[int, int], DiffPoly]:
    """{(i, j): {f_i, f_j}} for every i < j, in ascending (i, j) order.

    A member that integrates exactly, f_j = d(Q_j), is split (``_split``);
    the others stay whole.  d commutes with every evolutionary field, so
    {f_i, f_j} = d(h_ij) + r_ij: h_ij from the partials of the Q's, r_ij
    from those of the whole members, the same polynomial as the direct sum.
    A RatFun member sends every pair through ``lie_bracket``.
    """
    if any(isinstance(f, RatFun) for f in fs):
        return {(i, j): lie_bracket(fs[i], fs[j], name)
                for i in range(len(fs)) for j in range(i + 1, len(fs))}
    return _stream([_split(DiffPoly.coerce(f)) for f in fs], name)


def _split(f: DiffPoly) -> Tuple[DiffPoly, DiffPoly, bool]:
    """(f, Q, True) when f = d(Q), else (f, f, False).

    A member with a negative exponent, one that is not a total derivative,
    and one whose integration the integrator refuses stay whole.
    """
    if not f.has_negative_exponent():
        try:
            q, residual = _integrate_reduce(f)
        except (Unsupported, OverflowError):
            residual = f
        if not residual:
            return f, q, True
    return f, f, False


def _stream(members, name: str) -> Dict[Tuple[int, int], DiffPoly]:
    """The brackets of members (f_j, g_j, exact_j), g_j = Q_j or f_j.

    Each tower d^k N_i streams once, up to the top partial order of the
    other g_j, and its levels feed every pair at once; a pair's halves sum
    over one denominator M, into h_ij or r_ij, until its later member ends.
    """
    parts = [({} if (top := g.top_order(name)) is None else _partials(g.nums, name, top),
              _small(g.nums)) for _, g, _ in members]
    # (i, j) -> (M, r_ij, h_ij), until the later member's stream ends
    pending: Dict[Tuple[int, int], Tuple[int, Dict[int, int], Dict[int, int]]] = {}
    out: Dict[Tuple[int, int], DiffPoly] = {}
    for i, (f_i, g_i, _) in enumerate(members):
        others = []
        for j, (f_j, g_j, exact_j) in enumerate(members):
            if j != i and parts[j][0]:
                key, sign = ((i, j), 1) if i < j else ((j, i), -1)
                # X_{f_i}(g_j) is a sum over den_i * D_j, scaled here to M
                den, whole, exact = pending.setdefault(
                    key, (lcm(f_i.den * g_j.den, f_j.den * g_i.den), {}, {}))
                others.append((parts[j], exact if exact_j else whole,
                               sign * den // (f_i.den * g_j.den)))
        need = max((max(p) for (p, _), _, _ in others), default=-1)
        for k, level in _tower(f_i.nums, need):
            small = _small(level)
            for (p, small_p), sums, factor in others:
                if k in p:
                    _add_products(sums, p[k], level, factor, small and small_p)
        for j in range(i):
            den, whole, exact = pending.pop((j, i), (1, {}, {}))
            if exact := {m: c for m, c in exact.items() if c}:
                for m, c in _derivative(exact).items():
                    whole[m] = whole.get(m, 0) + c
            out[j, i] = _from_numerators(whole, den)
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
            accumulate(out, m, -c)
    return _from_numerators(out, f.den)


# -- constructive integration ---------------------------------------------------


def _leader(m: int) -> Tuple[int, str]:
    """The highest jet of a monomial; (-1, "") for the monomial 1."""
    return max((_JETS[i] for i, _ in _fields(m)), default=(-1, ""))


def _integrate_reduce(f: DiffPoly) -> Tuple[DiffPoly, DiffPoly]:
    """Peel total-derivative layers off f; returns (h, residual) with f = d(h) + residual.

    A peel takes the largest jet var = u^(n) and, when every term with var is
    linear in it, integrates that layer c1 * var in u^(n-1).  The residual,
    nonzero only when f is not a total derivative, is the rest at the first
    stop: order-0 jets alone, var at another power, a second jet of var's
    order in c1, or a recurring rest.  The rest is integer numerators over one
    denominator, which grows only when an e+1 does not divide a coefficient,
    bucketed by highest jet: a peel reads the top bucket and files only what
    d(partial h) adds.  With one indeterminate the top order falls at every
    peel, so only several keep the history that catches their cycling.
    """
    single = len(f.indets()) < 2
    den, h, rest, seen, steps = f.den, {}, {}, set(), 0
    for m, n in f.nums.items():
        rest.setdefault(_leader(m), {})[m] = n
    while rest:
        if not single:
            now = _from_numerators({m: n for t in rest.values() for m, n in t.items()}, den)
            if now in seen:
                break
            seen.add(now)
        steps += 1
        if steps > 10_000:
            raise AssertionError("integration reduction failed to terminate")
        var = max(rest)
        top, i = rest[var], _FIELD.get(var)
        if var[0] <= 0 or any(_digit(m, i) != 1 for m in top) or not single and any(
                _JETS[j][0] == var[0] for m in top for j, _ in _fields(m) if j != i):
            break
        b = _field(below := (var[0] - 1, var[1]))
        lift, peel, scale = (1 << _W * b) - (1 << _W * i), [], 1
        for m, n in top.items():
            e = _digit(m, b) + 1
            if not e:
                raise Unsupported(
                    "antiderivative of a -1 Laurent exponent is not polynomial")
            if e >= EXPONENT_LIMIT:
                monomial(((below, e),))  # raises its OverflowError
            if n * scale % e:
                scale *= abs(e) // gcd(n * scale, e)
            peel.append((m + lift, n, e))
        del rest[var]
        if scale > 1:
            den *= scale
            for t in (h, *rest.values()):
                t.update({m: n * scale for m, n in t.items()})
        partial_h = {m: n * scale // e for m, n, e in peel}
        for m, n in partial_h.items():
            accumulate(h, m, n)
        for m, n in _derivative(partial_h).items():
            if n and m not in top:  # the top bucket is c1 * var: it cancels
                accumulate(rest.setdefault(_leader(m), {}), m, -n)
        rest = {key: t for key, t in rest.items() if t}
    residual = {m: n for t in rest.values() for m, n in t.items()}
    return _from_numerators(h, den), _from_numerators(residual, den)


def integrate(f: DiffPoly) -> DiffPoly:
    """Return h with d(h) = f and zero constant term; raise NotExact otherwise."""
    h, residual = _integrate_reduce(DiffPoly.coerce(f))
    if residual:
        from .grammar import format_poly
        raise NotExact(
            f"not a total derivative; residual {format_poly(residual)}",
            residual=residual)
    return h


def is_total_derivative(f: DiffPoly) -> bool:
    return not _integrate_reduce(DiffPoly.coerce(f))[1]


def potential(q: DiffPoly, name: str = "u") -> DiffPoly:
    """Homotopy inverse of the variational derivative.

    For a polynomial variational derivative q the density
    rho = sum over monomials m of q of u*m / (deg_u m + 1) satisfies
    delta(rho)/delta(u) = q, where deg_u counts the jets of u alone: the
    homotopy scales u, and other indeterminates such as F stay fixed.  That
    identity certifies rho; only when it fails does the Helmholtz test run, to
    refuse a q that is not variational.
    """
    q = DiffPoly.coerce(q)
    if q.has_negative_exponent():
        raise Unsupported("potential requires a non-Laurent polynomial")
    failure = VerificationFailed("homotopy potential failed its defining identity")
    try:  # every term of q over its degree in u + 1, over the lcm of those weights
        weights = {m: sum(e for (_, n), e in exponents(m) if n == name) + 1
                   for m in q.nums}
        scale = lcm(*weights.values())
        rho = DiffPoly.jet(name, 0) * _from_numerators(
            {m: n * (scale // weights[m]) for m, n in q.nums.items()}, q.den * scale)
        if variational_derivative(rho, name) == q:
            return rho
    except OverflowError as err:
        failure = err
    if helmholtz_residual(q, name):
        raise NotVariational("Frechet derivative is not self-adjoint")
    raise failure


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
    columns) and the coordinates (its columns).  An exact input has zero
    coordinates and its integral for exact part, so when all are exact no
    echelon form is built.
    """
    fs = [DiffPoly.coerce(f) for f in fs]
    for f in fs:
        if f.has_negative_exponent():
            raise Unsupported("basis_mod_total_derivatives needs polynomial inputs")
    integrals = [_integrate_reduce(f) for f in fs]
    if not any(residual for _, residual in integrals):
        return [], [[] for _ in fs], [h for h, _ in integrals]
    indets = sorted({name for f in fs for name in f.indets()})
    # one row per coordinate of the vectors; input i is the column -i, so the
    # largest-column pivots pick earlier inputs first.  Every entry is put
    # over one positive scale, which leaves the reduced echelon form as it is.
    deltas = [[variational_derivative(f, name) for name in indets] for f in fs]
    scale = lcm(*(f.den for f in fs), *(v.den for vs in deltas for v in vs))
    rows: Dict[object, Dict[int, int]] = {}
    for i, (f, vs) in enumerate(zip(fs, deltas)):
        for name, v in zip(indets, vs):
            for m, n in v.nums.items():
                rows.setdefault((name, m), {})[-i] = n * (scale // v.den)
        if _ONE_MONO in f.nums:
            rows.setdefault((), {})[-i] = f.nums[_ONE_MONO] * (scale // f.den)
    reduced = _rref(rows.values())
    basis = [fs[-p] for p, _ in reduced]
    coords = [[Fraction(row.get(-i, 0), row[p]) for p, row in reduced]
              for i in range(len(fs))]
    exact_parts = []
    for f, c, (h, residual) in zip(fs, coords, integrals):
        if residual:
            h, residual = _integrate_reduce(
                f - sum((cj * b for cj, b in zip(c, basis) if cj), DiffPoly.zero()))
            if residual:
                raise AssertionError("a combination with no variational "
                                     "derivative and no constant term must integrate")
        exact_parts.append(h)
    return basis, coords, exact_parts
