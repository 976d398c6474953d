"""Shared random generators, reference loops and oracles for the property suites.

Sizes follow the acceptance contract: jets up to order 4, degrees up to 3,
small term counts, exact rational coefficients.
"""

from fractions import Fraction
import importlib.util
from math import comb, lcm
import os
import random
from typing import Dict

from diffalg import DiffOp, DiffPoly, NonlocalOp, RatFun, frechet, jet, right_gcd
from diffalg.bidiff import SLOT
from diffalg.errors import Unsupported
from diffalg.jets import accumulate, exponents, monomial
from diffalg.ratfun import derivatives


def load_workloads():
    """``perfbench/workloads.py`` as a module, for its seeded operators."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def rand_poly(rng: random.Random, max_order: int = 4, max_degree: int = 3,
              terms: int = 3, names=("u",), nonzero: bool = False) -> DiffPoly:
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.randint(-3, 3))
        if coeff == 0:
            continue
        mono = DiffPoly.const(coeff)
        for _ in range(rng.randint(0, max_degree)):
            name = rng.choice(names)
            mono = mono * jet(name, rng.randint(0, max_order))
        out = out + mono
    if nonzero and out.is_zero():
        return jet(names[0], rng.randint(0, max_order))
    return out


def rand_ratfun(rng: random.Random, max_order: int = 2) -> RatFun:
    num = rand_poly(rng, max_order=max_order, max_degree=2, terms=2, nonzero=True)
    if rng.random() < 0.3:
        den = rand_poly(rng, max_order=max_order, max_degree=1, terms=1,
                        nonzero=True)
        return RatFun(num, den)
    return RatFun(num)


def rand_op(rng: random.Random, max_deg: int = 2, max_order: int = 2,
            rational: bool = False, nonzero: bool = True) -> DiffOp:
    coeffs = {}
    for k in range(rng.randint(0, max_deg) + 1):
        if rng.random() < 0.4:
            continue
        if rational and rng.random() < 0.25:
            coeffs[k] = rand_ratfun(rng, max_order=max_order)
        else:
            c = rand_poly(rng, max_order=max_order, max_degree=2, terms=2)
            if not c.is_zero():
                coeffs[k] = RatFun(c)
    op = DiffOp(coeffs)
    if nonzero and op.is_zero():
        return DiffOp({rng.randint(0, max_deg): RatFun(jet("u", 0))})
    return op


def rand_grid(rng: random.Random, max_k: int = 2,
              max_l: int = 2) -> Dict[tuple, RatFun]:
    """Random entries {(k, l): M_kl} of a bidifferential operator."""
    entries = {}
    for _ in range(rng.randint(1, 4)):
        k, l = rng.randint(0, max_k), rng.randint(0, max_l)
        c = rand_poly(rng, max_order=2, max_degree=2, terms=2)
        if not c.is_zero():
            entries[(k, l)] = RatFun(c)
    return entries


def rand_bidiff(rng: random.Random, max_k: int = 2, max_l: int = 2) -> DiffOp:
    return from_grid(rand_grid(rng, max_k, max_l))


# -- bidifferential operators as grids --------------------------------------------------


def from_grid(entries) -> DiffOp:
    """M_F = sum M_kl F^(k) D^l from the entries {(k, l): M_kl}."""
    coeffs: Dict[int, RatFun] = {}
    for (k, l), c in entries.items():
        accumulate(coeffs, l, RatFun.coerce(c) * jet(SLOT, k))
    return DiffOp(coeffs)


def grid(m: DiffOp) -> Dict[tuple, RatFun]:
    """The entries {(k, l): M_kl} of M_F, M_kl the partial of the l-th
    coefficient by F^(k)."""
    return {(k, l): p for l, c in m.coeffs.items()
            for k, p in frechet(c, SLOT).coeffs.items()}


def slot_first(m: DiffOp, f) -> DiffOp:
    """M_f: the formal slot F := f, so F^(k) := f^(k) in each F-linear
    coefficient."""
    return DiffOp({l: frechet(c, SLOT).apply(f) for l, c in m.coeffs.items()})


def rand_wnl(rng: random.Random, max_deg: int = 2, pairs: int = 1) -> NonlocalOp:
    local = rand_op(rng, max_deg=max_deg, max_order=2, nonzero=False)
    tail = []
    for _ in range(rng.randint(0, pairs)):
        p = rand_poly(rng, max_order=2, max_degree=2, terms=2, nonzero=True)
        q = rand_poly(rng, max_order=2, max_degree=2, terms=2, nonzero=True)
        tail.append((RatFun(p), RatFun(q)))
    return NonlocalOp(local, tuple(tail))


# -- references for DiffPoly arithmetic ------------------------------------------
#
# Each operation once more on Fraction coefficients keyed by the decoded view
# of each monomial, a term at a time: the arithmetic that DiffPoly's integer
# numerators over one denominator and its packed monomials replaced.


def ref_mono(exps):
    return tuple(sorted(((v, e) for v, e in exps.items() if e), reverse=True))


def over_lcm(coeffs):
    """(numerators, den): the nonzero {key: rational} coeffs as integers over
    den, the lcm of their denominators."""
    coeffs = {k: Fraction(c) for k, c in coeffs.items() if c}
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


def terms(p):
    """The {monomial: Fraction} view of p's numerators over its den."""
    return {m: Fraction(n, p.den) for m, n in p.nums.items()}


def from_terms(coeffs):
    """The DiffPoly with these {monomial: rational} terms, zero ones dropped:
    its integers over the lcm of the denominators are canonical as they are."""
    return DiffPoly._of(*over_lcm(coeffs))


def view(p):
    """p's terms keyed by the decoded view of each monomial."""
    return {exponents(m): c for m, c in terms(p).items()}


def packed(coeffs):
    """The DiffPoly with these terms, keyed by decoded views."""
    return from_terms({monomial(m): c for m, c in coeffs.items()})


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = view(a)
    for m, c in view(b).items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in view(a).items():
        for m2, c2 in view(b).items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = ref_mono(exps)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_derivative(a):
    out = {}
    for m, c in view(a).items():
        for v, e in m:
            exps = dict(m)
            exps[v] -= 1
            up = (v[0] + 1, v[1])
            exps[up] = exps.get(up, 0) + 1
            key = ref_mono(exps)
            out[key] = out.get(key, Fraction(0)) + c * e
    return ref_clean(out)


def ref_partial(a, v):
    out = {}
    for m, c in view(a).items():
        exps = dict(m)
        e = exps.get(v, 0)
        if e:
            exps[v] = e - 1
            key = ref_mono(exps)
            out[key] = out.get(key, Fraction(0)) + c * e
    return ref_clean(out)


def ref_univariate(a, v):
    """{exponent of v: the view of its coefficient}."""
    out = {}
    for m, c in view(a).items():
        exps = dict(m)
        e = exps.pop(v, 0)
        out.setdefault(e, {})[ref_mono(exps)] = c
    return out


# -- references for the canonical forms ------------------------------------------
#
# The Fraction and RatFun loops that the integer kernels of linalg._rref,
# linalg.constant_linear_basis and nonlocal_ops._gather replaced, the
# left-to-right power chain that nl_power's repeated squaring replaced, the
# per-pair Lie bracket that calculus.brackets' shared towers replaced, and the
# nested twisted Lie derivative and hereditary sides, canonical at every step,
# that the single canonical form of each identity replaced.  Tests compare the
# package against them by repr.


def planted_inputs(rng, n, draw):
    """n inputs from draw(), about a third of them combinations of earlier ones."""
    fs = [draw()]
    while len(fs) < n:
        if rng.random() < 0.35:
            combo = fs[0] * 0
            for f in rng.sample(fs, rng.randint(1, len(fs))):
                combo = combo + f * Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            fs.append(combo)
        else:
            fs.append(draw())
    return fs


def ref_sparse_rref(rows, key=None):
    """Reduced row echelon form of sparse {column: Fraction} rows: each row
    pivots on its largest column, and each reduced row is 1 at its pivot."""
    reduced = {}
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        for p in [k for k in row if k in reduced]:
            c = row[p]
            for k, v in reduced[p].items():
                accumulate(row, k, -c * v)
        if not row:
            continue
        p = max(row, key=key)
        inv = 1 / row[p]
        row = {k: v * inv for k, v in row.items()}
        for other in reduced.values():
            c = other.get(p)
            if c:
                for k, v in row.items():
                    accumulate(other, k, -c * v)
        reduced[p] = row
    return [reduced[p] for p in sorted(reduced, key=key, reverse=True)]


def ref_linear_basis(fs):
    """constant_linear_basis on Fraction rows, over one RatFun denominator."""
    from diffalg.ratfun import poly_lcm
    fs = list(fs)
    if not fs:
        return [], []
    rational = any(isinstance(f, RatFun) and not f.is_polynomial() for f in fs)
    if rational:
        rats = [RatFun.coerce(f) for f in fs]
        den = DiffPoly.const(1)
        for r in rats:
            den = poly_lcm(den, r.den)
        polys = [(r * den).as_diffpoly() for r in rats]
    else:
        polys = [f.as_diffpoly() if isinstance(f, RatFun) else DiffPoly.coerce(f)
                 for f in fs]
    views = [terms(p) for p in polys]
    rows = ref_sparse_rref(views, key=exponents)
    pivots = [max(row, key=exponents) for row in rows]
    coords = [[t.get(m, Fraction(0)) for m in pivots] for t in views]
    basis = [from_terms(row) for row in rows]
    if rational:
        basis = [RatFun(b, den) for b in basis]
    return basis, coords


def ref_gather(pairs):
    """sum p_i (x) q_i over a basis of the q side, one RatFun sum per coordinate."""
    basis, coords = ref_linear_basis([q for _, q in pairs])
    collected = [RatFun(0)] * len(basis)
    for (p, _), row in zip(pairs, coords):
        for m, c in enumerate(row):
            if c:
                collected[m] = collected[m] + p * c
    return [(pm, RatFun.coerce(qb)) for pm, qb in zip(collected, basis)
            if not pm.is_zero()]


def ref_reduce_tensor(pairs):
    """Two gathers, then each q scaled to a monic numerator."""
    live = ref_gather([(p, q) for p, q in pairs if not p.is_zero() and not q.is_zero()])
    out = []
    for qs, pb in ref_gather([(q, p) for p, q in live]):
        lc = qs.num.leading()[1]
        out.append((pb * lc, qs * (1 / lc)))
    return tuple(out)


def ref_power(l, k):
    """L^k as the chain L^(k-1) L, each stage required weakly non-local."""
    from diffalg import nl_mul
    from diffalg.errors import DepthOverflow
    out = l
    for _ in range(k - 1):
        out = nl_mul(out, l)
        if out.depth2:
            raise DepthOverflow(
                "a power left the weakly non-local class: some p_i q_j is "
                "not a total derivative")
    return out


def ref_lie_bracket(f, g, name="u"):
    """{f, g} for polynomials, one pair at a time: the tower of f up to the top
    order of g, then the tower of g up to the top order of f."""
    from diffalg.calculus import _partials
    from diffalg.jets import _add_tower, _from_numerators
    f, g = DiffPoly.coerce(f), DiffPoly.coerce(g)
    acc = {}
    for a, b, top, factor in ((f.nums, g.nums, g.top_order(name), 1),
                              (g.nums, f.nums, f.top_order(name), -1)):
        if top is not None:
            _add_tower(acc, _partials(b, name, top), a, factor)
    return _from_numerators(acc, f.den * g.den)


def ref_twisted_lie(l, w, g, name="u"):
    """X_g(L) - [W, L] as evo_on_nonlocal(g, l) - (nl_mul(W, l) - nl_mul(l, W)),
    where evo_on_nonlocal is X_g acting coefficientwise, made canonical."""
    from diffalg import nl_mul
    from diffalg.calculus import evo_apply
    from diffalg.errors import Unsupported
    from diffalg.operators import evo_apply_op
    local = evo_apply_op(g, l.local, name)
    pairs = []
    for p, q in l.depth1:
        pairs.append((evo_apply(g, p, name), q))
        pairs.append((p, evo_apply(g, q, name)))
    if l.depth2:
        raise Unsupported("evolutionary action on depth-2 terms is not needed "
                          "and not defined here")
    evo_on_nonlocal = NonlocalOp(local, tuple(pairs))
    w_nl = NonlocalOp.from_local(w)
    return evo_on_nonlocal - (nl_mul(w_nl, l) - nl_mul(l, w_nl))


def ref_lie_derivative(l, f, name="u"):
    """X_f(L) - nl_mul(W, L) + nl_mul(L, W), W = D_f from the partials of f."""
    f = RatFun.coerce(f)
    top = f.top_order(name)
    w = DiffOp({m: f.partial(name, m) for m in range(top + 1)}) if top is not None \
        else DiffOp.zero()
    return ref_twisted_lie(l, w, f, name)


def ref_hereditary_residual(l):
    """LHS - RHS of the hereditary identity, each side canonical on its own:
    LHS = ref_twisted_lie(L, (D_A)_F, A(F)), RHS = L ref_twisted_lie(L, (D_B)_F, B(F))."""
    from diffalg import nl_mul, to_fraction
    from diffalg.bidiff import frechet_of_op
    f = DiffPoly.jet("F", 0)
    a, b = to_fraction(l)
    lhs = ref_twisted_lie(l, frechet_of_op(a), a.apply(f))
    inner = ref_twisted_lie(l, frechet_of_op(b), b.apply(f))
    return lhs - nl_mul(l, inner)


def left_gcd(a: DiffOp, b: DiffOp) -> DiffOp:
    """Monic greatest common left divisor of nonzero operators, as the adjoint
    of the right gcd of the adjoints: the degree oracle for right_lcm."""
    return right_gcd(a.adjoint(), b.adjoint()).adjoint().monic()


# -- series oracle ------------------------------------------------------------------------


def _binom(k: int, n: int) -> int:
    if k >= 0:
        return comb(k, n)
    # binom(k, n) for negative k: (-1)^n * comb(n - k - 1, n)
    return (-1) ** n * comb(n - k - 1, n)


def _series_d_inverse(series: Dict[int, RatFun], depth: int) -> Dict[int, RatFun]:
    """d^-1 composed with a truncated Laurent operator, truncated at d^-depth."""
    return series_product({-1: RatFun(1)}, series, depth)


def _series_scale(f: RatFun, series: Dict[int, RatFun]) -> Dict[int, RatFun]:
    return {k: f * c for k, c in series.items() if not (f * c).is_zero()}


def series_expand(l: NonlocalOp, depth: int) -> Dict[int, RatFun]:
    """Truncated pseudodifferential expansion of L down to d^-depth.

    An oracle independent of the canonical forms: d^-1 a =
    sum (-1)^n a^(n) d^(-n-1), applied right to left through each non-local
    chain.
    """
    out: Dict[int, RatFun] = dict(l.local.coeffs)

    def add(series: Dict[int, RatFun]):
        for k, c in series.items():
            accumulate(out, k, c)

    for p, q in l.depth1:
        add(_series_scale(p, _series_d_inverse({0: q}, depth)))
    for a, b, c in l.depth2:
        inner = _series_d_inverse({0: c}, depth + 1)
        middle = _series_scale(b, inner)
        add(_series_scale(a, _series_d_inverse(middle, depth)))
    return {k: c for k, c in out.items() if k >= -depth and not c.is_zero()}


def series_inverse(b: DiffOp, depth: int) -> Dict[int, RatFun]:
    """Truncated pseudodifferential inverse of a differential operator.

    Oracle helper: peels the top of the residual 1 - B*S term by term, so
    B * series_inverse(B) == 1 holds down to the truncation depth.
    """
    if b.is_zero():
        raise ZeroDivisionError("inverting the zero operator")
    n = b.degree()
    lc = b.leading_coefficient()
    inverse: Dict[int, RatFun] = {}
    residual: Dict[int, RatFun] = {0: RatFun(1)}
    guard = 0
    while residual:
        top = max(residual)
        if top - n < -depth:
            break
        guard += 1
        if guard > 10 * (depth + n + 2):
            raise AssertionError("series inversion failed to make progress")
        coeff = residual[top] / lc
        accumulate(inverse, top - n, coeff)
        # residual -= B * coeff d^(top-n), truncated well below the requested depth
        product = series_product(dict(b.coeffs), {top - n: coeff}, depth + n + 1)
        for k, c in product.items():
            accumulate(residual, k, -c)
    return {k: c for k, c in inverse.items() if k >= -depth}


def series_product(s1: Dict[int, RatFun], s2: Dict[int, RatFun],
                   depth: int) -> Dict[int, RatFun]:
    """Product of truncated expansions, truncated at d^-depth; oracle helper.

    d^i b = sum_n binom(i, n) b^(n) d^(i-n) stops at n = i for i >= 0 and
    otherwise at the truncation i - n + j = -depth.
    """
    out: Dict[int, RatFun] = {}
    for j, b in s2.items():
        tops = {i: min(i, i + j + depth) if i >= 0 else i + j + depth
                for i in s1}
        tower = derivatives(b, max(tops.values(), default=0))
        for i, a in s1.items():
            for n in range(tops[i] + 1):
                accumulate(out, i - n + j, a * tower[n] * _binom(i, n))
    return out


# -- integration oracle ----------------------------------------------------------------
#
# The loop that calculus._integrate_reduce's bucketed integer pass replaced:
# every peel re-reads the whole rest as a canonical DiffPoly.


def ref_integrate_reduce(f: DiffPoly):
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
