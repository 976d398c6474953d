"""Exact closed arithmetic for weakly non-local operators and their depth-2 extension.

A NonlocalOp is E + sum p_i d^-1 q_i + sum a_j d^-1 b_j d^-1 c_j held in a
canonical form: the p directions and q directions are reduced bases of the
tensor they present, and depth-2 middle slots are representatives independent
modulo total derivatives (exact middle slots are rewritten away through
d^-1 g' d^-1 = g d^-1 - d^-1 g).  Canonical forms make the zero test exact,
which is what the decision procedures certify against.

series_expand exists only as an independent test oracle; no decision path
depends on a truncation depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .calculus import basis_mod_total_derivatives, evo_apply, integrate
from .errors import (DepthOverflow, NotExact, NotInImage, NotSupported,
                     Unsupported)
from .jets import (DiffPoly, Grading, RatFun, accumulate, constant_linear_basis,
                   derivatives)
from .operators import DiffOp, evo_apply_op, frechet, right_divide, right_lcm

Pair = Tuple[RatFun, RatFun]
Triple = Tuple[RatFun, RatFun, RatFun]


def _div_right_by_d(op: DiffOp) -> Tuple[DiffOp, RatFun]:
    """op = Q*d + r with r a function; so op d^-1 = Q + r d^-1."""
    q, r = right_divide(op, DiffOp.d())
    return q, r.coefficient(0)


def _div_left_by_d(op: DiffOp) -> Tuple[DiffOp, RatFun]:
    """op = d*Q + r with r a function; so d^-1 op = Q + d^-1 r."""
    from .operators import left_divide
    q, r = left_divide(op, DiffOp.d())
    return q, r.coefficient(0)


class NonlocalOp:
    """Canonical E + sum p d^-1 q + sum a d^-1 b d^-1 c with depth <= 2."""

    __slots__ = ("local", "depth1", "depth2")

    def __init__(self, local: DiffOp = None, depth1: Sequence[Pair] = (),
                 depth2: Sequence[Triple] = (), _canonical: bool = False):
        local = DiffOp.coerce(local) if local is not None else DiffOp.zero()
        depth1 = tuple((RatFun.coerce(p), RatFun.coerce(q)) for p, q in depth1)
        depth2 = tuple((RatFun.coerce(a), RatFun.coerce(b), RatFun.coerce(c))
                       for a, b, c in depth2)
        if _canonical:
            self.local, self.depth1, self.depth2 = local, depth1, depth2
        else:
            canonical = _canonicalize(local, depth1, depth2)
            self.local, self.depth1, self.depth2 = canonical

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "NonlocalOp":
        return NonlocalOp(DiffOp.zero(), (), (), _canonical=True)

    @staticmethod
    def identity() -> "NonlocalOp":
        return NonlocalOp(DiffOp.identity(), (), (), _canonical=True)

    @staticmethod
    def from_local(op) -> "NonlocalOp":
        return NonlocalOp(DiffOp.coerce(op), (), (), _canonical=True)

    @staticmethod
    def coerce(value) -> "NonlocalOp":
        if isinstance(value, NonlocalOp):
            return value
        return NonlocalOp.from_local(value)

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.local.is_zero() and not self.depth1 and not self.depth2

    def is_local(self) -> bool:
        return not self.depth1 and not self.depth2

    def degree(self) -> Optional[int]:
        """Degree of the local part, -1 if purely non-local, None for zero."""
        if not self.local.is_zero():
            return self.local.degree()
        if self.depth1 or self.depth2:
            return -1
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, NonlocalOp):
            other = NonlocalOp.coerce(other)
        return (self - other).is_zero()

    def __repr__(self) -> str:
        from .grammar import format_ratfun
        parts = []
        if not self.local.is_zero():
            parts.append(repr(self.local)[len("DiffOp("):-1])
        for p, q in self.depth1:
            parts.append(f"({format_ratfun(p)})*d^-1*({format_ratfun(q)})")
        for a, b, c in self.depth2:
            parts.append(f"({format_ratfun(a)})*d^-1*({format_ratfun(b)})"
                         f"*d^-1*({format_ratfun(c)})")
        return "NonlocalOp(" + (" + ".join(parts) if parts else "0") + ")"

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other) -> "NonlocalOp":
        other = NonlocalOp.coerce(other)
        return NonlocalOp(self.local + other.local,
                          self.depth1 + other.depth1,
                          self.depth2 + other.depth2)

    __radd__ = __add__

    def __neg__(self) -> "NonlocalOp":
        return NonlocalOp(-self.local,
                          tuple((-p, q) for p, q in self.depth1),
                          tuple((-a, b, c) for a, b, c in self.depth2),
                          _canonical=True)

    def __sub__(self, other) -> "NonlocalOp":
        return self + (-NonlocalOp.coerce(other))

    def __rsub__(self, other) -> "NonlocalOp":
        return NonlocalOp.coerce(other) + (-self)

    def __mul__(self, other) -> "NonlocalOp":
        return nl_mul(self, NonlocalOp.coerce(other))

    def __rmul__(self, other) -> "NonlocalOp":
        return nl_mul(NonlocalOp.coerce(other), self)

    def apply(self, f):
        return nl_apply(self, f)

    def __call__(self, f):
        return nl_apply(self, f)


# -- canonicalization ------------------------------------------------------------


def _reduce_tensor(pairs: Sequence[Pair]) -> Tuple[Pair, ...]:
    """Canonical presentation of sum p_i (x) q_i with independent sides."""
    pairs = [(p, q) for p, q in pairs if not p.is_zero() and not q.is_zero()]
    if not pairs:
        return ()
    q_basis, q_coords = constant_linear_basis([q for _, q in pairs])
    q_basis = [RatFun.coerce(qb) for qb in q_basis]
    collected: List[RatFun] = [RatFun(0)] * len(q_basis)
    for (p, _), coords in zip(pairs, q_coords):
        for m, c in enumerate(coords):
            if c:
                collected[m] = collected[m] + p * c
    live = [(pm, qb) for pm, qb in zip(collected, q_basis) if not pm.is_zero()]
    if not live:
        return ()
    p_basis, p_coords = constant_linear_basis([pm for pm, _ in live])
    p_basis = [RatFun.coerce(pb) for pb in p_basis]
    q_sides: List[RatFun] = [RatFun(0)] * len(p_basis)
    for (_, qb), coords in zip(live, p_coords):
        for s, c in enumerate(coords):
            if c:
                q_sides[s] = q_sides[s] + qb * c
    out = []
    for pb, qs in zip(p_basis, q_sides):
        if qs.is_zero():
            continue
        # scalars live on the p side so every q is monic
        lc = qs.num.leading()[1]
        out.append((pb * lc, qs * (1 / lc)))
    return tuple(out)


def _middle_slot_poly(b: RatFun) -> DiffPoly:
    if not b.is_polynomial():
        raise Unsupported(
            "depth-2 middle slot is not polynomial; reduction mod total "
            "derivatives is only defined on the polynomial subring")
    return b.as_diffpoly()


def _canonicalize(local: DiffOp, depth1: Sequence[Pair], depth2: Sequence[Triple]):
    pairs: List[Pair] = [(p, q) for p, q in depth1]
    triples = [(a, b, c) for a, b, c in depth2
               if not (a.is_zero() or b.is_zero() or c.is_zero())]
    if triples:
        middles = [_middle_slot_poly(b) for _, b, _ in triples]
        reps, coords, exact_parts = basis_mod_total_derivatives(middles)
        grouped: Dict[int, List[Pair]] = {}
        for (a, _, c), coord, h in zip(triples, coords, exact_parts):
            for j, gamma in enumerate(coord):
                if gamma:
                    grouped.setdefault(j, []).append((a * gamma, c))
            if not h.is_zero():
                hr = RatFun(h)
                pairs.append((a * hr, c))
                pairs.append((-a, hr * c))
        new_triples: List[Triple] = []
        for j in sorted(grouped):
            reduced = _reduce_tensor(grouped[j])
            rep = RatFun(reps[j])
            for a, c in reduced:
                new_triples.append((a, rep, c))
        triples = new_triples
    return local, _reduce_tensor(pairs), tuple(triples)


# -- multiplication -----------------------------------------------------------------


def _op_times_pair(e: DiffOp, p: RatFun, q: RatFun):
    quotient, r = _div_right_by_d(e * p)
    return quotient * q, ((r, q),)


def _pair_times_op(p: RatFun, q: RatFun, e: DiffOp):
    quotient, r = _div_left_by_d(q * e)
    return p * quotient, ((p, r),)


def _op_times_triple(e: DiffOp, a: RatFun, b: RatFun, c: RatFun):
    q1, r1 = _div_right_by_d(e * a)
    q2, r2 = _div_right_by_d(q1 * b)
    return q2 * c, ((r2, c),), ((r1, b, c),)


def _triple_times_op(a: RatFun, b: RatFun, c: RatFun, e: DiffOp):
    q1, r1 = _div_left_by_d(c * e)
    q2, r2 = _div_left_by_d(b * q1)
    return a * q2, ((a, r2),), ((a, b, r1),)


def nl_mul(l1: NonlocalOp, l2: NonlocalOp) -> NonlocalOp:
    """Exact product, canonicalized; raises DepthOverflow past depth 2."""
    if l1.depth2 and (l2.depth1 or l2.depth2):
        raise DepthOverflow("left factor already has depth 2")
    if l2.depth2 and (l1.depth1 or l1.depth2):
        raise DepthOverflow("right factor already has depth 2")
    local = l1.local * l2.local
    pairs: List[Pair] = []
    triples: List[Triple] = []
    if not l1.local.is_zero():
        for p, q in l2.depth1:
            loc, pr = _op_times_pair(l1.local, p, q)
            local = local + loc
            pairs.extend(pr)
        for a, b, c in l2.depth2:
            loc, pr, tr = _op_times_triple(l1.local, a, b, c)
            local = local + loc
            pairs.extend(pr)
            triples.extend(tr)
    if not l2.local.is_zero():
        for p, q in l1.depth1:
            loc, pr = _pair_times_op(p, q, l2.local)
            local = local + loc
            pairs.extend(pr)
        for a, b, c in l1.depth2:
            loc, pr, tr = _triple_times_op(a, b, c, l2.local)
            local = local + loc
            pairs.extend(pr)
            triples.extend(tr)
    for p1, q1 in l1.depth1:
        for p2, q2 in l2.depth1:
            triples.append((p1, q1 * p2, q2))
    return NonlocalOp(local, tuple(pairs), tuple(triples))


def nl_power(l: NonlocalOp, k: int) -> NonlocalOp:
    """Repeated product with a mandatory weakly non-local result at each stage."""
    if k < 1:
        raise ValueError("power must be >= 1")
    out = l
    for _ in range(k - 1):
        out = nl_mul(out, l)
        if out.depth2:
            raise DepthOverflow(
                "a power left the weakly non-local class: some p_i q_j is "
                "not a total derivative")
    return out


# -- action on functions ------------------------------------------------------------


def nl_apply(l: NonlocalOp, f):
    """L(f) = E(f) + sum p_i * integrate(q_i * f); NotInImage when some q_i*f is not exact."""
    if l.depth2:
        raise Unsupported("application is only defined for weakly non-local operators")
    rf = RatFun.coerce(f)
    out = RatFun.coerce(l.local.apply(rf))
    for i, (p, q) in enumerate(l.depth1):
        product = q * rf
        if not product.is_polynomial():
            raise NotSupported("q_i * f has a nonconstant denominator; "
                               "exact integration is polynomial-only")
        try:
            antiderivative = integrate(product.as_diffpoly())
        except NotExact as exc:
            from .grammar import format_poly
            raise NotInImage(
                f"q_{i} * f = {format_poly(product.as_diffpoly())} is not "
                f"a total derivative", index=i,
                product=product.as_diffpoly()) from exc
        out = out + p * antiderivative
    if not isinstance(f, RatFun) and out.is_polynomial():
        return out.as_diffpoly()
    return out


# -- Lie derivatives ------------------------------------------------------------------


def evo_on_nonlocal(g, l: NonlocalOp, name: str = "u") -> NonlocalOp:
    """X_g acts coefficientwise: on E, on every p and on every q."""
    local = evo_apply_op(g, l.local, name)
    pairs: List[Pair] = []
    for p, q in l.depth1:
        pairs.append((evo_apply(g, p, name), q))
        pairs.append((p, evo_apply(g, q, name)))
    if l.depth2:
        raise Unsupported("evolutionary action on depth-2 terms is not needed "
                          "and not defined here")
    return NonlocalOp(local, tuple(pairs))


def twisted_lie(l: NonlocalOp, w: DiffOp, g) -> NonlocalOp:
    """X_g(L) - [W, L] for a local operator W; the hereditary identity's bricks."""
    w_nl = NonlocalOp.from_local(w)
    return evo_on_nonlocal(g, l) - (nl_mul(w_nl, l) - nl_mul(l, w_nl))


def lie_derivative(l: NonlocalOp, f) -> NonlocalOp:
    """X_f(L) - [D_f, L]; vanishes exactly when L is recursion for f."""
    f = DiffPoly.coerce(f) if not isinstance(f, RatFun) else f
    return twisted_lie(l, frechet(f), f)


def is_recursion_for(l: NonlocalOp, f) -> bool:
    return lie_derivative(l, f).is_zero()


# -- fraction extraction ---------------------------------------------------------------


def to_fraction(l: NonlocalOp) -> Tuple[DiffOp, DiffOp]:
    """(A, B) with L = A B^-1, B the right lcm of the operators (1/q_i) d.

    The cofactors M_i with B = (1/q_i) d M_i give A = E B + sum p_i M_i;
    the result is re-verified exactly through L * B == A.
    """
    if l.depth2:
        raise Unsupported("fractions are defined for weakly non-local operators")
    if not l.depth1:
        return l.local, DiffOp.identity()
    b: Optional[DiffOp] = None
    cofactors: List[DiffOp] = []
    for _, q in l.depth1:
        factor = DiffOp({1: q.inverse()})
        if b is None:
            b = factor
            cofactors.append(DiffOp.identity())
        else:
            lcm, c_new, d_new = right_lcm(factor, b)
            b = lcm
            cofactors = [m * d_new for m in cofactors]
            cofactors.append(c_new)
    if b.degree() != len(l.depth1):
        raise AssertionError("independent q directions must give deg B = n")
    a = l.local * b
    for (p, _), m in zip(l.depth1, cofactors):
        a = a + DiffOp.of_function(p) * m
    product = nl_mul(l, NonlocalOp.from_local(b))
    if not (product.is_local() and product.local == a):
        raise AssertionError("fraction extraction failed its exactness check")
    return a, b


def from_fraction_pair(a: DiffOp, b: DiffOp) -> NonlocalOp:
    """Convert A B^-1 to weakly non-local form when B = b1 * d.

    Such a B has kernel spanned by the constants, so
    A B^-1 = A d^-1 (1/b1) splits exactly by one Euclidean division.
    Anything more general needs kernel solving, which is out of scope.
    """
    if b.is_zero():
        raise ValueError("zero denominator")
    if b.degree() == 0:
        return NonlocalOp.from_local(a * b.coefficient(0).inverse())
    if b.degree() == 1 and b.coefficient(0).is_zero():
        b1 = b.coefficient(1)
        quotient, r = _div_right_by_d(a)
        inv = b1.inverse()
        return NonlocalOp(quotient * inv, ((r, inv),))
    raise Unsupported("denominator kernel is not explicit; cannot convert "
                      "this fraction to weakly non-local form")


# -- series oracle ------------------------------------------------------------------------


def _binom(k: int, n: int) -> int:
    from math import comb
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

    Test oracle only: d^-1 a = sum (-1)^n a^(n) d^(-n-1), applied right to left
    through each non-local chain.
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


# -- parity --------------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityClass:
    """Membership in the even-operator class with odd p's and even q's.

    ``member`` is the standard class (E even, p_i odd, q_i even);
    ``member_switched`` is the variant with the p and q parities exchanged
    (E still even).  ``detail`` names the first failing component.
    """

    member: bool
    member_switched: bool
    detail: str = ""


def _op_parity(e: DiffOp, grading: Grading) -> Optional[int]:
    seen = set()
    for k, c in e.coeffs.items():
        p = grading.of_ratfun(c)
        if p is None:
            return None
        seen.add((p + k) % 2)
        if len(seen) > 1:
            return None
    return seen.pop() if seen else 0

def parity_class(l: NonlocalOp, grading: Grading) -> ParityClass:
    if l.depth2:
        return ParityClass(False, False, "depth-2 terms present")
    e_parity = _op_parity(l.local, grading)
    if e_parity is None or e_parity != 0:
        return ParityClass(False, False, "local part is not even")
    member = True
    switched = True
    detail = ""
    for p, q in l.depth1:
        pp, pq = grading.of_ratfun(p), grading.of_ratfun(q)
        if pp != 1 or pq != 0:
            if member:
                from .grammar import format_ratfun
                detail = (f"pair ({format_ratfun(p)}, {format_ratfun(q)}) is "
                          f"not odd (x) even")
            member = False
        if pp != 0 or pq != 1:
            switched = False
    return ParityClass(member, switched, detail)


# -- JSON operator schema -------------------------------------------------------------------


def _ratfun_to_expr(r: RatFun) -> str:
    from .grammar import format_poly
    if r.den.is_one():
        return format_poly(r.num)
    if len(r.den.terms) == 1:
        ((mono, coeff),) = r.den.terms.items()
        inverse = DiffPoly({tuple((v, -e) for v, e in mono): 1 / coeff})
        return format_poly(r.num * inverse)
    raise NotSupported("coefficient denominators must be monomials to serialize")


def operator_to_json(l: NonlocalOp, grading: Optional[Grading] = None) -> dict:
    if l.depth2:
        raise NotSupported("depth-2 terms are internal only and never serialized")
    data = {
        "local": [[_ratfun_to_expr(c), k] for k, c in sorted(l.local.coeffs.items())],
        "nonlocal": [[_ratfun_to_expr(p), _ratfun_to_expr(q)]
                     for p, q in l.depth1],
    }
    if grading is not None:
        data["grading"] = {name: ("even" if p == 0 else "odd")
                           for name, p in grading.parities.items()}
    return data


def operator_from_json(data: dict) -> Tuple[NonlocalOp, Grading]:
    from .grammar import parse_function
    if not isinstance(data, dict):
        raise ValueError("the operator schema must be a JSON object, got "
                         + type(data).__name__)
    local_terms: Dict[int, RatFun] = {}
    for expr, power in data.get("local", []):
        power = int(power)
        if power < 0:
            raise ValueError("local powers must be >= 0")
        coeff = RatFun(parse_function(expr))
        local_terms[power] = local_terms.get(power, RatFun(0)) + coeff
    pairs = [(RatFun(parse_function(p)), RatFun(parse_function(q)))
             for p, q in data.get("nonlocal", [])]
    grading = Grading(data.get("grading", {"u": "even"}))
    return NonlocalOp(DiffOp(local_terms), tuple(pairs)), grading
