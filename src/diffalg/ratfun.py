"""The field of fractions 𝒦 of the algebra 𝒱 of differential functions.

RatFun is a gcd-reduced quotient of two DiffPoly with a monic denominator.
In the operand tower (``tower``) it is the floor above DiffPoly: it lifts a
DiffPoly, and an operand from above returns NotImplemented, so that the
higher class answers.  Under it sits the multivariate gcd over Q:
``poly_gcd`` runs one remainder sequence, the subresultant PRS, on integer
images first and on the primitive parts only when the images share a
factor, and ``_poly_divexact`` is the exact division that the PRS and every
cancellation go through.

A RatFun over one monomial, 1 included, is a Laurent polynomial, and
``_laurent`` is the one rule that admits it to integer arithmetic.  The sum,
product, total derivative and partials each have two arms: on Laurent
polynomials DiffPoly arithmetic, and otherwise a reduction by gcds.  Both
arms, the constructor and every integer arm of the Leibniz rule (in
``operators.DiffOp``) store their result through one normaliser,
``RatFun._normalize``, which takes a denominator of one term with no gcd.
Only a denominator of two or more terms reaches ``poly_gcd``;
``derivatives`` is the RatFun tower of the Leibniz arms for such a
denominator.

The core, ``jets``, is imported first (the package does so), so the names
taken from it below are all built when this module runs.  It alone knows the
monomial layout: the gcd reads monomials only through its functions.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, Iterable, Optional

from .jets import (_ONE, _ONE_MONO, DiffPoly, JetKey, Monomial, Numerators, _check,
                   _clearing_monomial, _divides, _exponent, _from_numerators, _guard,
                   _jet_pairs, _jets_in, _per_jet, _scale, _small, exponents, monomial)
from .tower import Tower, power


def diff_order(f, name: str = "u") -> Optional[int]:
    """Greatest n with a nonzero partial in u^(n); None for quasiconstants.

    With no explicit x variable the quasiconstants are exactly the rationals,
    so None doubles as the constant sentinel.  A RatFun is gcd-reduced, so no
    jet of its numerator or denominator cancels and its order is its top order.
    """
    return RatFun.coerce(f).top_order(name)


# -- multivariate gcd over Q ------------------------------------------------


class _Lead:
    """A monomial on a heap whose first entry is the canonically greatest."""

    __slots__ = ("key", "m")

    def __init__(self, m: Monomial):
        self.key, self.m = exponents(m), m

    def __lt__(self, other: "_Lead") -> bool:
        return self.key > other.key


def _poly_divexact(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """Exact division f/g; raises ArithmeticError if g does not divide f.

    Operands are Laurent-free (RatFun clears Laurent exponents first), so
    each step removes the remainder's leading term in a well-order and the
    loop ends, either with a zero remainder or at a leading term that g's
    leading monomial does not divide.

    The division runs on integers: f's numerators by P, the primitive part
    of g's.  By Gauss's lemma a quotient by a primitive polynomial that
    divides is an integer polynomial, so a leading quotient coefficient that
    is not an integer also means that g does not divide f.  The remainder
    is one dict, changed in place at g's terms only; the denominators and
    g's content c come back once, at the end: f/g = (N_f/P) g.den / (f.den c).

    The leading term comes off a heap that holds every remainder monomial,
    each keyed once by ``exponents``.  A monomial that cancels keeps its
    entry, which is skipped when it pops; one that enters the remainder
    again is pushed again, so a monomial may have two entries, and the
    second pops after the first has taken it out.  The order is a monomial
    order, so no monomial enters after it has led.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if g.is_constant():
        return _scale(f, g.den, g.nums[_ONE_MONO])
    gm = max(g.nums, key=exponents)
    content = gcd(*g.nums.values())
    if g.nums[gm] < 0:
        content = -content
    prim = {m: n // content for m, n in g.nums.items()}
    lead = prim[gm]
    quotient: Numerators = {}
    rest = dict(f.nums)
    heap = [_Lead(m) for m in rest]
    heapify(heap)
    while heap:
        rm = heappop(heap).m
        if rm not in rest:
            continue
        q_mono = rm - gm
        if not _divides(gm, rm):
            raise ArithmeticError("divisor does not divide the dividend")
        q, r = divmod(rest[rm], lead)
        if r:
            raise ArithmeticError("divisor does not divide the dividend")
        _check((q_mono,))  # so q_mono + m stays free of carries
        quotient[q_mono] = q
        for m, n in prim.items():
            m += q_mono
            old = rest.get(m)
            if old is None:
                rest[m] = -q * n
                heappush(heap, _Lead(m))
            elif old == q * n:
                del rest[m]
            else:
                rest[m] = old - q * n
    if g.den != 1:
        quotient = {m: n * g.den for m, n in quotient.items()}
    return _from_numerators(quotient, f.den * content)


def _intdiv(a: int, b: int) -> int:
    """a/b for ints; raises ArithmeticError if b does not divide a."""
    if a % b:
        raise ArithmeticError("divisor does not divide the dividend")
    return a // b


def _pseudo_rem(f: dict, g: dict) -> dict:
    """lc(g)^(deg f - deg g + 1) * f mod g, for deg f >= deg g."""
    dg = max(g)
    lc, n, r = g[dg], max(f) - dg + 1, f
    while r and (dr := max(r)) >= dg:
        lr, shift = r[dr], dr - dg
        r = {e: c * lc for e, c in r.items()}
        for e, c in g.items():
            r[e + shift] = r.get(e + shift, 0) - lr * c
        r = {e: c for e, c in r.items() if c}
        n -= 1
    if n and r:
        scale = lc ** n
        r = {e: c * scale for e, c in r.items()}
    return r


def _subresultant_last(f: dict, g: dict, divexact) -> dict:
    """Last nonzero element of the subresultant PRS of f and g, univariate
    {exponent: coefficient} dicts over the ring that divexact divides in
    (DiffPoly with _poly_divexact in the gcd, int with _intdiv in the screen).

    Brown's algorithm: every division is exact in that ring, which keeps
    growth polynomial where a naive remainder sequence explodes.  The result
    has the degree of gcd(f, g); its primitive part is the gcd of the
    primitive parts of f and g.
    """
    n, m = max(f), max(g)
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    h = _pseudo_rem(f, g)
    if d % 2 == 0:
        h = {e: -c for e, c in h.items()}
    lc = g[m]
    c = -(lc ** d)
    while h:
        k = max(h)
        f, g, m, d = g, h, k, m - k
        b = (-lc) * (c ** d)
        h = {e: divexact(v, b) for e, v in _pseudo_rem(f, g).items()}
        lc = g[m]
        c = divexact((-lc) ** d, c ** (d - 1)) if d > 1 else -lc
    return g


def _normalize_leading(f: DiffPoly) -> DiffPoly:
    if f.is_zero():
        return f
    return _from_numerators(f.nums, f.nums[max(f.nums, key=exponents)])


def _divide_by_mono(f: DiffPoly, mono: Monomial) -> DiffPoly:
    if mono == _ONE_MONO:
        return f
    nums = {m - mono: n for m, n in f.nums.items()}
    return DiffPoly._of(_guard(nums, f.nums, (mono,)), f.den)


def _eval_univariate(f: DiffPoly, var: JetKey, point: Dict[JetKey, int]) -> Dict[int, int]:
    """Image of f's numerators in Z[var] under point, which maps every other
    jet to an integer; f's constant denominator changes no gcd degree."""
    out: Dict[int, int] = {}
    for m, value in f.nums.items():
        for v, e in _jet_pairs(m):
            value *= point.get(v, 1) ** e
        e = _exponent(m, var)
        out[e] = out.get(e, 0) + value
    return {e: v for e, v in out.items() if v}


_SCREEN_POINTS = (2, 3, 5, 7, -2, 11, -3, 13)


def _coprime_image(f: DiffPoly, g: DiffPoly, var: JetKey, df: int, dg: int) -> bool:
    """Whether an integer image proves f and g (of degrees df, dg in the jet
    var) coprime in that jet.

    At a point that keeps both leading coefficients, the degree of the
    images' gcd bounds that of f and g, so degree 0 proves them coprime.
    The first usable of four points decides; False proves nothing.
    """
    others = sorted((_jets_in(f.nums) | _jets_in(g.nums)) - {var})
    for seed in range(4):
        point = {v: _SCREEN_POINTS[(seed + k) % len(_SCREEN_POINTS)]
                 for k, v in enumerate(others)}
        fu, gu = _eval_univariate(f, var, point), _eval_univariate(g, var, point)
        if fu and gu and max(fu) == df and max(gu) == dg:
            return max(_subresultant_last(fu, gu, _intdiv)) == 0
    return False


def poly_gcd(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """GCD over Q[jets] of two polynomials, with leading coefficient 1 (hence
    unique).  A negative exponent raises ValueError: over Laurent polynomials
    every monomial is a unit, so no such gcd is defined.

    Monomial content splits off first, then a jet that one side lacks, as
    the other side's coefficients in it.  The rest is one remainder sequence,
    the subresultant PRS in the greatest jet: on integer images first, which
    proves the common coprime case cheaply, and on the primitive parts only
    when the images share a factor.
    """
    for name, p in (("f", f), ("g", g)):
        if p.has_negative_exponent():
            raise ValueError(f"poly_gcd: {name} has a negative exponent; "
                             "clear Laurent exponents first, as RatFun does")
    if f.is_zero():
        return _normalize_leading(g)
    if g.is_zero():
        return _normalize_leading(f)
    if f.is_constant() or g.is_constant():
        return DiffPoly.const(1)
    return _nontrivial_gcd(f, g)


@lru_cache(maxsize=20_000)
def _nontrivial_gcd(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    mono_f, mono_g = _per_jet(min, f.nums), _per_jet(min, g.nums)
    f = _divide_by_mono(f, mono_f)
    g = _divide_by_mono(g, mono_g)
    shared = DiffPoly._of({_per_jet(min, (mono_f, mono_g)): 1})
    if f.is_constant() or g.is_constant():
        return _normalize_leading(shared)
    sf, sg = _jets_in(f.nums), _jets_in(g.nums)
    if sf < sg:
        f, g, sf, sg = g, f, sg, sf
    if sf - sg:  # a jet that only f has: g goes first, and no PRS sees the jet
        rest = _content_of([g, *f.as_univariate(max(sf - sg)).values()])
        return _normalize_leading(shared * rest)
    var = max(sf)
    fu, gu = f.as_univariate(var), g.as_univariate(var)
    cont_f, cont_g = _content_of(fu.values()), _content_of(gu.values())
    shared = shared * poly_gcd(cont_f, cont_g)
    if not _coprime_image(f, g, var, max(fu), max(gu)):
        last = _subresultant_last({e: _poly_divexact(c, cont_f) for e, c in fu.items()},
                                  {e: _poly_divexact(c, cont_g) for e, c in gu.items()},
                                  _poly_divexact)
        if max(last) > 0:
            content = _content_of(last.values())
            shared = shared * sum((_scale(_poly_divexact(c, content), 1, 1,
                                          monomial(((var, e),)))
                                   for e, c in last.items()), DiffPoly())
    return _normalize_leading(shared)


def _content_of(coeffs: Iterable[DiffPoly]) -> DiffPoly:
    """The gcd of these nonzero polynomials, with leading coefficient 1."""
    content = None
    for c in coeffs:
        content = c if content is None else poly_gcd(content, c)
        if content.is_constant():
            break
    return _normalize_leading(content)


def poly_lcm(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    if f.is_zero() or g.is_zero():
        return DiffPoly()
    return _normalize_leading(_poly_divexact(f * g, poly_gcd(f, g)))


# -- rational differential functions ----------------------------------------


class RatFun(Tower):
    """Quotient of differential polynomials, gcd-reduced with monic denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=1):
        num = DiffPoly.coerce(num)
        den = DiffPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is zero")
        if len(den.nums) > 1:
            # clear Laurent exponents so gcd reduction runs on true polynomials
            shift = _clearing_monomial((num, den))
            if shift:
                shift = DiffPoly._of({shift: 1})
                num = num * shift
                den = den * shift
            if not num.is_constant():
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = _poly_divexact(num, g)
                    den = _poly_divexact(den, g)
        self._normalize(num, den)

    def _normalize(self, num: DiffPoly, den: DiffPoly,
                   polynomial: bool = False) -> "RatFun":
        """Store num/den, for coprime num and den or a den of one term.

        Over one term c*m, num/den is a Laurent polynomial p, stored with no
        gcd: a polynomial over 1 as it is, else p times the monomial that
        clears its negative exponents over that monomial, which is monic and
        coprime to the product, since the product has a term free of each of
        its jets.  Over more terms, num over a monic denominator.  A caller
        that knows num to be a polynomial over 1 (a sum, product or
        derivative of RatFuns over the shared ``_ONE``) says so, and the
        scan for negative exponents is skipped.
        """
        self._hash = None
        if len(den.nums) == 1:
            if den is not _ONE:
                ((m, c),) = den.nums.items()
                num = _scale(num, den.den, c, -m)
            if polynomial or _small(num.nums):
                self.num, self.den = num, _ONE
            else:
                shift = _clearing_monomial((num,))
                self.num = _scale(num, 1, 1, shift)
                self.den = DiffPoly._of({shift: 1}) if shift else _ONE
        elif num.is_zero():
            self.num, self.den = num, _ONE
        else:
            # den = N/d with leading numerator n: num * d/n over N/n
            n = den.nums[max(den.nums, key=exponents)]
            self.num, self.den = _scale(num, den.den, n), _from_numerators(den.nums, n)
        return self

    @staticmethod
    def _reduced(num: DiffPoly, den: DiffPoly = _ONE, polynomial: bool = False) -> "RatFun":
        """RatFun(num, den) for operands that ``_normalize`` takes: no gcd."""
        return RatFun.__new__(RatFun)._normalize(num, den, polynomial)

    _below, _up = DiffPoly, _reduced

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_diffpoly(self) -> DiffPoly:
        if not self.den.is_one():
            raise ValueError("denominator is not 1")
        return self.num

    # -- field operations ------------------------------------------------------

    def __add__(self, other) -> "RatFun":
        """Fraction addition with component-level gcds (the GMP mpq scheme).

        For coprime inputs the only gcds taken are gcd(d1, d2) and one gcd
        against that cofactor, so products of denominators never feed the
        multivariate gcd directly.
        """
        other = RatFun._lift(other)
        if other is None:
            return NotImplemented
        a, b = _laurent(self), _laurent(other)
        if a is not None and b is not None:
            return RatFun._reduced(a + b, polynomial=self.den is _ONE and other.den is _ONE)
        g0 = poly_gcd(self.den, other.den)
        if g0.is_one():
            t = self.num * other.den + other.num * self.den
            return RatFun._reduced(t, self.den * other.den)
        e1 = _poly_divexact(self.den, g0)
        e2 = _poly_divexact(other.den, g0)
        t = self.num * e2 + other.num * e1
        g1 = poly_gcd(t, g0)
        if g1.is_one():
            return RatFun._reduced(t, self.den * e2)
        return RatFun._reduced(_poly_divexact(t, g1),
                               _poly_divexact(self.den, g1) * e2)

    def __neg__(self) -> "RatFun":
        out = RatFun.__new__(RatFun)
        out.num, out.den, out._hash = -self.num, self.den, None
        return out

    def __mul__(self, other) -> "RatFun":
        other = RatFun._lift(other)
        if other is None:
            return NotImplemented
        a, b = _laurent(self), _laurent(other)
        if a is not None and b is not None:
            return RatFun._reduced(a * b, polynomial=self.den is _ONE and other.den is _ONE)
        # cross-cancel: with both inputs reduced the result is reduced too
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_one() else _poly_divexact(self.num, g1)
        d2 = other.den if g1.is_one() else _poly_divexact(other.den, g1)
        n2 = other.num if g2.is_one() else _poly_divexact(other.num, g2)
        d1 = self.den if g2.is_one() else _poly_divexact(self.den, g2)
        return RatFun._reduced(n1 * n2, d1 * d2)

    def __truediv__(self, other) -> "RatFun":
        other = RatFun._lift(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other) -> "RatFun":
        other = RatFun._lift(other)
        return NotImplemented if other is None else other * self.inverse()

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero RatFun")
        return RatFun._reduced(self.den, self.num)

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n) if n else RatFun(1)

    def __eq__(self, other) -> bool:
        other = RatFun._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            # over a monomial, 1 included, it equals a DiffPoly: hash as that
            p = _laurent(self)
            self._hash = hash((self.num, self.den) if p is None else p)
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        from .grammar import format_ratfun
        return f"RatFun({format_ratfun(self)})"

    # -- differential structure -------------------------------------------------

    def total_derivative(self) -> "RatFun":
        return self._derive(DiffPoly.total_derivative)

    def partial(self, name: str, order: int) -> "RatFun":
        return self._derive(lambda p: p.partial(name, order))

    def _derive(self, d) -> "RatFun":
        """d(self) for a derivation d of DiffPoly: d itself on a Laurent
        polynomial, else (n/d)' = (n'd - nd')/d^2 with component-level
        cancellation."""
        p = _laurent(self)
        if p is not None:
            return RatFun._reduced(d(p), polynomial=self.den is _ONE)
        dnum, dden = d(self.num), d(self.den)
        g = poly_gcd(self.den, dden)
        e = self.den if g.is_one() else _poly_divexact(self.den, g)
        w = dden if g.is_one() else _poly_divexact(dden, g)
        t = dnum * e - self.num * w
        if t.is_zero():
            return RatFun(0)
        r1 = poly_gcd(t, e)
        den2 = e if r1.is_one() else _poly_divexact(e, r1)
        t = t if r1.is_one() else _poly_divexact(t, r1)
        r2 = poly_gcd(t, self.den)
        den1 = self.den if r2.is_one() else _poly_divexact(self.den, r2)
        t = t if r2.is_one() else _poly_divexact(t, r2)
        return RatFun._reduced(t, den1 * den2)

    def top_order(self, name: Optional[str] = None) -> Optional[int]:
        orders = [o for o in (self.num.top_order(name), self.den.top_order(name))
                  if o is not None]
        return max(orders) if orders else None


def _laurent(f) -> Optional[DiffPoly]:
    """f as a Laurent polynomial, the inverse of ``RatFun._normalize`` over
    one term: a DiffPoly as it is, a RatFun over one monomial (its monic
    denominator has one term, 1 included) as its numerator shifted down by
    that monomial, and None for any other denominator."""
    if isinstance(f, DiffPoly):
        return f
    if f.den is _ONE:
        return f.num
    return _divide_by_mono(f.num, *f.den.nums) if len(f.den.nums) == 1 else None


# -- the RatFun tower -----------------------------------------------------------


def derivatives(f, n: int) -> list:
    """The tower [f, f', ..., f^(n)]: each total derivative is taken once."""
    tower = [f]
    for _ in range(n):
        tower.append(tower[-1].total_derivative())
    return tower
