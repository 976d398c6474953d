"""Noncommutative skew-polynomial arithmetic for differential operators.

Operators are finite sums a_k D^k with rational-function coefficients, where
D is the total derivative and multiplication obeys D*a = a*D + a'.  The ring
is left and right Euclidean.  Both divisions are one loop, with the product
order swapped; on top of them sit the right gcd that makes a right fraction
A B^-1 minimal, on monic remainders, and the right lcm that puts several
tails over one denominator.  Division by d, on either side, needs no loop.
A bidifferential operator is an operator here too, M_F over the formal slot
F (``bidiff``), so left division is also its division.  In the operand tower
(``tower``) a function lifts to the operator of degree 0, and a function
times an operator scales its coefficients.

This class is where the Leibniz rule D^k a = sum_n comb(k, n) a^(n) D^(k-n)
lives: products, commutators (with no n = 0 term), adjoints and applications
expand it, and the bidifferential operations and evolutionary fields of
rational functions are built from them.  One rule sends the expansion to
integers: every coefficient and operand involved is a Laurent polynomial
(``ratfun._laurent``), that is a polynomial or a quotient by one monomial,
such as the 1/q of B = (1/q) d.
The jet monomials' localisation is closed under d, so the expansion then
runs on integer numerators: each operator's coefficients are put over the
lcm of all their denominators, the towers d^n N stream through
``jets._tower``, the terms comb(k, n) N_a d^n N_b add up in one
{monomial: int} sum per output power, and an output with negative exponents
becomes a quotient by a monomial again.  Any other denominator takes the
same expansion over RatFun, written once, in the product: the rational
adjoint is the sum of the products (-1)^k D^k a_k.
"""

from __future__ import annotations

from math import comb, lcm
from typing import Dict, Optional, Tuple

from .jets import (DiffPoly, Numerators, _add_products, _add_tower, _from_numerators,
                   _partial, _small, _tower, accumulate)
from .ratfun import RatFun, _laurent, derivatives
from .tower import Tower, power


class DiffOp(Tower):
    """A differential operator sum a_k D^k; the zero operator has no terms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[int, RatFun]] = None):
        self.coeffs: Dict[int, RatFun] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = RatFun.coerce(c)
                if not c.is_zero():
                    if k < 0:
                        raise ValueError("differential operators have powers >= 0")
                    self.coeffs[k] = c

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp()

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp({0: RatFun(1)})

    @staticmethod
    def d(power: int = 1) -> "DiffOp":
        return DiffOp({power: RatFun(1)})

    @staticmethod
    def of_function(f) -> "DiffOp":
        return DiffOp({0: f})

    _below, _up = RatFun, of_function

    # -- queries ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        return max(self.coeffs) if self.coeffs else None

    def leading_coefficient(self) -> RatFun:
        if not self.coeffs:
            raise ValueError("zero operator has no leading coefficient")
        return self.coeffs[max(self.coeffs)]

    def coefficient(self, k: int) -> RatFun:
        return self.coeffs.get(k, RatFun(0))

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if max(self.coeffs, default=0) == 0:
            # of degree 0 it equals its coefficient, so it hashes as that
            return hash(self.coefficient(0))
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        from .grammar import format_ratfun
        if not self.coeffs:
            return "DiffOp(0)"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = format_ratfun(self.coeffs[k])
            if k == 0:
                parts.append(c)
            else:
                head = "" if c == "1" else f"({c})*"
                parts.append(f"{head}d^{k}" if k > 1 else f"{head}d")
        return "DiffOp(" + " + ".join(parts) + ")"

    # -- additive structure ----------------------------------------------------------

    def __add__(self, other) -> "DiffOp":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            accumulate(coeffs, k, c)
        return DiffOp(coeffs)

    def __neg__(self) -> "DiffOp":
        return DiffOp({k: -c for k, c in self.coeffs.items()})

    # -- multiplicative structure ----------------------------------------------------

    def __mul__(self, other) -> "DiffOp":
        """Operator composition; D^k * a expands by the Leibniz rule."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        ints_a, ints_b = _integer_form(self), _integer_form(other)
        if ints_a is not None and ints_b is not None:
            (na, den_a), (nb, den_b) = ints_a, ints_b
            return _of_numerators(_add_leibniz({}, na, nb), den_a * den_b)
        top = max(self.coeffs, default=0)
        # descending powers: the gcds that the sums meet, and so the cost,
        # must not depend on the order in which the factors were built
        towers = [(l, derivatives(other.coeffs[l], top))
                  for l in sorted(other.coeffs, reverse=True)]
        coeffs: Dict[int, RatFun] = {}
        for k in sorted(self.coeffs, reverse=True):
            a = self.coeffs[k]
            for l, tower in towers:
                for n in range(k + 1):
                    if tower[n]:  # a constant's tower is [c, 0, 0, ...]
                        accumulate(coeffs, k - n + l, a * tower[n] * comb(k, n))
        return DiffOp(coeffs)

    def __rmul__(self, other) -> "DiffOp":
        # function * operator just scales the coefficients
        f = RatFun._lift(other)
        if f is None:
            return NotImplemented
        return DiffOp({k: f * c for k, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "DiffOp":
        if n < 0:
            raise ValueError("negative operator powers are not differential operators")
        return power(self, n) if n else DiffOp.identity()

    # -- action and adjoint -------------------------------------------------------------

    def apply(self, f):
        """A(f) = sum a_k d^k(f); a DiffPoly when f is not a RatFun and the
        result is polynomial, else a RatFun."""
        poly_in = not isinstance(f, RatFun)
        f = RatFun.coerce(f)
        ints, nf = _integer_form(self), _laurent(f)
        if ints is not None and nf is not None:
            na, den_a = ints
            acc: Numerators = {}
            _add_tower(acc, na, nf.nums)
            out = RatFun._reduced(_from_numerators(acc, den_a * nf.den))
        else:
            out = RatFun(0)
            for k, derivative in enumerate(derivatives(f, max(self.coeffs, default=0))):
                a = self.coeffs.get(k)
                if a is not None:
                    out = out + a * derivative
        return out.num if poly_in and out.is_polynomial() else out

    def __call__(self, f):
        return self.apply(f)

    def adjoint(self) -> "DiffOp":
        """A* with D* = -D and f* = f; an anti-involution."""
        ints = _integer_form(self)
        if ints is not None:
            na, den = ints
            acc: Dict[int, Numerators] = {}
            for k, n_a in na.items():  # (-1)^k D^k a_k
                _add_leibniz(acc, {k: _UNIT}, {0: n_a}, 0, -1 if k % 2 else 1)
            return _of_numerators(acc, den)
        # over RatFun each (-1)^k D^k a_k = D^k ((-1)^k a_k) is a product, so
        # the adjoint writes no Leibniz expansion of its own
        return sum((DiffOp.d(k) * DiffOp.of_function(-a if k % 2 else a)
                    for k, a in self.coeffs.items()), DiffOp())

    def monic(self) -> "DiffOp":
        if self.is_zero():
            return self
        return self.leading_coefficient().inverse() * self


# -- the integer Leibniz kernel --------------------------------------------------------

_UNIT: Numerators = {0: 1}  # the constant 1 as numerators


def _integer_form(op: DiffOp) -> Optional[Tuple[Dict[int, Numerators], int]]:
    """({power: numerators}, den): op's coefficients as Laurent polynomials
    (``ratfun._laurent``) with integer numerators over den, the lcm of all their
    denominators; None when some coefficient is not a Laurent polynomial."""
    parts = {}
    den = 1
    for k, c in op.coeffs.items():
        p = parts[k] = _laurent(c)
        if p is None:
            return None
        den = lcm(den, p.den)
    return {k: p.nums if p.den == den else {m: c * (den // p.den) for m, c in p.nums.items()}
            for k, p in parts.items()}, den


def _add_leibniz(acc: Dict[int, Numerators], na: Dict[int, Numerators],
                 nb: Dict[int, Numerators], first: int = 0,
                 sign: int = 1) -> Dict[int, Numerators]:
    """acc after acc[k - n + l] += sign * comb(k, n) * a_k * d^n b_l for n >= first:
    first = 0 is the product A*B, first = 1 leaves out its a_k b_l D^(k+l)."""
    small_a = {k: _small(n_a) for k, n_a in na.items()}
    for l, n_b in nb.items():
        for n, level in _tower(n_b, max(na, default=0)):
            if n >= first:
                small = _small(level)
                for k, n_a in na.items():
                    if k >= n:
                        _add_products(acc.setdefault(k - n + l, {}), n_a,
                                      level, sign * comb(k, n), small and small_a[k])
    return acc


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[A, B] = A*B - B*A.  The coefficients commute, so the terms a_k b_l
    D^(k+l) of the two products cancel; on integer numerators they are never
    formed, and other coefficients take the two products."""
    ints_a, ints_b = _integer_form(a), _integer_form(b)
    if ints_a is None or ints_b is None:
        return a * b - b * a
    (na, den_a), (nb, den_b) = ints_a, ints_b
    acc = _add_leibniz(_add_leibniz({}, na, nb, 1), nb, na, 1, -1)
    return _of_numerators(acc, den_a * den_b)


def _of_numerators(acc: Dict[int, Numerators], den: int) -> DiffOp:
    """The operator with coefficients acc[k] / den, zero sums dropped; a
    coefficient with negative exponents becomes a quotient by a monomial."""
    out = DiffOp()
    for k, row in acc.items():
        p = _from_numerators(row, den)
        if p:
            out.coeffs[k] = RatFun._reduced(p)
    return out


# -- Euclidean structure ------------------------------------------------------------


def right_divide(a: DiffOp, b: DiffOp) -> Tuple[DiffOp, DiffOp]:
    """A = Q*B + R with deg R < deg B; unique."""
    return _divide(a, b, lambda piece: piece * b)


def left_divide(a: DiffOp, b: DiffOp) -> Tuple[DiffOp, DiffOp]:
    """A = B*Q + R with deg R < deg B; unique."""
    return _divide(a, b, lambda piece: b * piece)


def _divide(a: DiffOp, b: DiffOp, times) -> Tuple[DiffOp, DiffOp]:
    """Cancel the leading term of the remainder by times(piece) until its
    degree drops below deg B; times multiplies by B on one side."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero operator")
    q = DiffOp.zero()
    r = a
    db, lc = b.degree(), b.leading_coefficient()
    while not r.is_zero() and r.degree() >= db:
        piece = DiffOp({r.degree() - db: r.leading_coefficient() / lc})
        q = q + piece
        r = r - times(piece)
    return q, r


def _div_right_by_d(op: DiffOp) -> Tuple[DiffOp, RatFun]:
    """op = Q*d + r with r a function; so op d^-1 = Q + r d^-1, and
    sum a_k d^k = (sum_{k>=1} a_k d^(k-1)) d + a_0."""
    # keys from the top down, as right_divide built them: DiffOp.__mul__ then
    # meets its towers' zero terms before their keys exist and adds fewer
    q = DiffOp({k - 1: op.coeffs[k] for k in sorted(op.coeffs, reverse=True) if k})
    return q, op.coefficient(0)


def _div_left_by_d(op: DiffOp) -> Tuple[DiffOp, RatFun]:
    """op = d*Q + r with r a function; so d^-1 op = Q + d^-1 r.  d Q + r has
    coefficient q_(k-1) + q_k' at d^k, so from the top down q_(k-1) = a_k - q_k'
    and r = a_0 - q_0': on DiffPoly when every a_k is a Laurent polynomial."""
    laurent = {k: _laurent(c) for k, c in op.coeffs.items()}
    coeffs = op.coeffs if None in laurent.values() else laurent
    q = {}
    qk = zero = DiffPoly()  # after step k it holds q_(k-1); after step 0, r
    for k in range(max(coeffs, default=0), -1, -1):
        qk = coeffs.get(k, zero) - qk.total_derivative() if qk else coeffs.get(k, zero)
        if k and qk:
            q[k - 1] = qk
    return DiffOp(q), RatFun.coerce(qk)


def right_gcd(a: DiffOp, b: DiffOp) -> DiffOp:
    """Monic greatest common right divisor.  Each remainder is made monic,
    a scaling on the left by 1/lc that keeps its left ideal and keeps the
    coefficients of the chain from growing."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero operators")
    a, b = a.monic(), b.monic()
    while not b.is_zero():
        _, r = right_divide(a, b)
        a, b = b, r.monic()
    return a


def right_lcm(a: DiffOp, b: DiffOp) -> Tuple[DiffOp, DiffOp, DiffOp]:
    """(L, C, D) with L = A*C = B*D of minimal degree.

    Mirrored extended Euclid on left-division remainders, cofactors
    multiplying on the right; remainders are normalized monic by a right
    composition with 1/lc, which preserves the right-ideal invariant.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("lcm needs nonzero operators")
    r0, r1 = a, b
    s0, s1 = DiffOp.identity(), DiffOp.zero()
    t0, t1 = DiffOp.zero(), DiffOp.identity()
    while not r1.is_zero():
        q, r = left_divide(r0, r1)
        s_next, t_next = s0 - s1 * q, t0 - t1 * q
        if not r.is_zero():
            unit = r.leading_coefficient().inverse()
            r, s_next, t_next = r * unit, s_next * unit, t_next * unit
        r0, r1 = r1, r
        s0, s1 = s1, s_next
        t0, t1 = t1, t_next
    lcm = a * s1
    lc = lcm.leading_coefficient().inverse()
    return lcm * lc, s1 * lc, (-t1) * lc


class FractionPair:
    """A rational operator presented as the right fraction L = num * den^-1."""

    def __init__(self, num: DiffOp, den: DiffOp):
        if den.is_zero():
            raise ValueError("fraction denominator is zero")
        self.num, self.den = num, den

    def __iter__(self):
        # a, b = fraction: the pair unpacks as (num, den)
        return iter((self.num, self.den))


def minimal_right_fraction(a: DiffOp, b: DiffOp) -> FractionPair:
    """Divide out the right gcd so the pair is right-coprime."""
    g = right_gcd(a, b)
    if g.degree() == 0:
        return FractionPair(a, b)
    qa, ra = right_divide(a, g)
    qb, rb = right_divide(b, g)
    if not (ra.is_zero() and rb.is_zero()):
        raise AssertionError("right gcd failed to divide its inputs")
    return FractionPair(qa, qb)


# -- Frechet derivatives -----------------------------------------------------------------


def frechet(f, name: str = "u") -> DiffOp:
    """The linearization sum (df/du^(m)) D^m of a function."""
    f = RatFun.coerce(f)
    top = f.top_order(name)
    if top is None:
        return DiffOp.zero()
    p = _laurent(f)
    if p is not None:
        return _of_numerators({m: _partial(p.nums, name, m) for m in range(top + 1)}, p.den)
    return DiffOp({m: f.partial(name, m) for m in range(top + 1)})


def helmholtz_residual(f, name: str = "u") -> DiffOp:
    """D_f - D_f*: zero exactly when f is a variational derivative."""
    d_f = frechet(f, name)
    return d_f - d_f.adjoint()
