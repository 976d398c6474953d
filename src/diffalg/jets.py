"""Exact arithmetic for differential polynomials and rational functions in jet variables.

A jet variable is a pair (order, name) standing for the order-th derivative of a
differential indeterminate; ``u`` is the main one, while capital letters such as
``F`` and ``G`` serve as formal placeholders in "for all F" identities.  DiffPoly
is a Laurent polynomial over Q in finitely many jet variables, stored sparsely in
a canonical form, so equality is an exact dictionary comparison.  RatFun is a
gcd-reduced quotient of two DiffPoly with a monic denominator.  The two are
the lower floors of the operand tower (``tower``): DiffPoly lifts the
rationals, RatFun lifts DiffPoly, and an operand from above returns
NotImplemented, so that the higher class answers.

Monomials are packed integers.  Each jet variable owns a 16-bit field, given
to it the first time the process meets it, and a monomial is the sum of
e * 2**(16 * field) over its jets: every exponent is a signed digit.  The
exponents lie in [-2**14, 2**14), so adding two monomials multiplies them
with no carry between fields, and the total derivative of a term moves one
unit from a jet's field to the field of the next jet.  A kernel whose
operands might push an exponent out of that range checks its results and
raises OverflowError; a digit never carries into its neighbour.  Fields
follow first appearance, not the jet order, so the canonical order of
monomials (the leading term, the printer, pivot columns) compares their
decoded views, ``exponents(m)``: the ((order, name), exp) pairs sorted
descending, compared as tuples, with higher jets more significant.

At rest, a DiffPoly is integer numerators over one denominator: ``nums``
maps each monomial to a nonzero int and ``den`` is an int > 0 with
gcd(den, *nums) = 1, so den is the lcm of the coefficients' denominators
and the pair is canonical.  It is the only form: a Fraction is built only
where a caller asks for one coefficient (``leading``, ``constant_term``, the
printer).  The kernels below work on these {monomial: numerator} dicts:
``_add_products``, ``_partial`` and ``_derivative`` multiply, accumulate and
differentiate plain ints, a sum merges two dicts over the lcm of the
denominators, a product by a constant or a single term scales the ints, and
``_from_numerators`` is the one normaliser (zero sums out, the common factor
of den and the numerators divided out).  Since
D(N/den) = D(N)/den, a derivative keeps its polynomial's den.  ``_tower``
streams d^k N and is the only integer derivative tower; ``_add_tower`` adds
sum_k c_k d^k N on it for ``DiffOp.apply`` and the evolutionary fields of
``calculus``, whose ``brackets`` share one stream.  A RatFun over one
monomial is a Laurent polynomial: ``_laurent`` is the one rule that admits
it to every integer arm of the Leibniz rule (in ``operators.DiffOp``), and
``derivatives`` the RatFun tower of the arms for any other denominator.  The
Q-linear kernels (echelon forms, linear bases) live in ``linalg``.

Everything here is immutable after construction and all operations are pure;
the one shared state is the jet index, which only grows.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .tower import Tower, power

# A jet variable is (order, name).  A monomial is an int: one signed 16-bit
# exponent digit per jet, in the field the jet was given on first sight (see
# the module docstring).  Its sort key is exponents(m), so the canonical
# order is lexicographic with higher jets more significant.
JetKey = Tuple[int, str]
Monomial = int
Numerators = Dict[Monomial, int]  # {monomial: integer numerator}

_LOG_W = 4
_W = 1 << _LOG_W             # bits per exponent field
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
EXPONENT_LIMIT = 1 << (_W - 2)  # every exponent lies in [-EXPONENT_LIMIT, EXPONENT_LIMIT)
_ONE_MONO: Monomial = 0

_FIELD: Dict[JetKey, int] = {}  # jet -> field; per process, and it only grows
_JETS: List[JetKey] = []        # field -> jet
_HALVES = 0  # 2**15 in every field
_WIDE = 0    # bits 13-15 of every field
_NEW_FIELD = threading.Lock()


def _field(v: JetKey) -> int:
    """The field of a jet, given to it on first sight."""
    i = _FIELD.get(v)
    if i is None:
        global _HALVES, _WIDE
        with _NEW_FIELD:
            i = _FIELD.get(v)
            if i is None:
                # the masks and the field's jet come first: once the field is
                # published, another thread may build monomials with it
                i = len(_JETS)
                _HALVES |= _HALF << (_W * i)
                _WIDE |= 0b111 << (_W * i + _W - 3)
                _JETS.append(v)
                _FIELD[v] = i
    return i


def monomial(pairs: Iterable[Tuple[JetKey, int]]) -> Monomial:
    """Pack ((order, name), exp) pairs, each jet at most once, into a monomial."""
    m = 0
    for v, e in pairs:
        if e:
            if not -EXPONENT_LIMIT <= e < EXPONENT_LIMIT:
                raise OverflowError(f"exponent {e} is outside the supported range "
                                    f"[-{EXPONENT_LIMIT}, {EXPONENT_LIMIT})")
            m += e << (_W * _field(v))
    return m


def _fields(m: Monomial) -> List[Tuple[int, int]]:
    """The (field, exponent) pairs of a monomial's nonzero digits, lowest first.

    Exact for digits in [-2**15, 2**15), so also for a sum of two monomials.
    """
    out = []
    while m:
        s = ((m & -m).bit_length() - 1) & -_W  # the lowest nonzero field
        e = (m >> s) & _MASK
        if e & _HALF:
            e -= 1 << _W
        out.append((s >> _LOG_W, e))
        m -= e << s
    return out


@lru_cache(maxsize=1 << 12)
def exponents(m: Monomial) -> Tuple[Tuple[JetKey, int], ...]:
    """The decoded view of a monomial: its ((order, name), exp) pairs sorted
    descending.  Comparing these tuples is the canonical monomial order."""
    return tuple(sorted(((_JETS[i], e) for i, e in _fields(m)), reverse=True))


def _small(keys) -> bool:
    """Whether every exponent in these monomials lies in [0, 2**13).

    The OR of monomials with such exponents has no bit 13-15 in any field,
    and any negative digit sets those bits, so one OR decides it.  A product
    or a total derivative of small monomials cannot leave the exponent range.
    """
    x = reduce(or_, keys, 0)
    return x >= 0 and not x & _WIDE


def _check(keys) -> None:
    """Raise OverflowError unless every exponent of these monomials is in range.

    Each digit must lie in [-2**15, 2**15), as a sum of two in-range digits
    does.  Adding 2**15 to every field then makes each field unsigned, and a
    digit is in range exactly when the top two bits of its field differ.
    """
    halves = _HALVES
    for m in keys:
        t = m + halves
        if (t ^ (t << 1)) & halves != halves:
            raise OverflowError(f"an exponent left the supported range "
                                f"[-{EXPONENT_LIMIT}, {EXPONENT_LIMIT})")


def _guard(out: dict, a, b) -> dict:
    """out, a product of the monomials a and b, once its exponents are known in range."""
    if not (_small(a) and _small(b)):
        _check(out)
    return out


def _support(keys) -> Set[int]:
    """The fields of the jets that occur in these monomials."""
    x = reduce(or_, keys, 0)
    if x >= 0 and not x & _WIDE:  # no negative digit, so the OR keeps every field
        return {i for i, _ in _fields(x)}
    return {i for m in keys for i, _ in _fields(m)}


def _digit(m: Monomial, i: int) -> int:
    """The exponent in field i."""
    return (((m + _HALVES) >> (_W * i)) & _MASK) - _HALF


class _Shifts(dict):
    """A field's lowest bit -> unit(next jet) - unit(jet), filled on first use:
    adding it to a monomial trades one power of a jet for one of its derivative."""

    def __missing__(self, s: int) -> int:
        order, name = _JETS[s >> _LOG_W]
        shift = self[s] = (1 << (_W * _field((order + 1, name)))) - (1 << s)
        return shift


_SHIFT = _Shifts()


class DiffPoly(Tower):
    """A differential (Laurent) polynomial over Q: integer numerators ``nums``
    ({monomial: nonzero int}) over one denominator ``den`` (an int > 0), with
    gcd(den, *nums) = 1.  ``DiffPoly()`` is zero; the kernels below build
    every other value.

    Negative exponents are permitted (they arise when parsing coefficient
    fields such as 1/u'''); the integration routines reject them where the
    algorithm cannot handle them.
    """

    __slots__ = ("nums", "den", "_hash")

    def __init__(self):
        self.nums, self.den, self._hash = {}, 1, None

    @staticmethod
    def _of(nums: Numerators, den: int = 1) -> "DiffPoly":
        """Wrap numerators already in canonical form, without a copy."""
        p = DiffPoly.__new__(DiffPoly)
        p.nums, p.den, p._hash = nums, den, None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def const(value) -> "DiffPoly":
        c = value if isinstance(value, (int, Fraction)) else Fraction(value)
        if c == 1:
            return _ONE
        return DiffPoly._of({_ONE_MONO: c.numerator}, c.denominator) if c else DiffPoly()

    _below, _up = (int, Fraction), const

    @staticmethod
    def jet(name: str, order: int, exponent: int = 1) -> "DiffPoly":
        if order < 0:
            raise ValueError("jet order must be >= 0")
        return DiffPoly._of({monomial((((order, name), exponent),)): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(m == _ONE_MONO for m in self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums == _ONE.nums

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.constant_term()

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(_ONE_MONO, 0), self.den)

    def indets(self) -> List[str]:
        return sorted({_JETS[i][1] for i in _support(self.nums)})

    def top_order(self, name: Optional[str] = None) -> Optional[int]:
        """Highest jet order present, optionally restricted to one indeterminate."""
        orders = [_JETS[i][0] for i in _support(self.nums)
                  if name is None or _JETS[i][1] == name]
        return max(orders) if orders else None

    def has_negative_exponent(self) -> bool:
        return not _small(self.nums) and any(
            e < 0 for m in self.nums for _, e in _fields(m))

    def leading(self) -> Tuple[Monomial, Fraction]:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.nums, key=exponents)
        return m, Fraction(self.nums[m], self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "DiffPoly":
        other = DiffPoly._lift(other)
        return NotImplemented if other is None else _merge(self, other, 1)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._of({m: -n for m, n in self.nums.items()}, self.den)

    def __sub__(self, other) -> "DiffPoly":
        other = DiffPoly._lift(other)
        return NotImplemented if other is None else _merge(self, other, -1)

    def __mul__(self, other) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            return _scale(self, other.numerator, other.denominator)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        a, b = self.nums, other.nums
        if len(b) == 1:
            ((m2, n2),) = b.items()
            return _scale(self, n2, other.den, m2)
        if len(a) == 1:
            ((m1, n1),) = a.items()
            return _scale(other, n1, self.den, m1)
        acc: Numerators = {}
        _add_products(acc, a, b)
        return _from_numerators(acc, self.den * other.den)

    __rmul__ = __mul__  # commutative, and __mul__ takes every operand type

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative powers produce RatFun, not DiffPoly")
        return power(self, n) if n else _ONE

    def __eq__(self, other) -> bool:
        other = DiffPoly._lift(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        if self._hash is None:
            # a constant equals its Fraction, so it hashes as one
            self._hash = (hash(self.constant_term()) if self.is_constant()
                          else hash((self.den, frozenset(self.nums.items()))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self) -> str:
        from .grammar import format_poly
        return f"DiffPoly({format_poly(self)})"

    # -- differential structure --------------------------------------------

    def total_derivative(self) -> "DiffPoly":
        """The total derivative: every jet (order, name) shifts to (order+1, name)."""
        return _from_numerators(_derivative(self.nums), self.den)

    def partial(self, name: str, order: int) -> "DiffPoly":
        """Partial derivative with respect to one jet variable."""
        return _from_numerators(_partial(self.nums, name, order), self.den)

    def as_univariate(self, var: JetKey) -> Dict[int, "DiffPoly"]:
        """View as a polynomial in one jet variable with DiffPoly coefficients."""
        i = _FIELD.get(var)
        if i is None:
            return {0: self} if self.nums else {}
        s = _W * i
        out: Dict[int, Numerators] = {}
        for m, n in self.nums.items():
            e = _digit(m, i)
            out.setdefault(e, {})[m - (e << s)] = n
        return {e: _from_numerators(t, self.den) for e, t in out.items()}


_ONE = DiffPoly._of({_ONE_MONO: 1})  # shared: DiffPoly is immutable


# -- the integer kernels ------------------------------------------------------
#
# The layout is in the module docstring.  The reason for it: every Fraction
# operation normalises through a gcd, which was most of the cost of products
# and derivatives of large polynomials.


def _from_numerators(acc: Numerators, den: int) -> DiffPoly:
    """The DiffPoly acc / den for any den != 0: zero sums dropped, den made
    positive, and gcd(den, *acc) divided out.  acc itself is never changed,
    but the result may hold it, so the caller must not change it either."""
    if den < 0:
        den = -den
        acc = {m: -n for m, n in acc.items() if n}
    elif 0 in acc.values():
        acc = {m: n for m, n in acc.items() if n}
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {m: n // g for m, n in acc.items()}
    return DiffPoly._of(acc, den)


def _derivative(terms: Dict[Monomial, int]) -> Dict[Monomial, int]:
    """The total derivative of {monomial: numerator}; sums that cancel stay as 0.

    D(N/den) = D(N)/den, so a tower d^n f runs on f's numerators alone.
    """
    shift = _SHIFT
    acc: Dict[Monomial, int] = {}
    get = acc.get
    for m, n in terms.items():
        rest = m
        while rest:  # _fields, inlined: this loop is the hot path
            s = ((rest & -rest).bit_length() - 1) & -_W
            e = (rest >> s) & _MASK
            if e & _HALF:
                e -= 1 << _W
            rest -= e << s
            key = m + shift[s]
            acc[key] = get(key, 0) + n * e
    if not _small(terms):
        _check(acc)
    return acc


def _tower(n: Numerators, top: int) -> Iterator[Tuple[int, Numerators]]:
    """(k, d^k N) for k = 0..top, streamed: each level replaces the last, sums
    that cancel leave it, and the stream ends once a level vanishes.  Kept
    towers of a large chain would raise peak RSS; what ``calculus.brackets``
    holds instead is each half-bracket, until its second member streams."""
    for k in range(top + 1):
        if k:
            n = {m: c for m, c in _derivative(n).items() if c}
            if not n:
                return
        yield k, n


def _add_tower(acc: Numerators, coeffs: Dict[int, Numerators], n: Numerators,
               factor: int = 1) -> None:
    """acc += factor * sum_k coeffs[k] * d^k N, on integer numerators."""
    for k, level in _tower(n, max(coeffs, default=-1)):
        if k in coeffs:
            _add_products(acc, coeffs[k], level, factor)


def _partial(terms: Numerators, name: str, order: int) -> Numerators:
    """The partial derivative of {monomial: numerator} in one jet."""
    i = _FIELD.get((order, name))
    if i is None:
        return {}
    unit = 1 << (_W * i)
    out = {}
    for m, c in terms.items():
        e = _digit(m, i)
        if e:
            out[m - unit] = c * e
    if not _small(terms):
        _check(out)
    return out


def _add_products(acc: Dict[Monomial, int], a: Dict[Monomial, int],
                  b: Dict[Monomial, int], factor: int = 1) -> None:
    """acc += factor * a * b, on integer numerators."""
    get = acc.get
    for m1, n1 in a.items():
        n1 *= factor
        for m2, n2 in b.items():
            m = m1 + m2
            acc[m] = get(m, 0) + n1 * n2
    _guard(acc, a, b)


def _scale(p: DiffPoly, num: int, den: int = 1, shift: Monomial = _ONE_MONO) -> DiffPoly:
    """p * (num / den) * shift, for ints num and den != 0 and a monomial shift:
    num cancels against p's denominator and den against p's numerators."""
    nums = p.nums
    if den < 0:
        num, den = -num, -den
    if not num or not nums:
        return DiffPoly()
    if num == den == 1 and not shift:
        return p  # immutable, so the product may share it
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    g = gcd(num, p.den)
    if g != 1:
        num //= g
    h = gcd(den, *nums.values()) if den != 1 else 1
    if h != 1:
        den //= h
        out = {m + shift: n // h * num for m, n in nums.items()}
    elif num != 1 or shift:
        out = {m + shift: n * num for m, n in nums.items()}
    else:
        out = nums
    if shift:
        _guard(out, nums, (shift,))
    return DiffPoly._of(out, p.den // g * den)


def _merge(a: DiffPoly, b: DiffPoly, sign: int) -> DiffPoly:
    """a + sign * b on integer numerators: over the shared denominator when
    the two agree, else with both sides scaled to the lcm of the two."""
    if not b.nums:
        return a
    if not a.nums:
        return b if sign == 1 else -b
    den = a.den
    if den == b.den:
        acc = dict(a.nums)
    else:
        den = lcm(den, b.den)
        scale = den // a.den
        acc = {m: n * scale for m, n in a.nums.items()}
        sign *= den // b.den
    get = acc.get
    for m, n in b.nums.items():
        acc[m] = get(m, 0) + sign * n
    return _from_numerators(acc, den)


def jet(name: str, order: int = 0) -> DiffPoly:
    """Convenience constructor: jet("u", 2) is u''."""
    return DiffPoly.jet(name, order)


def diff_order(f, name: str = "u") -> Optional[int]:
    """Greatest n with a nonzero partial in u^(n); None for quasiconstants.

    With no explicit x variable the quasiconstants are exactly the rationals,
    so None doubles as the constant sentinel.  A RatFun is gcd-reduced, so no
    jet of its numerator or denominator cancels and its order is its top order.
    """
    return RatFun.coerce(f).top_order(name)


# -- multivariate gcd over Q ------------------------------------------------


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
    g_fields = _fields(gm)
    quotient: Numerators = {}
    rest = dict(f.nums)
    while rest:
        rm = max(rest, key=exponents)
        q_mono = rm - gm
        if any(_digit(q_mono, i) < 0 for i, _ in g_fields):
            raise ArithmeticError("divisor does not divide the dividend")
        q, r = divmod(rest[rm], lead)
        if r:
            raise ArithmeticError("divisor does not divide the dividend")
        _check((q_mono,))  # so q_mono + m stays free of carries
        quotient[q_mono] = q
        for m, n in prim.items():
            m += q_mono
            n = rest.get(m, 0) - q * n
            if n:
                rest[m] = n
            else:
                del rest[m]
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


def _mono_content(f: DiffPoly) -> Monomial:
    """The largest monomial dividing every term (per-variable minimum exponents)."""
    exps: Optional[Dict[int, int]] = None
    for m in f.nums:
        d = dict(_fields(m))
        if exps is None:
            exps = d
        else:
            exps = {i: min(e, d[i]) for i, e in exps.items() if i in d}
        if not exps:
            return _ONE_MONO
    return sum(e << (_W * i) for i, e in exps.items())


def _divide_by_mono(f: DiffPoly, mono: Monomial) -> DiffPoly:
    if mono == _ONE_MONO:
        return f
    nums = {m - mono: n for m, n in f.nums.items()}
    return DiffPoly._of(_guard(nums, f.nums, (mono,)), f.den)


def _eval_univariate(f: DiffPoly, i_var: int, point: Dict[int, int]) -> Dict[int, int]:
    """Image of f's numerators in Z[jet i_var] under point, which maps every
    other field to an integer; f's constant denominator changes no gcd degree."""
    out: Dict[int, int] = {}
    for m, value in f.nums.items():
        for i, e in _fields(m):
            value *= point.get(i, 1) ** e
        e = _digit(m, i_var)
        out[e] = out.get(e, 0) + value
    return {e: v for e, v in out.items() if v}


_SCREEN_POINTS = (2, 3, 5, 7, -2, 11, -3, 13)


def _coprime_image(f: DiffPoly, g: DiffPoly, i_var: int, df: int, dg: int) -> bool:
    """Whether an integer image proves f and g (of degrees df, dg in the jet
    of field i_var) coprime in that jet.

    At a point that keeps both leading coefficients, the degree of the
    images' gcd bounds that of f and g, so degree 0 proves them coprime.
    The first usable of four points decides; False proves nothing.
    """
    others = sorted((_support(f.nums) | _support(g.nums)) - {i_var}, key=_JETS.__getitem__)
    for seed in range(4):
        point = {i: _SCREEN_POINTS[(seed + k) % len(_SCREEN_POINTS)]
                 for k, i in enumerate(others)}
        fu, gu = _eval_univariate(f, i_var, point), _eval_univariate(g, i_var, point)
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
    mono_f, mono_g = _mono_content(f), _mono_content(g)
    dg = dict(_fields(mono_g))
    common_mono = sum(min(e, dg[i]) << (_W * i) for i, e in _fields(mono_f) if i in dg)
    f = _divide_by_mono(f, mono_f)
    g = _divide_by_mono(g, mono_g)
    shared = DiffPoly._of({common_mono: 1})
    if f.is_constant() or g.is_constant():
        return _normalize_leading(shared)
    sf, sg = _support(f.nums), _support(g.nums)
    if sf < sg:
        f, g, sf, sg = g, f, sg, sf
    if sf - sg:  # a jet that only f has: g goes first, and no PRS sees the jet
        i_var = max(sf - sg, key=_JETS.__getitem__)
        rest = _content_of([g, *f.as_univariate(_JETS[i_var]).values()])
        return _normalize_leading(shared * rest)
    i_var = max(sf, key=_JETS.__getitem__)
    fu, gu = f.as_univariate(_JETS[i_var]), g.as_univariate(_JETS[i_var])
    cont_f, cont_g = _content_of(fu.values()), _content_of(gu.values())
    shared = shared * poly_gcd(cont_f, cont_g)
    if not _coprime_image(f, g, i_var, max(fu), max(gu)):
        last = _subresultant_last({e: _poly_divexact(c, cont_f) for e, c in fu.items()},
                                  {e: _poly_divexact(c, cont_g) for e, c in gu.items()},
                                  _poly_divexact)
        if max(last) > 0:
            content, s = _content_of(last.values()), _W * i_var
            shared = shared * sum((_scale(_poly_divexact(c, content), 1, 1, e << s)
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


def _clearing_monomial(polys: Iterable[DiffPoly]) -> Monomial:
    """The least monomial whose product with each of these Laurent polynomials
    is a polynomial: minus the most negative exponent of every jet."""
    low: Dict[int, int] = {}  # field -> its most negative exponent
    for poly in polys:
        if not _small(poly.nums):
            for m in poly.nums:
                for i, e in _fields(m):
                    if e < low.get(i, 0):
                        low[i] = e
    return sum(-e << (_W * i) for i, e in low.items())


class RatFun(Tower):
    """Quotient of differential polynomials, gcd-reduced with monic denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=1):
        num = DiffPoly.coerce(num)
        den = DiffPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFun denominator is zero")
        # clear Laurent exponents so gcd reduction runs on true polynomials
        shift = _clearing_monomial((num, den))
        if shift:
            shift = DiffPoly._of({shift: 1})
            num = num * shift
            den = den * shift
        if not (num.is_constant() or den.is_constant()):
            g = poly_gcd(num, den)
            if not g.is_one():
                num = _poly_divexact(num, g)
                den = _poly_divexact(den, g)
        self._normalize(num, den)

    def _normalize(self, num: DiffPoly, den: DiffPoly) -> "RatFun":
        """Store coprime num/den as 0/1, over 1, or over a monic denominator."""
        if num.is_zero():
            self.num, self.den = DiffPoly(), _ONE
        elif den.is_one():
            self.num, self.den = num, _ONE
        elif den.is_constant():
            self.num, self.den = _scale(num, den.den, den.nums[_ONE_MONO]), _ONE
        else:
            # den = N/d with leading numerator n: num * d/n over N/n
            n = den.nums[max(den.nums, key=exponents)]
            self.num, self.den = _scale(num, den.den, n), _from_numerators(den.nums, n)
        self._hash = None
        return self

    @staticmethod
    def _reduced(num: DiffPoly, den: DiffPoly) -> "RatFun":
        """Fast path for num, den already coprime polynomials."""
        return RatFun.__new__(RatFun)._normalize(num, den)

    @staticmethod
    def _of_laurent(p: DiffPoly) -> "RatFun":
        """RatFun(p) for a Laurent polynomial p, with no gcd: p times the
        monomial that clears its negative exponents has a term free of each
        jet in that monomial, so the two are coprime."""
        shift = _clearing_monomial((p,))
        if not shift:
            return RatFun._reduced(p, _ONE)
        shift = DiffPoly._of({shift: 1})
        return RatFun._reduced(p * shift, shift)

    _below, _up = DiffPoly, _of_laurent

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not constant")
        return self.num.constant_value()

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
        if self.den.is_one() and other.den.is_one():
            return RatFun._reduced(self.num + other.num, _ONE)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
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
        if self.den.is_one() and other.den.is_one():
            return RatFun._reduced(self.num * other.num, _ONE)
        if self.num.is_zero() or other.num.is_zero():
            return RatFun(0)
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
            # over 1 it equals its numerator, so it hashes as that
            self._hash = (hash(self.num) if self.den.is_one()
                          else hash((self.num, self.den)))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        from .grammar import format_ratfun
        return f"RatFun({format_ratfun(self)})"

    # -- differential structure -------------------------------------------------

    def _quotient_rule(self, dnum: DiffPoly, dden: DiffPoly) -> "RatFun":
        """(n/d)' = (n'd - nd')/d^2 with component-level cancellation."""
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

    def total_derivative(self) -> "RatFun":
        if self.den.is_one():
            return RatFun._reduced(self.num.total_derivative(), _ONE)
        return self._quotient_rule(self.num.total_derivative(),
                                   self.den.total_derivative())

    def partial(self, name: str, order: int) -> "RatFun":
        if self.den.is_one():
            return RatFun._reduced(self.num.partial(name, order), _ONE)
        return self._quotient_rule(self.num.partial(name, order),
                                   self.den.partial(name, order))

    def top_order(self, name: Optional[str] = None) -> Optional[int]:
        orders = [o for o in (self.num.top_order(name), self.den.top_order(name))
                  if o is not None]
        return max(orders) if orders else None


def _laurent(f) -> Optional[DiffPoly]:
    """f as a Laurent polynomial, the inverse of ``RatFun._of_laurent``: a
    DiffPoly as it is, a RatFun over one monomial (its monic denominator has
    one term, 1 included) as its numerator shifted down by that monomial, and
    None for any other denominator."""
    if isinstance(f, DiffPoly):
        return f
    return _divide_by_mono(f.num, *f.den.nums) if len(f.den.nums) == 1 else None


# -- the RatFun tower -----------------------------------------------------------


def derivatives(f, n: int) -> list:
    """The tower [f, f', ..., f^(n)]: each total derivative is taken once."""
    tower = [f]
    for _ in range(n):
        tower.append(tower[-1].total_derivative())
    return tower


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    total = out[key] + value if key in out else value
    if total:
        out[key] = total
    else:
        out.pop(key, None)
