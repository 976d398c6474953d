"""The algebra 𝒱 of differential functions: exact arithmetic for
differential polynomials in jet variables.

A jet variable is a pair (order, name) standing for the order-th derivative of a
differential indeterminate; ``u`` is the main one, while capital letters such as
``F`` and ``G`` serve as formal placeholders in "for all F" identities.  DiffPoly
is a Laurent polynomial over Q in finitely many jet variables, stored sparsely in
a canonical form, so equality is an exact dictionary comparison.  It is the
lowest floor of the operand tower (``tower``) above the rationals: it lifts
them, and an operand from above returns NotImplemented, so that the higher
class answers.  The field of fractions 𝒦 (``RatFun`` and the gcd under it)
is the next floor, in ``ratfun``.

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
D(N/den) = D(N)/den, a derivative keeps its polynomial's den.
``_derivative`` has two decodes: on a polynomial (``_small``: every exponent
in [0, 2**13)) it peels each monomial's fields from the top, the highest set
bit marking the top field, with no sign fix-up and no range check; on any
other dict (a Laurent polynomial, a wider exponent) it peels signed digits
from the bottom, as ``_fields`` does, and ``_check``s the result.  ``_tower``
streams d^k N and is the only integer derivative tower; ``_add_tower`` adds
sum_k c_k d^k N on it for ``DiffOp.apply`` and the evolutionary fields of
``calculus``, whose ``brackets`` share one stream.  The Q-linear kernels
(echelon forms, linear bases) live in ``linalg``.

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


# A field's lowest bit -> unit(next jet) - unit(jet): adding it to a monomial
# trades one power of a jet for one of its derivative.  A plain dict, so the
# lookup in ``_derivative``'s loop is specialised; ``_new_shift`` fills a
# missing entry from that loop's KeyError handler.
_SHIFT: Dict[int, int] = {}


def _new_shift(s: int) -> int:
    order, name = _JETS[s >> _LOG_W]
    shift = _SHIFT[s] = (1 << (_W * _field((order + 1, name)))) - (1 << s)
    return shift


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
    if _small(terms):
        # every digit is >= 0: the top field holds the highest set bit
        for m, n in terms.items():
            rest = m
            while rest:
                s = (rest.bit_length() - 1) & -_W
                e = rest >> s
                rest ^= e << s
                try:
                    key = m + shift[s]
                except KeyError:
                    key = m + _new_shift(s)
                acc[key] = get(key, 0) + n * e
        return acc
    for m, n in terms.items():
        rest = m
        while rest:  # _fields, inlined: signed digits come off from the bottom
            s = ((rest & -rest).bit_length() - 1) & -_W
            e = (rest >> s) & _MASK
            if e & _HALF:
                e -= 1 << _W
            rest -= e << s
            try:
                key = m + shift[s]
            except KeyError:
                key = m + _new_shift(s)
            acc[key] = get(key, 0) + n * e
    _check(acc)
    return acc


def _tower(n: Numerators, top: int) -> Iterator[Tuple[int, Numerators]]:
    """(k, d^k N) for k = 0..top, streamed: each level replaces the last, sums
    that cancel leave it, and the stream ends once a level vanishes.  Kept
    towers of a large chain would raise peak RSS; what ``calculus.brackets``
    holds instead is each half-bracket, until its second member streams."""
    for k in range(top + 1):
        if k:
            n = _derivative(n)
            if 0 in n.values():
                n = {m: c for m, c in n.items() if c}
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
                  b: Dict[Monomial, int], factor: int = 1,
                  small: Optional[bool] = None) -> None:
    """acc += factor * a * b, on integer numerators.

    acc is range checked unless a and b are both ``_small``.  A caller that
    meets one tower level with several partners passes that verdict as small,
    so each level and each partner is scanned once, not once per product.
    """
    get = acc.get
    for m1, n1 in a.items():
        n1 *= factor
        for m2, n2 in b.items():
            m = m1 + m2
            acc[m] = get(m, 0) + n1 * n2
    if not (_small(a) and _small(b) if small is None else small):
        _check(acc)


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


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    total = out[key] + value if key in out else value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


# The field of fractions lives in ``ratfun``.  The benchmark's tracer keys
# its rational layer metrics as ``jets.poly_gcd`` and ``jets.RatFun.*``, so
# these two stay bound here as the very same objects: a call through either
# module counts once.  ``ratfun``'s own ``from .jets import`` runs here, after
# the whole core above is built.
from .ratfun import RatFun, poly_gcd

__all__ = ["EXPONENT_LIMIT", "DiffPoly", "JetKey", "Monomial", "Numerators",
           "accumulate", "exponents", "jet", "monomial", "RatFun", "poly_gcd"]
