"""One operand rule for the tower of the package's values.

The rationals (int and Fraction) sit inside the differential polynomials
(DiffPoly), those inside their fraction field (RatFun), that inside the
operators over it (DiffOp), and those inside the weakly non-local operators
(NonlocalOp).  Each class of the tower names the class one step below it,
``_below``, and builds itself from a value of that class, ``_up``.  The
shared ``_lift`` then moves a value up one step at a time, and returns None
for anything outside the tower below the class: the arithmetic method then
returns NotImplemented, so Python tries the other operand's reflected method
or raises its standard TypeError.  At the bottom ``_below`` is a tuple of
Python number types.  A bidifferential operator is no class of its own: it
is held as a DiffOp over the formal slot (``bidiff``).

On this rule the operations that only lift and delegate are written once:
the reflected sum (every class adds commutatively), the difference as a sum
with the negation, and the reflected difference and product, which lift the
left operand and run the class's own method.  A class keeps its own where the
rule differs: DiffPoly's one-pass subtraction and commutative product,
DiffOp's product by a function, which scales the coefficients.  ``power`` is
the one repeated-squaring routine.
"""

from __future__ import annotations

from operator import mul


class Tower:
    """A class of the tower; see the module docstring."""

    __slots__ = ()

    @classmethod
    def _lift(cls, value):
        """value as a cls, or None when it is outside the tower below cls."""
        if isinstance(value, cls):
            return value
        below = cls._below
        if isinstance(below, tuple):
            return cls._up(value) if isinstance(value, below) else None
        value = below._lift(value)
        return None if value is None else cls._up(value)

    @classmethod
    def coerce(cls, value):
        """value as a cls; TypeError when it is outside the tower below cls."""
        out = cls._lift(value)
        if out is None:
            raise TypeError(f"cannot coerce {type(value).__name__} to {cls.__name__}")
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other - self

    def __rmul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other * self


def power(base, n: int, product=mul):
    """base^n for n >= 1 by repeated squaring.

    From the lowest bit of n up: result * base where the bit is set, then
    base * base while bits remain.  The first factor is taken as it is, not
    multiplied into a one; ``grammar._check_power`` runs this sequence on the
    exponents to bound its work.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else product(result, base)
        n >>= 1
        if not n:
            return result
        base = product(base, base)
