"""Q-linear reduction: the integer echelon kernel and linear bases of functions.

``_rref`` eliminates on primitive integer rows (fraction-free), so
``constant_linear_basis`` builds each coordinate Fraction once, from its
final numerator and pivot entry, and each basis polynomial directly from its
integer row.  ``calculus.basis_mod_total_derivatives`` reduces on the same
kernel, and ``nonlocal_ops`` gathers tensors on these bases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .jets import _ONE, _W, DiffPoly, _fields, _scale, exponents
from .ratfun import RatFun, _poly_divexact, poly_lcm


def _primitive(row: dict, pivot) -> dict:
    """row divided by the gcd of its entries, with a positive pivot entry."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(row: dict, reduced: dict) -> dict:
    """A nonzero integer multiple of row with every pivot of reduced cleared,
    zero entries dropped; reduced maps each pivot to a row that is 0 at the
    other pivots, so clearing one pivot never brings in another.  All the
    pivots present go in one pass, scaled by the lcm that makes each
    multiplier an integer."""
    hits = [p for p in row if p in reduced]
    if not hits:
        return row
    scale = 1
    for p in hits:
        v = reduced[p][p]
        scale = lcm(scale, v // gcd(v, row[p]))
    acc = {k: scale * v for k, v in row.items()}
    for p in hits:
        factor = scale * row[p] // reduced[p][p]
        for k, v in reduced[p].items():
            acc[k] = acc.get(k, 0) - factor * v
    return {k: v for k, v in acc.items() if v}


def _rref(rows: Iterable[Dict[object, int]], key=None) -> List[Tuple[object, dict]]:
    """Reduced row echelon form of sparse rows of nonzero integers, fraction-free.

    Each row pivots on its largest column (ordered by key), and only nonzero
    entries are touched.  Every kept row is primitive: coprime integers with
    a positive pivot entry, so row / row[pivot] is the reduced row over Q.  A
    new row has the kept pivots cleared (``_eliminate``) and is divided by
    its content; then its pivot is cleared from each kept row the same way
    (fraction-free elimination, after Bareiss 1968, with the content taken
    out at each step so that the integers stay small).  Returns the
    (pivot, row) pairs sorted by pivot, descending; the reduced form is
    unique for the column order, so it depends only on the span, and scaling
    an input row changes nothing.
    """
    reduced: Dict = {}  # pivot -> primitive row, 0 at every other pivot
    for row in rows:
        row = _eliminate(row, reduced)
        if not row:
            continue
        p = max(row, key=key)
        row = _primitive(row, p)
        for q, other in list(reduced.items()):
            if p in other:
                reduced[q] = _primitive(_eliminate(other, {p: row}), q)
        reduced[p] = row
    return [(p, reduced[p]) for p in sorted(reduced, key=key, reverse=True)]


def _over_common_den(fs: Sequence) -> Tuple[List[DiffPoly], DiffPoly]:
    """(nums, den) with fs[i] = nums[i] / den, where den is the monic lcm of
    the denominators of the DiffPoly or RatFun inputs.

    With no nonconstant denominator, den is 1 and a Laurent DiffPoly stays a
    vector of Laurent monomials.  Otherwise every input is a RatFun first,
    with its Laurent exponents cleared into its denominator: the monomial
    order is not multiplicative on Laurent monomials, so the pivots depend
    on that choice.  When every denominator is a monic monomial, their lcm
    is the per-jet maximum of the exponents, and each cofactor a shift: no
    gcd is taken.
    """
    if not any(isinstance(f, RatFun) and not f.den.is_one() for f in fs):
        return [f.num if isinstance(f, RatFun) else DiffPoly.coerce(f)
                for f in fs], _ONE
    rats = [RatFun.coerce(f) for f in fs]
    dens = dict.fromkeys(r.den for r in rats if not r.den.is_one())
    if any(len(d.nums) > 1 for d in dens):
        den = reduce(poly_lcm, dens)
        return [r.num if r.den == den else r.num * _poly_divexact(den, r.den)
                for r in rats], den
    top: Dict[int, int] = {}
    for d in dens:
        for i, e in _fields(*d.nums):
            top[i] = max(top.get(i, 0), e)
    lcm_mono = sum(e << (_W * i) for i, e in top.items())
    return ([_scale(r.num, 1, 1, lcm_mono - next(iter(r.den.nums))) for r in rats],
            DiffPoly._of({lcm_mono: 1}))


def constant_linear_basis(fs: Sequence):
    """Q-linear reduction of functions viewed as vectors in the monomial basis.

    Accepts DiffPoly or RatFun inputs.  Returns (basis, coords) with each
    input equal to sum(coords[i][j] * basis[j]); the basis is the canonical
    reduced echelon basis of the span, so it only depends on the span itself.
    Rational inputs are reduced as their numerators over one common
    denominator, and the basis is returned over it.
    """
    basis, pivots, nums = _echelon_basis(list(fs))
    return basis, [[Fraction(n.get(p, 0), d) for p in pivots] for n, d in nums]


def _echelon_basis(fs: Sequence) -> Tuple[list, list, List[Tuple[Dict, int]]]:
    """(basis, pivots, nums): ``constant_linear_basis`` with the coordinates
    left on integers.  nums[i] = (N, d) puts input i over the common
    denominator as N/d, and its coordinate j is N[pivots[j]]/d."""
    polys, den = _over_common_den(fs)
    nums = [(p.nums, p.den) for p in polys]
    rows = _rref((n for n, _ in nums), key=exponents)
    # row_j / v_j (v_j its pivot entry) is 1 at its own pivot and 0 at the
    # others, so input N/d has the coordinates N[pivot_j]/d; expanding them
    # back must give the input exactly, so clearing the pivots from N on
    # integers must leave nothing
    pivots = dict(rows)
    for n, _ in nums:
        if _eliminate(n, pivots):
            raise AssertionError("input escaped its own span")
    # a kept row is primitive with a positive pivot entry: canonical over it
    basis = [DiffPoly._of(row, row[p]) for p, row in rows]
    if not den.is_one():
        basis = [RatFun(b, den) for b in basis]
    return basis, [p for p, _ in rows], nums

