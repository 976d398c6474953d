"""Bidifferential operators M(F, G) = sum M_kl F^(k) G^(l).

Entries are indexed by (k, l): k differentiates the first slot, l the second.
Freezing the first slot at a function F yields the differential operator
M_F = sum M_kl F^(k) D^l, and left division by a differential operator runs
on the second-slot degree exactly as in the uniqueness statement M = B*P + N
with d1(N) < deg B.

No Leibniz expansion is written out here.  M(F, G) = sum_k F^(k) R_k(G) for
the row operators R_k = sum_l M_kl D^l, and the rows of the transpose are
the column operators C_l = sum_k M_kl D^k, so every operation is a
``DiffOp`` product or application on rows or columns.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Optional, Tuple

from .jets import DiffPoly, RatFun, accumulate
from .operators import DiffOp, frechet
from .tower import Tower


class BiDiffOp(Tower):
    """Sparse grid of RatFun entries; the zero operator has no entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[Dict[Tuple[int, int], RatFun]] = None):
        self.entries: Dict[Tuple[int, int], RatFun] = {}
        if entries:
            for kl, c in entries.items():
                c = RatFun.coerce(c)
                if not c.is_zero():
                    self.entries[kl] = c

    @staticmethod
    def zero() -> "BiDiffOp":
        return BiDiffOp()

    def is_zero(self) -> bool:
        return not self.entries

    def d1(self) -> Optional[int]:
        """Largest second-slot power: the operator degree of M_F for generic F."""
        return max((l for _, l in self.entries), default=None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __add__(self, other: "BiDiffOp") -> "BiDiffOp":
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        entries = dict(self.entries)
        for kl, c in other.entries.items():
            accumulate(entries, kl, c)
        return BiDiffOp(entries)

    def __neg__(self) -> "BiDiffOp":
        return BiDiffOp({kl: -c for kl, c in self.entries.items()})

    def __repr__(self) -> str:
        from .grammar import format_ratfun
        if not self.entries:
            return "BiDiffOp(0)"
        body = ", ".join(f"{kl}: {format_ratfun(c)}"
                         for kl, c in sorted(self.entries.items()))
        return f"BiDiffOp({{{body}}})"


def _rows(m: BiDiffOp) -> Dict[int, DiffOp]:
    """The row operators R_k = sum_l M_kl D^l, so M(F, G) = sum_k F^(k) R_k(G)."""
    rows: Dict[int, Dict[int, RatFun]] = {}
    for (k, l), c in m.entries.items():
        rows.setdefault(k, {})[l] = c
    return {k: DiffOp(row) for k, row in rows.items()}


def bi_apply(m: BiDiffOp, f, g):
    """M(F, G) = sum M_kl F^(k) G^(l) = M_F(G)."""
    return slot_first(m, f).apply(RatFun.coerce(g))


def slot_first(m: BiDiffOp, f) -> DiffOp:
    """M_F = sum M_kl F^(k) D^l: each column operator C_l applied to F."""
    return DiffOp({l: col.apply(f) for l, col in _rows(transpose(m)).items()})


def compose_left(b: DiffOp, m: BiDiffOp) -> BiDiffOp:
    """(BM)(F, G) = B(M(F, G)).

    D^j (F^(k) R_k(G)) = sum_i C(j, i) F^(k+i) D^(j-i) R_k(G), so row k + i of
    BM gains B_i * R_k, with B_i = sum_j C(j, i) b_j D^(j-i).
    """
    parts = [DiffOp({j - i: c * comb(j, i) for j, c in b.coeffs.items() if j >= i})
             for i in range(max(b.coeffs, default=0) + 1)]
    entries: Dict[Tuple[int, int], RatFun] = {}
    for k, row in _rows(m).items():
        for i, b_i in enumerate(parts):
            for l, c in (b_i * row).coeffs.items():
                accumulate(entries, (k + i, l), c)
    return BiDiffOp(entries)


def compose_right(m: BiDiffOp, b: DiffOp) -> BiDiffOp:
    """(MB)(F, G) = M(F, B(G)): each row becomes R_k * B."""
    return BiDiffOp({(k, l): c for k, row in _rows(m).items()
                     for l, c in (row * b).coeffs.items()})


def transpose(m: BiDiffOp) -> BiDiffOp:
    """M^T(F, G) = M(G, F): the two slots swap."""
    return BiDiffOp({(l, k): c for (k, l), c in m.entries.items()})


def left_divide_bidiff(m: BiDiffOp, b: DiffOp) -> Tuple[BiDiffOp, BiDiffOp]:
    """Unique (P, N) with M = B*P + N and d1(N) < deg B."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero operator")
    deg_b = b.degree()
    lc = b.leading_coefficient()
    quotient = BiDiffOp.zero()
    rest = m
    while not rest.is_zero() and rest.d1() >= deg_b:
        col = rest.d1()
        piece = BiDiffOp({(k, col - deg_b): c / lc
                          for (k, l), c in rest.entries.items() if l == col})
        quotient = quotient + piece
        rest = rest - compose_left(b, piece)
    return quotient, rest


def is_skewsymmetric(m: BiDiffOp) -> bool:
    """True iff M(F, G) + M(G, F) vanishes identically in fresh indeterminates."""
    f_name, g_name = _fresh_names(m)
    f = DiffPoly.jet(f_name, 0)
    g = DiffPoly.jet(g_name, 0)
    return (bi_apply(m, f, g) + bi_apply(m, g, f)).is_zero()


def _fresh_names(m: BiDiffOp) -> Tuple[str, str]:
    used = set()
    for c in m.entries.values():
        used.update(c.num.indets())
        used.update(c.den.indets())
    candidates = [n for n in "FGHKLMNPQRSTW" if n not in used]
    return candidates[0], candidates[1]


def frechet_of_op(a: DiffOp, name: str = "u") -> BiDiffOp:
    """The Frechet derivative of an operator: row k is the Frechet derivative
    of a_k, so the entries are (k, l) -> da_k/du^(l)."""
    return BiDiffOp({(k, l): p for k, c in a.coeffs.items()
                     for l, p in frechet(c, name).coeffs.items()})
